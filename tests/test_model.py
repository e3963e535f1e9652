import math

import numpy as np
import pytest

import solvbie as sv
from solvbie.errors import DomainError, EmptyInputError, ParseError


def test_eps_hat_value():
    eps = sv.DielectricPair(1.0, 80.0)
    assert eps.eps_hat == pytest.approx((1 - 80) / (0.5 * 81), rel=1e-15)


@pytest.mark.parametrize("e", [0.5, 1.0, 4.0, 80.0, 1000.0])
def test_eps_hat_zero_for_equal(e):
    assert sv.DielectricPair(e, e).eps_hat == 0.0


@pytest.mark.parametrize("e1,e2", [(1.0, 80.0), (4.0, 80.0), (2.0, 3.0), (97.0, 0.5)])
def test_eps_hat_antisymmetric_and_bounded(e1, e2):
    a = sv.DielectricPair(e1, e2).eps_hat
    b = sv.DielectricPair(e2, e1).eps_hat
    assert a == pytest.approx(-b, rel=1e-15)
    assert -2.0 < a < 2.0


def test_dielectrics_must_be_positive():
    with pytest.raises(DomainError):
        sv.DielectricPair(0.0, 80.0)
    with pytest.raises(DomainError):
        sv.DielectricPair(1.0, -4.0)


def test_empty_distribution_rejected():
    with pytest.raises(EmptyInputError):
        sv.make_distribution(np.empty((0, 3)), [])


def test_nonfinite_charge_rejected():
    with pytest.raises(DomainError):
        sv.make_distribution([[0.0, 0.0, float("nan")]], [1.0])
    with pytest.raises(DomainError):
        sv.make_distribution([[0.0, 0.0, 0.0]], [float("inf")])
    pos = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, float("nan"), 0.0]]
    with pytest.raises(DomainError, match="^non-finite charge 1:"):
        sv.make_distribution(pos, [1.0, float("-inf"), 1.0])


def test_length_mismatch_rejected():
    with pytest.raises(DomainError, match="2 positions but 1 magnitudes"):
        sv.make_distribution([[0, 0, 0], [1, 0, 0]], [1.0])


def test_distribution_arrays_read_only():
    pos, q = np.zeros((2, 3)), np.array([1.0, -1.0])
    d = sv.make_distribution(pos, q)
    assert d.positions.shape == (2, 3) and d.magnitudes.shape == (2,)
    for arr in (d.positions, d.magnitudes):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    pos[0, 0] = q[0] = 9.0  # the caller's arrays stay theirs
    assert d.positions[0, 0] == 0.0 and d.magnitudes[0] == 1.0


@pytest.mark.parametrize("eps", [float("inf"), 1e-320])
def test_dielectrics_must_be_finite_and_normal(eps):
    with pytest.raises(DomainError, match="eps_in"):
        sv.DielectricPair(eps, 80.0)
    with pytest.raises(DomainError, match="eps_out"):
        sv.DielectricPair(4.0, eps)


@pytest.mark.parametrize("e1,e2", [(1e308, 1e-300), (1e-300, 1e308)])
def test_dielectric_ratio_must_be_finite(e1, e2):
    with pytest.raises(DomainError, match="eps_in/eps_out"):
        sv.DielectricPair(e1, e2)


@pytest.mark.parametrize("e1,e2", [(1.0, 80.0), (4.0, 80.0), (97.0, 0.5), (2.0, 2.0),
                                   (1e308, 1.0), (1.0, 1e308), (1e-300, 1e-300)])
def test_scaled_pair_is_exact(e1, e2):
    eps = sv.DielectricPair(e1, e2)
    s1, s2, s = eps.scaled()
    assert math.frexp(s)[0] == 0.5  # a power of two
    assert max(s1, s2) >= 1.0 and 0.0 < min(s1, s2) and max(s1, s2) < 2.0
    assert (s1 * s, s2 * s) == (e1, e2)
    if max(e1, e2) < 1e150:  # the unscaled form does not overflow here
        assert eps.eps_hat == (e1 - e2) / (0.5 * (e1 + e2))
    assert math.isfinite(eps.eps_hat) and -2.0 <= eps.eps_hat <= 2.0


def test_load_pqr_single_line(tmp_path):
    p = tmp_path / "one.pqr"
    p.write_text("ATOM 1 N X 1 0.0 0.0 0.0 -0.30 1.85\n")
    d = sv.load_pqr(p)
    assert len(d) == 1
    assert d.positions[0].tolist() == [0.0, 0.0, 0.0]
    assert d.magnitudes[0] == -0.30
    assert d.metadata["pqr_radii"] == [1.85]


def test_load_pqr_with_chain_field(tmp_path):
    p = tmp_path / "chain.pqr"
    p.write_text(
        "REMARK generated\n"
        "ATOM      1  N   ALA A   1      11.104   6.134  -6.504  -0.3000 1.8500\n"
        "HETATM    2  O   HOH B   2       1.000   2.000   3.000   0.4170 1.4000\n"
        "TER\nEND\n"
    )
    d = sv.load_pqr(p)
    assert len(d) == 2
    assert d.positions[0].tolist() == [11.104, 6.134, -6.504]
    assert d.magnitudes[1] == 0.417


def test_load_pqr_empty_file(tmp_path):
    p = tmp_path / "empty.pqr"
    p.write_text("")
    with pytest.raises(EmptyInputError):
        sv.load_pqr(p)


def test_load_pqr_bad_charge_field(tmp_path):
    p = tmp_path / "bad.pqr"
    p.write_text("ATOM 1 N X 1 0.0 0.0 0.0 oops 1.85\n")
    with pytest.raises(ParseError, match=":1:"):
        sv.load_pqr(p)


def test_load_pqr_roundtrip_precision(tmp_path):
    rng = np.random.default_rng(7)
    pos = rng.uniform(-20, 20, (10, 3))
    q = rng.uniform(-1, 1, 10)
    lines = [
        f"ATOM {i+1} C RES 1 {p[0]:.12g} {p[1]:.12g} {p[2]:.12g} {qi:.12g} 1.5"
        for i, (p, qi) in enumerate(zip(pos, q))
    ]
    p = tmp_path / "rt.pqr"
    p.write_text("\n".join(lines) + "\n")
    d = sv.load_pqr(p)
    np.testing.assert_allclose(d.positions, pos, rtol=1e-11)
    np.testing.assert_allclose(d.magnitudes, q, rtol=1e-11)


def test_energy_result_validation():
    with pytest.raises(DomainError):
        sv.EnergyResult(value=float("nan"), method="Kirkwood")
    with pytest.raises(DomainError):
        sv.EnergyResult(value=1.0, method="Kirkwood", truncation_error_estimate=-1.0)


def test_sphere_model_validation():
    eps = sv.DielectricPair(1.0, 80.0)
    with pytest.raises(DomainError):
        sv.SphereModel(-1.0, eps)
    with pytest.raises(DomainError):
        sv.SphereModel(5.0, eps, n_max=-1)
