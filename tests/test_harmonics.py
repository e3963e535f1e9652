import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import solvbie as sv
from conftest import chunk_of, eval_interior_potential, rotate_about_z
from solvbie.errors import DomainError
from solvbie.harmonics import KIND_REACTION, MultipoleCoefficients, eval_interior_potential_many


def rodrigues_pnm(n, m, x):
    """Independent oracle: P_n^m via the Rodrigues formula, no CS phase."""
    poly = np.array([1.0])
    for _ in range(n):
        poly = P.polymul(poly, np.array([-1.0, 0.0, 1.0]))  # (x^2 - 1)^n
    d = P.polyder(poly, n + m)
    val = P.polyval(x, d) / (2 ** n * math.factorial(n))
    return (1 - x * x) ** (m / 2) * val


def seminormalization(n, m):
    """sqrt((2 - delta_m0) (n-m)!/(n+m)!), the weight of P_n^m in the solid harmonics."""
    return math.sqrt((1 if m == 0 else 2) * math.factorial(n - m) / math.factorial(n + m))


def naive_source_moments(dist, n_max):
    """Direct-summation oracle over the defining formula, M_nm for 0 <= m <= n."""
    coeffs = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for (x, y, z), q in zip(dist.positions.tolist(), dist.magnitudes.tolist()):
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            coeffs[0, 0] += q
            continue
        ct = z / r
        phi = math.atan2(y, x)
        for n in range(n_max + 1):
            for m in range(n + 1):
                coeffs[n, m] += (
                    q * r ** n * seminormalization(n, m) * rodrigues_pnm(n, m, ct)
                    * np.exp(1j * m * phi)
                )
    return coeffs


def test_charge_at_origin_only_e00():
    d = sv.make_distribution([[0, 0, 0]], [0.7])
    e = sv.source_moments(d, 8)
    assert e.get(0, 0) == pytest.approx(0.7)
    coeffs = e.coeffs.copy()
    coeffs[0, 0] = 0.0
    assert np.max(np.abs(coeffs)) == 0.0


def test_source_moments_reject_a_sequence():
    d = sv.make_distribution([[0, 0, 1.0]], [1.0])
    with pytest.raises(DomainError, match="one charge set"):
        sv.source_moments([d, d], 3)


def test_coefficients_copy_the_callers_array():
    given = np.zeros((3, 3))
    given[1, 1] = 2.0
    b = MultipoleCoefficients(n_max=2, coeffs=given, kind=KIND_REACTION)
    assert given.flags.writeable
    given[1, 1] = 5.0
    assert b.coeffs.dtype == complex and not b.coeffs.flags.writeable
    assert b.get(1, 1) == 2.0 and b.get(1, -1) == 2.0


def test_on_axis_charge_excites_only_m0():
    d = sv.make_distribution([[0, 0, 1.0]], [1.0])
    e = sv.source_moments(d, 10)
    for n in range(11):
        assert e.get(n, 0) == pytest.approx(1.0, rel=1e-14)
        for m in range(1, n + 1):
            assert abs(e.get(n, m)) < 1e-15
            assert abs(e.get(n, -m)) < 1e-15


def test_axial_dipole_moments():
    d = sv.make_distribution([[0, 0, 1.0], [0, 0, -1.0]], [1.0, -1.0])
    e = sv.source_moments(d, 4)
    assert abs(e.get(0, 0)) < 1e-15
    assert e.get(1, 0) == pytest.approx(2.0, rel=1e-14)
    assert abs(e.get(2, 0)) < 1e-14


def test_moments_match_naive_oracle():
    rng = np.random.default_rng(11)
    pos = rng.uniform(-2, 2, (6, 3))
    q = rng.uniform(-1, 1, 6)
    d = sv.make_distribution(pos, q)
    e = sv.source_moments(d, 8)
    expected = naive_source_moments(d, 8)
    assert np.max(np.abs(e.coeffs - expected)) < 1e-10 * np.max(np.abs(expected))


def test_moments_linear_in_charges():
    rng = np.random.default_rng(3)
    pos = rng.uniform(-2, 2, (8, 3))
    q1 = rng.uniform(-1, 1, 8)
    q2 = rng.uniform(-1, 1, 8)
    ea = sv.source_moments(sv.make_distribution(pos, q1), 10)
    eb = sv.source_moments(sv.make_distribution(pos, q2), 10)
    eab = sv.source_moments(sv.make_distribution(pos, q1 + q2), 10)
    scale = np.max(np.abs(eab.coeffs))
    assert np.max(np.abs(ea.coeffs + eb.coeffs - eab.coeffs)) < 1e-12 * scale


def test_rotational_covariance_about_z():
    rng = np.random.default_rng(5)
    pos = rng.uniform(-2, 2, (7, 3))
    q = rng.uniform(-1, 1, 7)
    d = sv.make_distribution(pos, q)
    phi0 = 0.8137
    e0 = sv.source_moments(d, 8)
    e1 = sv.source_moments(rotate_about_z(d, phi0), 8)
    for n in range(9):
        for m in range(-n, n + 1):
            expected = e0.get(n, m) * np.exp(1j * m * phi0)
            assert e1.get(n, m) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_conjugate_symmetry_for_real_charges():
    rng = np.random.default_rng(9)
    d = sv.make_distribution(rng.uniform(-2, 2, (5, 3)), rng.uniform(-1, 1, 5))
    e = sv.source_moments(d, 6)
    for n in range(7):
        for m in range(1, n + 1):
            assert e.get(n, -m) == pytest.approx(np.conj(e.get(n, m)), rel=1e-13)


def _reaction_mode(n_max, n, m, value):
    """Reaction coefficients with B(n, m) = value alone: one real mode."""
    coeffs = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    coeffs[n, m] = value
    return MultipoleCoefficients(n_max=n_max, coeffs=coeffs, kind=KIND_REACTION)


def test_no_condon_shortley_phase():
    # psi = Re R_1^1 = r P_1^1(0) cos 0 = +1 at (1, 0, 0) without the CS phase.
    b = _reaction_mode(1, 1, 1, 1.0)
    assert eval_interior_potential(b, [1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-15)


def test_recurrence_matches_rodrigues_grid():
    # A single mode B(n, m) = c gives r^n P_n^m(cos theta) sqrt((2 - delta_m0)
    # (n-m)!/(n+m)!) times cos(m phi) for c = 1 and sin(m phi) for c = i,
    # on a grid with both poles (cos theta = +-1) and the origin.
    cos_theta = np.linspace(-1.0, 1.0, 41)
    phi = np.array([0.0, 0.7, 2.9, -1.3])
    r = np.array([0.6, 1.7])
    ct, ph, rr = (a.ravel() for a in np.meshgrid(cos_theta, phi, r, indexing="ij"))
    st = np.sqrt(1.0 - ct * ct)
    points = np.column_stack([rr * st * np.cos(ph), rr * st * np.sin(ph), rr * ct])
    points = np.vstack([points, [0.0, 0.0, 0.0]])
    ct, ph, rr = np.append(ct, 1.0), np.append(ph, 0.0), np.append(rr, 0.0)
    for n in range(13):
        for m in range(n + 1):
            weight = seminormalization(n, m)
            radial = rr ** n * weight * rodrigues_pnm(n, m, ct)
            for c, angular in ((1.0, np.cos(m * ph)), (1j, np.sin(m * ph))):
                if m == 0 and c == 1j:
                    continue
                got = eval_interior_potential_many(_reaction_mode(12, n, m, c), points)
                scale = np.max(rr) ** n * weight * np.max(np.abs(rodrigues_pnm(n, m, cos_theta)))
                assert np.max(np.abs(got - radial * angular)) <= 1e-12 * scale, (n, m, c)


def test_potential_rejects_non_finite_point():
    b = _reaction_mode(4, 2, 1, 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="non-finite potential evaluation point"):
            eval_interior_potential_many(b, [[0.0, 0.0, 0.5], [bad, 0.0, 0.0]])


def test_no_points_give_an_empty_potential():
    psi = eval_interior_potential_many(_reaction_mode(4, 2, 1, 1.0), np.zeros((0, 3)))
    assert psi.shape == (0,)


def test_sectoral_mode_160_is_finite_and_an_overflow_is_an_error():
    # R_160^160 at (1, 0, 0) is the sectoral constant c_160; r^4 of a point at 1e100 overflows.
    psi = eval_interior_potential_many(_reaction_mode(160, 160, 160, 1.0), [[1.0, 0.0, 0.0]])
    want = math.prod(math.sqrt((2 * j - 1) / (2 * j)) for j in range(2, 161))
    assert psi[0] == pytest.approx(want, rel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="non-finite reaction potential"):
            eval_interior_potential_many(_reaction_mode(4, 4, 0, 1.0), [[1e100, 0.0, 0.0]])


def test_constant_mode_potential():
    b = _reaction_mode(5, 0, 0, 3.25)
    for pt in ([0, 0, 0], [1, 2, -0.5], [-3, 0.1, 0.4]):
        assert eval_interior_potential(b, pt) == pytest.approx(3.25, rel=1e-14)


def test_zero_coefficients_zero_potential():
    b = _reaction_mode(5, 0, 0, 0.0)
    assert eval_interior_potential(b, [1.0, 1.0, 1.0]) == 0.0


def test_origin_sees_only_b00():
    coeffs = np.zeros((6, 6), dtype=complex)
    coeffs[0, 0] = 2.0
    coeffs[1, 0] = 7.0
    coeffs[2, 0] = -4.0
    b = MultipoleCoefficients(n_max=5, coeffs=coeffs, kind=KIND_REACTION)
    assert eval_interior_potential(b, [0, 0, 0]) == pytest.approx(2.0, rel=1e-15)


def test_tail_estimate_zero_at_origin():
    d = sv.make_distribution([[0, 0, 0]], [1.0])
    for n_max in (0, 5, 25):
        assert sv.truncation_tail_estimate(*chunk_of([d]), 5.0, n_max).tolist() == [0.0]


def test_tail_estimate_geometric_factor():
    d = sv.make_distribution([[0, 0, 2.5]], [1.0])  # t = 0.25
    (e10,) = sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 10)
    (e11,) = sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 11)
    assert e11 == pytest.approx(0.25 * e10, rel=1e-13)


def test_tail_estimate_bounds_observed_truncation():
    from conftest import random_ball_distribution

    d = random_ball_distribution(21, 0)
    eps = sv.DielectricPair(4.0, 80.0)
    e25 = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 25)).value
    e60 = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 60)).value
    observed = abs(e25 - e60)
    (estimate,) = sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 25)
    assert estimate >= observed
    assert sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 30)[0] < estimate


def test_tail_estimate_outside_domain():
    d = sv.make_distribution([[0, 0, 6.0]], [1.0])
    with pytest.raises(DomainError):
        sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 25)
