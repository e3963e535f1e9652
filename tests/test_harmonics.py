import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import solvbie as sv
from conftest import rotate_about_z
from solvbie.errors import DomainError
from solvbie.harmonics import KIND_REACTION, MultipoleCoefficients, legendre_table


def rodrigues_pnm(n, m, x):
    """Independent oracle: P_n^m via the Rodrigues formula, no CS phase."""
    poly = np.array([1.0])
    for _ in range(n):
        poly = P.polymul(poly, np.array([-1.0, 0.0, 1.0]))  # (x^2 - 1)^n
    d = P.polyder(poly, n + m)
    val = P.polyval(x, d) / (2 ** n * math.factorial(n))
    return (1 - x * x) ** (m / 2) * val


def test_p00_is_one():
    for x in (-1.0, -0.3, 0.0, 0.9, 1.0):
        assert sv.assoc_legendre(0, 0, x) == 1.0


def test_p10_is_x():
    assert sv.assoc_legendre(1, 0, 0.5) == pytest.approx(0.5, rel=1e-15)


def test_p53_frozen_rodrigues_value():
    # Frozen from the Rodrigues oracle above at 64-bit precision.
    assert sv.assoc_legendre(5, 3, 0.3) == pytest.approx(-8.65914461606197, rel=1e-13)


def test_no_condon_shortley_phase():
    # P_1^1(0) = +1 without the CS phase.
    assert sv.assoc_legendre(1, 1, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_recurrence_matches_rodrigues_grid():
    xs = np.linspace(-1.0, 1.0, 101)
    table = legendre_table(12, xs)
    for n in range(13):
        for m in range(n + 1):
            expected = np.array([rodrigues_pnm(n, m, x) for x in xs])
            got = table[n, m]
            scale = np.maximum(np.abs(expected), 1e-30)
            assert np.max(np.abs(got - expected) / scale) < 1e-10, (n, m)


def test_poles_zero_for_positive_order():
    for m in range(1, 6):
        for n in range(m, 8):
            assert sv.assoc_legendre(n, m, 1.0) == 0.0
            assert sv.assoc_legendre(n, m, -1.0) == 0.0


def test_domain_errors():
    with pytest.raises(DomainError):
        sv.assoc_legendre(2, 3, 0.5)
    with pytest.raises(DomainError):
        sv.assoc_legendre(2, 1, 1.5)


def naive_source_moments(dist, n_max):
    """Direct-summation oracle over the defining formula."""
    coeffs = np.zeros((n_max + 1, 2 * n_max + 1), dtype=complex)
    for c in dist.charges:
        x, y, z = c.position
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            coeffs[0, n_max] += c.magnitude
            continue
        ct = z / r
        phi = math.atan2(y, x)
        for n in range(n_max + 1):
            for m in range(-n, n + 1):
                am = abs(m)
                ratio = math.factorial(n - am) / math.factorial(n + am)
                coeffs[n, m + n_max] += (
                    c.magnitude * r ** n * ratio * rodrigues_pnm(n, am, ct)
                    * np.exp(-1j * m * phi)
                )
    return coeffs


def test_charge_at_origin_only_e00():
    d = sv.make_distribution([[0, 0, 0]], [0.7])
    e = sv.source_moments(d, 8)
    assert e.get(0, 0) == pytest.approx(0.7)
    coeffs = e.coeffs.copy()
    coeffs[0, 8] = 0.0
    assert np.max(np.abs(coeffs)) == 0.0


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
            expected = e0.get(n, m) * np.exp(-1j * m * phi0)
            assert e1.get(n, m) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_conjugate_symmetry_for_real_charges():
    rng = np.random.default_rng(9)
    d = sv.make_distribution(rng.uniform(-2, 2, (5, 3)), rng.uniform(-1, 1, 5))
    e = sv.source_moments(d, 6)
    for n in range(7):
        for m in range(1, n + 1):
            assert e.get(n, -m) == pytest.approx(np.conj(e.get(n, m)), rel=1e-13)


def _reaction_only(n_max, n, m, value):
    coeffs = np.zeros((n_max + 1, 2 * n_max + 1), dtype=complex)
    coeffs[n, m + n_max] = value
    return MultipoleCoefficients(n_max=n_max, coeffs=coeffs, kind=KIND_REACTION)


def test_constant_mode_potential():
    b = _reaction_only(5, 0, 0, 3.25)
    for pt in ([0, 0, 0], [1, 2, -0.5], [-3, 0.1, 0.4]):
        assert sv.eval_interior_potential(b, pt) == pytest.approx(3.25, rel=1e-14)


def test_zero_coefficients_zero_potential():
    b = _reaction_only(5, 0, 0, 0.0)
    assert sv.eval_interior_potential(b, [1.0, 1.0, 1.0]) == 0.0


def test_origin_sees_only_b00():
    coeffs = np.zeros((6, 11), dtype=complex)
    coeffs[0, 5] = 2.0
    coeffs[1, 5] = 7.0
    coeffs[2, 5] = -4.0
    b = MultipoleCoefficients(n_max=5, coeffs=coeffs, kind=KIND_REACTION)
    assert sv.eval_interior_potential(b, [0, 0, 0]) == pytest.approx(2.0, rel=1e-15)


def test_tail_estimate_zero_at_origin():
    d = sv.make_distribution([[0, 0, 0]], [1.0])
    for n_max in (0, 5, 25):
        assert sv.truncation_tail_estimate(d, 5.0, n_max) == 0.0


def test_tail_estimate_geometric_factor():
    d = sv.make_distribution([[0, 0, 2.5]], [1.0])  # t = 0.25
    e10 = sv.truncation_tail_estimate(d, 5.0, 10)
    e11 = sv.truncation_tail_estimate(d, 5.0, 11)
    assert e11 == pytest.approx(0.25 * e10, rel=1e-13)


def test_tail_estimate_bounds_observed_truncation():
    from conftest import random_ball_distribution

    d = random_ball_distribution(21, 0)
    eps = sv.DielectricPair(4.0, 80.0)
    e25 = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 25)).value
    e60 = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 60)).value
    observed = abs(e25 - e60)
    estimate = sv.truncation_tail_estimate(d, 5.0, 25)
    assert estimate >= observed
    assert sv.truncation_tail_estimate(d, 5.0, 30) < estimate


def test_tail_estimate_outside_domain():
    d = sv.make_distribution([[0, 0, 6.0]], [1.0])
    with pytest.raises(DomainError):
        sv.truncation_tail_estimate(d, 5.0, 25)
