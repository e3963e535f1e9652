import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import solvbie as sv
from conftest import chunk_of, random_ball_distribution, rotate_about_z
from solvbie.errors import DomainError
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import _mode_factors


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
    assert e[0, 0] == pytest.approx(0.7)
    coeffs = e.copy()
    coeffs[0, 0] = 0.0
    assert np.max(np.abs(coeffs)) == 0.0


def test_source_moments_reject_a_sequence():
    d = sv.make_distribution([[0, 0, 1.0]], [1.0])
    with pytest.raises(DomainError, match="one charge set"):
        sv.source_moments([d, d], 3)


def test_source_moments_are_a_read_only_complex_triangle():
    d = sv.make_distribution([[0.3, -0.2, 1.0], [-1.0, 0.5, 0.1]], [1.0, -0.6])
    e = sv.source_moments(d, 4)
    assert e.shape == (5, 5) and e.dtype == complex and not e.flags.writeable
    assert np.all(e[np.triu_indices(5, 1)] == 0.0)
    assert np.all(e[np.tril_indices(5)] != 0.0)


def test_non_finite_moments_are_a_domain_error():
    # r^2 of a charge at r = 1e200 overflows the float range.
    d = sv.make_distribution([[0.0, 0.0, 1e200]], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="non-finite multipole moments"):
            sv.source_moments(d, 2)


def test_on_axis_charge_excites_only_m0():
    d = sv.make_distribution([[0, 0, 1.0]], [1.0])
    e = sv.source_moments(d, 10)
    for n in range(11):
        assert e[n, 0] == pytest.approx(1.0, rel=1e-14)
        for m in range(1, n + 1):
            assert abs(e[n, m]) < 1e-15


def test_axial_dipole_moments():
    d = sv.make_distribution([[0, 0, 1.0], [0, 0, -1.0]], [1.0, -1.0])
    e = sv.source_moments(d, 4)
    assert abs(e[0, 0]) < 1e-15
    assert e[1, 0] == pytest.approx(2.0, rel=1e-14)
    assert abs(e[2, 0]) < 1e-14


def test_moments_match_naive_oracle():
    rng = np.random.default_rng(11)
    pos = rng.uniform(-2, 2, (6, 3))
    q = rng.uniform(-1, 1, 6)
    d = sv.make_distribution(pos, q)
    e = sv.source_moments(d, 8)
    expected = naive_source_moments(d, 8)
    assert np.max(np.abs(e - expected)) < 1e-10 * np.max(np.abs(expected))


def test_moments_linear_in_charges():
    rng = np.random.default_rng(3)
    pos = rng.uniform(-2, 2, (8, 3))
    q1 = rng.uniform(-1, 1, 8)
    q2 = rng.uniform(-1, 1, 8)
    ea = sv.source_moments(sv.make_distribution(pos, q1), 10)
    eb = sv.source_moments(sv.make_distribution(pos, q2), 10)
    eab = sv.source_moments(sv.make_distribution(pos, q1 + q2), 10)
    scale = np.max(np.abs(eab))
    assert np.max(np.abs(ea + eb - eab)) < 1e-12 * scale


@pytest.mark.parametrize("spectrum", [sv.pair_spectrum, sv.solid_spectrum])
def test_spectrum_scales_with_the_charges_bit_for_bit(spectrum):
    # S_n is quadratic in q: charges times 2^-520 give S_n times 2^-1040,
    # subnormal at low n, rounded once from the spectrum of the charges themselves.
    # Spectra take positions in units of the cavity radius.
    pos, q = chunk_of([random_ball_distribution(38, i, count=6, radius=1.0) for i in range(3)])
    np.testing.assert_array_equal(spectrum(pos, np.ldexp(q, -520), 8),
                                  np.ldexp(spectrum(pos, q, 8), -1040))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spectrum", [sv.pair_spectrum, sv.solid_spectrum])
@pytest.mark.parametrize("z", [1.0, 1e200, np.nan])
def test_spectrum_rejects_a_charge_outside_the_unit_ball(spectrum, z):
    # Spectra take positions in units of the cavity radius, strictly inside |r| = 1.
    pos = np.array([[[0.0, 0.0, 0.5], [0.0, 0.0, z]]])
    with pytest.raises(DomainError, match="not strictly inside the cavity"):
        spectrum(pos, np.ones((1, 2)), 3)


def test_rotational_covariance_about_z():
    rng = np.random.default_rng(5)
    pos = rng.uniform(-2, 2, (7, 3))
    q = rng.uniform(-1, 1, 7)
    d = sv.make_distribution(pos, q)
    phi0 = 0.8137
    e0 = sv.source_moments(d, 8)
    e1 = sv.source_moments(rotate_about_z(d, phi0), 8)
    for n in range(9):
        for m in range(n + 1):
            expected = e0[n, m] * np.exp(1j * m * phi0)
            assert e1[n, m] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_conjugate_symmetry_for_real_charges():
    # R_n^m(x, -y, z) = conj(R_n^m(x, y, z)): the mirror image in the xz plane
    # has the conjugate moments, which is why M(n, -m) = conj(M(n, m)) is not stored.
    rng = np.random.default_rng(9)
    d = sv.make_distribution(rng.uniform(-2, 2, (5, 3)), rng.uniform(-1, 1, 5))
    mirror = sv.make_distribution(d.positions * [1.0, -1.0, 1.0], d.magnitudes)
    np.testing.assert_array_equal(sv.source_moments(mirror, 6), np.conj(sv.source_moments(d, 6)))


def solid_harmonics(points, n_max):
    """R_n^m at K points, (K, n_max+1, n_max+1) indexed [k, n, m]: a unit charge's moments."""
    return np.array([sv.source_moments(sv.make_distribution([p], [1.0]), n_max) for p in points])


def kirkwood_model(n_max):
    return sv.SphereModel(5.0, sv.DielectricPair(4.0, 80.0), n_max)


ONE_CHARGE = sv.make_distribution([[0.0, 0.0, 1.0]], [1.0])


def test_no_condon_shortley_phase():
    # R_1^1 = r P_1^1(0) e^0 = +1 at (1, 0, 0) without the CS phase.
    assert solid_harmonics([[1.0, 0.0, 0.0]], 1)[0, 1, 1] == pytest.approx(1.0, rel=1e-15)


def test_recurrence_matches_rodrigues_grid():
    # R_n^m is r^n P_n^m(cos theta) sqrt((2 - delta_m0) (n-m)!/(n+m)!) times
    # cos(m phi) + i sin(m phi), on a grid with both poles (cos theta = +-1) and the origin.
    cos_theta = np.linspace(-1.0, 1.0, 41)
    phi = np.array([0.0, 0.7, 2.9, -1.3])
    r = np.array([0.6, 1.7])
    ct, ph, rr = (a.ravel() for a in np.meshgrid(cos_theta, phi, r, indexing="ij"))
    st = np.sqrt(1.0 - ct * ct)
    points = np.column_stack([rr * st * np.cos(ph), rr * st * np.sin(ph), rr * ct])
    points = np.vstack([points, [0.0, 0.0, 0.0]])
    ct, ph, rr = np.append(ct, 1.0), np.append(ph, 0.0), np.append(rr, 0.0)
    table = solid_harmonics(points, 12)
    for n in range(13):
        for m in range(n + 1):
            weight = seminormalization(n, m)
            radial = rr ** n * weight * rodrigues_pnm(n, m, ct)
            for got, angular in ((table[:, n, m].real, np.cos(m * ph)),
                                 (table[:, n, m].imag, np.sin(m * ph))):
                scale = np.max(rr) ** n * weight * np.max(np.abs(rodrigues_pnm(n, m, cos_theta)))
                assert np.max(np.abs(got - radial * angular)) <= 1e-12 * scale, (n, m)


def test_potential_rejects_non_finite_point():
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="non-finite potential evaluation point"):
            sv.reaction_potential(ONE_CHARGE, kirkwood_model(4), [[0.0, 0.0, 0.5], [bad, 0.0, 0.0]])


def test_no_points_give_an_empty_potential():
    psi = sv.reaction_potential(ONE_CHARGE, kirkwood_model(4), np.zeros((0, 3)))
    assert psi.shape == (0,)


def test_sectoral_mode_160_is_finite_and_an_overflow_is_an_error():
    # R_160^160 at (1, 0, 0) is the sectoral constant c_160; r^4 of a point at 1e100 overflows.
    got = solid_harmonics([[1.0, 0.0, 0.0]], 160)[0, 160, 160]
    want = math.prod(math.sqrt((2 * j - 1) / (2 * j)) for j in range(2, 161))
    assert got == pytest.approx(want, rel=1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="non-finite reaction potential"):
            sv.reaction_potential(ONE_CHARGE, kirkwood_model(4), [[1e100, 0.0, 0.0]])


def test_constant_mode_potential():
    # At n_max 0 the reaction potential is B_00 = f_0 sum q at every point.
    d = random_ball_distribution(12, 0, count=5)
    model = kirkwood_model(0)
    want = _mode_factors(model, ["kirkwood"], [0.0])[0, 0] * sv.source_moments(d, 0)[0, 0].real
    for pt in ([0, 0, 0], [1, 2, -0.5], [-3, 0.1, 0.4]):
        assert sv.reaction_potential(d, model, [pt])[0] == pytest.approx(want, rel=1e-14)


def test_zero_coefficients_zero_potential():
    model = sv.SphereModel(5.0, sv.DielectricPair(4.0, 4.0), 5)
    assert sv.reaction_potential(random_ball_distribution(12, 1), model, [[1.0, 1.0, 1.0]]) == 0.0


def test_origin_sees_only_b00():
    d = random_ball_distribution(12, 2, count=6)
    model = kirkwood_model(5)
    want = _mode_factors(model, ["kirkwood"], [0.0])[0, 0] * sv.source_moments(d, 5)[0, 0].real
    assert sv.reaction_potential(d, model, [[0, 0, 0]])[0] == pytest.approx(want, rel=1e-15)


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
    d = random_ball_distribution(21, 0)
    eps = sv.DielectricPair(4.0, 80.0)
    e25 = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 25)).value
    e60 = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 60)).value
    observed = abs(e25 - e60)
    (estimate,) = sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 25)
    assert estimate >= observed
    assert sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 30)[0] < estimate


def test_tail_estimate_of_overflowing_charges_is_inf_without_a_warning():
    # (sum |q|)^2 overflows a float; the suite turns a RuntimeWarning into an error.
    d = sv.make_distribution([[0, 0, 4.9], [0, 1, 0]], [1e200, 1e200])
    assert sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 25).tolist() == [math.inf]


@pytest.mark.parametrize("r", [0.1, 1.0])
def test_tail_estimate_of_overflowing_charges_is_finite_where_the_bound_is(r):
    # (sum |q|)^2 = 4e400 overflows while t^(n_max+1) underflows (r 0.1) or
    # brings the bound back into range (r 1): no nan, no inf, no warning.
    d = sv.make_distribution([[r, 0, 0], [0, r, 0]], [1e200, 1e200])
    (got,) = sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 200)
    t = (r / 5.0) ** 2
    log_want = (math.log(COULOMB_KCAL / (5.0 * (1.0 - t))) + 2.0 * math.log(2e200)
                + 201 * math.log(t))
    assert 0.0 < got < math.inf
    assert got == pytest.approx(math.exp(log_want), rel=1e-12)


def test_tail_estimate_of_ordinary_charges_is_the_direct_product():
    d = random_ball_distribution(21, 1)
    t = (np.max(np.linalg.norm(d.positions, axis=1)) / 5.0) ** 2
    gross = np.sum(np.abs(d.magnitudes))
    direct = COULOMB_KCAL * gross * gross / 5.0 * t ** 26 / (1.0 - t)
    assert sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 25).tolist() == [direct]


def test_tail_estimate_outside_domain():
    d = sv.make_distribution([[0, 0, 6.0]], [1.0])
    with pytest.raises(DomainError):
        sv.truncation_tail_estimate(*chunk_of([d]), 5.0, 25)
