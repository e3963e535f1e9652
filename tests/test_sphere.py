import math
import tracemalloc
import warnings

import numpy as np
import pytest

import solvbie as sv
from conftest import (chunk_of, gb_energy, mode_ratio, random_ball_distribution,
                      sphere_gb_radii, still_inverse_reference)
from solvbie import sphere
from solvbie.errors import DomainError
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import _inverse_still, _mode_factors

EPS_BIO = sv.DielectricPair(4.0, 80.0)
EPS_WATER = sv.DielectricPair(1.0, 80.0)


def born_energy(q, b, e1, e2):
    return -0.5 * COULOMB_KCAL * q * q / b * (1.0 / e1 - 1.0 / e2)


def kirkwood_factors(e1, e2, b, n_max):
    """Closed-form exact factor (e1-e2)(n+1) / (e1 (e1 n + e2 (n+1)) b^(2n+1))."""
    n = np.arange(n_max + 1, dtype=float)
    return (e1 - e2) * (n + 1) / (e1 * (e1 * n + e2 * (n + 1)) * b ** (2 * n + 1))


#: The five series methods and an eigenvalue for each.
SERIES = (("kirkwood", 0.0), ("cfa", 0.0), ("p", 0.0), ("lambda", -0.2), ("m", -0.1))


def factors_of(model, methods):
    """The factor rows f_n of (method, lambda) pairs, (methods, n_max+1)."""
    return _mode_factors(model, [m for m, _ in methods], [lam for _, lam in methods])


class TestKirkwood:
    def test_born_closed_form(self):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        m = sv.SphereModel(5.0, EPS_WATER, 25)
        assert sv.kirkwood_energy(d, m).value == pytest.approx(
            born_energy(1.0, 5.0, 1.0, 80.0), rel=1e-13)

    def test_born_reference_number(self):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        m = sv.SphereModel(5.0, EPS_WATER, 25)
        assert sv.kirkwood_energy(d, m).value == pytest.approx(-32.79, abs=0.005)

    def test_equal_dielectrics_zero_coefficients(self):
        d = random_ball_distribution(1, 0)
        m = sv.SphereModel(5.0, sv.DielectricPair(4.0, 4.0), 20)
        assert np.max(np.abs(factors_of(m, SERIES))) == 0.0
        assert np.max(np.abs(sv.reaction_potential(d, m, d.positions))) == 0.0
        assert sv.kirkwood_energy(d, m).value == 0.0

    def test_monopole_coefficient_formula(self):
        # B_00 = (e1 - e2) / (e1 e2 b) * M_00: a centered unit charge's potential at the center.
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        m = sv.SphereModel(5.0, EPS_BIO, 4)
        expected = (4.0 - 80.0) / (4.0 * 80.0 * 5.0)
        assert sv.reaction_potential(d, m, [[0, 0, 0]])[0] == pytest.approx(expected, rel=1e-14)

    def test_charge_on_boundary_rejected(self):
        d = sv.make_distribution([[0, 0, 5.0]], [1.0])
        m = sv.SphereModel(5.0, EPS_WATER, 10)
        with pytest.raises(DomainError):
            sv.kirkwood_energy(d, m)


class TestBibeeVariants:
    def test_lambda_range_enforced(self):
        with pytest.raises(DomainError):
            sv.BibeeVariant("lambda", -0.6)
        with pytest.raises(DomainError):
            sv.BibeeVariant("lambda", 0.1)

    def test_lambda_half_equals_cfa(self):
        d = random_ball_distribution(2, 0)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        pc = sv.reaction_potential(d, m, d.positions, "cfa")
        pl = sv.reaction_potential(d, m, d.positions, "lambda", -0.5)
        scale = np.max(np.abs(pc))
        assert np.max(np.abs(pc - pl)) < 1e-14 * scale

    def test_lambda_zero_equals_p(self):
        d = random_ball_distribution(2, 1)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        pp = sv.reaction_potential(d, m, d.positions, "p")
        pl = sv.reaction_potential(d, m, d.positions, "lambda", 0.0)
        np.testing.assert_array_equal(pp, pl)

    def test_per_mode_lambda_recovers_kirkwood(self):
        # The exact coefficients are the per-mode factor P_n / (1 + eps_hat
        # lambda_n) at lambda_n = -1/(2(2n+1)); compare with the closed form.
        # Factors and moments are in units of the cavity radius b = 5: the
        # closed form at b = 1, times 1/b.
        d = random_ball_distribution(2, 2, radius=1.0)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        e = sv.source_moments(d, 25)
        bl = e * _mode_factors(m, ["kirkwood"], [0.0])[0][:, None]
        expected = e * kirkwood_factors(4.0, 80.0, 1.0, 25)[:, None] / 5.0
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(bl - expected)) < 1e-13 * scale

    def test_equal_dielectrics_all_methods_agree(self):
        d = random_ball_distribution(2, 3)
        eps = sv.DielectricPair(4.0, 4.0)
        m = sv.SphereModel(5.0, eps, 20)
        for tag, lam in (("cfa", 0.0), ("p", 0.0), ("lambda", -0.2), ("m", 0.0)):
            assert sv.sphere_energies(d, m, [tag], lam)[0].value == 0.0
        assert sv.kirkwood_energy(d, m).value == 0.0

    def test_cfa_exact_for_centered_charge(self):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        m = sv.SphereModel(3.0, EPS_BIO, 10)
        ek = sv.kirkwood_energy(d, m).value
        ec = sv.sphere_energies(d, m, ["cfa"])[0].value
        assert ec == pytest.approx(ek, rel=1e-14)

    def test_hybrid_m_zero_mixes_cfa_and_p(self):
        # M(0) takes CFA's factor for the monopole and P's for every other mode.
        m = sv.SphereModel(5.0, EPS_BIO, 8)
        fm, fc, fp = factors_of(m, (("m", 0.0), ("cfa", 0.0), ("p", 0.0)))
        assert fm[0] == fc[0]
        np.testing.assert_array_equal(fm[1:], fp[1:])


class TestBoundOrdering:
    @pytest.mark.parametrize("index", range(10))
    def test_cfa_above_exact_above_p(self, index):
        d = random_ball_distribution(13, index)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        ek = sv.kirkwood_energy(d, m).value
        ec = sv.sphere_energies(d, m, ["cfa"])[0].value
        ep = sv.sphere_energies(d, m, ["p"])[0].value
        slack = 1e-10 * abs(ek)
        assert ec >= ek - slack
        assert ek >= ep - slack

    def test_hybrid_m_between_p_and_exact_for_charged(self):
        for index in range(10):
            d = random_ball_distribution(14, index)
            assert abs(math.fsum(d.magnitudes)) > 1e-6
            m = sv.SphereModel(5.0, EPS_BIO, 25)
            ek = sv.kirkwood_energy(d, m).value
            ep = sv.sphere_energies(d, m, ["p"])[0].value
            em = sv.sphere_energies(d, m, ["m"], 0.0)[0].value
            slack = 1e-10 * abs(ek)
            assert ep - slack <= em <= ek + slack

    def test_hybrid_m_equals_p_for_neutral(self):
        rng = np.random.default_rng(15)
        pos = rng.uniform(-2, 2, (10, 3))
        q = rng.uniform(-0.5, 0.5, 10)
        q -= np.mean(q)  # exactly neutral up to roundoff
        d = sv.make_distribution(pos, q)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        ep = sv.sphere_energies(d, m, ["p"])[0].value
        em = sv.sphere_energies(d, m, ["m"], 0.0)[0].value
        assert em == pytest.approx(ep, rel=1e-12)


class TestEigenfunctionPreservation:
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (2, 1), (3, 3), (5, 2), (6, 4)])
    def test_single_mode_stays_single_mode(self, n, m):
        # Every method scales the moments by one factor per mode n, B_nm = f_n M_nm.
        model = sv.SphereModel(5.0, EPS_BIO, 8)
        e = np.zeros((9, 9), dtype=complex)
        e[n, m] = 1.0
        factors = factors_of(model, SERIES)
        assert factors.shape == (len(SERIES), 9)
        for b in e * factors[:, :, None]:
            on_mode = abs(b[n, m])
            assert on_mode > 0
            mask = np.ones_like(b, dtype=bool)
            mask[n, m] = False
            assert np.max(np.abs(b[mask])) <= 1e-12 * on_mode


class TestModeRatios:
    def test_cfa_monopole_exact(self):
        assert mode_ratio(sv.BibeeVariant("cfa"), 0) == 1.0

    def test_p_monopole_factor_two(self):
        assert mode_ratio(sv.BibeeVariant("p"), 0) == pytest.approx(2.0)

    def test_high_mode_limits(self):
        assert mode_ratio(sv.BibeeVariant("cfa"), 10 ** 6) == pytest.approx(0.5, rel=1e-5)
        assert mode_ratio(sv.BibeeVariant("p"), 10 ** 6) == pytest.approx(1.0, rel=1e-5)

    def test_limit_ratios_match_coefficients(self):
        # eps1/eps2 = 1e-8: per-mode coefficient ratios approach the closed forms.
        eps = sv.DielectricPair(1e-8, 1.0)
        model = sv.SphereModel(5.0, eps, 10)
        fk, fc, fp = factors_of(model, (("kirkwood", 0.0), ("cfa", 0.0), ("p", 0.0)))
        for n, bk, bc, bp in zip(range(11), fk, fc, fp):
            assert (bc / bk).real == pytest.approx(mode_ratio(sv.BibeeVariant("cfa"), n), rel=1e-6)
            assert (bp / bk).real == pytest.approx(mode_ratio(sv.BibeeVariant("p"), n), rel=1e-6)

    def test_lambda_ratio_formula(self):
        v = sv.BibeeVariant("lambda", -0.25)
        for n in (0, 1, 2, 5):
            expected = (n + 1) / ((n + 0.5) * 1.5)
            assert mode_ratio(v, n) == pytest.approx(expected, rel=1e-14)


class TestPairInteraction:
    def test_both_at_origin_single_term(self):
        # One charge at the origin: its self pair keeps only the l = 0 term.
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        got = sv.pairwise_kirkwood_energy(sv.make_distribution([[0, 0, 0]], [1.0]), m)
        beta = 4.0 / 80.0
        expected = -COULOMB_KCAL * (1.0 - beta) / (5.0 * 4.0)
        assert got == pytest.approx(0.5 * expected, rel=1e-14)

    def test_self_energy_conductor_limit(self):
        # eps1/eps2 -> 0: self term reduces to the geometric series
        # -q^2/2 (1/e1 - 1/e2) / (A - r^2/A).
        eps = sv.DielectricPair(1.0, 1e12)
        m = sv.SphereModel(5.0, eps, 400)
        r = 2.0
        got = sv.pairwise_kirkwood_energy(sv.make_distribution([[0, 0, r]], [1.0]), m)
        expected = -COULOMB_KCAL * (1.0 / 1.0 - 1e-12) / (5.0 - r * r / 5.0)
        assert got == pytest.approx(0.5 * expected, rel=1e-9)

    def test_antipodal_pair_matches_full_solver(self):
        m = sv.SphereModel(5.0, EPS_WATER, 60)
        pos = np.array([[0, 0, 2.5], [0, 0, -2.5]])
        q = np.array([1.0, 1.0])
        d = sv.make_distribution(pos, q)
        total = sv.pairwise_kirkwood_energy(d, m)
        assert total == pytest.approx(sv.kirkwood_energy(d, m).value, rel=1e-12)

    @pytest.mark.parametrize("index", range(5))
    def test_pairwise_total_consistency(self, index):
        d = random_ball_distribution(16, index, count=8)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        total = sv.pairwise_kirkwood_energy(d, m)
        assert total == pytest.approx(sv.kirkwood_energy(d, m).value, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", [1e200, 1e-200])
    def test_extreme_radius_matches_series(self, radius):
        # In units of the radius, |r|^2 and r_i r_j / a^2 stay in the float range.
        d = sv.make_distribution([[0, 0, 0.1 * radius], [0, 0, -0.5 * radius]], [1.0, -1.0])
        m = sv.SphereModel(radius, EPS_WATER, 25)
        want = sv.sphere_energies(d, m, ["kirkwood"])[0].value
        assert sv.pairwise_kirkwood_energy(d, m) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("radius, eps_in, n_max, dist, old", [
        (5.0, 4.0, 25, random_ball_distribution(16, 0, count=8), -23.509957600577405),
        (5.0, 1.0, 40, random_ball_distribution(16, 1, count=8, margin=0.99), -63.08652148279759),
        (20.0, 1.0, 118, sv.make_distribution([[0, 0, 19.9], [0, 0.5, -19.9]], [1.0, 1.0]),
         -1156.8280169950121),
        (0.3, 2.0, 25, random_ball_distribution(16, 2, count=5, radius=0.3), -116.42333893920748),
    ])
    def test_ordinary_radius_keeps_its_value(self, radius, eps_in, n_max, dist, old):
        # The values of the form in Angstrom that the radius units replaced.
        m = sv.SphereModel(radius, sv.DielectricPair(eps_in, 80.0), n_max)
        assert sv.pairwise_kirkwood_energy(dist, m) == pytest.approx(old, rel=1e-14)

    def test_t_out_of_range(self):
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        with pytest.raises(DomainError, match="pair separation parameter t = 1.0 >= 1"):
            sv.pairwise_kirkwood_energy(sv.make_distribution([[0, 0, 5.0]], [1.0]), m)


class TestReactionPotential:
    @pytest.mark.parametrize("count", [1, 25, 60])
    def test_half_q_psi_at_the_charges_is_the_energy(self, count):
        # At n_max 25, sets of 1 and 25 charges take pairwise spectra, 60 solid ones.
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        methods = [method for method, _ in SERIES]
        for index in range(3):
            d = random_ball_distribution(41, index, count=count)
            for method, res in zip(methods, sv.sphere_energies(d, model, methods, -0.15)):
                psi = sv.reaction_potential(d, model, d.positions, method, -0.15)
                energy = 0.5 * COULOMB_KCAL * float(d.magnitudes @ psi)
                assert energy == pytest.approx(res.value, rel=1e-12), (method, index)

    def test_mode_n_of_the_potential_is_f_n_times_mode_n_of_the_moments(self):
        # psi(x) = sum_n f_n sum_{m>=0} Re(conj(M_nm) R_n^m(x)); R_n^m(x) are the
        # moments of a unit charge at x.  The factors are for moments in units of b.
        model = sv.SphereModel(5.0, EPS_BIO, 12)
        d = random_ball_distribution(42, 0, count=7)
        points = random_ball_distribution(42, 1, count=9).positions
        e = sv.source_moments(sv.make_distribution(d.positions / 5.0, d.magnitudes), 12)
        r = np.array([sv.source_moments(sv.make_distribution([p / 5.0], [1.0]), 12)
                      for p in points])
        modes = np.sum((np.conj(e) * r).real, axis=-1)  # (points, n)
        for method, f in zip(SERIES, factors_of(model, SERIES)):
            got = sv.reaction_potential(d, model, points, *method)
            scale = np.sum(np.abs(modes * f), axis=-1)
            assert np.all(np.abs(got - modes @ f) <= 1e-12 * scale), method

    def test_gb_method_nan_point_exterior_charge_and_no_points(self):
        d = random_ball_distribution(41, 0)
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        with pytest.raises(DomainError, match="GB method 'gbeps' has no reaction coefficients"):
            sv.reaction_potential(d, model, d.positions, "gbeps")
        with pytest.raises(DomainError, match="non-finite potential evaluation point"):
            sv.reaction_potential(d, model, [[0.0, 0.0, 1.0], [0.0, np.nan, 0.0]])
        with pytest.raises(DomainError, match="too close to the boundary"):
            sv.reaction_potential(sv.make_distribution([[0, 0, 6.0]], [1.0]), model, [[0, 0, 0]])
        assert sv.reaction_potential(d, model, np.zeros((0, 3))).shape == (0,)


class TestModeSpectrum:
    def test_spectrum_energies_match_point_evaluation_and_pairwise_sum(self):
        # sphere_energies sums f_n S_n; the point-evaluation path sums
        # q_k psi(r_k) from the reaction coefficients B_nm = f_n M_nm.
        configs = [random_ball_distribution(31, index, count=12) for index in range(4)]
        configs.append(sv.make_distribution([[0, 0, 0], [1.0, -2.0, 0.5]], [1.0, -0.4]))
        configs.append(sv.make_distribution([[0, 0, 0.99 * 5.0], [0.3, 1.0, -2.0]], [0.7, 0.2]))
        lam = -0.15
        methods = ("kirkwood", "cfa", "p", "lambda", "m")
        for eps in (EPS_BIO, sv.DielectricPair(80.0, 2.0)):
            m = sv.SphereModel(5.0, eps, 25)
            for d in configs:
                results = sv.sphere_energies(d, m, methods, lam)
                for method, res in zip(methods, results):
                    psi = sv.reaction_potential(d, m, d.positions, method, lam)
                    direct = 0.5 * COULOMB_KCAL * float(d.magnitudes @ psi)
                    assert res.value == pytest.approx(direct, rel=1e-12), res.method

                # The spectrum in units of b against the pair sum.
                pos, q = d.positions / 5.0, d.magnitudes
                r = np.linalg.norm(pos, axis=1)
                rr = np.outer(r, r)
                cos_g = np.clip(np.divide(pos @ pos.T, rr, out=np.ones_like(rr), where=rr > 0),
                                -1.0, 1.0)
                (spectrum,) = sv.solid_spectrum(pos[None], q[None], m.n_max)
                assert np.all(spectrum >= 0.0)
                for n in range(m.n_max + 1):
                    p_n = np.polynomial.legendre.legval(cos_g, np.eye(n + 1)[n])
                    pair = q @ (rr ** n * p_n) @ q
                    scale = np.abs(q) @ rr ** n @ np.abs(q)
                    assert abs(spectrum[n] - pair) <= 1e-12 * scale, n

    def test_point_evaluation_past_the_sectoral_overflow(self):
        # (2m-1)!! of P_m^m overflows past m ~ 150; the solid harmonics do not.
        rng = np.random.default_rng(160)
        pos = rng.normal(size=(6, 3))
        pos *= 0.85 * 5.0 / np.linalg.norm(pos, axis=1, keepdims=True)
        d = sv.make_distribution(pos, rng.uniform(-1.0, 1.0, 6))
        model = sv.SphereModel(5.0, EPS_BIO, 160)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            psi = sv.reaction_potential(d, model, d.positions)
        assert np.all(np.isfinite(psi))
        want = sv.sphere_energies(d, model, ["kirkwood"])[0].value
        assert 0.5 * COULOMB_KCAL * float(d.magnitudes @ psi) == pytest.approx(want, rel=1e-12)

    def test_per_method_lambda_equals_single_method_calls(self):
        d = random_ball_distribution(21, 0)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        methods, lams = ["m", "m", "lambda"], [-0.1, -0.2, -0.3]
        got = sv.sphere_energies(d, m, methods, lams)
        want = [sv.sphere_energies(d, m, [name], lam)[0] for name, lam in zip(methods, lams)]
        assert [(r.value, r.method) for r in got] == [(r.value, r.method) for r in want]
        assert got[0].value != got[1].value



class TestEnsembleEngine:
    def test_chunk_matches_one_set_calls(self):
        # Each set size is its own chunk: a set's energies and truncation
        # estimate are those of a one-set call, bit for bit.
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        methods = sphere.SPHERE_METHODS
        for size in (3, 12, 7, 1):
            dists = [random_ball_distribution(41, i, count=size) for i in range(3)]
            energies, tails = sphere.ensemble_energies(*chunk_of(dists), model, methods, -0.15)
            assert energies.shape == (len(dists), len(methods)) and tails.shape == (len(dists),)
            for d, row, tail in zip(dists, energies.tolist(), tails.tolist()):
                want = sv.sphere_energies(d, model, methods, -0.15)
                assert row == [r.value for r in want]
                assert [r.truncation_error_estimate for r in want] == [
                    None if m in sphere.GB_METHODS else tail for m in methods]

    def test_seeded_set_energies_are_pinned(self):
        # The seven energies of one seeded set, pinned at 1e-13: a change of
        # units or of summation order may move them by rounding only.
        d = random_ball_distribution(61, 0)
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        pinned = [-25.913899136223165, -16.956079674617, -32.2972946183181, -25.402366553733334,
                  -23.429501345381404, -25.797758062899298, -25.192643788629773]
        got = [r.value for r in sv.sphere_energies(d, model, sphere.SPHERE_METHODS, -0.15)]
        assert sphere.SPHERE_METHODS == ("kirkwood", "cfa", "p", "lambda", "m", "gb", "gbeps")
        assert got == pytest.approx(pinned, rel=1e-13)

    def test_charge_at_origin_only_in_monopole(self):
        # One-charge sets at the origin, scored as a chunk of their own size.
        dists = [sv.make_distribution([[0, 0, 0]], [q]) for q in (0.7, -0.3)]
        spectra = sv.solid_spectrum(*chunk_of(dists), 10)
        assert spectra.shape == (2, 11)
        assert spectra[:, 0] == pytest.approx([0.49, 0.09], rel=1e-15)
        assert np.all(spectra[:, 1:] == 0.0)
        model = sv.SphereModel(5.0, EPS_WATER, 10)
        energies, _ = sphere.ensemble_energies(*chunk_of(dists), model, ["kirkwood", "cfa"])
        for q, row in zip((0.7, -0.3), energies):
            assert row == pytest.approx([born_energy(q, 5.0, 1.0, 80.0)] * 2, rel=1e-12)

    def test_first_set_past_the_margin_reported(self):
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        ok = random_ball_distribution(43, 0, count=2)
        near = [sv.make_distribution([[0, 0, z], [0.1, 0.2, 0.3]], [1.0, -1.0])
                for z in (4.9975, 4.9999)]
        with pytest.raises(DomainError) as want:
            sv.sphere_energies(near[0], model, ["kirkwood"])
        with pytest.raises(DomainError) as got:
            sphere.ensemble_energies(*chunk_of([ok, near[0], ok, near[1]]), model,
                                     ["kirkwood", "gb"])
        assert str(got.value) == str(want.value)
        assert "|r| = 4.9975 too close to the boundary" in str(got.value)

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_lowest_cutoffs_closed_form(self, n_max):
        # S_0 is the squared net charge, S_1 the squared dipole moment.
        dists = [random_ball_distribution(44, i, count=6) for i in range(3)]
        model = sv.SphereModel(5.0, EPS_BIO, n_max)
        e1, e2, b = 4.0, 80.0, 5.0
        n = np.arange(n_max + 1)
        p_n = 2 * (e1 - e2) * (n + 1) / (e1 * (e1 + e2) * (2 * n + 1) * b ** (2 * n + 1))
        factors = {"kirkwood": kirkwood_factors(e1, e2, b, n_max),
                   "cfa": p_n / (1 - EPS_BIO.eps_hat / 2), "p": p_n}
        got, _ = sphere.ensemble_energies(*chunk_of(dists), model, list(factors))
        for d, row in zip(dists, got):
            q, pos = d.magnitudes, d.positions
            spectrum = np.array([q.sum() ** 2, np.sum((q @ pos) ** 2)])[:n_max + 1]
            for value, f in zip(row, factors.values()):
                assert value == pytest.approx(0.5 * COULOMB_KCAL * f @ spectrum, rel=1e-13)
            assert row[0] == pytest.approx(
                sv.pairwise_kirkwood_energy(d, model), rel=1e-13)

class TestSeparability:
    def test_cfa_p_ratio_independent_of_configuration(self):
        # Separable methods: the energy ratio between two dielectric pairs is
        # a pure material factor, identical across charge configurations.
        eps_a = sv.DielectricPair(2.0, 40.0)
        eps_b = sv.DielectricPair(4.0, 80.0)
        for tag in ("cfa", "p"):
            ratios = []
            for index in range(5):
                d = random_ball_distribution(17, index)
                ea = sv.sphere_energies(d, sv.SphereModel(5.0, eps_a, 25), [tag])[0].value
                eb = sv.sphere_energies(d, sv.SphereModel(5.0, eps_b, 25), [tag])[0].value
                ratios.append(ea / eb)
            assert np.ptp(ratios) < 1e-10 * abs(np.mean(ratios))

    def test_kirkwood_ratio_varies_across_modes(self):
        eps_a = sv.DielectricPair(2.0, 80.0)
        eps_b = sv.DielectricPair(4.0, 80.0)
        # Configurations exciting different multipole orders.
        monopole = sv.make_distribution([[0, 0, 0]], [1.0])
        dipole = sv.make_distribution([[0, 0, 3.0], [0, 0, -3.0]], [1.0, -1.0])
        ratios = []
        for d in (monopole, dipole):
            ea = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps_a, 25)).value
            eb = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps_b, 25)).value
            ratios.append(ea / eb)
        assert abs(ratios[0] - ratios[1]) > 1e-4 * abs(ratios[0])


class TestGeneralizedBorn:
    def test_sphere_parameters(self):
        # A = b and R_i = b - r_i^2/b: R = 5 at the centre and 3.75 at r = 2.5.
        d = sv.make_distribution([[0, 0, 0], [0, 0, 2.5]], [1.0, -1.0])
        m = sv.SphereModel(5.0, EPS_WATER, 25)
        assert sphere.GB_ALPHAS == {"gb": 0.0, "gbeps": 0.57}
        got = sv.sphere_energies(d, m, ["gb", "gbeps"])
        assert [r.value for r in got] == [gb_energy(d, [5.0, 3.75], 5.0, alpha, EPS_WATER)
                                          for alpha in (0.0, 0.57)]
        assert got[1].metadata == {"alpha": "0.57"}

    def test_half_radius_effective_radius(self):
        # One charge at r = b/2 has R = 0.75 b, and its GB energy is Born's at R.
        d = sv.make_distribution([[0, 0, 2.5]], [1.0])
        (got,) = sv.sphere_energies(d, sv.SphereModel(5.0, EPS_WATER, 25), ["gb"])
        assert got.value == pytest.approx(born_energy(1.0, 0.75 * 5.0, 1.0, 80.0), rel=1e-14)

    def test_still_single_charge_is_born(self):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        got = gb_energy(d, [5.0], 5.0, 0.0, EPS_WATER)
        assert got == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=1e-14)

    def test_still_long_distance_screened_coulomb(self):
        r = 1e4
        pos = np.array([[[0, 0, 0], [r, 0, 0]]], dtype=float)
        f = 1.0 / _inverse_still(pos, np.array([[2.0, 3.0]]))[0]
        assert f[0, 1] == pytest.approx(r, rel=1e-12)

    def test_still_coincident_pair_finite(self):
        f = 1.0 / _inverse_still(np.zeros((1, 2, 3)), np.array([[2.0, 4.5]]))[0]
        assert f[0, 1] == pytest.approx(np.sqrt(9.0), rel=1e-14)

    def test_radii_count_mismatch(self):
        d = sv.make_distribution([[0, 0, 0], [1, 0, 0]], [1.0, -1.0])
        with pytest.raises(DomainError, match="1 effective radii for 2 charges"):
            gb_energy(d, [5.0], 5.0, 0.0, EPS_WATER)

    def test_gbeps_alpha_zero_matches_still(self):
        # At alpha = 0 the net-charge term drops out: the Still double sum alone.
        d = random_ball_distribution(18, 0, count=6)
        radii = sphere_gb_radii(d, 5.0)
        q = d.magnitudes
        still = -0.5 * COULOMB_KCAL * (1.0 / 4.0 - 1.0 / 80.0) * float(
            q @ still_inverse_reference(d, radii) @ q)
        assert gb_energy(d, radii, 5.0, 0.0, EPS_BIO) == pytest.approx(still, rel=1e-14)

    def test_gbeps_conductor_interior_limit_matches_still(self):
        d = random_ball_distribution(18, 1, count=6)
        eps = sv.DielectricPair(1.0, 1e12)  # eps1/eps2 -> 0
        radii = sphere_gb_radii(d, 5.0)
        a = gb_energy(d, radii, 5.0, sphere.GB_ALPHAS["gbeps"], eps)
        b = gb_energy(d, radii, 5.0, 0.0, eps)
        assert a == pytest.approx(b, rel=1e-9)

    def test_gb_methods_share_one_still_kernel(self, monkeypatch):
        d = random_ball_distribution(18, 2, count=12)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        # The engine's geometry in units of b: A = 1 and R_i = 1 - r_i^2, then 1/b.
        unit = sv.make_distribution(d.positions / 5.0, d.magnitudes)
        r = np.linalg.norm(unit.positions, axis=1)
        want = [gb_energy(unit, 1.0 - r * r, 1.0, alpha, EPS_BIO) / 5.0 for alpha in (0.0, 0.57)]
        calls = []
        monkeypatch.setattr(sphere, "_inverse_still",
                            lambda *args: calls.append(args) or _inverse_still(*args))
        got = sv.sphere_energies(d, m, ["gb", "kirkwood", "gbeps"])
        assert len(calls) == 1
        assert [got[0].value, got[2].value] == want
        assert [got[0].method, got[2].method] == ["GB", "GBeps"]
        # One kernel call per chunk, not per set.
        sphere.ensemble_energies(*chunk_of([d, random_ball_distribution(18, 3, count=12)]), m,
                                 ["gbeps", "gb"])
        assert len(calls) == 2 and calls[1][0].shape == (2, 12, 3)

    @pytest.mark.parametrize("case", ["random", "coincident_and_origin"])
    def test_still_kernel_matches_pair_reference(self, case):
        d = random_ball_distribution(18, 4, count=15)
        if case == "coincident_and_origin":
            pos = d.positions.copy()
            pos[3] = pos[7]
            pos[0] = 0.0
            d = sv.make_distribution(pos, d.magnitudes)
        radii = sphere_gb_radii(d, 5.0)
        want = still_inverse_reference(d, radii)
        got = _inverse_still(d.positions[None], radii[None])[0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        q = d.magnitudes
        pref = -0.5 * COULOMB_KCAL * (1.0 / 4.0 - 1.0 / 80.0)
        assert gb_energy(d, radii, 5.0, 0.0, EPS_BIO) == pytest.approx(
            pref * float(q @ want @ q), rel=1e-13)

    def test_still_kernel_single_charge_is_born(self):
        d = sv.make_distribution([[1.0, -2.0, 0.5]], [0.8])
        got = _inverse_still(d.positions[None], np.array([[3.5]]))
        assert got.shape == (1, 1, 1)
        assert 1.0 / got[0, 0, 0] == pytest.approx(3.5, rel=1e-14)
        assert gb_energy(d, [3.5], 5.0, 0.0, EPS_BIO) == pytest.approx(
            born_energy(0.8, 3.5, 4.0, 80.0), rel=1e-14)

    def test_gb_energies_independent_of_chunk(self):
        dists = [random_ball_distribution(18, 10 + i, count=20) for i in range(7)]
        m = sv.SphereModel(5.0, EPS_BIO, 10)
        whole, _ = sphere.ensemble_energies(*chunk_of(dists), m, ["gb", "gbeps"])
        for d, row in zip(dists, whole.tolist()):
            alone = sv.sphere_energies(d, m, ["gb", "gbeps"])
            assert row == [r.value for r in alone]

    def test_still_kernel_memory(self):
        q = 1000
        d = random_ball_distribution(18, 5, count=q)
        m = sv.SphereModel(5.0, EPS_BIO, 10)
        tracemalloc.start()
        try:
            sv.sphere_energies(d, m, ["gb", "gbeps"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * q * q

    def test_still_allocation_failure_is_domain_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sphere.np, "empty", refuse)
        message = "Still matrices of 2 sets of 3 charges need 288 bytes"
        with pytest.raises(DomainError, match=message):
            _inverse_still(np.zeros((2, 3, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("method", sphere.GB_METHODS)
    def test_gb_methods_have_no_reaction_coefficients(self, method):
        d = sv.make_distribution([[0, 0, 1.0]], [1.0])
        m = sv.SphereModel(5.0, EPS_BIO, 6)
        with pytest.raises(DomainError, match=f"GB method '{method}' has no reaction coefficients"):
            sv.reaction_potential(d, m, d.positions, method)

    def test_gbeps_tracks_kirkwood_pairs(self):
        # Accuracy is approximate; assert a loose envelope and record typical
        # error (~3% for two-charge sets, see docs).
        errs = []
        for index in range(20):
            d = random_ball_distribution(19, index, count=2)
            m = sv.SphereModel(5.0, EPS_WATER, 40)
            exact = sv.pairwise_kirkwood_energy(d, m)
            approx = gb_energy(d, sphere_gb_radii(d, 5.0), 5.0, 0.57, EPS_WATER)
            errs.append(abs(approx - exact) / abs(exact))
        assert np.mean(errs) < 0.10
