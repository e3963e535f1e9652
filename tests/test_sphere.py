import numpy as np
import pytest

import solvbie as sv
from conftest import random_ball_distribution
from solvbie.errors import DomainError
from solvbie.harmonics import KIND_SOURCE, MultipoleCoefficients
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import _still_f_matrix

EPS_BIO = sv.DielectricPair(4.0, 80.0)
EPS_WATER = sv.DielectricPair(1.0, 80.0)


def born_energy(q, b, e1, e2):
    return -0.5 * COULOMB_KCAL * q * q / b * (1.0 / e1 - 1.0 / e2)


def kirkwood_factors(e1, e2, b, n_max):
    """Closed-form exact factor (e1-e2)(n+1) / (e1 (e1 n + e2 (n+1)) b^(2n+1))."""
    n = np.arange(n_max + 1, dtype=float)
    return (e1 - e2) * (n + 1) / (e1 * (e1 * n + e2 * (n + 1)) * b ** (2 * n + 1))


def single_mode_source(n_max, n, m, value=1.0):
    coeffs = np.zeros((n_max + 1, 2 * n_max + 1), dtype=complex)
    coeffs[n, m + n_max] = value
    if m != 0:
        coeffs[n, -m + n_max] = np.conj(value)
    return MultipoleCoefficients(n_max=n_max, coeffs=coeffs, kind=KIND_SOURCE)


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
        e = sv.source_moments(d, 20)
        b = sv.kirkwood_reaction_coefficients(e, m)
        assert np.max(np.abs(b.coeffs)) == 0.0
        assert sv.kirkwood_energy(d, m).value == 0.0

    def test_monopole_coefficient_formula(self):
        # B_00 = (e1 - e2) / (e1 e2 b) * E_00
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        m = sv.SphereModel(5.0, EPS_BIO, 4)
        b = sv.kirkwood_reaction_coefficients(sv.source_moments(d, 4), m)
        expected = (4.0 - 80.0) / (4.0 * 80.0 * 5.0)
        assert b.get(0, 0) == pytest.approx(expected, rel=1e-14)

    def test_charge_on_boundary_rejected(self):
        d = sv.make_distribution([[0, 0, 5.0]], [1.0])
        m = sv.SphereModel(5.0, EPS_WATER, 10)
        with pytest.raises(DomainError):
            sv.kirkwood_energy(d, m)


class TestBibeeVariants:
    def test_lambda_range_enforced(self):
        with pytest.raises(DomainError):
            sv.BibeeVariant.generic(-0.6)
        with pytest.raises(DomainError):
            sv.BibeeVariant.generic(0.1)

    def test_lambda_half_equals_cfa(self):
        d = random_ball_distribution(2, 0)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        e = sv.source_moments(d, 25)
        bc = sv.bibee_reaction_coefficients(e, m, sv.BibeeVariant.cfa())
        bl = sv.bibee_reaction_coefficients(e, m, sv.BibeeVariant.generic(-0.5))
        scale = np.max(np.abs(bc.coeffs))
        assert np.max(np.abs(bc.coeffs - bl.coeffs)) < 1e-14 * scale

    def test_lambda_zero_equals_p(self):
        d = random_ball_distribution(2, 1)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        e = sv.source_moments(d, 25)
        bp = sv.bibee_reaction_coefficients(e, m, sv.BibeeVariant.p())
        bl = sv.bibee_reaction_coefficients(e, m, sv.BibeeVariant.generic(0.0))
        np.testing.assert_array_equal(bp.coeffs, bl.coeffs)

    def test_per_mode_lambda_recovers_kirkwood(self):
        # The exact coefficients are the per-mode factor P_n / (1 + eps_hat
        # lambda_n) at lambda_n = -1/(2(2n+1)); compare with the closed form.
        d = random_ball_distribution(2, 2)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        e = sv.source_moments(d, 25)
        bl = sv.kirkwood_reaction_coefficients(e, m)
        expected = e.coeffs * kirkwood_factors(4.0, 80.0, 5.0, 25)[:, None]
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(bl.coeffs - expected)) < 1e-13 * scale

    def test_equal_dielectrics_all_methods_agree(self):
        d = random_ball_distribution(2, 3)
        eps = sv.DielectricPair(4.0, 4.0)
        m = sv.SphereModel(5.0, eps, 20)
        for variant in (sv.BibeeVariant.cfa(), sv.BibeeVariant.p(),
                        sv.BibeeVariant.generic(-0.2), sv.BibeeVariant.hybrid(0.0)):
            assert sv.bibee_energy(d, m, variant).value == 0.0
        assert sv.kirkwood_energy(d, m).value == 0.0

    def test_cfa_exact_for_centered_charge(self):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        m = sv.SphereModel(3.0, EPS_BIO, 10)
        ek = sv.kirkwood_energy(d, m).value
        ec = sv.bibee_energy(d, m, sv.BibeeVariant.cfa()).value
        assert ec == pytest.approx(ek, rel=1e-14)

    def test_hybrid_m_zero_mixes_cfa_and_p(self):
        m = sv.SphereModel(5.0, EPS_BIO, 8)
        e = single_mode_source(8, 0, 0)
        bm = sv.bibee_reaction_coefficients(e, m, sv.BibeeVariant.hybrid(0.0))
        bc = sv.bibee_reaction_coefficients(e, m, sv.BibeeVariant.cfa())
        np.testing.assert_array_equal(bm.coeffs, bc.coeffs)
        e3 = single_mode_source(8, 3, 1)
        bm3 = sv.bibee_reaction_coefficients(e3, m, sv.BibeeVariant.hybrid(0.0))
        bp3 = sv.bibee_reaction_coefficients(e3, m, sv.BibeeVariant.p())
        np.testing.assert_array_equal(bm3.coeffs, bp3.coeffs)


class TestBoundOrdering:
    @pytest.mark.parametrize("index", range(10))
    def test_cfa_above_exact_above_p(self, index):
        d = random_ball_distribution(13, index)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        ek = sv.kirkwood_energy(d, m).value
        ec = sv.bibee_energy(d, m, sv.BibeeVariant.cfa()).value
        ep = sv.bibee_energy(d, m, sv.BibeeVariant.p()).value
        slack = 1e-10 * abs(ek)
        assert ec >= ek - slack
        assert ek >= ep - slack

    def test_hybrid_m_between_p_and_exact_for_charged(self):
        for index in range(10):
            d = random_ball_distribution(14, index)
            assert abs(sv.net_charge(d)) > 1e-6
            m = sv.SphereModel(5.0, EPS_BIO, 25)
            ek = sv.kirkwood_energy(d, m).value
            ep = sv.bibee_energy(d, m, sv.BibeeVariant.p()).value
            em = sv.bibee_energy(d, m, sv.BibeeVariant.hybrid(0.0)).value
            slack = 1e-10 * abs(ek)
            assert ep - slack <= em <= ek + slack

    def test_hybrid_m_equals_p_for_neutral(self):
        rng = np.random.default_rng(15)
        pos = rng.uniform(-2, 2, (10, 3))
        q = rng.uniform(-0.5, 0.5, 10)
        q -= np.mean(q)  # exactly neutral up to roundoff
        d = sv.make_distribution(pos, q)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        ep = sv.bibee_energy(d, m, sv.BibeeVariant.p()).value
        em = sv.bibee_energy(d, m, sv.BibeeVariant.hybrid(0.0)).value
        assert em == pytest.approx(ep, rel=1e-12)


class TestEigenfunctionPreservation:
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (2, 1), (3, 3), (5, 2), (6, 4)])
    def test_single_mode_stays_single_mode(self, n, m):
        model = sv.SphereModel(5.0, EPS_BIO, 8)
        e = single_mode_source(8, n, m)
        outputs = [
            sv.kirkwood_reaction_coefficients(e, model),
            sv.bibee_reaction_coefficients(e, model, sv.BibeeVariant.cfa()),
            sv.bibee_reaction_coefficients(e, model, sv.BibeeVariant.p()),
            sv.bibee_reaction_coefficients(e, model, sv.BibeeVariant.generic(-0.2)),
            sv.bibee_reaction_coefficients(e, model, sv.BibeeVariant.hybrid(-0.1)),
        ]
        for b in outputs:
            on_mode = abs(b.get(n, m))
            assert on_mode > 0
            mask = np.ones_like(b.coeffs, dtype=bool)
            mask[n, m + 8] = False
            if m != 0:
                mask[n, -m + 8] = False
            assert np.max(np.abs(b.coeffs[mask])) <= 1e-12 * on_mode


class TestModeRatios:
    def test_cfa_monopole_exact(self):
        assert sv.mode_ratio(sv.BibeeVariant.cfa(), 0) == 1.0

    def test_p_monopole_factor_two(self):
        assert sv.mode_ratio(sv.BibeeVariant.p(), 0) == pytest.approx(2.0)

    def test_high_mode_limits(self):
        assert sv.mode_ratio(sv.BibeeVariant.cfa(), 10 ** 6) == pytest.approx(0.5, rel=1e-5)
        assert sv.mode_ratio(sv.BibeeVariant.p(), 10 ** 6) == pytest.approx(1.0, rel=1e-5)

    def test_limit_ratios_match_coefficients(self):
        # eps1/eps2 = 1e-8: per-mode coefficient ratios approach the closed forms.
        eps = sv.DielectricPair(1e-8, 1.0)
        model = sv.SphereModel(5.0, eps, 10)
        for n in range(11):
            e = single_mode_source(10, n, 0)
            bk = sv.kirkwood_reaction_coefficients(e, model).get(n, 0)
            bc = sv.bibee_reaction_coefficients(e, model, sv.BibeeVariant.cfa()).get(n, 0)
            bp = sv.bibee_reaction_coefficients(e, model, sv.BibeeVariant.p()).get(n, 0)
            assert (bc / bk).real == pytest.approx(sv.mode_ratio(sv.BibeeVariant.cfa(), n), rel=1e-6)
            assert (bp / bk).real == pytest.approx(sv.mode_ratio(sv.BibeeVariant.p(), n), rel=1e-6)

    def test_lambda_ratio_formula(self):
        v = sv.BibeeVariant.generic(-0.25)
        for n in (0, 1, 2, 5):
            expected = (n + 1) / ((n + 0.5) * 1.5)
            assert sv.mode_ratio(v, n) == pytest.approx(expected, rel=1e-14)


class TestPairInteraction:
    def test_both_at_origin_single_term(self):
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        got = sv.pair_interaction_kirkwood([0, 0, 0], 1.0, [0, 0, 0], 1.0, m)
        beta = 4.0 / 80.0
        expected = -COULOMB_KCAL * (1.0 - beta) / (5.0 * 4.0)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_self_energy_conductor_limit(self):
        # eps1/eps2 -> 0: self term reduces to the geometric series
        # -q^2/2 (1/e1 - 1/e2) / (A - r^2/A).
        eps = sv.DielectricPair(1.0, 1e12)
        m = sv.SphereModel(5.0, eps, 400)
        r = 2.0
        got = sv.pair_interaction_kirkwood([0, 0, r], 1.0, [0, 0, r], 1.0, m)
        expected = -COULOMB_KCAL * (1.0 / 1.0 - 1e-12) / (5.0 - r * r / 5.0)
        assert 0.5 * got == pytest.approx(0.5 * expected, rel=1e-9)

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

    def test_t_out_of_range(self):
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        with pytest.raises(DomainError):
            sv.pair_interaction_kirkwood([0, 0, 5.0], 1.0, [0, 0, 5.0], 1.0, m)


class TestSeparability:
    def test_cfa_p_ratio_independent_of_configuration(self):
        # Separable methods: the energy ratio between two dielectric pairs is
        # a pure material factor, identical across charge configurations.
        eps_a = sv.DielectricPair(2.0, 40.0)
        eps_b = sv.DielectricPair(4.0, 80.0)
        for variant in (sv.BibeeVariant.cfa(), sv.BibeeVariant.p()):
            ratios = []
            for index in range(5):
                d = random_ball_distribution(17, index)
                ea = sv.bibee_energy(d, sv.SphereModel(5.0, eps_a, 25), variant).value
                eb = sv.bibee_energy(d, sv.SphereModel(5.0, eps_b, 25), variant).value
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
        d = sv.make_distribution([[0, 0, 0], [0, 0, 2.5]], [1.0, -1.0])
        m = sv.SphereModel(5.0, EPS_WATER, 25)
        p = sv.sphere_gb_parameters(d, m)
        assert p.electrostatic_radius == 5.0
        assert p.effective_radii[0] == pytest.approx(5.0)
        assert p.effective_radii[1] == pytest.approx(5.0 - 2.5 ** 2 / 5.0)
        assert p.alpha == 0.57

    def test_half_radius_effective_radius(self):
        d = sv.make_distribution([[0, 0, 2.5]], [1.0])
        p = sv.sphere_gb_parameters(d, sv.SphereModel(5.0, EPS_WATER, 25))
        assert p.effective_radii[0] == pytest.approx(0.75 * 5.0)

    def test_still_single_charge_is_born(self):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        p = sv.GBParameters(electrostatic_radius=5.0, effective_radii=(5.0,))
        got = sv.gb_still_energy(d, p, EPS_WATER).value
        assert got == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=1e-14)

    def test_still_long_distance_screened_coulomb(self):
        r = 1e4
        d = sv.make_distribution([[0, 0, 0], [r, 0, 0]], [1.0, 1.0])
        assert _still_f_matrix(d, np.array([2.0, 3.0]))[0, 1] == pytest.approx(r, rel=1e-12)

    def test_still_coincident_pair_finite(self):
        d = sv.make_distribution([[0, 0, 0], [0, 0, 0]], [1.0, 1.0])
        f = _still_f_matrix(d, np.array([2.0, 4.5]))
        assert f[0, 1] == pytest.approx(np.sqrt(9.0), rel=1e-14)

    def test_radii_count_mismatch(self):
        d = sv.make_distribution([[0, 0, 0], [1, 0, 0]], [1.0, -1.0])
        p = sv.GBParameters(electrostatic_radius=5.0, effective_radii=(5.0,))
        with pytest.raises(DomainError):
            sv.gb_still_energy(d, p, EPS_WATER)

    def test_gbeps_alpha_zero_matches_still(self):
        d = random_ball_distribution(18, 0, count=6)
        m = sv.SphereModel(5.0, EPS_BIO, 25)
        p0 = sv.sphere_gb_parameters(d, m)
        p0 = sv.GBParameters(p0.electrostatic_radius, p0.effective_radii, alpha=0.0)
        a = sv.gb_epsilon_energy(d, p0, EPS_BIO).value
        b = sv.gb_still_energy(d, p0, EPS_BIO).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_gbeps_conductor_interior_limit_matches_still(self):
        d = random_ball_distribution(18, 1, count=6)
        eps = sv.DielectricPair(1.0, 1e12)  # eps1/eps2 -> 0
        m = sv.SphereModel(5.0, eps, 25)
        p = sv.sphere_gb_parameters(d, m)
        a = sv.gb_epsilon_energy(d, p, eps).value
        b = sv.gb_still_energy(d, p, eps).value
        assert a == pytest.approx(b, rel=1e-9)

    def test_gbeps_tracks_kirkwood_pairs(self):
        # Accuracy is approximate; assert a loose envelope and record typical
        # error (~3% for two-charge sets, see docs).
        errs = []
        for index in range(20):
            d = random_ball_distribution(19, index, count=2)
            m = sv.SphereModel(5.0, EPS_WATER, 40)
            exact = sv.pairwise_kirkwood_energy(d, m)
            p = sv.sphere_gb_parameters(d, m)
            approx = sv.gb_epsilon_energy(d, p, EPS_WATER).value
            errs.append(abs(approx - exact) / abs(exact))
        assert np.mean(errs) < 0.10
