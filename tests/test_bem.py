import numpy as np
import pytest

import solvbie as sv
from conftest import random_ball_distribution, scaled_surface
from solvbie.errors import DomainError
from solvbie.model import COULOMB_KCAL

EPS_WATER = sv.DielectricPair(1.0, 80.0)
EPS_BIO = sv.DielectricPair(4.0, 80.0)


def born_energy(q, b, e1, e2):
    return -0.5 * COULOMB_KCAL * q * q / b * (1.0 / e1 - 1.0 / e2)


class TestRhs:
    def test_centered_charge_uniform_rhs(self, mesh_320):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)
        # For a charge at the center rhs_i = eps_hat q n_i.c_i / (4 pi |c_i|^3)
        # exactly at each centroid (eps_in = 1 here).
        rc3 = np.sum(mesh_320.centroids ** 2, axis=1) ** 1.5
        ndotc = np.einsum("id,id->i", mesh_320.normals, mesh_320.centroids)
        expected = EPS_WATER.eps_hat * ndotc / (4.0 * np.pi * rc3)
        np.testing.assert_allclose(rhs.values, expected, rtol=1e-12)

    def test_equal_dielectrics_zero(self, mesh_320):
        d = random_ball_distribution(31, 0, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, sv.DielectricPair(4.0, 4.0))
        assert np.max(np.abs(rhs.values)) == 0.0

    def test_linearity_in_charges(self, mesh_320):
        pos = [[1.0, 0.5, -0.2], [-2.0, 0.1, 1.3]]
        r1 = sv.coulomb_field_rhs(sv.make_distribution(pos, [1.0, 0.0]), mesh_320, EPS_BIO)
        r2 = sv.coulomb_field_rhs(sv.make_distribution(pos, [0.0, -0.7]), mesh_320, EPS_BIO)
        r12 = sv.coulomb_field_rhs(sv.make_distribution(pos, [1.0, -0.7]), mesh_320, EPS_BIO)
        np.testing.assert_allclose(r1.values + r2.values, r12.values,
                                   rtol=1e-13, atol=1e-18)

    def test_exterior_charge_rejected(self, mesh_320):
        d = sv.make_distribution([[0, 0, 7.0]], [1.0])
        with pytest.raises(DomainError):
            sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)

    def test_charge_too_close_to_panel_rejected(self, mesh_320):
        c0 = mesh_320.centroids[0]
        d = sv.make_distribution([c0 + 1e-9], [1.0])
        with pytest.raises(DomainError):
            sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)


class TestDstar:
    def test_constant_density_eigenvector(self, mesh_320):
        # On a sphere the constant vector is a -1/2 eigenvector of D*.
        dstar = sv.assemble_dstar(mesh_320)
        out = dstar @ np.ones(mesh_320.num_panels)
        assert np.max(np.abs(out + 0.5)) < 0.02

    def test_spectrum_on_sphere(self, mesh_1280):
        est = sv.dstar_spectrum_estimates(mesh_1280)
        assert est["lowest"] == pytest.approx(-0.5, abs=0.01)
        assert est["dipole"] == pytest.approx(-1.0 / 6.0, abs=0.01)
        assert est["highest"] == pytest.approx(0.0, abs=0.02)

    def test_rows_scale_free(self, mesh_320):
        # D* entries are dimensionless: scaling the surface leaves D* fixed.
        big = scaled_surface(mesh_320, 2.5)
        np.testing.assert_allclose(sv.assemble_dstar(big),
                                   sv.assemble_dstar(mesh_320),
                                   rtol=1e-12, atol=1e-15)


class TestVariantIdentities:
    def test_p_density_is_rhs(self, mesh_320):
        d = random_ball_distribution(32, 0, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.p())
        np.testing.assert_array_equal(sigma.density, rhs.values)

    def test_lambda_is_scaled_rhs(self, mesh_320):
        d = random_ball_distribution(32, 1, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        lam = -0.2
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.generic(lam))
        np.testing.assert_allclose(
            sigma.density, rhs.values / (1.0 + EPS_BIO.eps_hat * lam), rtol=1e-15)

    def test_lambda_minus_half_equals_cfa(self, mesh_320):
        d = random_ball_distribution(32, 2, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        a = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.cfa())
        b = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.generic(-0.5))
        np.testing.assert_allclose(a.density, b.density, rtol=1e-14)

    def test_hybrid_mean_split(self, mesh_320):
        d = random_ball_distribution(32, 3, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.hybrid(0.0))
        areas = mesh_320.areas
        mean = np.sum(areas * rhs.values) / np.sum(areas)
        expected = mean / (1.0 - 0.5 * EPS_BIO.eps_hat) + (rhs.values - mean)
        np.testing.assert_allclose(sigma.density, expected, rtol=1e-13)

    def test_hybrid_total_charge_matches_cfa(self, mesh_320):
        d = random_ball_distribution(32, 4, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        m = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.hybrid(0.0))
        c = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant.cfa())
        qm = np.sum(m.density * mesh_320.areas)
        qc = np.sum(c.density * mesh_320.areas)
        assert qm == pytest.approx(qc, rel=1e-12)


class TestExactSolve:
    def test_born_direct(self, mesh_1280):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        got = sv.bem_energy(d, mesh_1280, EPS_WATER).value
        assert got == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=0.01)

    def test_direct_and_gmres_agree(self, mesh_320):
        d = random_ball_distribution(33, 0, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        a = sv.exact_surface_charge(rhs, mesh_320, EPS_BIO, solver="direct")
        b = sv.exact_surface_charge(rhs, mesh_320, EPS_BIO, solver="iterative",
                                    tol=1e-12)
        np.testing.assert_allclose(a.density, b.density, rtol=1e-8, atol=1e-14)

    def test_off_center_matches_series(self, mesh_1280):
        d = sv.make_distribution([[0, 0, 2.0]], [1.0])
        model = sv.SphereModel(5.0, EPS_WATER, 40)
        exact = sv.kirkwood_energy(d, model).value
        got = sv.bem_energy(d, mesh_1280, EPS_WATER).value
        assert abs(got - exact) / abs(exact) < 0.02

    def test_induced_charge_reproduces_born_potential(self, mesh_1280):
        # For a centered charge the induced density is uniform, so the
        # reaction potential at the center is k_e Q_sigma / b and half of it
        # is the Born energy.
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = sv.coulomb_field_rhs(d, mesh_1280, EPS_WATER)
        sigma = sv.exact_surface_charge(rhs, mesh_1280, EPS_WATER)
        total = float(np.sum(sigma.density * mesh_1280.areas))
        # Energy route: psi(0) = k_e * Q_sigma / b must equal the Born value.
        psi0 = COULOMB_KCAL * total / 5.0
        assert 0.5 * psi0 == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=5e-3)

    def test_scaling_homogeneity(self, mesh_320):
        # Coulomb energies scale as 1/s when all lengths scale by s.
        s = 2.0
        d1 = random_ball_distribution(34, 0, count=5)
        e1 = sv.bem_energy(d1, mesh_320, EPS_BIO).value
        d2 = sv.make_distribution(d1.positions() * s, d1.magnitudes())
        e2 = sv.bem_energy(d2, scaled_surface(mesh_320, s), EPS_BIO).value
        assert e2 == pytest.approx(e1 / s, rel=1e-10)

    def test_bad_solver_name(self, mesh_320):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)
        with pytest.raises(DomainError):
            sv.exact_surface_charge(rhs, mesh_320, EPS_WATER, solver="magic")

    def test_bad_iterative_tol(self, mesh_320):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)
        with pytest.raises(DomainError):
            sv.exact_surface_charge(rhs, mesh_320, EPS_WATER,
                                    solver="iterative", tol=0.5)


class TestVariantEnergies:
    def test_bem_variants_track_analytic(self, mesh_1280):
        d = random_ball_distribution(35, 0)
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        for variant in (sv.BibeeVariant.cfa(), sv.BibeeVariant.p(),
                        sv.BibeeVariant.hybrid(0.0)):
            analytic = sv.bibee_energy(d, model, variant).value
            discrete = sv.bem_energy(d, mesh_1280, EPS_BIO, variant=variant).value
            assert abs(discrete - analytic) / abs(analytic) < 0.05

    def test_bem_bound_ordering(self, mesh_1280):
        d = random_ball_distribution(35, 1)
        e_cfa = sv.bem_energy(d, mesh_1280, EPS_BIO, variant=sv.BibeeVariant.cfa()).value
        e_ref = sv.bem_energy(d, mesh_1280, EPS_BIO).value
        e_p = sv.bem_energy(d, mesh_1280, EPS_BIO, variant=sv.BibeeVariant.p()).value
        assert e_cfa >= e_ref >= e_p
