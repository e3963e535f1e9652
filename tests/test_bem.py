import tracemalloc

import numpy as np
import pytest

import solvbie as sv
from conftest import dstar_spectrum_estimates, random_ball_distribution, scaled_surface
from solvbie import bem
from scipy.sparse.linalg import LinearOperator
from solvbie.errors import ConvergenceError, DomainError
from solvbie.mesh import build_surface
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

    def test_first_failing_charge_reported(self, mesh_320):
        # All charges are checked in one pass; the message names the first
        # failing charge, with the text of the per-charge check it replaced.
        near = mesh_320.centroids[0] + 1e-9
        d = sv.make_distribution([[0, 0, 0], [0, 0, 7.0], near], [1.0] * 3)
        with pytest.raises(DomainError,
                           match=r"^charge 1 at \[0.0, 0.0, 7.0\] is not inside the surface$"):
            sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)
        d = sv.make_distribution([[0, 0, 0], near, [0, 0, 7.0]], [1.0] * 3)
        with pytest.raises(DomainError, match=r"^charge 1 within 1.73205e-09 Angstrom of a panel; "
                           "refine or reposition$"):
            sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)


def reference_rhs(dist, surf, eps):
    """coulomb_field_rhs in difference form, one (T, Q, 3) array."""
    diff = dist.positions[None, :, :] - surf.centroids[:, None, :]   # r_k - c_i
    r3 = np.sum(diff * diff, axis=2) ** 1.5
    kernel = np.einsum("td,tqd->tq", surf.normals, diff) / (4.0 * np.pi * r3)
    return -eps.eps_hat / eps.eps_in * kernel @ dist.magnitudes


def reference_reaction_energy(sigma, surf, dist):
    """reaction_energy in difference form."""
    diff = dist.positions[:, None, :] - surf.centroids[None, :, :]
    psi = (sigma.density * surf.areas / np.sqrt(np.sum(diff * diff, axis=2))).sum(axis=1)
    return 0.5 * COULOMB_KCAL * float(dist.magnitudes @ psi)


SHIFT = np.array([1e3, -2e3, 5e2])


class TestChargePanelSums:
    """The GEMM forms of the rhs and the reaction energy against difference forms."""

    def check(self, dist, surf, rtol=1e-12, floor=True):
        rhs = sv.coulomb_field_rhs(dist, surf, EPS_BIO)
        ref = reference_rhs(dist, surf, EPS_BIO)
        # Charges of both signs cancel to near zero on some panels, so
        # entries are compared at rtol or rtol of the largest entry.
        atol = rtol * np.max(np.abs(ref)) if floor else 0.0
        np.testing.assert_allclose(rhs.values, ref, rtol=rtol, atol=atol)
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("m", -0.15))
        energy = sv.reaction_energy(sigma, dist).value
        assert energy == pytest.approx(reference_reaction_energy(sigma, surf, dist), rel=rtol)

    @pytest.mark.parametrize("shape", ["ico320", "ico1280", "ellipsoid"])
    @pytest.mark.parametrize("shift", [np.zeros(3), SHIFT], ids=["origin", "translated"])
    def test_matches_difference_form(self, sphere_meshes, shape, shift):
        # Measured: at most 4.2e-15 of the largest rhs entry, and 2.4e-15
        # relative in the energy, translated or not.
        axes = np.array([1.0, 0.4, 0.25]) if shape == "ellipsoid" else np.ones(3)
        base = sphere_meshes[320 if shape == "ico320" else 1280]
        surf = build_surface(base.vertices * axes + shift, base.triangles.copy())
        d = random_ball_distribution(36, 0, margin=0.7)
        self.check(sv.make_distribution(d.positions * axes + shift, d.magnitudes), surf)

    @pytest.mark.parametrize("shift", [np.zeros(3), SHIFT], ids=["origin", "translated"])
    def test_charge_near_a_centroid(self, mesh_1280, shift):
        # One charge 0.1 Angstrom inside a centroid: the GEMM r^2 loses
        # about 1e-16 (5 / 0.1)^2 relative on nearby panels, but the nearest
        # entry is exact.  Measured: at most 8e-14 per entry, 2.4e-15 in the
        # energy; asserted at 1e-12 with no floor.
        surf = build_surface(mesh_1280.vertices + shift, mesh_1280.triangles.copy())
        near = surf.centroids[7] - 0.1 * surf.normals[7]
        self.check(sv.make_distribution([near], [1.0]), surf, floor=False)


def reference_dstar(surf):
    """D* entry by entry, with the diagonal from the double-layer row sums."""
    c, n, a = surf.centroids, surf.normals, surf.areas
    diff = c[None, :, :] - c[:, None, :]                     # c_j - c_i
    r3 = np.sum(diff * diff, axis=2) ** 1.5
    np.fill_diagonal(r3, 1.0)
    dstar = np.einsum("id,ijd->ij", n, diff) * a[None, :] / (4.0 * np.pi * r3)
    kdl = np.einsum("jd,ijd->ij", n, -diff) / (4.0 * np.pi * r3)  # n_j.(c_i - c_j)
    np.fill_diagonal(kdl, 0.0)
    np.fill_diagonal(dstar, -0.5 - kdl @ a)
    return dstar


class TestDstar:
    @pytest.mark.parametrize("panels, block_rows", [
        (80, None), (320, None), (1280, None), (320, 7),
    ])
    def test_matches_reference(self, sphere_meshes, monkeypatch, panels, block_rows):
        surf = sphere_meshes[panels] if panels in sphere_meshes else sv.icosphere(5.0, 1)
        assert surf.num_panels == panels
        if block_rows is not None:  # many blocks and a partial last one
            monkeypatch.setattr(bem, "_BLOCK_BYTES", 8 * panels * block_rows)
        np.testing.assert_allclose(sv.assemble_dstar(surf), reference_dstar(surf),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (1.0, 0.4, 0.25)])
    def test_area_weighted_column_sums(self, mesh_1280, axes):
        # Discrete Gauss identity: sum_j A_j D*[j, i] = -A_i / 2 on any closed mesh.
        surf = build_surface(mesh_1280.vertices * np.array(axes), mesh_1280.triangles.copy())
        colsum = (surf.areas @ sv.assemble_dstar(surf)) / surf.areas
        np.testing.assert_allclose(colsum, -0.5, rtol=0.0, atol=1e-13)

    def test_one_dense_allocation(self, mesh_1280):
        t = mesh_1280.num_panels
        tracemalloc.start()
        try:
            sv.assemble_dstar(mesh_1280)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * t * t <= peak <= 1.25 * 8 * t * t

    def test_allocation_failure_is_domain_error(self, monkeypatch):
        surf = sv.icosphere(5.0, 1)

        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(bem.np, "empty", refuse)
        with pytest.raises(DomainError, match="dense D\\* for 80 panels needs 51200 bytes"):
            sv.assemble_dstar(surf)


    def test_surface_keeps_one_read_only_dstar(self, mesh_320):
        surf = build_surface(mesh_320.vertices, mesh_320.triangles.copy())
        assert surf.dstar is surf.dstar
        assert not surf.dstar.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            surf.dstar[0, 0] = 1.0
        # assemble_dstar still builds a fresh, writeable array on every call.
        fresh = sv.assemble_dstar(surf)
        assert fresh is not surf.dstar and fresh.flags.writeable
        np.testing.assert_array_equal(fresh, surf.dstar)

    def test_constant_density_eigenvector(self, mesh_320):
        # On a sphere the constant vector is a -1/2 eigenvector of D*.
        dstar = sv.assemble_dstar(mesh_320)
        out = dstar @ np.ones(mesh_320.num_panels)
        assert np.max(np.abs(out + 0.5)) < 0.02

    def test_spectrum_on_sphere(self, mesh_1280):
        est = dstar_spectrum_estimates(mesh_1280)
        assert est["lowest"] == pytest.approx(-0.5, abs=0.01)
        assert est["dipole"] == pytest.approx(-1.0 / 6.0, abs=0.01)
        assert est["highest"] == pytest.approx(0.0, abs=0.02)

    def test_spectrum_estimates_reproducible(self, mesh_320):
        assert dstar_spectrum_estimates(mesh_320) == dstar_spectrum_estimates(mesh_320)

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
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("p"))
        np.testing.assert_array_equal(sigma.density, rhs.values)

    def test_lambda_is_scaled_rhs(self, mesh_320):
        d = random_ball_distribution(32, 1, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        lam = -0.2
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("lambda", lam))
        np.testing.assert_allclose(
            sigma.density, rhs.values / (1.0 + EPS_BIO.eps_hat * lam), rtol=1e-15)

    def test_lambda_minus_half_equals_cfa(self, mesh_320):
        d = random_ball_distribution(32, 2, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        a = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("cfa"))
        b = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("lambda", -0.5))
        np.testing.assert_allclose(a.density, b.density, rtol=1e-14)

    def test_hybrid_mean_split(self, mesh_320):
        d = random_ball_distribution(32, 3, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        sigma = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("m", 0.0))
        areas = mesh_320.areas
        mean = np.sum(areas * rhs.values) / np.sum(areas)
        expected = mean / (1.0 - 0.5 * EPS_BIO.eps_hat) + (rhs.values - mean)
        np.testing.assert_allclose(sigma.density, expected, rtol=1e-13)

    def test_hybrid_total_charge_matches_cfa(self, mesh_320):
        d = random_ball_distribution(32, 4, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        m = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("m", 0.0))
        c = sv.bibee_surface_charge(rhs, EPS_BIO, sv.BibeeVariant("cfa"))
        qm = np.sum(m.density * mesh_320.areas)
        qc = np.sum(c.density * mesh_320.areas)
        assert qm == pytest.approx(qc, rel=1e-12)


class TestExactSolve:
    def test_born_direct(self, mesh_1280):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        got = sv.bem_energy(d, mesh_1280, EPS_WATER).value
        assert got == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=0.01)

    @pytest.mark.parametrize("restart, maxiter", [(50, 500), (2, 1)])
    def test_one_dense_product_per_gmres_product(self, mesh_320, monkeypatch, restart, maxiter):
        # The residual reuses GMRES's last product; (2, 1) stops unconverged.
        products, gmres_products, iterates = [], [], []
        assemble, gmres = bem.assemble_dstar, bem.gmres
        # A fresh surface, whose D* the patched assembler below builds.
        surf = build_surface(mesh_320.vertices, mesh_320.triangles.copy())

        class CountedMatrix(np.ndarray):
            def __matmul__(self, x):
                products.append(1)
                return np.asarray(self) @ x

        def counted_gmres(a, b, **kwargs):
            def matvec(x):
                gmres_products.append(1)
                return a.matvec(x)
            x, info = gmres(LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), b, **kwargs)
            iterates.append(x.copy())
            return x, info

        monkeypatch.setattr(bem, "assemble_dstar", lambda s: assemble(s).view(CountedMatrix))
        monkeypatch.setattr(bem, "gmres", counted_gmres)
        monkeypatch.setattr(bem, "DEFAULT_GMRES_RESTART", restart)
        monkeypatch.setattr(bem, "DEFAULT_GMRES_MAXITER", maxiter)
        rhs = sv.coulomb_field_rhs(random_ball_distribution(34, 0, count=5), surf, EPS_BIO)
        try:
            reported = sv.exact_surface_charge(rhs, EPS_BIO).metadata["residual"]
        except ConvergenceError as exc:
            reported = exc.residual
        assert len(products) == len(gmres_products) > 0
        # The residual of the returned iterate, from an independently assembled D*.
        x = iterates[-1]
        residual = float(np.linalg.norm(x + EPS_BIO.eps_hat * (assemble(surf) @ x)
                                        - rhs.values))
        assert reported == (residual if maxiter == 1 else f"{residual:.3e}")

    def test_one_assembly_per_surface(self, mesh_320, monkeypatch):
        # D* depends on the geometry alone: one assembly serves any charges and any eps.
        assemble, assembled = bem.assemble_dstar, []
        monkeypatch.setattr(bem, "assemble_dstar", lambda s: assembled.append(s) or assemble(s))

        def fresh():
            return build_surface(mesh_320.vertices, mesh_320.triangles.copy())

        cases = [(random_ball_distribution(35, 0, count=5), EPS_WATER),
                 (random_ball_distribution(35, 1, count=8), EPS_BIO)]
        surf = fresh()
        reused = [sv.bem_energy(d, surf, eps).value for d, eps in cases]
        assert len(assembled) == 1 and assembled[0] is surf
        assert reused == [sv.bem_energy(d, fresh(), eps).value for d, eps in cases]
        assert len(assembled) == 3

    def test_direct_and_gmres_agree(self, mesh_320):
        d = random_ball_distribution(33, 0, count=5)
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_BIO)
        system = np.eye(mesh_320.num_panels) + EPS_BIO.eps_hat * sv.assemble_dstar(mesh_320)
        a = np.linalg.solve(system, rhs.values)
        b = sv.exact_surface_charge(rhs, EPS_BIO, tol=1e-12)
        np.testing.assert_allclose(a, b.density, rtol=1e-8, atol=1e-14)

    @pytest.mark.parametrize("axes, eps_in, eps_out", [
        ((1.0, 1.0, 1.0), 80.0, 1.0),
        ((1.0, 1.0, 1.0), 1.0, 1e8),
        ((1.0, 0.4, 0.25), 80.0, 1.0),
    ])
    def test_gmres_matches_dense_solve(self, mesh_1280, axes, eps_in, eps_out):
        # Contrasts eps_hat near +2 and -2, and an elongated non-sphere, at
        # the default tolerance against an LU solve of the same system.
        axes = np.array(axes)
        surf = build_surface(mesh_1280.vertices * axes, mesh_1280.triangles.copy())
        eps = sv.DielectricPair(eps_in, eps_out)
        ball = random_ball_distribution(36, 0, count=5, margin=0.8)
        d = sv.make_distribution(ball.positions * axes, ball.magnitudes)
        rhs = sv.coulomb_field_rhs(d, surf, eps)
        system = np.eye(surf.num_panels) + eps.eps_hat * sv.assemble_dstar(surf)
        dense = sv.SurfaceCharge(np.linalg.solve(system, rhs.values), surf, "dense")
        want = sv.reaction_energy(dense, d).value
        assert sv.bem_energy(d, surf, eps).value == pytest.approx(want, rel=1e-8)

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
        sigma = sv.exact_surface_charge(rhs, EPS_WATER)
        total = float(np.sum(sigma.density * mesh_1280.areas))
        # Energy route: psi(0) = k_e * Q_sigma / b must equal the Born value.
        psi0 = COULOMB_KCAL * total / 5.0
        assert 0.5 * psi0 == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=5e-3)

    def test_scaling_homogeneity(self, mesh_320):
        # Coulomb energies scale as 1/s when all lengths scale by s.
        s = 2.0
        d1 = random_ball_distribution(34, 0, count=5)
        e1 = sv.bem_energy(d1, mesh_320, EPS_BIO).value
        d2 = sv.make_distribution(d1.positions * s, d1.magnitudes)
        e2 = sv.bem_energy(d2, scaled_surface(mesh_320, s), EPS_BIO).value
        assert e2 == pytest.approx(e1 / s, rel=1e-10)

    def test_bad_iterative_tol(self, mesh_320):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = sv.coulomb_field_rhs(d, mesh_320, EPS_WATER)
        with pytest.raises(DomainError):
            sv.exact_surface_charge(rhs, EPS_WATER, tol=0.5)


class TestVariantEnergies:
    def test_bem_variants_track_analytic(self, mesh_1280):
        d = random_ball_distribution(35, 0)
        model = sv.SphereModel(5.0, EPS_BIO, 25)
        for variant in (sv.BibeeVariant("cfa"), sv.BibeeVariant("p"),
                        sv.BibeeVariant("m", 0.0)):
            analytic = sv.sphere_energies(d, model, [variant.tag], variant.lam)[0].value
            discrete = sv.bem_energy(d, mesh_1280, EPS_BIO, variant=variant).value
            assert abs(discrete - analytic) / abs(analytic) < 0.05

    def test_bem_bound_ordering(self, mesh_1280):
        d = random_ball_distribution(35, 1)
        e_cfa = sv.bem_energy(d, mesh_1280, EPS_BIO, variant=sv.BibeeVariant("cfa")).value
        e_ref = sv.bem_energy(d, mesh_1280, EPS_BIO).value
        e_p = sv.bem_energy(d, mesh_1280, EPS_BIO, variant=sv.BibeeVariant("p")).value
        assert e_cfa >= e_ref >= e_p
