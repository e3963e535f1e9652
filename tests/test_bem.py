import tracemalloc

import numpy as np
import pytest

import solvbie as sv
from conftest import dstar_spectrum_estimates, random_ball_distribution, scaled_surface
from solvbie import bem
from solvbie.errors import ConvergenceError, DomainError
from solvbie.mesh import build_surface
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import VARIANT_TAGS

EPS_WATER = sv.DielectricPair(1.0, 80.0)
EPS_BIO = sv.DielectricPair(4.0, 80.0)


def born_energy(q, b, e1, e2):
    return -0.5 * COULOMB_KCAL * q * q / b * (1.0 / e1 - 1.0 / e2)


def field_rhs(dist, surf, eps):
    """The BIE right-hand side -eps_hat/eps_in g that ``material_energy`` forms."""
    return -eps.eps_hat / eps.eps_in * bem.panel_vectors(dist, surf)[0]


def count_dense_products(monkeypatch) -> list:
    """Patch ``bem.assemble_dstar`` so that each D* @ x of a new surface appends to the list."""
    products, assemble = [], bem.assemble_dstar

    class CountedMatrix(np.ndarray):
        def __matmul__(self, x):
            products.append(1)
            return np.asarray(self) @ x

    monkeypatch.setattr(bem, "assemble_dstar", lambda s: assemble(s).view(CountedMatrix))
    return products


class TestRhs:
    def test_centered_charge_uniform_rhs(self, mesh_320):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = field_rhs(d, mesh_320, EPS_WATER)
        # For a charge at the center rhs_i = eps_hat q n_i.c_i / (4 pi |c_i|^3)
        # exactly at each centroid (eps_in = 1 here).
        rc3 = np.sum(mesh_320.centroids ** 2, axis=1) ** 1.5
        ndotc = np.einsum("id,id->i", mesh_320.normals, mesh_320.centroids)
        expected = EPS_WATER.eps_hat * ndotc / (4.0 * np.pi * rc3)
        np.testing.assert_allclose(rhs, expected, rtol=1e-12)

    def test_equal_dielectrics_zero(self, mesh_320):
        d = random_ball_distribution(31, 0, count=5)
        eps = sv.DielectricPair(4.0, 4.0)
        assert np.max(np.abs(field_rhs(d, mesh_320, eps))) == 0.0
        for variant in (None, sv.BibeeVariant("p")):
            assert sv.bem_energy(d, mesh_320, eps, variant).value == 0.0

    def test_linearity_in_charges(self, mesh_320):
        pos = [[1.0, 0.5, -0.2], [-2.0, 0.1, 1.3]]
        r1 = field_rhs(sv.make_distribution(pos, [1.0, 0.0]), mesh_320, EPS_BIO)
        r2 = field_rhs(sv.make_distribution(pos, [0.0, -0.7]), mesh_320, EPS_BIO)
        r12 = field_rhs(sv.make_distribution(pos, [1.0, -0.7]), mesh_320, EPS_BIO)
        np.testing.assert_allclose(r1 + r2, r12, rtol=1e-13, atol=1e-18)

    def test_exterior_charge_rejected(self, mesh_320):
        d = sv.make_distribution([[0, 0, 7.0]], [1.0])
        with pytest.raises(DomainError):
            bem.panel_vectors(d, mesh_320)

    def test_charge_too_close_to_panel_rejected(self, mesh_320):
        c0 = mesh_320.centroids[0]
        d = sv.make_distribution([c0 + 1e-9], [1.0])
        with pytest.raises(DomainError):
            bem.panel_vectors(d, mesh_320)

    def test_first_failing_charge_reported(self, mesh_320):
        # All charges are checked in one pass; the message names the first
        # failing charge, with the text of the per-charge check it replaced.
        near = mesh_320.centroids[0] + 1e-9
        d = sv.make_distribution([[0, 0, 0], [0, 0, 7.0], near], [1.0] * 3)
        with pytest.raises(DomainError,
                           match=r"^charge 1 at \[0.0, 0.0, 7.0\] is not inside the surface$"):
            bem.panel_vectors(d, mesh_320)
        d = sv.make_distribution([[0, 0, 0], near, [0, 0, 7.0]], [1.0] * 3)
        with pytest.raises(DomainError, match=r"^charge 1 within 1.73205e-09 Angstrom of a panel; "
                           "refine or reposition$"):
            bem.panel_vectors(d, mesh_320)


def reference_rhs(dist, surf, eps):
    """The right-hand side in difference form, one (T, Q, 3) array."""
    diff = dist.positions[None, :, :] - surf.centroids[:, None, :]   # r_k - c_i
    r3 = np.sum(diff * diff, axis=2) ** 1.5
    kernel = np.einsum("td,tqd->tq", surf.normals, diff) / (4.0 * np.pi * r3)
    return -eps.eps_hat / eps.eps_in * kernel @ dist.magnitudes


def reference_reaction_energy(sigma, surf, dist):
    """The reaction energy (k_e/2) sum_k q_k sum_j sigma_j A_j / |r_k - c_j|, difference form."""
    diff = dist.positions[:, None, :] - surf.centroids[None, :, :]
    psi = (sigma.density * surf.areas / np.sqrt(np.sum(diff * diff, axis=2))).sum(axis=1)
    return 0.5 * COULOMB_KCAL * float(dist.magnitudes @ psi)


SHIFT = np.array([1e3, -2e3, 5e2])


class TestChargePanelSums:
    """The GEMM forms of the rhs and the reaction energy against difference forms."""

    def check(self, dist, surf, rtol=1e-12, floor=True):
        rhs = field_rhs(dist, surf, EPS_BIO)
        ref = reference_rhs(dist, surf, EPS_BIO)
        # Charges of both signs cancel to near zero on some panels, so
        # entries are compared at rtol or rtol of the largest entry.
        atol = rtol * np.max(np.abs(ref)) if floor else 0.0
        np.testing.assert_allclose(rhs, ref, rtol=rtol, atol=atol)
        variant = sv.BibeeVariant("m", -0.15)
        sigma = sv.bibee_surface_charge(rhs, surf, EPS_BIO, variant)
        energy = bem.material_energy(*bem.panel_vectors(dist, surf), surf, EPS_BIO, variant).value
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


class TestPanelVectors:
    """One charge-panel pass (g, h) and the material step of every variant and dielectric pair."""

    EPS = [EPS_WATER, EPS_BIO, sv.DielectricPair(80.0, 2.0), sv.DielectricPair(3.0, 3.0)]

    def test_rhs_is_a_material_scalar_times_g(self, mesh_320):
        # P's density is the rhs itself, so its energy reads the rhs bit for bit.
        d = random_ball_distribution(37, 0, count=7)
        g, h = bem.panel_vectors(d, mesh_320)
        assert not (g.flags.writeable or h.flags.writeable)
        for eps in self.EPS:
            rhs = -eps.eps_hat / eps.eps_in * g
            got = bem.material_energy(g, h, mesh_320, eps, sv.BibeeVariant("p")).value
            assert got == 0.5 * COULOMB_KCAL * float(rhs @ h)

    @pytest.mark.parametrize("variant", [None, *(sv.BibeeVariant(tag, -0.15)
                                                 for tag in VARIANT_TAGS)])
    def test_one_pass_serves_every_material(self, mesh_320, variant):
        d = random_ball_distribution(37, 1, count=7)
        vectors = bem.panel_vectors(d, mesh_320)
        for eps in self.EPS:
            got = bem.material_energy(*vectors, mesh_320, eps, variant)
            assert got == sv.bem_energy(d, mesh_320, eps, variant)
            rhs = -eps.eps_hat / eps.eps_in * vectors[0]
            sigma = (sv.exact_surface_charge(rhs, mesh_320, eps) if variant is None
                     else sv.bibee_surface_charge(rhs, mesh_320, eps, variant))
            assert got.value == 0.5 * COULOMB_KCAL * float(sigma.density @ vectors[1])

    def test_reaction_energy_checks_its_charges(self, mesh_320):
        # h comes from the pass, and with it the checks of the right-hand side.
        with pytest.raises(DomainError, match="^charge 0 at .* is not inside the surface$"):
            sv.bem_energy(sv.make_distribution([[0, 0, 7.0]], [1.0]), mesh_320, EPS_BIO,
                          sv.BibeeVariant("p"))


def overflowing_charges(surf, case):
    """Charges whose g and h overflow (1e308 at 1e-4 Angstrom of a centroid), or
    whose g and h are finite but whose energy overflows (two 1e160 charges)."""
    if case == "field":
        return sv.make_distribution([surf.centroids[0] - 1e-4 * surf.normals[0]], [1e308])
    return sv.make_distribution([[0, 0, 1], [1, 0, 0]], [1e160, 1e160])


class TestOverflow:
    """An overflowing panel vector, rhs or energy is a DomainError, with no numpy warning."""

    def test_panel_vectors_reject_overflow(self, mesh_320):
        # g and h overflow together next to a panel; on a 100 A sphere h alone does.
        for d, surf in ((overflowing_charges(mesh_320, "field"), mesh_320),
                        (sv.make_distribution([[0, 0, 0]], [1e308]),
                         scaled_surface(mesh_320, 20.0))):
            with pytest.raises(DomainError, match="^non-finite surface field or potential values$"):
                bem.panel_vectors(d, surf)

    @pytest.mark.parametrize("variant", [None, sv.BibeeVariant("cfa")], ids=["exact", "cfa"])
    @pytest.mark.parametrize("case, message", [
        ("field", "^non-finite surface field or potential values$"),
        ("energy", "^non-finite energy -inf for method BEM-"),
    ])
    def test_bem_energy_rejects_overflow(self, mesh_320, variant, case, message):
        with pytest.raises(DomainError, match=message):
            sv.bem_energy(overflowing_charges(mesh_320, case), mesh_320, EPS_WATER, variant)

    @pytest.mark.parametrize("variant", [None, sv.BibeeVariant("cfa"), sv.BibeeVariant("m")],
                             ids=["exact", "cfa", "m"])
    def test_rhs_overflow_at_tiny_dielectrics(self, mesh_320, variant):
        # g is finite, but -eps_hat/eps_in g is not at eps_in 1e-300.
        d = sv.make_distribution([mesh_320.centroids[0] - 1e-4 * mesh_320.normals[0]], [1e10])
        g, h = bem.panel_vectors(d, mesh_320)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))
        with pytest.raises(DomainError, match="^non-finite surface field values$"):
            bem.material_energy(g, h, mesh_320, sv.DielectricPair(1e-300, 2e-299), variant)


class TestStageInput:
    """Both surface-charge stages reject an rhs that is not a finite (T,) array before any product."""

    @pytest.mark.parametrize("stage", ["exact", "cfa", "m"])
    @pytest.mark.parametrize("case, message", [
        ("all nan", "^non-finite surface field values$"),
        ("one inf", "^non-finite surface field values$"),
        ("length 1", r"^right-hand side of shape \(1,\), not \(320,\)$"),
        ("length 5", r"^right-hand side of shape \(5,\), not \(320,\)$"),
        ("two rows", r"^right-hand side of shape \(2, 320\), not \(320,\)$"),
    ])
    def test_bad_rhs_is_a_domain_error(self, mesh_320, stage, case, message):
        surf = build_surface(mesh_320.vertices, mesh_320.triangles.copy())
        rhs = field_rhs(random_ball_distribution(38, 0, count=5), surf, EPS_BIO)
        bad = {"all nan": np.full_like(rhs, np.nan), "one inf": np.where(rhs == rhs[7], np.inf, rhs),
               "length 1": rhs[:1], "length 5": rhs[:5], "two rows": np.stack([rhs, rhs])}[case]
        with pytest.raises(DomainError, match=message):
            if stage == "exact":
                sv.exact_surface_charge(bad, surf, EPS_BIO)
            else:
                sv.bibee_surface_charge(bad, surf, EPS_BIO, sv.BibeeVariant(stage))
        assert "dstar" not in vars(surf)  # so no product either

    def test_non_finite_density_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^non-finite surface charge density$"):
            bem.SurfaceCharge(np.array([0.0, np.inf]), "BEM-exact")


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

    @pytest.mark.parametrize("case", ["shape", "float32", "fortran", "read-only"])
    def test_bad_out_is_a_value_error(self, case):
        out = {"shape": np.empty((80, 79)), "float32": np.empty((80, 80), dtype=np.float32),
               "fortran": np.empty((80, 80), order="F"), "read-only": np.empty((80, 80))}[case]
        out.setflags(write=case != "read-only")
        message = r"^out must be a writeable C-contiguous float64 \(80, 80\) array$"
        with pytest.raises(ValueError, match=message):
            sv.assemble_dstar(sv.icosphere(5.0, 1), out=out)


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
        rhs = field_rhs(d, mesh_320, EPS_BIO)
        sigma = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("p"))
        np.testing.assert_array_equal(sigma.density, rhs)

    def test_lambda_is_scaled_rhs(self, mesh_320):
        d = random_ball_distribution(32, 1, count=5)
        rhs = field_rhs(d, mesh_320, EPS_BIO)
        lam = -0.2
        sigma = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("lambda", lam))
        np.testing.assert_allclose(
            sigma.density, rhs / (1.0 + EPS_BIO.eps_hat * lam), rtol=1e-15)

    def test_lambda_minus_half_equals_cfa(self, mesh_320):
        d = random_ball_distribution(32, 2, count=5)
        rhs = field_rhs(d, mesh_320, EPS_BIO)
        a = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("cfa"))
        b = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("lambda", -0.5))
        np.testing.assert_allclose(a.density, b.density, rtol=1e-14)

    def test_hybrid_mean_split(self, mesh_320):
        d = random_ball_distribution(32, 3, count=5)
        rhs = field_rhs(d, mesh_320, EPS_BIO)
        sigma = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("m", 0.0))
        areas = mesh_320.areas
        mean = np.sum(areas * rhs) / np.sum(areas)
        expected = mean / (1.0 - 0.5 * EPS_BIO.eps_hat) + (rhs - mean)
        np.testing.assert_allclose(sigma.density, expected, rtol=1e-13)

    def test_hybrid_total_charge_matches_cfa(self, mesh_320):
        d = random_ball_distribution(32, 4, count=5)
        rhs = field_rhs(d, mesh_320, EPS_BIO)
        m = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("m", 0.0))
        c = sv.bibee_surface_charge(rhs, mesh_320, EPS_BIO, sv.BibeeVariant("cfa"))
        qm = np.sum(m.density * mesh_320.areas)
        qc = np.sum(c.density * mesh_320.areas)
        assert qm == pytest.approx(qc, rel=1e-12)


class TestExactSolve:
    def test_born_direct(self, mesh_1280):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        got = sv.bem_energy(d, mesh_1280, EPS_WATER).value
        assert got == pytest.approx(born_energy(1.0, 5.0, 1.0, 80.0), rel=0.01)

    @pytest.mark.parametrize("restart, maxiter", [(50, 500), (2, 3)])
    def test_one_dense_product_per_gmres_product(self, mesh_320, monkeypatch, restart, maxiter):
        # The residual is the solver's own last product; (2, 3) stops unconverged.
        solver_products, iterates = [], []
        assemble, solve = bem.assemble_dstar, bem._restarted_gmres
        products = count_dense_products(monkeypatch)
        # A fresh surface, whose D* the patched assembler builds.
        surf = build_surface(mesh_320.vertices, mesh_320.triangles.copy())

        def counted_solve(apply, b, *args):
            def counted_apply(x):
                solver_products.append(1)
                return apply(x)
            x, residual, relative, used = solve(counted_apply, b, *args)
            assert used == len(solver_products) <= maxiter
            assert relative == residual / np.linalg.norm(b)
            iterates.append(x.copy())
            return x, residual, relative, used

        monkeypatch.setattr(bem, "_restarted_gmres", counted_solve)
        monkeypatch.setattr(bem, "DEFAULT_GMRES_RESTART", restart)
        monkeypatch.setattr(bem, "DEFAULT_GMRES_MAXITER", maxiter)
        rhs = field_rhs(random_ball_distribution(34, 0, count=5), surf, EPS_BIO)
        try:
            reported = sv.exact_surface_charge(rhs, surf, EPS_BIO).metadata["residual"]
        except ConvergenceError as exc:
            reported = exc.residual
        assert len(products) == len(solver_products) > 0
        # The residual of the returned iterate, from an independently assembled D*.
        x = iterates[-1]
        residual = float(np.linalg.norm(x + EPS_BIO.eps_hat * (assemble(surf) @ x)
                                        - rhs))
        assert reported == (residual if maxiter == 3 else f"{residual:.3e}")

    def test_zero_rhs_gives_zero_with_no_product(self, mesh_320, monkeypatch):
        def refuse(*args):
            raise AssertionError("the solver ran on a zero right-hand side")

        monkeypatch.setattr(bem, "assemble_dstar", refuse)
        surf = build_surface(mesh_320.vertices, mesh_320.triangles.copy())
        d = random_ball_distribution(34, 1, count=5)
        rhs = field_rhs(d, surf, sv.DielectricPair(4.0, 4.0))
        sigma = sv.exact_surface_charge(rhs, surf, EPS_BIO)
        assert not np.any(sigma.density) and sigma.metadata["residual"] == "0.000e+00"

    def test_high_contrast_budget_counts_dense_products(self, mesh_1280, monkeypatch):
        # +1 at (0, 0, 0.5) in a 5 A icosphere: I + eps_hat D* nears singular as
        # eps_in/eps_out grows.  At 1e8 the solve converges to the sphere series
        # (test_08's 2%); at 1e12 it stops after DEFAULT_GMRES_MAXITER products.
        products = count_dense_products(monkeypatch)
        surf = build_surface(mesh_1280.vertices, mesh_1280.triangles.copy())
        d = sv.make_distribution([[0, 0, 0.5]], [1.0])
        eps = sv.DielectricPair(1e8, 1.0)
        series = sv.kirkwood_energy(d, sv.SphereModel(5.0, eps, 40)).value
        assert sv.bem_energy(d, surf, eps).value == pytest.approx(series, rel=0.02)
        high = sv.DielectricPair(1e12, 1.0)
        rhs = field_rhs(d, surf, high)
        products.clear()
        with pytest.raises(ConvergenceError) as exc:
            sv.exact_surface_charge(rhs, surf, high)
        assert 0 < len(products) <= bem.DEFAULT_GMRES_MAXITER == 500
        rel = exc.value.residual / np.linalg.norm(rhs)
        assert (f"GMRES did not converge within 500 dense products "
                f"(relative residual {rel:.3e} after {len(products)})") == str(exc.value)

    @pytest.mark.parametrize("scale", [1e-300, 1e250])
    def test_energy_scales_with_the_dielectric_pair(self, mesh_320, scale):
        # E(s eps_in, s eps_out) = E(eps_in, eps_out) / s, where ||rhs|| alone
        # would overflow (s 1e-300) or underflow (s 1e250) a float.
        d = random_ball_distribution(37, 0, count=5)
        want = sv.bem_energy(d, mesh_320, EPS_BIO).value / scale
        eps = sv.DielectricPair(EPS_BIO.eps_in * scale, EPS_BIO.eps_out * scale)
        assert sv.bem_energy(d, mesh_320, eps).value == pytest.approx(want, rel=1e-12)

    def test_density_scales_with_the_rhs_up_to_the_top_binade(self, mesh_320):
        # max|rhs| = 2^1023 has binary exponent 1024, one past the largest
        # finite power of two: the solve scales by exponents, not by 2^1024.
        d = random_ball_distribution(37, 0, count=5)
        values = field_rhs(d, mesh_320, EPS_BIO)
        unit = values / np.max(np.abs(values))
        sigma = sv.exact_surface_charge(unit, mesh_320, EPS_BIO)
        top = np.ldexp(unit, 1023)
        np.testing.assert_array_equal(sv.exact_surface_charge(top, mesh_320, EPS_BIO).density,
                                      np.ldexp(sigma.density, 1023))

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
        rhs = field_rhs(d, mesh_320, EPS_BIO)
        system = np.eye(mesh_320.num_panels) + EPS_BIO.eps_hat * sv.assemble_dstar(mesh_320)
        a = np.linalg.solve(system, rhs)
        b = sv.exact_surface_charge(rhs, mesh_320, EPS_BIO, tol=1e-12)
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
        g, h = bem.panel_vectors(d, surf)
        system = np.eye(surf.num_panels) + eps.eps_hat * sv.assemble_dstar(surf)
        dense = np.linalg.solve(system, -eps.eps_hat / eps.eps_in * g)
        want = 0.5 * COULOMB_KCAL * float(dense @ h)
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
        rhs = field_rhs(d, mesh_1280, EPS_WATER)
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
        d2 = sv.make_distribution(d1.positions * s, d1.magnitudes)
        e2 = sv.bem_energy(d2, scaled_surface(mesh_320, s), EPS_BIO).value
        assert e2 == pytest.approx(e1 / s, rel=1e-10)

    def test_bad_iterative_tol(self, mesh_320):
        d = sv.make_distribution([[0, 0, 0]], [1.0])
        rhs = field_rhs(d, mesh_320, EPS_WATER)
        with pytest.raises(DomainError):
            sv.exact_surface_charge(rhs, mesh_320, EPS_WATER, tol=0.5)


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
