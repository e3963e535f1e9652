"""End-to-end acceptance checks, one test per guaranteed property.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np

import solvbie as sv
from conftest import (dstar_spectrum_estimates, gb_energy, random_ball_distribution,
                      sphere_gb_radii)
from solvbie.experiments import ROW_COLUMNS, rows_to_csv
from solvbie.mesh import build_surface
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import _mode_factors

EPS_BIO = sv.DielectricPair(4.0, 80.0)
EPS_WATER = sv.DielectricPair(1.0, 80.0)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_born_exactness():
    worst = 0.0
    for b, e1, e2, q in ((5.0, 1.0, 80.0, 1.0), (3.0, 4.0, 80.0, -0.5),
                         (12.0, 2.0, 10.0, 2.0), (1.0, 1.0, 2.0, 1.0)):
        d = sv.make_distribution([[0, 0, 0]], [q])
        model = sv.SphereModel(b, sv.DielectricPair(e1, e2), 25)
        born = -0.5 * COULOMB_KCAL * q * q / b * (1.0 / e1 - 1.0 / e2)
        for energy in (sv.kirkwood_energy(d, model).value,
                       sv.sphere_energies(d, model, ["cfa"])[0].value):
            worst = max(worst, abs(energy - born) / abs(born))
    _report("centered-charge Born closed form, Kirkwood and CFA",
            worst < 1e-12, f"max rel err {worst:.2e}")


def test_02_equal_dielectric_identity(mesh_320):
    d = random_ball_distribution(201, 0)
    eps = sv.DielectricPair(7.5, 7.5)
    model = sv.SphereModel(5.0, eps, 25)
    radii = sphere_gb_radii(d, 5.0)
    values = [
        sv.kirkwood_energy(d, model).value,
        sv.sphere_energies(d, model, ["cfa"])[0].value,
        sv.sphere_energies(d, model, ["p"])[0].value,
        sv.sphere_energies(d, model, ["lambda"], -0.2)[0].value,
        sv.sphere_energies(d, model, ["m"], 0.0)[0].value,
        gb_energy(d, radii, 5.0, 0.0, eps),
        gb_energy(d, radii, 5.0, 0.57, eps),
        sv.bem_energy(d, mesh_320, eps).value,
    ]
    _report("equal interior/exterior dielectric gives exactly zero",
            all(v == 0.0 for v in values), f"max |value| {max(map(abs, values)):g}")


def test_03_bound_ordering_1000_configs():
    start = time.time()
    model = sv.SphereModel(5.0, EPS_BIO, 25)
    violations = 0
    for index in range(1000):
        d = random_ball_distribution(202, index)
        ek, ec, ep, em = (r.value for r in sv.sphere_energies(
            d, model, ("kirkwood", "cfa", "p", "m"), 0.0))
        slack = 1e-10 * abs(ek)
        if not (ec >= ek - slack and ek >= ep - slack):
            violations += 1
        elif abs(math.fsum(d.magnitudes)) > 1e-12 and not (ep - slack <= em <= ek + slack):
            violations += 1
    elapsed = time.time() - start
    _report("upper/lower bound ordering on 1000 random configurations",
            violations == 0 and elapsed < 30.0,
            f"{violations} violations, {elapsed:.1f} s")


def test_04_eigenfunction_preservation():
    # Each method's reaction coefficients are its factor row times the moments,
    # B_nm = f_n M_nm, so a single-harmonic source M gives that harmonic alone.
    model = sv.SphereModel(5.0, EPS_BIO, 6)
    factors = _mode_factors(model, ["kirkwood", "cfa", "p", "lambda", "m"],
                            [0.0, 0.0, 0.0, -0.2, -0.1])
    worst = 0.0
    for n in range(7):
        for m in range(0, n + 1):
            e = np.zeros((7, 7), dtype=complex)
            e[n, m] = 1.0
            for b in e * factors[:, :, None]:
                on = abs(b[n, m])
                mask = np.ones_like(b, dtype=bool)
                mask[n, m] = False
                worst = max(worst, float(np.max(np.abs(b[mask]))) / on)
    _report("single-harmonic sources stay single-harmonic for all five methods",
            worst <= 1e-12, f"max off-mode/on-mode {worst:.2e}")


def test_05_asymptotic_mode_ratios():
    eps = sv.DielectricPair(1e-8, 1.0)
    model = sv.SphereModel(5.0, eps, 10)
    worst = 0.0
    fk, fc, fp = _mode_factors(model, ["kirkwood", "cfa", "p"], [0.0, 0.0, 0.0])
    for n, bk, bc, bp in zip(range(11), fk, fc, fp):
        worst = max(worst, abs(bc / bk - (n + 1) / (2 * n + 1)) / ((n + 1) / (2 * n + 1)))
        worst = max(worst, abs(bp / bk - (n + 1) / (n + 0.5)) / ((n + 1) / (n + 0.5)))
    _report("high-contrast per-mode ratios (n+1)/(2n+1) and (n+1)/(n+1/2)",
            worst < 1e-6, f"max rel err {worst:.2e}")


def test_06_per_mode_exact_recovery():
    model = sv.SphereModel(5.0, EPS_BIO, 25)
    # Factors and moments in units of the cavity radius b.
    d = random_ball_distribution(203, 0, radius=1.0)
    e = sv.source_moments(d, 25)
    # Kirkwood's coefficients are the per-mode factor P_n / (1 + eps_hat lambda_n)
    # at lambda_n = -1/(2(2n+1)); the reference is the closed-form exact factor.
    n = np.arange(26, dtype=float)
    e1, e2, b = 4.0, 80.0, 5.0
    exact = (e1 - e2) * (n + 1) / (e1 * (e1 * n + e2 * (n + 1)) * b)
    bk = e * exact[:, None]
    bl = e * _mode_factors(model, ["kirkwood"], [0.0])[0][:, None]
    err = float(np.max(np.abs(bl - bk))) / float(np.max(np.abs(bk)))
    _report("per-mode eigenvalue -1/(2(2n+1)) recovers the exact coefficients",
            err < 1e-13, f"max rel err {err:.2e}")


def test_07_pairwise_consistency_100_configs():
    start = time.time()
    model = sv.SphereModel(5.0, EPS_BIO, 25)
    worst = 0.0
    for index in range(100):
        d = random_ball_distribution(204, index, count=10)
        total = sv.pairwise_kirkwood_energy(d, model)
        exact = sv.kirkwood_energy(d, model).value
        worst = max(worst, abs(total - exact) / abs(exact))
    elapsed = time.time() - start
    _report("pairwise interaction series reassembles the full energy",
            worst < 1e-10 and elapsed < 30.0,
            f"max rel err {worst:.2e}, {elapsed:.1f} s")


def test_08_bem_convergence(sphere_meshes):
    start = time.time()
    d = sv.make_distribution([[0, 0, 2.0]], [1.0])
    model = sv.SphereModel(5.0, EPS_WATER, 40)
    exact = sv.kirkwood_energy(d, model).value
    errs = []
    for panels in (320, 1280, 5120):
        # A copy of the fixture's surface keeps its D* (210 MB at 5120 panels) to this test.
        mesh = sphere_meshes[panels]
        got = sv.bem_energy(d, build_surface(mesh.vertices, mesh.triangles.copy()),
                            EPS_WATER).value
        errs.append(abs(got - exact) / abs(exact))
    monotone = errs[0] > errs[1] > errs[2]
    envelope = errs[2]
    variant_ok = True
    variant_worst = 0.0
    for variant in (sv.BibeeVariant("cfa"), sv.BibeeVariant("p"),
                    sv.BibeeVariant("m", 0.0)):
        analytic = sv.sphere_energies(d, model, [variant.tag], variant.lam)[0].value
        discrete = sv.bem_energy(d, sphere_meshes[5120], EPS_WATER,
                                 variant=variant).value
        rel = abs(discrete - analytic) / abs(analytic)
        variant_worst = max(variant_worst, rel)
        variant_ok = variant_ok and rel < 0.02
    elapsed = time.time() - start
    _report("BEM refinement converges to the series solution",
            monotone and envelope < 0.02 and variant_ok and elapsed < 120.0,
            f"errors {errs[0]:.3f}/{errs[1]:.3f}/{errs[2]:.4f}, "
            f"variant worst {variant_worst:.4f}, {elapsed:.1f} s")


def test_09_discrete_operator_spectrum(sphere_meshes):
    start = time.time()
    est = dstar_spectrum_estimates(sphere_meshes[5120])
    elapsed = time.time() - start
    ok = (abs(est["lowest"] + 0.5) < 0.02
          and abs(est["dipole"] + 1.0 / 6.0) < 0.02
          and abs(est["highest"]) < 0.02
          and elapsed < 120.0)
    _report("assembled operator spectrum brackets [-1/2, 0] with dipole -1/6",
            ok,
            f"lowest {est['lowest']:.4f}, dipole {est['dipole']:.4f}, "
            f"highest {est['highest']:.4f}, {elapsed:.1f} s")


def test_10_gb_epsilon_alpha_optimality():
    start = time.time()
    model = sv.SphereModel(5.0, EPS_WATER, 40)
    errors = {0.0: [], 0.57: [], 1.0: []}
    for index in range(100):
        d = random_ball_distribution(77, index, count=2)
        exact = sv.pairwise_kirkwood_energy(d, model)
        radii = sphere_gb_radii(d, 5.0)
        for alpha in errors:
            approx = gb_energy(d, radii, 5.0, alpha, EPS_WATER)
            errors[alpha].append(abs(approx - exact) / abs(exact))
    means = {a: float(np.mean(v)) for a, v in errors.items()}
    elapsed = time.time() - start
    ok = means[0.57] < means[0.0] and means[0.57] < means[1.0] and elapsed < 10.0
    _report("fitted dielectric correction beats its endpoints on charge pairs",
            ok,
            f"mean rel err alpha 0/0.57/1 = {means[0.0]:.6f}/"
            f"{means[0.57]:.6f}/{means[1.0]:.6f}, {elapsed:.1f} s")


def test_11_seeded_runs_byte_identical():
    start = time.time()
    cfg = sv.ExperimentConfig(seed=314, num_configs=20, charges_per_config=10)
    a = rows_to_csv(sv.run_comparison(cfg).rows, ROW_COLUMNS)
    b = rows_to_csv(sv.run_comparison(cfg).rows, ROW_COLUMNS)
    elapsed = time.time() - start
    _report("repeated seeded experiment runs emit byte-identical CSV",
            a.encode() == b.encode() and elapsed < 10.0, f"{elapsed:.1f} s")
