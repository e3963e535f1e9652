"""Tests of the benchmark's own checks, oracle and tracer.

    python3 -m pytest perfbench/selftest.py

Each workload's check is fed real CLI output, then the same output with one
energy perturbed by 1e-6 relative, with a row missing, and with a nonzero
exit; every corruption must be counted as a failure.  The file is not named
``test_*.py`` so the repository's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import solvbie  # noqa: E402
import solvbie.cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import percentile  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def workdir(request):
    path = BENCH_DIR / "_work" / f"selftest_{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_calls(wl, indices):
    results = []
    for i in indices:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = solvbie.cli.main(wl.argv(i))
        results.append(wl.collect(i, code, out.getvalue()))
    return results


def edit_csv(result, name, edit):
    """Apply ``edit`` to the parsed rows of one output CSV and write them back."""
    rows = list(csv.DictReader(io.StringIO(result.files[name])))
    columns = list(rows[0])
    rows = edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    result.files[name] = buf.getvalue()


def perturb(rows, row, column, rel=1e-6):
    rows[row][column] = repr(float(rows[row][column]) * (1.0 + rel))
    return rows


def failures(wl, results):
    return [bool(p) for p in wl.check(results)]


def assert_corruptions_caught(wl, results, target, name, energy_row, energy_column):
    """Clean output passes; each corruption of call ``target`` fails it."""
    assert failures(wl, results) == [False] * len(results), wl.check(results)

    def corrupted(edit):
        copy = [workloads.CallResult(r.index, r.exit_code, r.stdout, dict(r.files))
                for r in results]
        edit(copy[target])
        return failures(wl, copy)[target]

    assert corrupted(lambda r: edit_csv(r, name, lambda rows: perturb(
        rows, energy_row, energy_column)))
    assert corrupted(lambda r: edit_csv(r, name, lambda rows: rows[:-1]))
    assert corrupted(lambda r: setattr(r, "exit_code", 4))


def test_sphere_sweep_check_catches_corruption(workdir):
    wl = workloads.SphereSweep(workdir, 11, 1)
    wl.generate()
    results = run_calls(wl, range(2))
    assert_corruptions_caught(wl, results, 1, "call_1_summary.csv", 3, "rmsd")


def test_sphere_sweep_check_catches_wrong_best_lambda(workdir):
    wl = workloads.SphereSweep(workdir, 12, 1)
    wl.generate()
    (result,) = run_calls(wl, range(1))
    result.stdout = "best_lambda=-0.22\n" if "-0.1\n" in result.stdout else "best_lambda=-0.1\n"
    assert wl.check([result])[0]


def test_sphere_ensemble_check_catches_corruption(workdir):
    wl = workloads.SphereEnsemble(workdir, 13, 1)
    wl.generate()
    results = run_calls(wl, range(2))
    assert_corruptions_caught(wl, results, 0, "call_0_rows.csv", 9, "energy_kcal_mol")


def test_bem_reuse_check_catches_corruption(workdir):
    wl = workloads.BemReuse(workdir, 14, 1)
    wl.generate()
    # Calls 0-3 and 48-51 run every variant on charge set 0, twice.
    cycle = len(wl.variants) * wl.sets
    results = run_calls(wl, [0, 1, 2, 3, cycle, cycle + 1])
    assert_corruptions_caught(wl, results, 4, f"call_{cycle}.csv", 0, "energy_kcal_mol")
    # Without a repeat, BEM-CFA and BEM-P of one set must still be proportional.
    assert_corruptions_caught(wl, results[:4], 2, "call_2.csv", 0, "energy_kcal_mol")


def test_bem_large_check_catches_corruption(workdir):
    wl = workloads.BemLarge(workdir, 15, 1)
    wl.generate()
    results = run_calls(wl, range(1))
    # A single exact solve has no tighter reference than the sphere series,
    # so the energy corruption here is twice the discretization bound.
    rel = 2 * workloads.BEM_RTOL[5120]
    assert not wl.check(results)[0]
    for edit in (lambda rows: perturb(rows, 0, "energy_kcal_mol", rel), lambda rows: []):
        bad = workloads.CallResult(0, 0, "", dict(results[0].files))
        edit_csv(bad, "call_0.csv", edit)
        assert wl.check([bad])[0]
    assert wl.check([workloads.CallResult(0, 5, "", dict(results[0].files))])[0]


def test_oracle_matches_program_pairwise_series():
    pos, q = oracle.ball_charges(5, 2, 25, 5.0, 0.95, 0.5)
    model = solvbie.SphereModel(5.0, solvbie.DielectricPair(4.0, 80.0), 25)
    want = solvbie.pairwise_kirkwood_energy(solvbie.make_distribution(pos, q), model)
    got = oracle.series_energy(oracle.mode_spectrum(pos, q, 25), "kirkwood", 5.0, 4.0, 80.0)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_tracer_restores_functions_and_accounts_for_time():
    import solvbie.harmonics
    import solvbie.sphere

    before = solvbie.sphere.source_moments
    tracer = Tracer()
    tracer.install()
    try:
        assert solvbie.sphere.source_moments is solvbie.harmonics.source_moments
        assert solvbie.sphere.source_moments is not before
        pos, q = oracle.ball_charges(1, 0, 10, 5.0, 0.9, 0.5)
        model = solvbie.SphereModel(5.0, solvbie.DielectricPair(4.0, 80.0), 10)
        solvbie.sphere.kirkwood_energy(solvbie.make_distribution(pos, q), model)
    finally:
        tracer.uninstall()
    assert solvbie.sphere.source_moments is before
    self_s, calls, roots = tracer.self_times()
    assert calls["harmonics.legendre_table"] == 2
    assert sum(self_s.values()) == pytest.approx(roots)


def test_percentile_is_nearest_rank():
    lat = list(np.arange(1, 101, dtype=float))
    assert percentile(lat, 90.0) == (90.0, 10)
    assert percentile(lat[:20], 50.0) == (10.0, 10)
    assert percentile(lat[:3], 100.0) == (3.0, 0)
