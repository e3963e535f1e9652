"""Benchmark of the solvbie CLI: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload sphere_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout and driven in-process through ``solvbie.cli.main(argv)``; it
sees only the config JSON, PQR and OFF files this script generates from
``--seed``.  Each call is issued when the previous one has returned.  Call
times are scaled to a reference speed measured around each call (see
reference.py); raw times go to the run record.  Set-up time is raw.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of calls untraced, then as many further
calls with spans around the program's public functions, and reports the
per-layer metrics and the tracing overhead.  Outputs are checked after the
measured section.  The last line of standard output is the result JSON; a
run record with the environment goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

#: BLAS threads, fixed so runs do not depend on the host's core count.
BLAS_THREADS = "1"
SETUP_REPEATS = 5

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, or None outside a git repository."""
    try:
        # The ceiling keeps git from reporting a repository that merely encloses root.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas_info(np) -> dict:
    """BLAS vendor and version from numpy's build, and its live thread count."""
    import ctypes
    import glob

    info = {"threads_requested": int(BLAS_THREADS)}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    k = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[k - 1], len(ordered) - k


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import solvbie.cli; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                                capture_output=True, text=True, timeout=120).stdout)


class Runner:
    """Calls the CLI in-process, timing its reference kernel around each call."""

    def __init__(self, cli, workload, reference):
        self.cli = cli
        self.workload = workload
        self.reference = reference
        #: (index, exit code, stdout, stderr, latency, timed) per call.
        self.calls: list[tuple[int, int, str, str, float, bool]] = []
        #: (kernel, seconds before, seconds after) per call; None if unscaled.
        self.kernel_s: list[tuple[str, float, float] | None] = []

    def call(self, i: int, timed: bool = True):
        kind = self.workload.reference_for(i)
        before = self.reference.time(kind) if kind else None
        argv = self.workload.argv(i)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # A crash is a failed call; keep measuring the rest.
            code = 1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
        self.kernel_s.append((kind, before, self.reference.time(kind)) if kind else None)
        self.calls.append((i, code, out.getvalue(), err.getvalue(), latency, timed))

    def run_for(self, first: int, seconds: float):
        """Calls from ``first`` on until ``seconds`` have passed."""
        start = time.perf_counter()
        i = first
        while i < self.workload.num_calls() and (
                i == first or time.perf_counter() - start < seconds):
            self.call(i)
            i += 1

    def scaled(self, j: int) -> float:
        """Latency of the j-th call at its reference kernel's nominal speed."""
        if self.kernel_s[j] is None:
            return self.calls[j][4]
        kind, before, after = self.kernel_s[j]
        return self.calls[j][4] * self.reference.nominal[kind] / (0.5 * (before + after))


def end_to_end(wl, timed, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics from (index, scaled latency, passed) of the timed calls."""
    lat = [t for _, t, _ in timed]
    good = [(i, t) for i, t, ok in timed if ok]
    tail_s, beyond = percentile(lat, wl.tail_percentile)
    metrics = {
        "setup_s": setup_s,
        "energies_per_s": (sum(wl.energies(i) for i, _ in good)
                           / sum(t for _, t in good)) if good else 0.0,
        "call_p50_s": statistics.median(lat),
        "call_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "energies_per_s": "1/s", "call_p50_s": "s",
             "call_tail_s": "s", "peak_rss_mb": "MB"}
    info = {"calls": len(lat), "scaled_latencies_s": lat,
            "tail_percentile": wl.tail_percentile, "tail_samples_beyond": beyond}
    return {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}, info


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".iterations", "count"), (".bytes", "B"),
                         (".flops", "flop"), (".flops_per_byte", "flop/B"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "solvbie" / "cli.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import solvbie
    import solvbie.cli

    if Path(solvbie.__file__).resolve().parent != (src / "solvbie").resolve():
        print(f"perfbench: imported solvbie from {solvbie.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from reference import Reference
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    reference = Reference()
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = BENCH_DIR / "_work" / f"{tag}_{os.getpid()}"
    try:
        # Set-up, repeated SETUP_REPEATS times: import the CLI in a fresh
        # interpreter, and generate the inputs.  setup_s adds the two medians.
        import_times, gen_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds(src))
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            wl = workload_cls(workdir, args.seed, args.seconds)
            start = time.perf_counter()
            sizes = wl.generate()
            gen_times.append(time.perf_counter() - start)
        setup_s = statistics.median(import_times) + statistics.median(gen_times)

        runner = Runner(solvbie.cli, wl, reference)
        # One untimed call first, so lazy set-up inside the program is not
        # counted as a call's latency.  It is checked like every other call.
        runner.call(0, timed=False)
        if args.trace:
            k = wl.trace_calls
            for i in range(1, 1 + k):
                runner.call(i)
            tracer = Tracer()
            tracer.install()
            try:
                for i in range(1 + k, 1 + 2 * k):
                    tracer.run_id = i
                    runner.call(i)
            finally:
                tracer.uninstall()
        else:
            runner.run_for(1, args.seconds)

        # Checks, outside the measured section.
        check_start = time.perf_counter()
        results = [wl.collect(i, code, out) for i, code, out, _, _, _ in runner.calls]
        problems = wl.check(results)
        for (i, _, _, err, _, _), found in zip(runner.calls, problems):
            for line in found:
                print(f"FAIL {line}")
            if found and err.strip():
                print(f"  stderr of call {i}: {err.strip().splitlines()[-1]}")
        failed = sum(1 for p in problems if p)
        attempted = len(results)
        check_s = time.perf_counter() - check_start

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(ROOT),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(np), "inputs": sizes,
            "load": "closed loop, 1 client",
            "import_s": import_times, "generate_s": gen_times, "check_s": check_s,
            "latencies_s": [c[4] for c in runner.calls], "kernel_s": runner.kernel_s,
            "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        }
        if args.trace:
            # Positions in runner.calls: 0 untimed, 1..k untraced, k+1..2k traced.
            traced = range(1 + k, 1 + 2 * k)
            configs, surfaces = wl.distinct_inputs(traced)
            values = tracer.metrics(sum(runner.calls[j][4] for j in traced), configs, surfaces)
            values["bem.rel_err"] = wl.bem_rel_err(
                [r for r, p in zip(results, problems) if r.index in traced and not p])
            values["trace.overhead_frac"] = (sum(runner.scaled(j) for j in traced)
                                             / sum(runner.scaled(j) for j in range(1, 1 + k))
                                             - 1.0)
            metrics = {m: {"value": v, "unit": per_layer_unit(m)} for m, v in values.items()}
            record["trace_calls"] = k
            tracer.write(out_dir / f"{tag}.spans.jsonl")
        else:
            timed = [(runner.calls[j][0], runner.scaled(j), not p)
                     for j, p in enumerate(problems) if runner.calls[j][5]]
            metrics, info = end_to_end(wl, timed, setup_s)
            record.update(info)
        record["metrics"] = metrics
        (out_dir / f"{tag}.record.json").write_text(json.dumps(record, indent=2) + "\n")

        for key in ("git_sha", "nproc", "python", "numpy", "scipy", "blas", "inputs"):
            print(f"# {key}: {json.dumps(record[key])}")
        if not args.trace:
            print(f"# calls: {record['calls']}, call_tail_s is p{wl.tail_percentile:g} "
                  f"with {record['tail_samples_beyond']} calls beyond it")
        print(f"# fail_frac: {record['fail_frac']} ({failed} of {attempted} calls)")
        for m, v in metrics.items():
            print(f"{m} {v['value']:.6g} {v['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH_DIR / "_work").rmdir()


if __name__ == "__main__":
    sys.exit(main())
