"""The benchmark's workloads: generated inputs, CLI calls, parsed outputs, checks.

Each workload writes its inputs (config JSON, PQR and OFF files) into a work
directory, names the CLI argument list of its i-th call, parses what that
call wrote, and checks the parsed outputs against the reference energies of
``oracle``.  Checks return a list of problems per call; an empty list means
the call's output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

EPS_IN, EPS_OUT = 4.0, 80.0
N_MAX = 25
#: The program's default lambda grid, written explicitly into every sweep config.
LAMBDA_GRID = (-0.10, -0.12, -0.14, -0.16, -0.18, -0.20, -0.22)
#: Relative tolerance of program energies against the pairwise oracle.
ORACLE_RTOL = 1e-9
#: Slack of the CFA >= Kirkwood >= P ordering, as in the program's bound tests.
BOUND_SLACK = 1e-10
#: Relative tolerance between outputs that must agree up to rounding.
REPEAT_RTOL = 1e-9
#: BEM energies against the sphere series, by panel count.  The 5120-panel
#: bound is the program's own convergence test bound.  On 1280 panels, 200
#: seeded 25-charge sets at margin 0.6 reached 2.4% (exact) and 2.2%
#: (CFA/P/M), so that mesh gets twice the bound.
BEM_RTOL = {1280: 0.04, 5120: 0.02}


@dataclass
class CallResult:
    """What one CLI call returned and wrote."""

    index: int
    exit_code: int
    stdout: str
    files: dict[str, str] = field(default_factory=dict)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class Workload:
    """Shared driver logic; subclasses define inputs, calls and checks."""

    name = ""
    #: Calls made by the traced run, fixed so that its counts repeat exactly.
    trace_calls = 0
    #: Percentile reported as call_tail_s, chosen so that at least ten of a
    #: run's calls lie beyond it at the program's current speed.
    tail_percentile = 100.0
    #: Reference kernel (see reference.py) whose bottleneck matches the
    #: calls', or None for calls whose raw times are reported unscaled.
    reference: str | None = "interpreter"

    def __init__(self, workdir: Path, seed: int, seconds: float):
        self.workdir = Path(workdir)
        self.seed = seed
        self.seconds = seconds
        self.out_dir = self.workdir / "out"

    def generate(self) -> dict:
        """Write every input file; return the input sizes for the run record."""
        raise NotImplementedError

    def num_calls(self) -> int:
        """How many distinct calls the generated inputs allow."""
        raise NotImplementedError

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def output_files(self, i: int) -> list[Path]:
        raise NotImplementedError

    def collect(self, i: int, exit_code: int, stdout: str) -> CallResult:
        files = {}
        for path in self.output_files(i):
            if path.exists():
                files[path.name] = path.read_text()
        return CallResult(i, exit_code, stdout, files)

    def check(self, results: list[CallResult]) -> list[list[str]]:
        """Problems found in each call's output, in the order given."""
        return [self._check_one(r) for r in results]

    def _check_one(self, result: CallResult) -> list[str]:
        if result.exit_code != 0:
            return [f"call {result.index} exited {result.exit_code}"]
        try:
            return self._check_output(result)
        except (KeyError, ValueError, IndexError) as exc:
            return [f"call {result.index}: malformed output ({exc!r})"]

    def _check_output(self, result: CallResult) -> list[str]:
        raise NotImplementedError

    def energies(self, i: int) -> int:
        """Energies call ``i`` produces, counted for energies_per_s."""
        raise NotImplementedError

    def reference_for(self, i: int) -> str | None:
        """Reference kernel that call ``i``'s latency is scaled by."""
        return self.reference

    def bem_rel_err(self, results: list[CallResult]) -> float:
        """Largest relative error of exact BEM energies against the sphere series."""
        return 0.0

    def distinct_inputs(self, indices) -> tuple[int, int]:
        """(charge configurations, surfaces) the given calls work on."""
        raise NotImplementedError


# ---------------------------------------------------------------- sphere


class _SphereEnsemble(Workload):
    """Calls on one config JSON, each with a fresh ensemble seed (``--seed``)."""

    command = ""
    configs_per_call = 0
    charges = 0
    radius = 0.0
    methods: tuple[str, ...] = ()
    lambda_value = 0.0

    def generate(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        config = {
            "num_configs": self.configs_per_call, "charges_per_config": self.charges,
            "sphere_radius": self.radius, "max_abs_charge": 0.5, "placement_margin": 0.95,
            "eps_in": EPS_IN, "eps_out": EPS_OUT, "n_max": N_MAX,
            "methods": list(self.methods), "lambda_value": self.lambda_value,
            "lambda_grid": list(LAMBDA_GRID),
        }
        self._config_path.write_text(json.dumps(config))
        self._base_seed = int(np.random.default_rng(self.seed).integers(0, 2 ** 40))
        return {k: config[k] for k in ("num_configs", "charges_per_config",
                                       "sphere_radius", "n_max", "methods")}

    @property
    def _config_path(self) -> Path:
        return self.workdir / "config.json"

    def _config_seed(self, i: int) -> int:
        return self._base_seed + i

    def num_calls(self) -> int:
        return 10 ** 9  # every call draws a fresh ensemble

    def _prefix(self, i: int) -> Path:
        return self.out_dir / f"call_{i}"

    def argv(self, i: int) -> list[str]:
        return [self.command, "--config", str(self._config_path),
                "--seed", str(self._config_seed(i)), "--out", str(self._prefix(i))]

    def distinct_inputs(self, indices) -> tuple[int, int]:
        return len(list(indices)) * self.configs_per_call, 0

    def _oracle_inputs(self, i: int, index: int):
        """Regenerated charges of one config and their mode spectrum."""
        pos, q = oracle.ball_charges(self._config_seed(i), index, self.charges,
                                     self.radius, 0.95, 0.5)
        return pos, q, oracle.mode_spectrum(pos, q, N_MAX)


class SphereSweep(_SphereEnsemble):
    """``solvbie sweep``: every config scored by M at each grid lambda."""

    name = "sphere_sweep"
    command = "sweep"
    configs_per_call = 2
    charges = 25
    radius = 5.0
    methods = ("kirkwood", "cfa", "p", "m")
    trace_calls = 10
    tail_percentile = 75.0
    reference = "small_arrays"

    def output_files(self, i: int) -> list[Path]:
        return [Path(str(self._prefix(i)) + "_summary.csv")]

    def energies(self, i: int) -> int:
        return self.configs_per_call * len(LAMBDA_GRID)

    def _check_output(self, result: CallResult) -> list[str]:
        i = result.index
        rows = _read_csv(result.files[f"call_{i}_summary.csv"])
        problems = []
        lams = [float(r["lambda"]) for r in rows]
        if lams != list(LAMBDA_GRID):
            problems.append(f"call {i}: summary lambdas {lams} != grid")
        for r in rows:
            if r["method"] != "m" or int(r["n"]) != self.configs_per_call:
                problems.append(f"call {i}: unexpected summary row {r}")
        best = [line for line in result.stdout.splitlines() if line.startswith("best_lambda=")]
        if len(best) != 1:
            return problems + [f"call {i}: no best_lambda line"]
        argmin = min(rows, key=lambda r: (float(r["mean_dev_pct"]), abs(float(r["lambda"]))))
        if float(best[0].split("=", 1)[1]) != float(argmin["lambda"]):
            problems.append(f"call {i}: printed {best[0]} but summary argmin is {argmin['lambda']}")
        refs = [self._oracle_inputs(i, k) for k in range(self.configs_per_call)]
        exact = np.array([oracle.series_energy(s, "kirkwood", self.radius, EPS_IN, EPS_OUT)
                          for _, _, s in refs])
        for r in rows:
            lam = float(r["lambda"])
            m = np.array([oracle.series_energy(s, "m", self.radius, EPS_IN, EPS_OUT, lam)
                          for _, _, s in refs])
            rmsd = float(np.sqrt(np.mean((m - exact) ** 2)))
            dev = float(np.mean(np.abs(m - exact) / np.abs(exact))) * 100.0
            for key, want in (("rmsd", rmsd), ("mean_dev_pct", dev)):
                if _rel(float(r[key]), want) > ORACLE_RTOL:
                    problems.append(f"call {i}: lambda {lam} {key} {r[key]} != oracle {want!r}")
        return problems


class SphereEnsemble(_SphereEnsemble):
    """``solvbie experiment``: all seven methods on large-Q configs."""

    name = "sphere_ensemble"
    command = "experiment"
    configs_per_call = 2
    charges = 200
    radius = 20.0
    methods = ("kirkwood", "cfa", "p", "lambda", "m", "gb", "gbeps")
    lambda_value = -0.15
    trace_calls = 25
    tail_percentile = 75.0

    def output_files(self, i: int) -> list[Path]:
        prefix = str(self._prefix(i))
        return [Path(prefix + "_rows.csv"), Path(prefix + "_summary.csv")]

    def energies(self, i: int) -> int:
        return self.configs_per_call * len(self.methods)

    def _check_output(self, result: CallResult) -> list[str]:
        i = result.index
        rows = _read_csv(result.files[f"call_{i}_rows.csv"])
        summary = _read_csv(result.files[f"call_{i}_summary.csv"])
        problems = []
        energy = {(int(r["index"]), r["method"]): float(r["energy_kcal_mol"]) for r in rows}
        want_keys = {(k, m) for k in range(self.configs_per_call) for m in self.methods}
        if len(rows) != len(want_keys) or set(energy) != want_keys:
            return [f"call {i}: rows cover {sorted(energy)} instead of every config x method"]
        for r in rows:
            if int(r["seed"]) != self._config_seed(i):
                problems.append(f"call {i}: row seed {r['seed']}")
            lam = r["lambda"]
            if (float(lam) if lam else None) != (
                    self.lambda_value if r["method"] in ("lambda", "m") else None):
                problems.append(f"call {i}: row lambda {lam!r} for {r['method']}")
        for k in range(self.configs_per_call):
            kirk = energy[(k, "kirkwood")]
            slack = BOUND_SLACK * abs(kirk)
            if not (energy[(k, "cfa")] >= kirk - slack and kirk >= energy[(k, "p")] - slack):
                problems.append(f"call {i} config {k}: CFA >= Kirkwood >= P violated")
            pos, q, spec = self._oracle_inputs(i, k)
            for m in self.methods:
                want = oracle.method_energy(m, pos, q, spec, self.radius, EPS_IN, EPS_OUT,
                                            self.lambda_value)
                if _rel(energy[(k, m)], want) > ORACLE_RTOL:
                    problems.append(f"call {i} config {k}: {m} {energy[(k, m)]!r} "
                                    f"!= oracle {want!r}")
        exact = np.array([energy[(k, "kirkwood")] for k in range(self.configs_per_call)])
        by_method = {s["method"]: s for s in summary}
        if set(by_method) != set(self.methods):
            return problems + [f"call {i}: summary methods {sorted(by_method)}"]
        for m in self.methods:
            vals = np.array([energy[(k, m)] for k in range(self.configs_per_call)])
            rmsd = float(np.sqrt(np.mean((vals - exact) ** 2)))
            dev = float(np.mean(np.abs(vals - exact) / np.abs(exact))) * 100.0
            for key, want in (("rmsd", rmsd), ("mean_dev_pct", dev)):
                got = float(by_method[m][key])
                if abs(got - want) > ORACLE_RTOL * max(abs(want), 1e-12):
                    problems.append(f"call {i}: summary {m} {key} {got!r} != rows {want!r}")
        return problems


# ---------------------------------------------------------------- BEM


def icosphere(radius: float, subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and outward-wound triangles of a subdivided icosahedron."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [np.array(v, dtype=float) for v in (
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1))]
    verts = [v / np.linalg.norm(v) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        midpoints: dict[tuple[int, int], int] = {}

        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoints:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoints[key] = len(verts) - 1
            return midpoints[key]

        new = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new
    return np.array(verts) * radius, np.array(faces, dtype=int)


def write_off(path: Path, vertices: np.ndarray, triangles: np.ndarray):
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in triangles.tolist()]
    path.write_text("\n".join(lines) + "\n")


def write_pqr(path: Path, pos: np.ndarray, q: np.ndarray):
    lines = [f"ATOM {k + 1} C RES 1 {x!r} {y!r} {z!r} {c!r} 1.5"
             for k, ((x, y, z), c) in enumerate(zip(pos.tolist(), q.tolist()))]
    path.write_text("\n".join(lines) + "\nEND\n")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    qm, r = np.linalg.qr(rng.standard_normal((3, 3)))
    qm = qm * np.sign(np.diag(r))
    if np.linalg.det(qm) < 0:
        qm[:, 0] = -qm[:, 0]
    return qm


class _Bem(Workload):
    """``solvbie bem`` calls on 5 A icospheres with 25-charge PQR sets."""

    radius = 5.0
    charges = 25
    margin = 0.6
    subdivisions = 0

    def _mesh_path(self, j: int) -> Path:
        return self.workdir / f"mesh_{j}.off"

    def _pqr_path(self, j: int) -> Path:
        return self.workdir / f"charges_{j}.pqr"

    def _out(self, i: int) -> Path:
        return self.out_dir / f"call_{i}.csv"

    def output_files(self, i: int) -> list[Path]:
        return [self._out(i)]

    def _write_sets(self, count: int):
        self._sets = []
        self._spectra: dict[int, np.ndarray] = {}
        for j in range(count):
            pos, q = oracle.ball_charges(self.seed, j, self.charges, self.radius,
                                         self.margin, 0.5)
            write_pqr(self._pqr_path(j), pos, q)
            # Positions as the program will parse them back.
            self._sets.append((pos, q))

    def _spectrum(self, j: int) -> np.ndarray:
        """Mode spectrum of charge set ``j``, computed when a check first needs it."""
        if j not in self._spectra:
            self._spectra[j] = oracle.mode_spectrum(*self._sets[j], N_MAX)
        return self._spectra[j]

    def energies(self, i: int) -> int:
        return 1

    def _row(self, result: CallResult) -> dict:
        rows = _read_csv(result.files[self._out(result.index).name])
        if len(rows) != 1:
            raise ValueError(f"{len(rows)} rows instead of 1")
        return rows[0]

    def _exact_error(self, j: int, energy: float) -> float:
        return _rel(energy, oracle.series_energy(self._spectrum(j), "kirkwood",
                                                 self.radius, EPS_IN, EPS_OUT))

    def _check_row(self, i: int, row: dict, variant: str, j: int) -> list[str]:
        panels = 20 * 4 ** self.subdivisions
        want_method = {"exact": "BEM-exact", "cfa": "BEM-CFA", "p": "BEM-P",
                       "m": "BEM-M(0)"}[variant]
        if int(row["panels"]) != panels or row["method"] != want_method:
            return [f"call {i}: row {row['method']} on {row['panels']} panels"]
        energy = float(row["energy_kcal_mol"])
        if variant == "exact":
            err = self._exact_error(j, energy)
        else:
            want = oracle.series_energy(self._spectrum(j), variant, self.radius, EPS_IN, EPS_OUT)
            err = _rel(energy, want)
        if not err <= BEM_RTOL[panels]:
            return [f"call {i}: {variant} off the sphere series by {err:.4f}"]
        return []


class BemReuse(_Bem):
    """The same 1280-panel mesh and a few charge sets, every variant, repeated."""

    name = "bem_reuse"
    subdivisions = 3
    sets = 12
    variants = ("exact", "cfa", "p", "m")
    trace_calls = 48
    tail_percentile = 95.0

    def generate(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        verts, tris = icosphere(self.radius, self.subdivisions)
        write_off(self._mesh_path(0), verts, tris)
        self._write_sets(self.sets)
        return {"panels": len(tris), "charge_sets": self.sets,
                "charges_per_set": self.charges, "placement_margin": self.margin,
                "variants": list(self.variants)}

    def num_calls(self) -> int:
        return 10 ** 9  # calls cycle over the sets and variants

    def reference_for(self, i: int) -> str | None:
        # Exact calls assemble and factor a 13 MB D*; the others parse the mesh.
        return None if self._op(i)[1] == "exact" else "interpreter"

    def _op(self, i: int) -> tuple[int, str]:
        return (i // len(self.variants)) % self.sets, self.variants[i % len(self.variants)]

    def argv(self, i: int) -> list[str]:
        j, variant = self._op(i)
        return ["bem", "--mesh", str(self._mesh_path(0)), "--pqr", str(self._pqr_path(j)),
                "--eps-in", str(EPS_IN), "--variant", variant, "--out", str(self._out(i))]

    def distinct_inputs(self, indices) -> tuple[int, int]:
        return len({self._op(i)[0] for i in indices}), 1

    def check(self, results: list[CallResult]) -> list[list[str]]:
        problems = [self._check_one(r) for r in results]
        # Calls repeat their inputs, so their outputs must repeat; and BEM-CFA
        # is BEM-P scaled by 1/(1 - eps_hat/2), whatever the solver.
        first: dict[tuple[int, str], float] = {}
        eps_hat = (EPS_IN - EPS_OUT) / (0.5 * (EPS_IN + EPS_OUT))
        for res, found in zip(results, problems):
            if found:
                continue
            key = self._op(res.index)
            energy = float(self._row(res)["energy_kcal_mol"])
            if key in first and _rel(energy, first[key]) > REPEAT_RTOL:
                found.append(f"call {res.index}: {energy!r} differs from an earlier "
                             f"call on the same input ({first[key]!r})")
            first.setdefault(key, energy)
            j, variant = key
            other = {"cfa": (j, "p"), "p": (j, "cfa")}.get(variant)
            if other in first:
                cfa, p = (energy, first[other]) if variant == "cfa" else (first[other], energy)
                if _rel(cfa * (1.0 - 0.5 * eps_hat), p) > REPEAT_RTOL:
                    found.append(f"call {res.index}: BEM-CFA and BEM-P of set {j} "
                                 "are not proportional")
        return problems

    def _check_output(self, result: CallResult) -> list[str]:
        j, variant = self._op(result.index)
        return self._check_row(result.index, self._row(result), variant, j)

    def bem_rel_err(self, results: list[CallResult]) -> float:
        errs = {}
        for res in results:
            j, variant = self._op(res.index)
            if variant == "exact":
                errs[j] = self._exact_error(j, float(self._row(res)["energy_kcal_mol"]))
        return max(errs.values(), default=0.0)


class BemLarge(_Bem):
    """One exact solve per 5120-panel mesh, each mesh a fresh random rotation."""

    name = "bem_large"
    subdivisions = 4
    trace_calls = 3
    reference = None
    #: Seconds per call that sizes the mesh pool: today's calls take 1.8-2.8 s
    #: on a 2-CPU x86 host, so the pool leaves a program 20% faster room.
    min_call_s = 1.5
    #: About 13 calls a run: the nearest-rank p90 is the second slowest.
    tail_percentile = 90.0

    def generate(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        verts, tris = icosphere(self.radius, self.subdivisions)
        # One mesh per call the run can make: the untimed call, then one per
        # min_call_s of --seconds.  A faster program stops the run early
        # rather than solve one geometry twice.
        self._pool = max(1 + 2 * self.trace_calls, 1 + math.ceil(self.seconds / self.min_call_s))
        rng = np.random.default_rng([self.seed, 1])
        for j in range(self._pool):
            write_off(self._mesh_path(j), verts @ random_rotation(rng).T, tris)
        self._write_sets(self._pool)
        return {"panels": len(tris), "meshes": self._pool, "charges_per_set": self.charges,
                "placement_margin": self.margin}

    def num_calls(self) -> int:
        return self._pool

    def argv(self, i: int) -> list[str]:
        return ["bem", "--mesh", str(self._mesh_path(i)), "--pqr", str(self._pqr_path(i)),
                "--eps-in", str(EPS_IN), "--out", str(self._out(i))]

    def distinct_inputs(self, indices) -> tuple[int, int]:
        n = len(list(indices))
        return n, n

    def _check_output(self, result: CallResult) -> list[str]:
        return self._check_row(result.index, self._row(result), "exact", result.index)

    def bem_rel_err(self, results: list[CallResult]) -> float:
        return max((self._exact_error(r.index, float(self._row(r)["energy_kcal_mol"]))
                    for r in results), default=0.0)


WORKLOADS = {w.name: w for w in (SphereSweep, SphereEnsemble, BemReuse, BemLarge)}
