"""Spans around the program's public functions, installed from outside ``src/``.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span ``[name, start, end, parent, run_id]``.  Each
wrapper is installed at every module attribute that holds the original
function, so calls resolved through ``from .harmonics import source_moments``
in another module are traced as well.  ``scipy``'s ``gmres`` as bound in
``solvbie.bem`` is wrapped without a span, to count iterations and matrix
products.  ``uninstall`` puts every original back.

Kernel counts are computed from array sizes, not measured: 8 T^2 bytes per
dense D* assembly, 2/3 T^3 flops per LU solve and 2 T^2 flops per GMRES
matrix-vector product.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "experiments", "sphere", "harmonics", "mesh", "bem")

#: Per-layer metric -> the spans whose self time it sums.  CSV and JSON
#: formatting called by the CLI is counted under cli.main.
SELF_TIME_GROUPS = {
    "harmonics.legendre_table": ("harmonics.legendre_table",),
    "harmonics.source_moments": ("harmonics.source_moments",),
    "harmonics.eval_interior_potential_many": ("harmonics.eval_interior_potential_many",
                                               "harmonics.eval_interior_potential"),
    "harmonics.truncation_tail_estimate": ("harmonics.truncation_tail_estimate",),
    "sphere.solvation_energy": ("sphere.solvation_energy", "sphere.kirkwood_energy",
                                "sphere.bibee_energy", "sphere.kirkwood_reaction_coefficients",
                                "sphere.bibee_reaction_coefficients"),
    "sphere.gb": ("sphere.sphere_gb_parameters", "sphere.gb_still_energy",
                  "sphere.gb_epsilon_energy"),
    "experiments.random_sphere_config": ("experiments.random_sphere_config",),
    "experiments.run_comparison": ("experiments.run_comparison", "experiments.lambda_sweep"),
    "cli.main": ("cli.*", "experiments.rows_to_csv", "experiments.report_to_json"),
    "mesh.load_mesh": ("mesh.load_mesh", "mesh.load_off", "mesh.load_msms"),
    "mesh.build_surface": ("mesh.build_surface",),
    "bem.coulomb_field_rhs": ("bem.coulomb_field_rhs",),
    "bem.reaction_energy": ("bem.reaction_energy",),
    "bem.bibee_surface_charge": ("bem.bibee_surface_charge",),
    "bem.assemble_dstar": ("bem.assemble_dstar",),
    "bem.exact_surface_charge": ("bem.exact_surface_charge",),
}

CALL_GROUPS = {
    "harmonics.legendre_table.calls": ("harmonics.legendre_table",),
    "harmonics.source_moments.calls": ("harmonics.source_moments",),
    "sphere.energy.calls": ("sphere.kirkwood_energy", "sphere.bibee_energy"),
    "bem.assemble_dstar.calls": ("bem.assemble_dstar",),
}


class Tracer:
    """In-memory span recorder plus the computed kernel counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_bem_assemble_dstar(self, result, surf, *args, **kwargs):
        self.counters["bem.assemble_dstar.bytes"] += 8.0 * surf.num_panels ** 2

    def _after_bem_exact_surface_charge(self, result, rhs, surf, *args, **kwargs):
        if result.metadata.get("solver") == "direct":
            self.counters["bem.solve.flops"] += 2.0 / 3.0 * surf.num_panels ** 3

    def _counting_gmres(self, gmres):
        from scipy.sparse.linalg import LinearOperator

        counters = self.counters

        def counted(A, b, *args, **kwargs):
            n = A.shape[0]

            def matvec(x):
                counters["bem.solve.flops"] += 2.0 * n * n
                return A.matvec(x)

            if kwargs.get("callback") is None:
                def tick(_residual):
                    counters["bem.gmres.iterations"] += 1
                kwargs["callback"], kwargs["callback_type"] = tick, "pr_norm"
            return gmres(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b,
                         *args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the public functions of every traced layer."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "solvbie" or k.startswith("solvbie.")) and m is not None]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"solvbie.{layer}"]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    replacements[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        bem = sys.modules["solvbie.bem"]
        if hasattr(bem, "gmres"):
            replacements[id(bem.gmres)] = self._counting_gmres(bem.gmres)
        for module in modules:
            for attr, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self seconds and calls per span name, and the root spans' total."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        roots = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
            calls[name] += 1
            if parent is None:
                roots += end - start
        return self_s, calls, roots

    def metrics(self, wall_s: float, configs: int, surfaces: int) -> dict[str, float]:
        """Every per-layer metric of the traced section."""
        self_s, calls, roots = self.self_times()

        def total(table, patterns):
            return sum(v for k, v in table.items()
                       if any(k == p or (p.endswith(".*") and k.startswith(p[:-1]))
                              for p in patterns))

        out = {f"{g}.self_s": total(self_s, pats) for g, pats in SELF_TIME_GROUPS.items()}
        out.update({g: float(total(calls, pats)) for g, pats in CALL_GROUPS.items()})
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = total(self_s, (f"{layer}.*",))
        loads = total(calls, SELF_TIME_GROUPS["mesh.load_mesh"][:1])
        out["harmonics.source_moments.calls_per_config"] = (
            calls["harmonics.source_moments"] / configs if configs else 0.0)
        out["mesh.loads_per_surface"] = loads / surfaces if surfaces else 0.0
        out["bem.assemblies_per_surface"] = (
            calls["bem.assemble_dstar"] / surfaces if surfaces else 0.0)
        for key in ("bem.assemble_dstar.bytes", "bem.solve.flops", "bem.gmres.iterations"):
            out[key] = float(self.counters[key])
        dense = self.counters["bem.assemble_dstar.bytes"]
        out["bem.solve.flops_per_byte"] = self.counters["bem.solve.flops"] / dense if dense else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - roots
        return out

    def write(self, path: Path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run_id": run_id}) + "\n")
