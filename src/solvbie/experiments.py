"""Reproducible random-charge experiments and method-comparison reports.

Random configurations are drawn from a seeded PCG64 generator; the stream
for configuration ``index`` under master seed ``seed`` is
``numpy.random.default_rng([seed, index])``, so any single configuration can
be regenerated independently of the rest of the ensemble.  A chunk of
configurations is one pair of arrays from the draw to the report rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError
from .model import ChargeDistribution, DielectricPair, SphereModel
from .sphere import (
    GB_METHODS,
    LAMBDA_VARIANTS,
    METHOD_KIRKWOOD,
    SPHERE_METHODS as KNOWN_METHODS,
    VARIANT_CFA as METHOD_CFA,
    VARIANT_M as METHOD_M,
    VARIANT_P as METHOD_P,
    chunk_length,
    ensemble_energies,
)

DEFAULT_LAMBDA_GRID = (-0.10, -0.12, -0.14, -0.16, -0.18, -0.20, -0.22)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a random-sphere comparison run; ``sphere`` is their SphereModel."""

    seed: int
    num_configs: int = 100
    charges_per_config: int = 25
    sphere_radius: float = 5.0
    max_abs_charge: float = 0.5
    placement_margin: float = 0.95
    eps_in: float = 4.0
    eps_out: float = 80.0
    n_max: int = 25
    methods: tuple[str, ...] = (METHOD_KIRKWOOD, METHOD_CFA, METHOD_P, METHOD_M)
    lambda_value: float = 0.0
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID

    def __post_init__(self):
        # A JSON true/false is a bool, which Python counts as an int.
        for f in fields(self):
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(f.type, object)
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        for name, kind in (("methods", str), ("lambda_grid", numbers.Real)):
            items = getattr(self, name)
            if not isinstance(items, (list, tuple)) or not all(
                    isinstance(v, kind) and not isinstance(v, bool) for v in items):
                raise TypeError(f"{name} must be a list of {kind.__name__}, got {items!r}")
            object.__setattr__(self, name, tuple(items))
        if not (0.0 < self.placement_margin < 1.0):
            raise DomainError(f"placement margin must lie in (0, 1), got {self.placement_margin}")
        if self.num_configs <= 0 or self.charges_per_config <= 0:
            raise DomainError("configuration counts must be positive")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise DomainError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
        if not self.lambda_grid or not all(-0.5 <= lam <= 0.0 for lam in self.lambda_grid):
            raise DomainError(f"lambda grid must be nonempty in [-1/2, 0], got {self.lambda_grid}")
        # Built here so a bad radius, dielectric or n_max fails at load time.
        object.__setattr__(self, "sphere", SphereModel(
            self.sphere_radius, DielectricPair(self.eps_in, self.eps_out), self.n_max))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-config energies plus RMSD / mean-relative-deviation summaries."""

    config: ExperimentConfig
    rows: tuple[dict, ...]             # one dict per (config index, method, lambda)
    summaries: tuple[dict, ...]        # one dict per (method, lambda)


def _draw(seed: int, indices, cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Charges uniform in the ball of radius margin*b: positions (C, Q, 3), magnitudes (C, Q).

    Configuration ``index`` comes from its own stream ``default_rng([seed, index])``
    in a fixed draw order: directions (Gaussian, normalized), then the radial
    variates (cube-root transform), then the magnitudes.
    """
    k = cfg.charges_per_config
    pos = np.empty((len(indices), k, 3))
    radii, q = np.empty((2, len(indices), k))
    for c, index in enumerate(indices):
        rng = np.random.default_rng([seed, index])
        rng.standard_normal(out=pos[c])
        rng.random(out=radii[c])
        q[c] = rng.uniform(-cfg.max_abs_charge, cfg.max_abs_charge, k)
    pos /= np.linalg.norm(pos, axis=-1)[..., None]
    pos *= (cfg.placement_margin * cfg.sphere_radius * radii ** (1.0 / 3.0))[..., None]
    return pos, q


def random_sphere_config(seed: int, index: int, cfg: ExperimentConfig) -> ChargeDistribution:
    """Deterministic random charge set: configuration ``index`` of the chunk draw ``_draw``."""
    pos, q = _draw(seed, [index], cfg)
    return ChargeDistribution(pos[0], q[0], label=f"seed{seed}-cfg{index}")


def run_comparison(
    cfg: ExperimentConfig, methods: list[tuple[str, float | None]] | None = None
) -> ComparisonReport:
    """Energies of each (method, lambda) pair over the seeded ensemble.

    The default pairs are the configured methods at ``cfg.lambda_value``,
    with lambda None for the methods that take no eigenvalue.  The exact
    Kirkwood energy, the reference of the summary statistics, is computed
    with every pair in one ``ensemble_energies`` call per chunk of
    configurations, drawn straight into the chunk's arrays.
    """
    if methods is None:
        methods = [(m, cfg.lambda_value if m in LAMBDA_VARIANTS else None) for m in cfg.methods]
    if not methods:
        raise DomainError("no methods requested")
    names, lams = zip((METHOD_KIRKWOOD, None), *methods)
    rows = []
    energies = np.empty((cfg.num_configs, len(names)))
    step = chunk_length(cfg.n_max, cfg.charges_per_config)
    for start in range(0, cfg.num_configs, step):
        indices = range(start, min(start + step, cfg.num_configs))
        pos, q = _draw(cfg.seed, indices, cfg)
        energies[indices], tails = ensemble_energies(pos, q, cfg.sphere, names, lams)
        for index, tail, net in zip(indices, tails.tolist(), map(math.fsum, q)):
            rows.extend({"seed": cfg.seed, "index": index, "method": method, "lambda": lam,
                         "energy_kcal_mol": value,
                         "truncation_estimate": None if method in GB_METHODS else tail,
                         "net_charge": net}
                        for (method, lam), value in zip(methods, energies[index, 1:].tolist()))
    exact_arr = energies[:, 0]
    summaries = []
    for (method, lam), vals in zip(methods, energies[:, 1:].T):
        rmsd = float(np.sqrt(np.mean((vals - exact_arr) ** 2)))
        # A value equal to its reference deviates by 0, also when both are 0.
        dev = np.abs(vals - exact_arr)
        rel = np.divide(dev, np.abs(exact_arr), out=np.zeros_like(dev), where=dev != 0)
        mean_dev = float(np.mean(rel)) * 100.0
        summaries.append({
            "method": method,
            "lambda": lam,
            "rmsd": rmsd,
            "mean_dev_pct": mean_dev,
            "n": cfg.num_configs,
        })
    return ComparisonReport(config=cfg, rows=tuple(rows), summaries=tuple(summaries))


def lambda_sweep(cfg: ExperimentConfig) -> dict:
    """Hybrid-M summary at each distinct grid lambda, in first-seen order, and the best one.

    One ensemble pass scores every grid lambda from each chunk's one stack
    of spectra.  Ties in mean deviation are broken toward smaller |lambda|.
    ``best_at_grid_edge`` is whether the best lambda is an end of the grid.
    """
    report = run_comparison(cfg, [(METHOD_M, lam) for lam in dict.fromkeys(cfg.lambda_grid)])
    best = min(report.summaries, key=lambda s: (s["mean_dev_pct"], abs(s["lambda"])))
    return {"summaries": list(report.summaries), "best_lambda": best["lambda"],
            "best_at_grid_edge": best["lambda"] in (min(cfg.lambda_grid), max(cfg.lambda_grid))}


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


ROW_COLUMNS = ("seed", "index", "method", "lambda", "energy_kcal_mol",
               "truncation_estimate", "net_charge")
SUMMARY_COLUMNS = ("method", "lambda", "rmsd", "mean_dev_pct", "n")


def rows_to_csv(rows, columns) -> str:
    """Deterministic CSV serialization (floats via repr, LF newlines)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(row[c]) for c in columns])
    return buf.getvalue()


def report_to_json(report: ComparisonReport) -> str:
    payload = {
        "config": asdict(report.config),
        "rows": list(report.rows),
        "summaries": list(report.summaries),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
