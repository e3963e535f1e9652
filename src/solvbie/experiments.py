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
from .model import DielectricPair, SphereModel
from .sphere import (
    GB_METHODS,
    LAMBDA_VARIANTS,
    METHOD_KIRKWOOD,
    SPHERE_METHODS as KNOWN_METHODS,
    VARIANT_CFA,
    VARIANT_M,
    VARIANT_P,
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
    methods: tuple[str, ...] = (METHOD_KIRKWOOD, VARIANT_CFA, VARIANT_P, VARIANT_M)
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
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        # Magnitudes are drawn from [-m, m], whose width 2m must be a finite float.
        if not (self.max_abs_charge >= 0.0 and math.isfinite(2.0 * self.max_abs_charge)):
            raise DomainError(f"max_abs_charge must be >= 0 with 2 * max_abs_charge finite, "
                              f"got {self.max_abs_charge}")
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
    try:
        pos = np.empty((len(indices), k, 3))
        radii, q = np.empty((2, len(indices), k))
    except MemoryError:
        raise DomainError(f"charges of {len(indices)} configurations of {k} charges need "
                          f"{40 * len(indices) * k} bytes") from None
    for c, index in enumerate(indices):
        rng = np.random.default_rng([seed, index])
        rng.standard_normal(out=pos[c])
        rng.random(out=radii[c])
        q[c] = rng.uniform(-cfg.max_abs_charge, cfg.max_abs_charge, k)
    pos /= np.linalg.norm(pos, axis=-1)[..., None]
    pos *= (cfg.placement_margin * cfg.sphere_radius * radii ** (1.0 / 3.0))[..., None]
    return pos, q


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
    try:
        energies = np.empty((cfg.num_configs, len(names)))
    except MemoryError:
        raise DomainError(f"energies of {cfg.num_configs} configurations and {len(names)} "
                          f"methods need {8 * cfg.num_configs * len(names)} bytes") from None
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
    summaries, tiny = [], np.finfo(float).tiny
    for (method, lam), vals in zip(methods, energies[:, 1:].T):
        dev = np.abs(vals - exact_arr)
        with np.errstate(over="ignore"):
            rmsd = float(np.sqrt(np.mean(dev ** 2)))
        # A mean square that overflows or is subnormal: scale by the largest deviation first.
        scale = 0.0 if tiny <= rmsd * rmsd < math.inf else float(np.max(dev))
        if 0.0 < scale < math.inf:
            rmsd = scale * float(np.sqrt(np.mean((dev / scale) ** 2)))
        # A value equal to its reference deviates by 0, also when both are 0.
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
    report = run_comparison(cfg, [(VARIANT_M, lam) for lam in dict.fromkeys(cfg.lambda_grid)])
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
