"""Reproducible random-charge experiments and method-comparison reports.

Random configurations are drawn from a seeded PCG64 generator; the stream
for configuration ``index`` under master seed ``seed`` is
``numpy.random.default_rng([seed, index])``, so any single configuration can
be regenerated independently of the rest of the ensemble.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import ChargeDistribution, DielectricPair, EnergyResult, SphereModel, make_distribution, net_charge
from .sphere import (
    LAMBDA_VARIANTS,
    METHOD_KIRKWOOD,
    SPHERE_METHODS,
    VARIANT_CFA as METHOD_CFA,
    VARIANT_M as METHOD_M,
    VARIANT_P as METHOD_P,
    kirkwood_energy,
)

KNOWN_METHODS = tuple(SPHERE_METHODS)

DEFAULT_LAMBDA_GRID = (-0.10, -0.12, -0.14, -0.16, -0.18, -0.20, -0.22)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a random-sphere comparison run."""

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
        if not (0.0 < self.placement_margin < 1.0):
            raise DomainError(f"placement margin must lie in (0, 1), got {self.placement_margin}")
        if self.num_configs <= 0 or self.charges_per_config <= 0:
            raise DomainError("configuration counts must be positive")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise DomainError(f"unknown method {m!r}; known: {KNOWN_METHODS}")

    @property
    def dielectrics(self) -> DielectricPair:
        return DielectricPair(self.eps_in, self.eps_out)

    @property
    def sphere(self) -> SphereModel:
        return SphereModel(self.sphere_radius, self.dielectrics, self.n_max)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        for key in ("methods", "lambda_grid"):
            if key in data and isinstance(data[key], list):
                data = {**data, key: tuple(data[key])}
        return cls(**data)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-config energies plus RMSD / mean-relative-deviation summaries."""

    config: ExperimentConfig
    rows: tuple[dict, ...]             # one dict per (config index, method)
    summaries: tuple[dict, ...]        # one dict per method
    metadata: dict = field(default_factory=dict, compare=False)

    def summary_for(self, method: str, lam: float | None = None) -> dict:
        for s in self.summaries:
            if s["method"] == method and (lam is None or s["lambda"] == lam):
                return s
        raise KeyError(f"no summary for method {method!r}")


def random_sphere_config(seed: int, index: int, cfg: ExperimentConfig) -> ChargeDistribution:
    """Deterministic random charge set: uniform in the ball of radius margin*b.

    Draw order is fixed: directions (Gaussian, normalized), then the radial
    variates (cube-root transform), then the magnitudes.
    """
    rng = np.random.default_rng([seed, index])
    k = cfg.charges_per_config
    dirs = rng.standard_normal((k, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = cfg.placement_margin * cfg.sphere_radius * rng.random(k) ** (1.0 / 3.0)
    mags = rng.uniform(-cfg.max_abs_charge, cfg.max_abs_charge, k)
    return make_distribution(dirs * radii[:, None], mags, label=f"seed{seed}-cfg{index}")


def _method_lambda(method: str, lam: float) -> float | None:
    return lam if method in LAMBDA_VARIANTS else None


def run_comparison(cfg: ExperimentConfig, lam: float | None = None) -> ComparisonReport:
    """Energies for every requested method over the seeded ensemble.

    The exact Kirkwood energy is always computed (it is the reference for
    the summary statistics) even when not among the requested methods.
    """
    if not cfg.methods:
        raise DomainError("no methods requested")
    lam = cfg.lambda_value if lam is None else lam
    model = cfg.sphere
    methods = list(cfg.methods)
    rows = []
    per_method: dict[str, list[float]] = {m: [] for m in methods}
    exact_values = []
    for index in range(cfg.num_configs):
        dist = random_sphere_config(cfg.seed, index, cfg)
        exact = kirkwood_energy(dist, model).value
        exact_values.append(exact)
        for method in methods:
            if method == METHOD_KIRKWOOD:
                res = EnergyResult(value=exact, method="Kirkwood")
            else:
                res = SPHERE_METHODS[method](dist, model, lam)
            per_method[method].append(res.value)
            rows.append({
                "seed": cfg.seed,
                "index": index,
                "method": method,
                "lambda": _method_lambda(method, lam),
                "energy_kcal_mol": res.value,
                "truncation_estimate": res.truncation_error_estimate,
                "net_charge": net_charge(dist),
            })
    exact_arr = np.array(exact_values)
    summaries = []
    for method in methods:
        vals = np.array(per_method[method])
        rmsd = float(np.sqrt(np.mean((vals - exact_arr) ** 2)))
        # A value equal to its reference deviates by 0, also when both are 0.
        dev = np.abs(vals - exact_arr)
        rel = np.divide(dev, np.abs(exact_arr), out=np.zeros_like(dev), where=dev != 0)
        mean_dev = float(np.mean(rel)) * 100.0
        summaries.append({
            "method": method,
            "lambda": _method_lambda(method, lam),
            "rmsd": rmsd,
            "mean_dev_pct": mean_dev,
            "n": cfg.num_configs,
        })
    return ComparisonReport(config=cfg, rows=tuple(rows), summaries=tuple(summaries),
                            metadata={"seed": cfg.seed})


def lambda_sweep(cfg: ExperimentConfig) -> dict:
    """One hybrid-M summary per grid lambda; identifies the best grid point.

    Ties in mean deviation are broken toward smaller |lambda|.
    """
    if not cfg.lambda_grid:
        raise DomainError("lambda grid is empty")
    for lam in cfg.lambda_grid:
        if not (-0.5 <= lam <= 0.0):
            raise DomainError(f"lambda {lam} outside [-1/2, 0]")
    sweep_cfg = cfg if METHOD_M in cfg.methods else ExperimentConfig(
        **{**_as_dict(cfg), "methods": tuple(cfg.methods) + (METHOD_M,)})
    reports = {}
    for lam in cfg.lambda_grid:
        reports[lam] = run_comparison(sweep_cfg, lam=lam)
    best = min(
        cfg.lambda_grid,
        key=lambda lam: (reports[lam].summary_for(METHOD_M)["mean_dev_pct"], abs(lam)),
    )
    return {"reports": reports, "best_lambda": best}


def _as_dict(cfg: ExperimentConfig) -> dict:
    return {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
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
        "config": _as_dict(report.config),
        "rows": list(report.rows),
        "summaries": list(report.summaries),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
