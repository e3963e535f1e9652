"""Command-line front end: sphere, bem, experiment, and sweep subcommands.

Exit codes: 0 success, 2 usage, 3 input parse or file error, 4
domain/precondition error, 5 numerical failure.  Every command reads each
input file once and writes a run manifest alongside its output: the
resolved parameters and the SHA-256 digest of the bytes it parsed from
each input file.

``bem`` keeps the surface of its last mesh, with the surface's D* once an
exact solve has built it, for the next call in the same process.  A call
whose mesh has the same format, resolved path(s) and bytes reuses it
without parsing or validating again; any other mesh replaces it, so at most
one surface and one D* are kept.  An exact call on a new mesh of the same
panel count assembles its D* into the storage of the dropped surface's
(``PanelSurface.take_dstar`` and ``reuse_dstar``), which saves the first
touch of 8 T^2 fresh bytes.  A new mesh of another panel count frees that
storage before its charge pass, and a variant call at its end.  Storage
that anything else references is not reused.

Beside the surface ``bem`` keeps the panel vectors (g, h) of its last charge
set (``bem.panel_vectors``) under the surface's key and the charges' key
(resolved PQR path and SHA-256, or the ``--charge`` strings).  A call on
both skips the PQR parse and the (T, Q) charge-panel pass, whatever its
variant, lambda, dielectrics and tolerance.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (
    ConvergenceError,
    DomainError,
    GeometryError,
    ParseError,
    SolvbieError,
    TopologyError,
    decode_text,
)
from .experiments import (
    ROW_COLUMNS,
    SUMMARY_COLUMNS,
    ExperimentConfig,
    lambda_sweep,
    report_to_json,
    rows_to_csv,
    run_comparison,
)
from .mesh import PanelSurface, load_mesh
from .model import ChargeDistribution, DielectricPair, SphereModel, load_pqr
from .sphere import SPHERE_METHODS, VARIANT_TAGS, BibeeVariant, sphere_energies
from .bem import DEFAULT_GMRES_TOL, material_energy, panel_vectors

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_NUMERICAL = 5


class _Inputs:
    """The input files of one call, each read once: text for its parser, digest for the manifest."""

    def __init__(self):
        #: SHA-256 of the bytes read, by path as given.
        self.digests: dict[str, str] = {}

    def read(self, path) -> str:
        with open(path, "rb") as fh:
            data = fh.read()
        self.digests[str(path)] = hashlib.sha256(data).hexdigest()
        return decode_text(data, path)


#: The last surface ``bem`` loaded, under its key (format, then the resolved
#: path and SHA-256 of each mesh file): one entry at most.
_SURFACE_MEMO: dict[tuple, PanelSurface] = {}
#: The panel vectors (g, h) of the last charge set ``bem`` scored, under the
#: surface's key and the charges' key: one entry at most, and no surface.
_VECTOR_MEMO: dict[tuple, tuple] = {}


def _load_surface(args, inputs: _Inputs):
    """The surface of ``--mesh`` (and ``--face``), its key and a spare for its D*.

    The surface is parsed and validated unless kept.  The spare is the
    storage of the D* of the surface a new mesh replaces, when that surface
    held one of the new mesh's size that nothing else references; else None.
    The replaced surface is freed before the new mesh is parsed.
    """
    paths = [args.mesh, *([args.face] if args.face else [])]
    texts = {p: inputs.read(p) for p in paths}
    key = (args.mesh_format, *((os.path.realpath(p), inputs.digests[str(p)]) for p in paths))
    surf, spare = _SURFACE_MEMO.get(key), None
    if surf is None:
        # The old surface goes first, so that it is freed before the new one is built.
        spare = _SURFACE_MEMO.popitem()[1].take_dstar() if _SURFACE_MEMO else None
        # Storage that anything else references is not reused.  Only a local
        # references ``probe``, as only ``spare`` references an unshared spare:
        # the two counts agree whether or not getrefcount counts its argument
        # (from Python 3.14 a local may be passed without a new reference).
        probe = object()
        if spare is not None and sys.getrefcount(spare) > sys.getrefcount(probe):
            spare = None
        surf = load_mesh(args.mesh, fmt=args.mesh_format, face_path=args.face,
                         read=texts.__getitem__)
        _SURFACE_MEMO[key] = surf
        if spare is not None and spare.shape != (surf.num_panels,) * 2:
            spare = None
    return surf, key, spare


def write_manifest(command: str, params: dict, input_digests: dict, out_path):
    """Write the run manifest; ``input_digests`` maps each input path to its SHA-256."""
    manifest = {
        "command": command,
        "parameters": params,
        "input_digests": input_digests,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    Path(out_path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest_path(args) -> Path:
    if args.out:
        return Path(str(args.out) + ".manifest.json")
    return Path("solvbie-manifest.json")


def _parse_inline_charge(spec: str) -> tuple[list[float], float]:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ParseError(f"inline charge must be 'x,y,z,q', got {spec!r}")
    try:
        x, y, z, q = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-numeric inline charge field in {spec!r}") from None
    return [x, y, z], q


def _charge_source(args, inputs: _Inputs):
    """The charges' key (resolved PQR path and SHA-256, or the ``--charge`` strings) and parser."""
    if args.pqr:
        text = inputs.read(args.pqr)
        key = ("pqr", os.path.realpath(args.pqr), inputs.digests[str(args.pqr)])
        return key, lambda: load_pqr(args.pqr, lambda _: text)
    if args.charge:
        return ("charge", *args.charge), lambda: ChargeDistribution(
            *zip(*map(_parse_inline_charge, args.charge)))
    raise ParseError("no charges given: use --pqr or --charge x,y,z,q")


def _emit(lines_csv: str, payload_json, args):
    if args.format == "json":
        text = json.dumps(payload_json, indent=2, sort_keys=True) + "\n"
    else:
        text = lines_csv
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_sphere(args) -> int:
    inputs = _Inputs()
    dist = _charge_source(args, inputs)[1]()
    model = SphereModel(args.radius, DielectricPair(args.eps_in, args.eps_out), args.nmax)
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ParseError("no sphere methods given")
    for name in methods:
        if name not in SPHERE_METHODS:
            raise ParseError(f"unknown sphere method {name!r}")
    results = sphere_energies(dist, model, methods, args.lam)
    rows = [
        {"method": r.method, "energy_kcal_mol": r.value,
         "truncation_estimate": r.truncation_error_estimate}
        for r in results
    ]
    csv_text = rows_to_csv(rows, ("method", "energy_kcal_mol", "truncation_estimate"))
    _emit(csv_text, rows, args)
    write_manifest("sphere", _resolved_params(args), inputs.digests, _manifest_path(args))
    return EXIT_OK


def cmd_bem(args) -> int:
    variant_name = args.variant.strip().lower()
    if variant_name != "exact" and variant_name not in VARIANT_TAGS:
        raise ParseError(f"unknown BEM variant {args.variant!r}")
    inputs = _Inputs()
    charges_key, parse = _charge_source(args, inputs)
    # A kept charge set parsed once already; any other is parsed before the mesh is read.
    dist = None if any(k[1] == charges_key for k in _VECTOR_MEMO) else parse()
    eps = DielectricPair(args.eps_in, args.eps_out)
    surf, surface_key, spare = _load_surface(args, inputs)
    variant = None if variant_name == "exact" else BibeeVariant(variant_name, args.lam)
    key = (surface_key, charges_key)
    vectors = _VECTOR_MEMO.get(key)
    if vectors is None:
        _VECTOR_MEMO.clear()
        vectors = _VECTOR_MEMO[key] = panel_vectors(parse() if dist is None else dist, surf)
    if spare is not None and variant is None:
        surf.reuse_dstar(spare)
    result = material_energy(*vectors, surf, eps, variant, tol=args.tol)
    row = {"method": result.method, "energy_kcal_mol": result.value,
           "panels": surf.num_panels, **result.metadata}
    csv_text = rows_to_csv([row], tuple(row))
    _emit(csv_text, [row], args)
    write_manifest("bem", _resolved_params(args), inputs.digests, _manifest_path(args))
    return EXIT_OK


def _experiment_config(args, inputs: _Inputs) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(inputs.read(args.config))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ParseError(f"{args.config}: the config must be a JSON object")
    # Flag overrides beat the config file.
    for flag, key in (("seed", "seed"), ("num_configs", "num_configs"), ("eps_in", "eps_in"),
                      ("eps_out", "eps_out"), ("nmax", "n_max")):
        if getattr(args, flag) is not None:
            data[key] = getattr(args, flag)
    if "seed" not in data:
        raise ParseError("a seed is required (config file or --seed)")
    try:
        return ExperimentConfig.from_dict(data)
    except TypeError as exc:
        raise ParseError(f"bad experiment config: {exc}") from None


def cmd_experiment(args) -> int:
    inputs = _Inputs()
    cfg = _experiment_config(args, inputs)
    report = run_comparison(cfg)
    out = Path(args.out) if args.out else Path(f"experiment_seed{cfg.seed}")
    if args.format == "json":
        path = out if out.suffix == ".json" else Path(str(out) + ".json")
        path.write_text(report_to_json(report))
        written = [path]
    else:
        rows_path = Path(str(out) + "_rows.csv")
        summary_path = Path(str(out) + "_summary.csv")
        rows_path.write_text(rows_to_csv(report.rows, ROW_COLUMNS))
        summary_path.write_text(rows_to_csv(report.summaries, SUMMARY_COLUMNS))
        written = [rows_path, summary_path]
    write_manifest("experiment", _resolved_params(args), inputs.digests,
                   Path(str(out) + ".manifest.json"))
    for p in written:
        print(p)
    return EXIT_OK


def cmd_sweep(args) -> int:
    inputs = _Inputs()
    cfg = _experiment_config(args, inputs)
    result = lambda_sweep(cfg)
    out = Path(args.out) if args.out else Path(f"sweep_seed{cfg.seed}")
    if args.format == "json":
        path = out if out.suffix == ".json" else Path(str(out) + ".json")
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    else:
        path = Path(str(out) + "_summary.csv")
        path.write_text(rows_to_csv(result["summaries"], SUMMARY_COLUMNS))
    write_manifest("sweep", _resolved_params(args), inputs.digests,
                   Path(str(out) + ".manifest.json"))
    if result["best_at_grid_edge"] and len(result["summaries"]) > 1:
        print(f"solvbie: warning: best lambda {result['best_lambda']} is at the edge of the "
              "lambda grid; the optimum may lie outside it", file=sys.stderr)
    print(f"best_lambda={result['best_lambda']}")
    print(path)
    return EXIT_OK


def _resolved_params(args) -> dict:
    skip = {"func"}
    return {k: (str(v) if isinstance(v, Path) else v)
            for k, v in sorted(vars(args).items()) if k not in skip}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it is a constant, so ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="solvbie",
        description="Electrostatic solvation free energies: exact sphere series, "
                    "boundary-integral approximations, GB estimators, and a BEM "
                    "reference solver.",
    )
    parser.add_argument("--version", action="version", version=f"solvbie {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--eps-in", dest="eps_in", type=float, default=1.0)
        p.add_argument("--eps-out", dest="eps_out", type=float, default=80.0)
        p.add_argument("--out", default=None, help="output file (stdout if omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def charges(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--pqr", default=None, help="PQR file with point charges")
        group.add_argument("--charge", action="append", default=None,
                           metavar="X,Y,Z,Q", help="inline charge (repeatable)")

    p_sphere = sub.add_parser("sphere", help="analytic sphere solvers")
    common(p_sphere)
    charges(p_sphere)
    p_sphere.add_argument("--nmax", type=int, default=25, help="series truncation order")
    p_sphere.add_argument("--radius", type=float, required=True, help="cavity radius (Angstrom)")
    p_sphere.add_argument("--methods", default="kirkwood",
                          help="comma list: " + ",".join(SPHERE_METHODS))
    p_sphere.add_argument("--lambda", dest="lam", type=float, default=0.0,
                          help="eigenvalue estimate for the lambda/m variants")
    p_sphere.set_defaults(func=cmd_sphere)

    p_bem = sub.add_parser("bem", help="boundary-element solver on a mesh")
    common(p_bem)
    charges(p_bem)
    p_bem.add_argument("--mesh", required=True, help="mesh file (OFF, or MSMS .vert)")
    p_bem.add_argument("--mesh-format", choices=("off", "msms"), default="off")
    p_bem.add_argument("--face", default=None, help="MSMS .face file")
    p_bem.add_argument("--variant", default="exact",
                       help="exact or one of " + ", ".join(VARIANT_TAGS))
    p_bem.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_bem.add_argument("--tol", type=float, default=DEFAULT_GMRES_TOL,
                       help="GMRES relative residual for the exact solve")
    p_bem.set_defaults(func=cmd_bem)

    for name, fn in (("experiment", cmd_experiment), ("sweep", cmd_sweep)):
        p_exp = sub.add_parser(name, help=f"{name} over random sphere ensembles")
        p_exp.add_argument("--config", default=None, help="JSON config file")
        p_exp.add_argument("--seed", type=int, default=None)
        p_exp.add_argument("--num-configs", dest="num_configs", type=int, default=None)
        p_exp.add_argument("--eps-in", dest="eps_in", type=float, default=None)
        p_exp.add_argument("--eps-out", dest="eps_out", type=float, default=None)
        p_exp.add_argument("--nmax", type=int, default=None)
        p_exp.add_argument("--out", default=None)
        p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
        p_exp.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TopologyError, OSError) as exc:
        kind = "file" if isinstance(exc, OSError) else "input"
        print(f"solvbie: {kind} error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, GeometryError) as exc:
        print(f"solvbie: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"solvbie: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SolvbieError as exc:
        print(f"solvbie: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
