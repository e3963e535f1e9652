import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import solvbie as sv
from conftest import chunk_of, drawn_config, random_ball_distribution
from solvbie import bem, cli
from solvbie.cli import build_parser, main
from solvbie.mesh import build_surface
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import PAIR_CROSSOVER, SPHERE_METHODS, VARIANT_TAGS


def run(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sphere"])  # missing required --radius
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["sphere", "--radius", "5"], ["bem", "--mesh", "one.off"]])
def test_pqr_and_inline_charge_exclusive(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--pqr", "one.pqr", "--charge", "0,0,3,-2"])
    assert exc.value.code == 2
    assert "argument --charge: not allowed with argument --pqr" in capsys.readouterr().err


def test_infeasible_ensemble_exit_4(tmp_path, monkeypatch, capsys):
    # 10^12 configurations of five energies: 36.4 TiB, refused without allocating.
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", refuse)
    argv = ["experiment", "--seed", "1", "--num-configs", "1000000000000"]
    assert run(argv, tmp_path, monkeypatch) == 4
    assert "need 40000000000000 bytes" in capsys.readouterr().err


def test_unallocatable_charge_draw_exit_4(tmp_path, monkeypatch, capsys):
    # 10^9 charges per configuration: 40 GB of draw arrays, refused without allocating.
    empty = np.empty

    def refuse_large(shape, *args, **kwargs):
        if np.prod(shape) > 10 ** 8:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_large)
    (tmp_path / "huge.json").write_text('{"seed": 1, "num_configs": 1, '
                                        '"charges_per_config": 1000000000}')
    assert run(["experiment", "--config", "huge.json"], tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err == ("solvbie: domain error: charges of 1 configurations of "
                                       "1000000000 charges need 40000000000 bytes\n")


def test_sphere_inline_born(tmp_path, monkeypatch, capsys):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,0,1",
                "--methods", "kirkwood"], tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    line = out.strip().split("\n")[1]
    energy = float(line.split(",")[1])
    born = -0.5 * COULOMB_KCAL / 5.0 * (1.0 - 1.0 / 80.0)
    assert energy == pytest.approx(born, rel=1e-12)
    assert (tmp_path / "solvbie-manifest.json").exists()


def test_sphere_multiple_methods_json(tmp_path, monkeypatch):
    out = tmp_path / "res.json"
    code = run(["sphere", "--radius", "5", "--charge", "0,0,1.5,0.5",
                "--charge", "0,1,0,-0.5", "--methods", "kirkwood,cfa,p,gb,gbeps",
                "--eps-in", "4", "--format", "json", "--out", str(out)],
               tmp_path, monkeypatch)
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    by = {r["method"]: r["energy_kcal_mol"] for r in rows}
    assert by["CFA"] >= by["Kirkwood"] >= by["P"]
    manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())
    assert manifest["command"] == "sphere"
    assert manifest["parameters"]["radius"] == 5.0


def test_sphere_equal_dielectrics_zero(tmp_path, monkeypatch, capsys):
    code = run(["sphere", "--radius", "5", "--charge", "1,0,0,1",
                "--methods", "kirkwood,cfa,p", "--eps-in", "4", "--eps-out", "4"],
               tmp_path, monkeypatch)
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert all(float(line.split(",")[1]) == 0.0 for line in lines)


def test_bad_inline_charge_exit_3(tmp_path, monkeypatch, capsys):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,0"],
               tmp_path, monkeypatch)
    assert code == 3


def test_bad_pqr_exit_3(tmp_path, monkeypatch):
    bad = tmp_path / "bad.pqr"
    bad.write_text("ATOM 1 N X 1 0 0 0 oops 1.5\n")
    code = run(["sphere", "--radius", "5", "--pqr", str(bad)],
               tmp_path, monkeypatch)
    assert code == 3


@pytest.mark.parametrize("flag", ["--pqr", "--mesh", "--face", "--config"])
def test_missing_input_file_exit_3(flag, tmp_path, monkeypatch):
    missing = str(tmp_path / "missing")
    vert = tmp_path / "surf.vert"
    vert.write_text("0 0 0\n1 0 0\n0 1 0\n")
    argv = {
        "--pqr": ["sphere", "--radius", "5", "--pqr", missing],
        "--mesh": ["bem", "--mesh", missing, "--charge", "0,0,0,1"],
        "--face": ["bem", "--mesh", str(vert), "--mesh-format", "msms",
                   "--face", missing, "--charge", "0,0,0,1"],
        "--config": ["experiment", "--config", missing],
    }[flag]
    assert run(argv, tmp_path, monkeypatch) == 3


def test_unwritable_output_is_a_file_error_exit_3(tmp_path, monkeypatch, capsys):
    out = tmp_path / "missing_dir" / "x.csv"
    code = run(["sphere", "--radius", "5", "--charge", "0,0,0,1", "--out", str(out)],
               tmp_path, monkeypatch)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("solvbie: file error:")
    assert str(out) in err


@pytest.mark.parametrize("source", ["inline", "pqr"])
def test_nonfinite_charge_exit_4(source, tmp_path, monkeypatch, capsys):
    pqr = tmp_path / "inf.pqr"
    pqr.write_text("ATOM 1 N X 1 0 0 0 1.0 1.5\nATOM 2 N X 1 0 0 1 inf 1.5\n")
    given = ["--charge", "0,0,nan,1"] if source == "inline" else ["--pqr", str(pqr)]
    assert run(["sphere", "--radius", "5", *given], tmp_path, monkeypatch) == 4
    assert "non-finite charge" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "1e-320"])
@pytest.mark.parametrize("command", ["sphere", "experiment"])
def test_nonfinite_or_subnormal_dielectric_exit_4(command, value, tmp_path, monkeypatch,
                                                 capsys, recwarn):
    if command == "sphere":
        argv = ["sphere", "--radius", "5", "--charge", "0,0,0,1", "--methods",
                ",".join(SPHERE_METHODS), "--eps-in", value]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "num_configs": 1, "eps_in": float(value)}))
        argv = ["experiment", "--config", str(cfg)]
    assert run(argv, tmp_path, monkeypatch) == 4
    err = capsys.readouterr().err
    assert "dielectric constant eps_in" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps_in, eps_out, moderate", [
    ("1e308", "1", ("1e12", "1")), ("1", "1e308", ("1", "1e12")), ("1e-300", "1e-300", None),
])
def test_extreme_finite_dielectrics(eps_in, eps_out, moderate, tmp_path, monkeypatch, capsys):
    def kirkwood(e_in, e_out):
        code = run(["sphere", "--radius", "5", "--charge", "0,0,1,1", "--eps-in", e_in,
                    "--eps-out", e_out, "--methods", ",".join(SPHERE_METHODS),
                    "--lambda", "-0.1", "--format", "json"], tmp_path, monkeypatch)
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(np.isfinite(r["energy_kcal_mol"]) for r in rows)
        return rows[0]["energy_kcal_mol"]

    energy = kirkwood(eps_in, eps_out)
    if moderate is None:
        assert energy == 0.0
    else:  # the eps ratio is already at its limit at 1e12
        assert energy == pytest.approx(kirkwood(*moderate), rel=1e-9)


def test_parser_built_once_and_calls_independent(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    charges = (["0,0,1,1"], ["1,0,0,-0.5", "0,2,0,0.25"])
    for i, specs in enumerate(charges):
        argv = ["sphere", "--radius", "5", "--out", f"r{i}.csv"]
        for spec in specs:
            argv += ["--charge", spec]
        assert run(argv, tmp_path, monkeypatch) == 0
    model = sv.SphereModel(5.0, sv.DielectricPair(1.0, 80.0))
    for i, specs in enumerate(charges):
        params = json.loads((tmp_path / f"r{i}.csv.manifest.json").read_text())["parameters"]
        assert params["charge"] == specs
        rows = (tmp_path / f"r{i}.csv").read_text().splitlines()
        cols = [[float(x) for x in spec.split(",")] for spec in specs]
        dist = sv.make_distribution([c[:3] for c in cols], [c[3] for c in cols])
        assert float(rows[1].split(",")[1]) == sv.kirkwood_energy(dist, model).value


def test_solid_harmonic_table_unallocatable_exit_4(tmp_path, monkeypatch, capsys):
    # Past the pairwise crossover, so the spectrum comes from a solid-harmonic table.
    charges = 700
    assert charges > PAIR_CROSSOVER * 301
    zeros = np.zeros

    def refuse_table(shape, *args, **kwargs):
        if shape == (301, 301, 1, charges):
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_table)
    code = run(["sphere", "--radius", "5", "--nmax", "300",
                *(f"--charge=0,0,{i / charges:g},1" for i in range(charges))],
               tmp_path, monkeypatch)
    assert code == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("solvbie: domain error: solid harmonics to n_max 300 of 1 sets of "
                       "700 charges need 507365600 bytes\n")


def test_still_matrices_unallocatable_exit_4(tmp_path, monkeypatch, capsys):
    empty = np.empty

    def refuse_pairs(shape, *args, **kwargs):
        if shape == (1, 2, 2):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_pairs)
    code = run(["sphere", "--radius", "5", "--charge", "0,0,1,1", "--charge", "1,0,0,-1",
                "--methods", "kirkwood,gb"], tmp_path, monkeypatch)
    assert code == 4
    assert "Still matrices of 1 sets of 2 charges need 64 bytes" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_large_set_past_the_factorial_range_equals_pairwise(tmp_path, monkeypatch, capsys):
    # (n+m)!/(n-m)! leaves the float range past n ~ 85; the solid harmonics
    # never form it.  200 charges are past the pairwise crossover.
    axis = [f"--charge=0,0,{-4.5 + 0.045 * i:g},0.5" for i in range(199)]
    assert 1 + len(axis) > PAIR_CROSSOVER * 91
    code = run(["sphere", "--radius", "5", "--charge", "0,0,4.9,1", *axis, "--nmax", "90"],
               tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr()
    assert out.err == ""
    energy = float(out.out.splitlines()[1].split(",")[1])
    positions = [[0.0, 0.0, 4.9]] + [[0.0, 0.0, float(a.split(",")[2])] for a in axis]
    # The pairwise spectrum takes positions in units of the cavity radius.
    dist = sv.make_distribution(np.divide(positions, 5.0), [1.0] + [0.5] * 199)
    model = sv.SphereModel(5.0, sv.DielectricPair(1.0, 80.0), 90)
    factors = sv.sphere._mode_factors(model, ["kirkwood"], [0.0])[0]
    pairwise = 0.5 * COULOMB_KCAL * np.sum(sv.pair_spectrum(*chunk_of([dist]), 90)[0] * factors)
    assert energy == pytest.approx(pairwise, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_one_charge_past_the_moment_range_is_scored_pairwise(tmp_path, monkeypatch, capsys):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,4.9,1", "--nmax", "90"],
               tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr()
    assert out.err == ""
    energy = float(out.out.splitlines()[1].split(",")[1])
    model = sv.SphereModel(5.0, sv.DielectricPair(1.0, 80.0), 90)
    exact = sv.pairwise_kirkwood_energy(sv.make_distribution([[0, 0, 4.9]], [1.0]), model)
    assert energy == pytest.approx(exact, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_pair_spectrum_is_finite_at_every_n_max_inside_the_unit_ball():
    # In units of the cavity radius |r| < 1, so (r_i r_j)^n only decays: a
    # single charge at r has S_n = r^(2n), subnormal and then 0 at high n.
    far, near = (sv.make_distribution([[0.0, 0.0, z]], [1.0]) for z in (0.98, 0.2))
    (spectrum,) = sv.pair_spectrum(*chunk_of([far]), 100000)
    assert np.all(np.isfinite(spectrum)) and abs(spectrum[-1]) < np.finfo(float).tiny
    n = np.arange(301)
    assert spectrum[:301] == pytest.approx(0.98 ** (2 * n), rel=1e-12)
    spectra = sv.pair_spectrum(*chunk_of([far, near]), 300)
    assert np.array_equal(spectra[0], spectrum[:301])
    assert spectra[1] == pytest.approx(0.04 ** n, rel=1e-12)


#: (radius, charges "x,y,z,q", n_max) of charges near the boundary at high n_max.
NEAR_BOUNDARY = {
    "b 20 n_max 110": (20.0, ["0,0,19.9,1", "0,0.5,-19.9,1"], 110),
    "b 20 n_max 117": (20.0, ["0,0,19.9,1", "0,0.5,-19.9,1"], 117),
    "b 20 n_max 118": (20.0, ["0,0,19.9,1", "0,0.5,-19.9,1"], 118),
    "b 20 n_max 400": (20.0, ["0,0,19.9,1", "0,0.5,-19.9,1"], 400),
    "b 50 n_max 100": (50.0, ["0,0,49,1"], 100),
    "b 5 n_max 300": (5.0, ["0,0,4.9,1"], 300),
    "b 5 n_max 100000": (5.0, ["0,0,4.9,1"], 100000),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", NEAR_BOUNDARY)
def test_high_n_max_near_the_boundary_equals_pairwise(case, tmp_path, monkeypatch, capsys):
    # Spectra in units of b cannot overflow, and the factors carry one 1/b:
    # every n_max is valid at every radius.
    radius, charges, n_max = NEAR_BOUNDARY[case]
    argv = ["sphere", "--radius", str(radius), "--nmax", str(n_max)]
    assert run(argv + [f"--charge={c}" for c in charges], tmp_path, monkeypatch) == 0
    out = capsys.readouterr()
    assert out.err == ""
    energy = float(out.out.splitlines()[1].split(",")[1])
    rows = np.array([[float(v) for v in c.split(",")] for c in charges])
    dist = sv.make_distribution(rows[:, :3], rows[:, 3])
    model = sv.SphereModel(radius, sv.DielectricPair(1.0, 80.0), n_max)
    assert energy == pytest.approx(sv.pairwise_kirkwood_energy(dist, model), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e200, 1e-200])
def test_extreme_radius_equals_pairwise_in_units_of_b(radius, tmp_path, monkeypatch, capsys):
    # A charge at 0.1 b.  The pairwise reference is taken at b = 1 and scaled
    # by 1/b, since its own |r| and t = r_i r_j / b^2 leave the float range here.
    argv = ["sphere", "--radius", repr(radius), "--charge", f"0,0,{radius / 10!r},1"]
    assert run(argv, tmp_path, monkeypatch) == 0
    out = capsys.readouterr()
    assert out.err == ""
    energy = float(out.out.splitlines()[1].split(",")[1])
    unit = sv.make_distribution([[0.0, 0.0, radius / 10 / radius]], [1.0])
    want = sv.pairwise_kirkwood_energy(unit, sv.SphereModel(1.0, sv.DielectricPair(1.0, 80.0)))
    assert energy == pytest.approx(want / radius, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_experiment_at_radius_1e200(tmp_path, monkeypatch, capsys):
    # |r|^2 of the drawn charges passes the float range; |r/b|^2 does not.
    (tmp_path / "cfg.json").write_text('{"seed": 1, "num_configs": 2, "sphere_radius": 1e200}')
    assert run(["experiment", "--config", "cfg.json"], tmp_path, monkeypatch) == 0
    assert capsys.readouterr().err == ""


def test_unallocatable_spectra_exit_4(tmp_path, monkeypatch, capsys):
    # 5e9 modes of one charge: 40 GB of spectra, refused without allocating.
    empty = np.empty

    def refuse_large(shape, *args, **kwargs):
        if np.prod(shape) > 10 ** 8:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_large)
    argv = ["sphere", "--radius", "5", "--charge", "0,0,1,1", "--nmax", "5000000000"]
    assert run(argv, tmp_path, monkeypatch) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("solvbie: domain error: pair spectra to n_max 5000000000 of 1 sets of "
                       "1 charges need 40000000048 bytes\n")


def test_charge_outside_cavity_exit_4(tmp_path, monkeypatch):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,9,1"],
               tmp_path, monkeypatch)
    assert code == 4


@pytest.mark.parametrize("variant", ["exact", "cfa"])
@pytest.mark.parametrize("case, message", [
    ("field", "non-finite surface field or potential values"),
    ("energy", "non-finite energy -inf for method BEM-"),
])
def test_bem_overflow_exit_4(case, message, variant, tmp_path, monkeypatch, capsys):
    # A field that overflows at the panels (1e308 at 1e-4 Angstrom of a centroid)
    # or an energy that overflows (two 1e160 charges): exit 4, and no numpy
    # warning, which the test run turns into an error.
    surf = sv.icosphere(5.0, 2)
    sv.write_off(surf, tmp_path / "ico.off")
    near = surf.centroids[0] - 1e-4 * surf.normals[0]
    charges = [(*near, 1e308)] if case == "field" else [(0, 0, 1, 1e160), (1, 0, 0, 1e160)]
    argv = ["bem", "--mesh", str(tmp_path / "ico.off"), "--variant", variant,
            *("--charge=" + ",".join(repr(float(v)) for v in c) for c in charges)]
    assert run(argv, tmp_path, monkeypatch) == 4
    assert capsys.readouterr().err.startswith(f"solvbie: domain error: {message}")


def test_bem_dense_matrix_unallocatable_exit_4(tmp_path, monkeypatch, capsys):
    mesh = tmp_path / "ico.off"
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    empty = np.empty

    def refuse_dense(shape, *args, **kwargs):
        if shape == (80, 80):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_dense)
    code = run(["bem", "--mesh", str(mesh), "--charge", "0,0,0,1"], tmp_path, monkeypatch)
    assert code == 4
    assert "dense D* for 80 panels needs 51200 bytes" in capsys.readouterr().err


def test_bem_charge_panel_pass_unallocatable_exit_4(tmp_path, monkeypatch, capsys):
    mesh = tmp_path / "ico.off"
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    empty = np.empty

    def refuse_pass(shape, *args, **kwargs):
        if shape == (80, 2):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_pass)
    code = run(["bem", "--mesh", str(mesh), "--variant", "cfa", "--charge", "0,0,0,1",
                "--charge", "1,0,0,-1"], tmp_path, monkeypatch)
    assert code == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("solvbie: domain error: charge-panel pass of 80 panels and 2 charges "
                       "needs 3840 bytes\n")


def test_open_mesh_exit_3(tmp_path, monkeypatch):
    mesh = tmp_path / "open.off"
    mesh.write_text("OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 0 3 2\n")
    code = run(["bem", "--mesh", str(mesh), "--charge", "0.1,0.1,0.1,1"],
               tmp_path, monkeypatch)
    assert code == 3


def test_bem_face_index_out_of_range_exit_3(tmp_path, monkeypatch):
    mesh = tmp_path / "tet.off"
    mesh.write_text("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                    "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 4\n")
    code = run(["bem", "--mesh", str(mesh), "--charge", "0.1,0.1,0.1,1"],
               tmp_path, monkeypatch)
    assert code == 3


def test_sphere_unknown_method_exit_3(tmp_path, monkeypatch):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,0,1",
                "--methods", "kirkwood,bogus"], tmp_path, monkeypatch)
    assert code == 3


def test_bem_unknown_variant_exit_3(tmp_path, monkeypatch):
    mesh = tmp_path / "sphere.off"
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    code = run(["bem", "--mesh", str(mesh), "--charge", "0,0,0,1",
                "--variant", "bogus"], tmp_path, monkeypatch)
    assert code == 3


@pytest.mark.parametrize("method", sorted(SPHERE_METHODS))
def test_sphere_cli_matches_run_comparison(method, tmp_path, monkeypatch):
    cfg = sv.ExperimentConfig(seed=7, num_configs=1, charges_per_config=4,
                              methods=(method,), lambda_value=-0.15)
    report = sv.run_comparison(cfg)
    dist = drawn_config(cfg.seed, 0, cfg)
    argv = ["sphere", "--radius", repr(cfg.sphere_radius), "--methods", method,
            "--lambda", repr(cfg.lambda_value), "--eps-in", repr(cfg.eps_in),
            "--eps-out", repr(cfg.eps_out), "--nmax", str(cfg.n_max),
            "--format", "json", "--out", str(tmp_path / "e.json")]
    for p, q in zip(dist.positions, dist.magnitudes):
        argv.append("--charge=" + ",".join(repr(float(v)) for v in (*p, q)))
    assert run(argv, tmp_path, monkeypatch) == 0
    (row,) = json.loads((tmp_path / "e.json").read_text())
    assert row["energy_kcal_mol"] == report.rows[0]["energy_kcal_mol"]
    assert row["truncation_estimate"] == report.rows[0]["truncation_estimate"]


def test_bem_gmres_tolerance_out_of_range_exit_4(tmp_path, monkeypatch):
    mesh = tmp_path / "sphere.off"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    code = run(["bem", "--mesh", str(mesh), "--charge", "0,0,0,1",
                "--tol", "0.9"],
               tmp_path, monkeypatch)
    assert code == 4


def test_cli_runs_without_scipy(tmp_path):
    # SciPy is a test dependency only: a fresh interpreter runs the CLI
    # without importing any of it.
    mesh = tmp_path / "sphere.off"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    code = f"""
import sys
sys.path.insert(0, {str(Path(sv.__file__).parents[1])!r})
import solvbie.cli
assert solvbie.cli.main(["sphere", "--radius", "5", "--charge", "0,0,1,1"]) == 0
assert solvbie.cli.main(["bem", "--mesh", {str(mesh)!r}, "--charge", "0,0,1,1"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "BEM-exact" in done.stdout


def test_bem_sphere_matches_series(tmp_path, monkeypatch, capsys):
    mesh = tmp_path / "sphere.off"
    sv.write_off(sv.icosphere(5.0, 3), mesh)
    code = run(["bem", "--mesh", str(mesh), "--charge", "0,0,2,1"],
               tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    header = out[0].split(",")
    row = dict(zip(header, out[1].split(",")))
    d = sv.make_distribution([[0, 0, 2]], [1.0])
    model = sv.SphereModel(5.0, sv.DielectricPair(1.0, 80.0), 40)
    exact = sv.kirkwood_energy(d, model).value
    assert float(row["energy_kcal_mol"]) == pytest.approx(exact, rel=0.02)
    assert int(row["panels"]) == 1280
    manifest = json.loads((tmp_path / "solvbie-manifest.json").read_text())
    assert str(mesh) in manifest["input_digests"]


def test_bem_variant_csv(tmp_path, monkeypatch, capsys):
    mesh = tmp_path / "sphere.off"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    code = run(["bem", "--mesh", str(mesh), "--charge", "0,0,0,1",
                "--variant", "cfa", "--eps-in", "4"],
               tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "BEM-CFA" in out


@pytest.fixture
def mesh_loads(monkeypatch):
    """The mesh paths ``bem`` parses, in order, counted at its call of ``load_mesh``."""
    loads, load = [], cli.load_mesh
    monkeypatch.setattr(cli, "load_mesh", lambda path, **kw: loads.append(path) or load(path, **kw))
    return loads


def bem_bytes(argv, out, tmp_path, monkeypatch):
    """Exit code of one in-process ``bem`` call on ``argv`` and the bytes of its CSV."""
    code = run(["bem", *argv, "--out", out], tmp_path, monkeypatch)
    return code, (tmp_path / out).read_bytes() if code == 0 else None


def run_bem(mesh, out, tmp_path, monkeypatch, variant="exact"):
    return bem_bytes(["--mesh", str(mesh), "--charge", "0,0,1,1", "--charge", "1,0,0,-0.5",
                      "--eps-in", "4", "--variant", variant], out, tmp_path, monkeypatch)


def test_bem_reuses_an_unchanged_mesh(tmp_path, monkeypatch, mesh_loads):
    mesh = tmp_path / "ico.off"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    first = [run_bem(mesh, f"a_{v}.csv", tmp_path, monkeypatch, v) for v in ("exact", "m")]
    again = [run_bem(mesh, f"b_{v}.csv", tmp_path, monkeypatch, v) for v in ("exact", "m")]
    assert mesh_loads == [str(mesh)]
    assert first == again and all(code == 0 for code, _ in first)


def test_bem_rewritten_mesh_is_parsed_again(tmp_path, monkeypatch, mesh_loads):
    mesh = tmp_path / "ico.off"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    assert run_bem(mesh, "a.csv", tmp_path, monkeypatch)[0] == 0
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    code, csv = run_bem(mesh, "b.csv", tmp_path, monkeypatch)
    assert code == 0 and b",80," in csv
    assert mesh_loads == [str(mesh)] * 2


def test_bem_same_bytes_at_another_path_is_parsed_again(tmp_path, monkeypatch, mesh_loads):
    mesh, copy = tmp_path / "ico.off", tmp_path / "copy.off"
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    copy.write_bytes(mesh.read_bytes())
    assert run_bem(mesh, "a.csv", tmp_path, monkeypatch) == run_bem(copy, "a.csv", tmp_path,
                                                                    monkeypatch)
    assert mesh_loads == [str(mesh), str(copy)]


def test_bem_failed_mesh_load_leaves_no_entry(tmp_path, monkeypatch):
    mesh, bad = tmp_path / "ico.off", tmp_path / "open.off"
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    bad.write_text("OFF\n4 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 2 1\n3 0 1 3\n3 0 3 2\n")
    assert run_bem(mesh, "a.csv", tmp_path, monkeypatch)[0] == 0
    assert len(cli._SURFACE_MEMO) == 1
    assert run_bem(bad, "b.csv", tmp_path, monkeypatch)[0] == 3
    assert cli._SURFACE_MEMO == {}


def test_bem_keeps_one_surface(tmp_path, monkeypatch):
    first, second = tmp_path / "a.off", tmp_path / "b.off"
    sv.write_off(sv.icosphere(5.0, 2), first)
    sv.write_off(sv.icosphere(5.0, 1), second)
    assert run_bem(first, "a.csv", tmp_path, monkeypatch)[0] == 0
    (surf,) = cli._SURFACE_MEMO.values()
    assert "dstar" in vars(surf)  # the exact solve kept its D* on the surface
    ref = weakref.ref(surf)
    del surf
    assert run_bem(second, "b.csv", tmp_path, monkeypatch)[0] == 0
    assert ref() is None


def same_size_meshes(tmp_path):
    """OFF files of a 1280-panel icosphere and of a copy turned about z: one D* size."""
    ico = sv.icosphere(5.0, 3)
    c, s = np.cos(0.3), np.sin(0.3)
    turned = build_surface(ico.vertices @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]),
                           ico.triangles.copy())
    paths = tmp_path / "ico.off", tmp_path / "turned.off"
    for surf, path in zip((ico, turned), paths):
        sv.write_off(surf, path)
    return paths


def kept_dstar():
    """The D* the CLI keeps on its surface, or None."""
    (surf,) = cli._SURFACE_MEMO.values()
    return vars(surf).get("dstar")


@pytest.mark.parametrize("eps_in", ["1", "4"])
def test_bem_new_mesh_of_one_size_reuses_the_dropped_dstar(eps_in, tmp_path, monkeypatch):
    first, second = same_size_meshes(tmp_path)
    argv = ["--charge", "0,0,1,1", "--charge", "1,0,0,-0.5", "--eps-in", eps_in]
    assert bem_bytes(["--mesh", str(first), *argv], "a.csv", tmp_path, monkeypatch)[0] == 0
    dropped = weakref.ref(kept_dstar())
    recycled = bem_bytes(["--mesh", str(second), *argv], "b.csv", tmp_path, monkeypatch)
    assert kept_dstar() is dropped() and not kept_dstar().flags.writeable
    (surf,) = cli._SURFACE_MEMO.values()
    assert np.array_equal(kept_dstar(), sv.assemble_dstar(surf))
    cli._SURFACE_MEMO.clear()
    cli._VECTOR_MEMO.clear()
    assert recycled == bem_bytes(["--mesh", str(second), *argv], "fresh.csv", tmp_path,
                                 monkeypatch)
    assert recycled[0] == 0


def test_bem_recycled_dstar_allocates_no_dense_array(tmp_path, monkeypatch):
    first, second = same_size_meshes(tmp_path)
    assert run_bem(first, "a.csv", tmp_path, monkeypatch)[0] == 0
    tracemalloc.start()
    try:
        code = run_bem(second, "b.csv", tmp_path, monkeypatch)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 0.5 * 8 * 1280 ** 2


@pytest.mark.parametrize("first, second", [(3, 2), (2, 3)])
def test_bem_new_panel_count_frees_the_old_dstar_first(first, second, tmp_path, monkeypatch):
    meshes = tmp_path / "a.off", tmp_path / "b.off"
    for subdivisions, path in zip((first, second), meshes):
        sv.write_off(sv.icosphere(5.0, subdivisions), path)
    assert run_bem(meshes[0], "a.csv", tmp_path, monkeypatch)[0] == 0
    dropped = weakref.ref(kept_dstar())
    alive, vectors, assemble = [], cli.panel_vectors, bem.assemble_dstar
    monkeypatch.setattr(cli, "panel_vectors",
                        lambda *a: alive.append(dropped() is not None) or vectors(*a))
    monkeypatch.setattr(bem, "assemble_dstar",
                        lambda s, **kw: alive.append(dropped() is not None) or assemble(s, **kw))
    assert run_bem(meshes[1], "b.csv", tmp_path, monkeypatch)[0] == 0
    assert alive == [False, False]  # at the charge pass and at the assembly
    assert kept_dstar().shape == (20 * 4 ** second,) * 2


def test_bem_variant_on_a_new_mesh_assembles_nothing(tmp_path, monkeypatch):
    first, second = same_size_meshes(tmp_path)
    assert run_bem(first, "a.csv", tmp_path, monkeypatch)[0] == 0
    dropped = weakref.ref(kept_dstar())
    assembled, assemble = [], bem.assemble_dstar
    monkeypatch.setattr(bem, "assemble_dstar",
                        lambda s, **kw: assembled.append(kw) or assemble(s, **kw))
    assert run_bem(second, "b.csv", tmp_path, monkeypatch, "m")[0] == 0
    assert assembled == [] and dropped() is None and kept_dstar() is None
    assert run_bem(second, "c.csv", tmp_path, monkeypatch)[0] == 0
    assert assembled == [{}]  # a kept surface's D* into fresh storage


def test_bem_reuses_no_dstar_that_a_caller_holds(tmp_path, monkeypatch):
    first, second = same_size_meshes(tmp_path)
    library = sv.load_mesh(second)
    library_dstar = library.dstar.copy()
    assert run_bem(first, "a.csv", tmp_path, monkeypatch)[0] == 0
    held = kept_dstar()
    snapshot = held.copy()
    assert run_bem(second, "b.csv", tmp_path, monkeypatch)[0] == 0
    assert kept_dstar() is not held and np.array_equal(held, snapshot)
    assert np.array_equal(library.dstar, library_dstar)
    assert np.array_equal(kept_dstar(), library_dstar)


def test_bem_guard_holds_where_a_local_is_counted_once(tmp_path, monkeypatch):
    # From Python 3.14 getrefcount may not count its argument's own reference.
    first, second, third = *same_size_meshes(tmp_path), tmp_path / "third.off"
    sv.write_off(sv.load_mesh(first), third)
    count = sys.getrefcount
    monkeypatch.setattr(sys, "getrefcount", lambda obj: count(obj) - 2)
    assert run_bem(first, "a.csv", tmp_path, monkeypatch)[0] == 0
    dropped = weakref.ref(kept_dstar())
    assert run_bem(second, "b.csv", tmp_path, monkeypatch)[0] == 0
    held = kept_dstar()
    assert held is dropped()  # unshared storage is still reused
    snapshot = held.copy()
    assert run_bem(third, "c.csv", tmp_path, monkeypatch)[0] == 0
    assert kept_dstar() is not held and np.array_equal(held, snapshot)


def test_bem_frees_the_replaced_surface_before_it_parses(tmp_path, monkeypatch):
    first, second = same_size_meshes(tmp_path)
    assert run_bem(first, "a.csv", tmp_path, monkeypatch)[0] == 0
    (old,) = cli._SURFACE_MEMO.values()
    old, alive, load = weakref.ref(old), [], cli.load_mesh
    monkeypatch.setattr(cli, "load_mesh", lambda *a, **kw: alive.append(old() is not None)
                        or load(*a, **kw))
    assert run_bem(second, "b.csv", tmp_path, monkeypatch)[0] == 0
    assert alive == [False]


def test_manifest_digest_is_of_the_bytes_parsed(tmp_path, monkeypatch):
    mesh = tmp_path / "ico.off"
    sv.write_off(sv.icosphere(5.0, 1), mesh)
    parsed = mesh.read_bytes()
    material_energy = cli.material_energy

    def rewrite_then_solve(*args, **kwargs):
        mesh.write_text("rewritten during the call\n")
        return material_energy(*args, **kwargs)

    monkeypatch.setattr(cli, "material_energy", rewrite_then_solve)
    assert run_bem(mesh, "a.csv", tmp_path, monkeypatch)[0] == 0
    digests = json.loads((tmp_path / "a.csv.manifest.json").read_text())["input_digests"]
    assert digests == {str(mesh): hashlib.sha256(parsed).hexdigest()}


def write_pqr(path, dist):
    path.write_text("".join(
        f"ATOM {i} N X 1 {x!r} {y!r} {z!r} {q!r} 1.5\n"
        for i, ((x, y, z), q) in enumerate(zip(dist.positions.tolist(),
                                               dist.magnitudes.tolist()), start=1)))


@pytest.fixture
def charge_passes(monkeypatch):
    """What ``bem`` does with its charges, in order: "parse" (a PQR) and "pass" (panel_vectors)."""
    events, load, vectors = [], cli.load_pqr, cli.panel_vectors
    monkeypatch.setattr(cli, "load_pqr", lambda *a: events.append("parse") or load(*a))
    monkeypatch.setattr(cli, "panel_vectors", lambda *a: events.append("pass") or vectors(*a))
    return events


def bem_charge_files(tmp_path):
    mesh, pqr = tmp_path / "ico.off", tmp_path / "set.pqr"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    write_pqr(pqr, random_ball_distribution(41, 0, count=6, margin=0.8))
    return mesh, pqr


@pytest.mark.parametrize("eps_in", ["1", "4"])
@pytest.mark.parametrize("variant", ["exact", *VARIANT_TAGS])
def test_bem_kept_vectors_write_the_bytes_of_a_fresh_call(variant, eps_in, tmp_path,
                                                          monkeypatch, charge_passes):
    mesh, pqr = bem_charge_files(tmp_path)
    argv = ["--mesh", str(mesh), "--pqr", str(pqr), "--eps-in", eps_in]
    assert bem_bytes([*argv[:-1], "2"], "first.csv", tmp_path, monkeypatch)[0] == 0
    assert charge_passes == ["parse", "pass"]
    argv += ["--variant", variant, "--lambda", "-0.15"]
    kept = bem_bytes(argv, "kept.csv", tmp_path, monkeypatch)
    assert charge_passes == ["parse", "pass"]  # no parse and no pass
    (vectors,) = cli._VECTOR_MEMO.values()
    assert [v.shape for v in vectors] == [(320,), (320,)]
    cli._SURFACE_MEMO.clear()
    cli._VECTOR_MEMO.clear()
    assert kept == bem_bytes(argv, "fresh.csv", tmp_path, monkeypatch)
    assert charge_passes == ["parse", "pass"] * 2 and kept[0] == 0


def bem_energy_of(out, tmp_path) -> float:
    (row,) = list(csv.DictReader(io.StringIO((tmp_path / out).read_text())))
    return float(row["energy_kcal_mol"])


def test_bem_other_inputs_miss_the_kept_vectors(tmp_path, monkeypatch, charge_passes):
    mesh, pqr = bem_charge_files(tmp_path)
    other = tmp_path / "other.off"
    sv.write_off(sv.icosphere(4.5, 2), other)
    eps = sv.DielectricPair(1.0, 80.0)

    def check(argv, surf, dist, events):
        charge_passes.clear()
        assert bem_bytes(["--variant", "p", *argv], "out.csv", tmp_path, monkeypatch)[0] == 0
        assert charge_passes == events
        want = sv.bem_energy(dist, surf, eps, sv.BibeeVariant("p")).value
        assert bem_energy_of("out.csv", tmp_path) == pytest.approx(want, rel=1e-14)

    first, second = (random_ball_distribution(41, j, count=6, margin=0.8) for j in (0, 1))
    ico, ball = sv.load_mesh(mesh), sv.load_mesh(other)
    check(["--mesh", str(mesh), "--pqr", str(pqr)], ico, first, ["parse", "pass"])
    check(["--mesh", str(mesh), "--pqr", str(pqr)], ico, first, [])
    write_pqr(pqr, second)  # same path, other bytes
    check(["--mesh", str(mesh), "--pqr", str(pqr)], ico, second, ["parse", "pass"])
    check(["--mesh", str(other), "--pqr", str(pqr)], ball, second, ["parse", "pass"])
    inline = ["--charge", "0,0,1,1", "--charge", "1,0,0,-0.5"]
    pair = sv.make_distribution([[0, 0, 1], [1, 0, 0]], [1.0, -0.5])
    check(["--mesh", str(other), *inline], ball, pair, ["pass"])
    check(["--mesh", str(other), *inline], ball, pair, [])
    inline[-1] = "1,0,0,-0.25"
    pair = sv.make_distribution([[0, 0, 1], [1, 0, 0]], [1.0, -0.25])
    check(["--mesh", str(other), *inline], ball, pair, ["pass"])


def test_bem_bad_pqr_exits_3_before_a_bad_mesh_is_read(tmp_path, monkeypatch, capsys,
                                                        mesh_loads):
    mesh, pqr = bem_charge_files(tmp_path)
    assert bem_bytes(["--mesh", str(mesh), "--pqr", str(pqr)], "a.csv", tmp_path,
                     monkeypatch)[0] == 0
    capsys.readouterr()
    pqr.write_text("ATOM 1 N X 1 0 0 0 oops 1.5\n")
    missing = tmp_path / "missing.off"
    code = run(["bem", "--mesh", str(missing), "--pqr", str(pqr)], tmp_path, monkeypatch)
    assert code == 3
    assert capsys.readouterr().err.startswith(f"solvbie: input error: {pqr}:1: non-numeric field")
    assert mesh_loads == [str(mesh)]


@pytest.mark.parametrize("where", ["exterior", "near a panel"])
def test_bem_bad_charges_after_a_hit_exit_4(where, tmp_path, monkeypatch, capsys):
    mesh, pqr = bem_charge_files(tmp_path)
    argv = ["--mesh", str(mesh), "--pqr", str(pqr), "--variant", "m"]
    first = bem_bytes(argv, "a.csv", tmp_path, monkeypatch)
    assert bem_bytes(argv, "a.csv", tmp_path, monkeypatch) == first
    position = [0.0, 0.0, 9.0] if where == "exterior" else sv.load_mesh(mesh).centroids[0] + 1e-9
    dist = sv.make_distribution([position], [1.0])
    with pytest.raises(sv.DomainError) as exc:
        sv.bem_energy(dist, sv.load_mesh(mesh), sv.DielectricPair(1.0, 80.0))
    capsys.readouterr()
    charge = ",".join(repr(float(v)) for v in (*dist.positions[0], 1.0))
    code = run(["bem", "--mesh", str(mesh), "--charge=" + charge], tmp_path, monkeypatch)
    assert code == 4
    assert capsys.readouterr().err == f"solvbie: domain error: {exc.value}\n"
    assert bem_bytes(argv, "b.csv", tmp_path, monkeypatch) == first


def test_experiment_requires_seed(tmp_path, monkeypatch):
    code = run(["experiment"], tmp_path, monkeypatch)
    assert code == 3


def test_experiment_csv_outputs_and_rerun_identical(tmp_path, monkeypatch, capsys):
    argv = ["experiment", "--seed", "11", "--num-configs", "3",
            "--out", "runA"]
    assert run(argv, tmp_path, monkeypatch) == 0
    rows_a = (tmp_path / "runA_rows.csv").read_bytes()
    summary_a = (tmp_path / "runA_summary.csv").read_bytes()
    argv2 = ["experiment", "--seed", "11", "--num-configs", "3",
             "--out", "runB"]
    assert run(argv2, tmp_path, monkeypatch) == 0
    assert (tmp_path / "runB_rows.csv").read_bytes() == rows_a
    assert (tmp_path / "runB_summary.csv").read_bytes() == summary_a
    manifest = json.loads((tmp_path / "runA.manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 11


def test_experiment_config_file_with_flag_override(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "num_configs": 2,
                               "charges_per_config": 4,
                               "methods": ["kirkwood", "p"]}))
    assert run(["experiment", "--config", str(cfg), "--seed", "6",
                "--out", "run"], tmp_path, monkeypatch) == 0
    rows = (tmp_path / "run_rows.csv").read_text().strip().split("\n")
    assert rows[1].startswith("6,")  # flag seed beats config seed
    assert len(rows) == 1 + 2 * 2


def test_experiment_bad_config_json(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = run(["experiment", "--config", str(cfg)], tmp_path, monkeypatch)
    assert code == 3


def test_experiment_unknown_config_key_exit_4(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "wibble": True}))
    code = run(["experiment", "--config", str(cfg)], tmp_path, monkeypatch)
    assert code == 4


@pytest.mark.parametrize("key, value, code", [
    ("eps_in", "x", 3),
    ("sphere_radius", 0.0, 4),
    ("seed", "x", 3),
    ("n_max", 2.5, 3),
    ("charges_per_config", 2.5, 3),
    ("lambda_value", "x", 3),
    ("num_configs", True, 3),
    ("lambda_grid", ["x"], 3),
    ("lambda_grid", [None], 3),
    ("lambda_grid", -0.1, 3),
    ("methods", "kirkwood", 3),
    ("lambda_grid", [], 4),
    ("lambda_grid", [-0.1, -0.6], 4),
    ("lambda_grid", [0.1], 4),
    ("seed", -1, 4),
])
def test_experiment_bad_sphere_config(key, value, code, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "num_configs": 1, key: value}))
    for command in ("experiment", "sweep"):
        assert run([command, "--config", str(cfg)], tmp_path, monkeypatch) == code, command


@pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
def test_experiment_config_not_an_object_exit_3(seed, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["experiment", "--config", str(cfg), *seed], tmp_path, monkeypatch) == 3
    assert "must be a JSON object" in capsys.readouterr().err


def test_sweep_outputs(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 9, "num_configs": 2, "charges_per_config": 4,
        "lambda_grid": [-0.12, -0.16],
    }))
    code = run(["sweep", "--config", str(cfg), "--out", "sw"],
               tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("best_lambda=")
    best = float(out.split("\n")[0].split("=")[1])
    assert best in (-0.12, -0.16)
    text = (tmp_path / "sw_summary.csv").read_text()
    assert text.count("\n") == 3  # header + one row per lambda


def test_sweep_writes_one_row_per_distinct_lambda(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "num_configs": 2, "charges_per_config": 4,
                               "lambda_grid": [-0.2, -0.1, -0.2]}))
    assert run(["sweep", "--config", str(cfg), "--out", "sw"], tmp_path, monkeypatch) == 0
    lines = (tmp_path / "sw_summary.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per distinct lambda
    assert [line.split(",")[1] for line in lines[1:]] == ["-0.2", "-0.1"]


def test_sweep_json_format(tmp_path, monkeypatch, capsys):
    code = run(["sweep", "--seed", "9", "--num-configs", "2", "--format",
                "json", "--out", "sw"], tmp_path, monkeypatch)
    assert code == 0
    payload = json.loads((tmp_path / "sw.json").read_text())
    assert "best_lambda" in payload
    assert payload["best_at_grid_edge"] in (True, False)
    assert len(payload["summaries"]) == len(sv.ExperimentConfig(seed=9).lambda_grid)


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("prefix, name", [("run_eps4.0", "run_eps4.0.json"),
                                          ("run.json", "run.json")])
def test_json_output_is_the_prefix_plus_json(command, prefix, name, tmp_path, monkeypatch,
                                             capsys):
    # ".json" is appended to the prefix, as "_rows.csv" and ".manifest.json" are.
    assert run([command, "--seed", "3", "--num-configs", "2", "--format", "json",
                "--out", prefix], tmp_path, monkeypatch) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, prefix + ".manifest.json"])
    assert json.loads((tmp_path / name).read_text())["summaries"]
    assert capsys.readouterr().out.splitlines()[-1] == name


@pytest.mark.parametrize("grid, edge, warned", [
    (None, True, True),                             # seed 7's optimum, near -0.08, lies outside
    ([-0.12, -0.1, -0.08, -0.06], False, False),    # a grid that brackets it
    ([-0.1], True, False),                          # one point is its own edge, but no warning
])
def test_sweep_warns_when_best_lambda_is_a_grid_edge(grid, edge, warned, tmp_path, monkeypatch,
                                                     capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, **({"lambda_grid": grid} if grid else {})}))
    for fmt in ("csv", "json"):
        assert run(["sweep", "--config", str(cfg), "--format", fmt, "--out", "sw"],
                   tmp_path, monkeypatch) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("best_lambda=")
        if warned:
            assert out.err.startswith("solvbie: warning: best lambda -0.1 ")
            assert out.err.count("\n") == 1
        else:
            assert out.err == ""
    assert json.loads((tmp_path / "sw.json").read_text())["best_at_grid_edge"] is edge


TET_VERTS = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
TET_OFF_FACES = "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"


def tet_off_with_y1(token: str) -> str:
    """The tetrahedron's OFF text with ``token`` as the y coordinate of vertex 1."""
    return f"OFF\n4 4 0\n0 0 0\n1 {token} 0\n0 1 0\n0 0 1\n" + TET_OFF_FACES


#: Input files of the exit-code table, by name; bytes are written as they are.
EXIT_FIXTURES = {
    "not_utf8.json": b"\xff\xfe{}",
    "not_utf8.off": b"\xff\xfeOFF\n",
    "not_utf8.pqr": b"\xff\xfeATOM\n",
    "not_utf8.vert": b"\xff\xfe0 0 0\n",
    "not_utf8.face": b"\xff\xfe1 2 3\n",
    "tet.vert": TET_VERTS,
    "tet.face": "1 3 2\n1 2 4\n1 4 3\n2 3 4\n",
    "counts_text.vert": "four 1 1.5 0\n" + TET_VERTS,
    "two_fields.vert": "0 0\n1 0 0\n0 1 0\n0 0 1\n",
    "comments_only.vert": "# MSMS vertices\n# none\n",
    "text.pqr": "ATOM 1 N X 1 0 0 0 oops 1.5\n",
    "no_atoms.pqr": "REMARK nothing here\n",
    "invalid.json": "{not json",
    "array.json": "[1, 2]",
    "seed_text.json": '{"seed": "x"}',
    "unknown_key.json": '{"seed": 1, "wibble": true}',
    "infinite_eps.json": '{"seed": 1, "num_configs": 1, "eps_in": Infinity}',
    "infinite_radius.json": '{"seed": 1, "num_configs": 1, "sphere_radius": Infinity}',
    "max_q_nan.json": '{"seed": 1, "num_configs": 1, "max_abs_charge": NaN}',
    "max_q_inf.json": '{"seed": 1, "num_configs": 1, "max_abs_charge": Infinity}',
    "max_q_1e308.json": '{"seed": 1, "num_configs": 1, "max_abs_charge": 1e308}',
    "max_q_negative.json": '{"seed": 1, "num_configs": 1, "max_abs_charge": -1}',
    "empty.off": "",
    "negative_count.off": "OFF\n4 -1 0\n" + TET_VERTS + TET_OFF_FACES,
    "truncated.off": "OFF\n4 4 0\n" + TET_VERTS + "3 0 2 1\n3 0 1",
    "quad.off": "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n",
    "lone_sign.off": "OFF\n4 4 0\n" + TET_VERTS + "3 0 2 1\n3 0 1 3\n3 0 - 2\n3 1 2 3\n",
    "float_index.off": "OFF\n4 4 0\n" + TET_VERTS + "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3.0\n",
    "open.off": "OFF\n4 3 0\n" + TET_VERTS + "3 0 2 1\n3 0 1 3\n3 0 3 2\n",
    "index_past_end.off": "OFF\n4 4 0\n" + TET_VERTS + "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 4\n",
    "collinear.off": "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0.5 0 0\n" + TET_OFF_FACES,
    "tet.off": "OFF\n4 4 0\n" + TET_VERTS + TET_OFF_FACES,
    "no_faces.off": "OFF\n0 0 0\n",
    "vertices_only.off": "OFF\n4 0 0\n" + TET_VERTS,
    "vertex_two_points.off": tet_off_with_y1("1.2.3"),
    "vertex_lone_sign.off": tet_off_with_y1("-"),
    "vertex_nan.off": tet_off_with_y1("nan"),
    "vertex_inf.off": tet_off_with_y1("inf"),
}
SPHERE = ["sphere", "--radius", "5"]
BEM = ["bem", "--charge", "0.1,0.1,0.1,1", "--mesh"]
#: (argv, exit code, text the one stderr line must contain); "{d}" is the fixture directory.
EXIT_CASES = {
    "sweep config not UTF-8": (["sweep", "--config", "{d}/not_utf8.json"], 3,
                               "input error: {d}/not_utf8.json: not UTF-8 text"),
    "OFF mesh not UTF-8": ([*BEM, "{d}/not_utf8.off"], 3,
                           "input error: {d}/not_utf8.off: not UTF-8 text"),
    "PQR not UTF-8": ([*SPHERE, "--pqr", "{d}/not_utf8.pqr"], 3,
                      "input error: {d}/not_utf8.pqr: not UTF-8 text"),
    "MSMS vert not UTF-8": ([*BEM, "{d}/not_utf8.vert", "--mesh-format", "msms",
                             "--face", "{d}/tet.face"], 3,
                            "input error: {d}/not_utf8.vert: not UTF-8 text"),
    "MSMS face not UTF-8": ([*BEM, "{d}/tet.vert", "--mesh-format", "msms",
                             "--face", "{d}/not_utf8.face"], 3,
                            "input error: {d}/not_utf8.face: not UTF-8 text"),
    "MSMS counts line of text": ([*BEM, "{d}/counts_text.vert", "--mesh-format", "msms",
                                  "--face", "{d}/tet.face"], 3,
                                 "{d}/counts_text.vert:1: non-numeric field"),
    "MSMS vertex of two fields": ([*BEM, "{d}/two_fields.vert", "--mesh-format", "msms",
                                   "--face", "{d}/tet.face"], 3,
                                  "{d}/two_fields.vert:1: expected at least 3 fields"),
    "MSMS vert of comments only": ([*BEM, "{d}/comments_only.vert", "--mesh-format", "msms",
                                    "--face", "{d}/tet.face"], 3,
                                   "{d}/comments_only.vert/{d}/tet.face: no mesh data found"),
    "missing PQR": ([*SPHERE, "--pqr", "{d}/missing.pqr"], 3, "file error:"),
    "missing mesh": ([*BEM, "{d}/missing.off"], 3, "file error:"),
    "inline charge of three fields": ([*SPHERE, "--charge", "0,0,0"], 3,
                                      "inline charge must be 'x,y,z,q'"),
    "non-numeric inline charge field": ([*SPHERE, "--charge", "0,0,x,1"], 3,
                                        "non-numeric inline charge field in '0,0,x,1'"),
    "no charges": ([*SPHERE], 3, "no charges given"),
    "non-numeric PQR field": ([*SPHERE, "--pqr", "{d}/text.pqr"], 3, "non-numeric field"),
    "PQR without atoms": ([*SPHERE, "--pqr", "{d}/no_atoms.pqr"], 3,
                          "no ATOM/HETATM records found"),
    "unknown sphere method": ([*SPHERE, "--charge", "0,0,0,1", "--methods", "bogus"], 3,
                              "unknown sphere method 'bogus'"),
    "empty sphere method list": ([*SPHERE, "--charge", "0,0,0,1", "--methods", ""], 3,
                                 "no sphere methods given"),
    "sphere method list of commas": ([*SPHERE, "--charge", "0,0,0,1", "--methods", ","], 3,
                                     "no sphere methods given"),
    "invalid config JSON": (["experiment", "--config", "{d}/invalid.json"], 3, "invalid JSON"),
    "config not an object": (["sweep", "--config", "{d}/array.json"], 3,
                             "must be a JSON object"),
    "config without seed": (["experiment"], 3, "a seed is required"),
    "config seed of text": (["experiment", "--config", "{d}/seed_text.json"], 3,
                            "bad experiment config: seed must be int"),
    "empty OFF": ([*BEM, "{d}/empty.off"], 3, "empty OFF file"),
    "negative OFF count": ([*BEM, "{d}/negative_count.off"], 3, "negative count -1"),
    "truncated OFF faces": ([*BEM, "{d}/truncated.off"], 3, "cannot reshape array of size 7"),
    "OFF quad": ([*BEM, "{d}/quad.off"], 3, "face 0 has 4 vertices"),
    "OFF lone sign": ([*BEM, "{d}/lone_sign.off"], 3, "sign without digits"),
    "OFF float index": ([*BEM, "{d}/float_index.off"], 3, "malformed OFF file"),
    "open OFF surface": ([*BEM, "{d}/open.off"], 3, "surface is open or non-manifold"),
    "OFF of no vertices and no faces": ([*BEM, "{d}/no_faces.off"], 3, "surface has no triangles"),
    "OFF of vertices and no faces": ([*BEM, "{d}/vertices_only.off"], 3,
                                     "surface has no triangles"),
    "OFF vertex of two decimal points": ([*BEM, "{d}/vertex_two_points.off"], 3,
                                         "could not convert string to float: '1.2.3'"),
    "OFF vertex lone sign": ([*BEM, "{d}/vertex_lone_sign.off"], 3,
                             "could not convert string to float: '-'"),
    "OFF vertex nan": ([*BEM, "{d}/vertex_nan.off"], 3, "vertex 1 has a non-finite coordinate"),
    "OFF vertex inf": ([*BEM, "{d}/vertex_inf.off"], 3, "vertex 1 has a non-finite coordinate"),
    "OFF index past last vertex": ([*BEM, "{d}/index_past_end.off"], 3,
                                   "has vertex index 4, outside [0, 4)"),
    "unknown BEM variant": ([*BEM, "{d}/tet.off", "--variant", "bogus"], 3,
                            "unknown BEM variant 'bogus'"),
    "charge outside the sphere": ([*SPHERE, "--charge", "0,0,9,1"], 4,
                                  "too close to the boundary"),
    "non-finite charge": ([*SPHERE, "--charge", "0,0,nan,1"], 4, "non-finite charge 0"),
    "infinite eps_in": ([*SPHERE, "--charge", "0,0,0,1", "--eps-in", "inf"], 4,
                        "dielectric constant eps_in"),
    "nan eps_out": ([*SPHERE, "--charge", "0,0,0,1", "--eps-out", "nan"], 4,
                    "dielectric constant eps_out"),
    "infinite eps_in in a config": (["sweep", "--config", "{d}/infinite_eps.json"], 4,
                                    "dielectric constant eps_in"),
    "nan max_abs_charge in a config": (["experiment", "--config", "{d}/max_q_nan.json"], 4,
                                       "2 * max_abs_charge finite, got nan"),
    "infinite max_abs_charge in a config": (["sweep", "--config", "{d}/max_q_inf.json"], 4,
                                            "2 * max_abs_charge finite, got inf"),
    "max_abs_charge 1e308 in a config": (["experiment", "--config", "{d}/max_q_1e308.json"], 4,
                                         "2 * max_abs_charge finite, got 1e+308"),
    "negative max_abs_charge in a config": (["sweep", "--config", "{d}/max_q_negative.json"], 4,
                                            "max_abs_charge must be >= 0 with 2 * max_abs_charge "
                                            "finite, got -1"),
    "negative n_max": ([*SPHERE, "--charge", "0,0,0,1", "--nmax", "-1"], 4,
                       "n_max must be >= 0"),
    # 3.2e19 bytes: numpy raises ValueError, not MemoryError, past the address space.
    "spectra past the address space": (
        [*SPHERE, "--charge", "0,0,0,1", "--nmax", "4000000000000000000"], 4,
        "pair spectra to n_max 4000000000000000000 of 1 sets of 1 charges need "
        "32000000000000000048 bytes"),
    "infinite sphere radius": (["sphere", "--radius", "inf", "--charge", "0,0,1,1"], 4,
                               "sphere radius must be positive and finite, got inf"),
    "infinite sphere radius in a config": (["experiment", "--config", "{d}/infinite_radius.json"],
                                           4, "sphere radius must be positive and finite, got inf"),
    "charges whose products overflow": ([*SPHERE, "--charge", "0,0,4.9,1e200", "--charge",
                                         "0,1,0,1e200", "--methods", "gbeps,gb"], 4,
                                        "non-finite energy -inf for method GBeps"),
    "unknown config key": (["experiment", "--config", "{d}/unknown_key.json"], 4,
                           "unknown config keys: ['wibble']"),
    "negative experiment seed": (["experiment", "--seed", "-1"], 4, "seed must be >= 0, got -1"),
    "negative sweep seed": (["sweep", "--seed", "-3"], 4, "seed must be >= 0, got -3"),
    "zero-area OFF triangle": ([*BEM, "{d}/collinear.off"], 4, "degenerate triangle 1"),
    "charge outside the mesh": (["bem", "--charge", "5,5,5,1", "--mesh", "{d}/tet.off"], 4,
                                "is not inside the surface"),
    "GMRES tolerance too loose": ([*BEM, "{d}/tet.off", "--tol", "0.9"], 4,
                                  "GMRES tolerance must lie in"),
    "GMRES tolerance unreachable": ([*BEM, "{d}/tet.off", "--tol", "1e-300"], 5,
                                    "GMRES did not converge within 1 dense products"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", EXIT_CASES)
def test_malformed_input_exit_code_and_one_stderr_line(case, tmp_path, monkeypatch, capsys):
    for name, content in EXIT_FIXTURES.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    # A budget of one dense product, so that the unreachable tolerance fails fast.
    monkeypatch.setattr(sv.bem, "DEFAULT_GMRES_MAXITER", 1)
    argv, code, text = EXIT_CASES[case]
    assert run([arg.format(d=tmp_path) for arg in argv], tmp_path, monkeypatch) == code
    out = capsys.readouterr()
    assert out.out == ""
    label = {3: "(input|file)", 4: "domain", 5: "numerical"}[code]
    assert re.fullmatch(rf"solvbie: {label} error: [^\n]*\n", out.err), out.err
    assert text.format(d=tmp_path) in out.err
