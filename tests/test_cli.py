import json

import numpy as np
import pytest

import solvbie as sv
from solvbie.cli import build_parser, main
from solvbie.model import COULOMB_KCAL
from solvbie.sphere import SPHERE_METHODS


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


def test_legendre_table_unallocatable_exit_4(tmp_path, monkeypatch, capsys):
    zeros = np.zeros

    def refuse_table(shape, *args, **kwargs):
        if shape == (301, 301, 1):
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_table)
    code = run(["sphere", "--radius", "5", "--charge", "0,0,1,1", "--nmax", "300"],
               tmp_path, monkeypatch)
    assert code == 4
    assert "Legendre table to n_max 300 at 1 points needs 724808 bytes" in capsys.readouterr().err


def test_charge_outside_cavity_exit_4(tmp_path, monkeypatch):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,9,1"],
               tmp_path, monkeypatch)
    assert code == 4


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
    dist = sv.random_sphere_config(cfg.seed, 0, cfg)
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
    assert len(payload["summaries"]) == len(sv.ExperimentConfig(seed=9).lambda_grid)
