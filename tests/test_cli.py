import json

import numpy as np
import pytest

import solvbie as sv
from solvbie.cli import main
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


def test_charge_outside_cavity_exit_4(tmp_path, monkeypatch):
    code = run(["sphere", "--radius", "5", "--charge", "0,0,9,1"],
               tmp_path, monkeypatch)
    assert code == 4


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
    for c in dist.charges:
        argv.append("--charge=" + ",".join(repr(float(v)) for v in (*c.position, c.magnitude)))
    assert run(argv, tmp_path, monkeypatch) == 0
    (row,) = json.loads((tmp_path / "e.json").read_text())
    assert row["energy_kcal_mol"] == report.rows[0]["energy_kcal_mol"]


def test_bem_gmres_tolerance_out_of_range_exit_4(tmp_path, monkeypatch):
    mesh = tmp_path / "sphere.off"
    sv.write_off(sv.icosphere(5.0, 2), mesh)
    code = run(["bem", "--mesh", str(mesh), "--charge", "0,0,0,1",
                "--solver", "iterative", "--tol", "0.9"],
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


def test_sweep_json_format(tmp_path, monkeypatch, capsys):
    code = run(["sweep", "--seed", "9", "--num-configs", "2", "--format",
                "json", "--out", "sw"], tmp_path, monkeypatch)
    assert code == 0
    payload = json.loads((tmp_path / "sw.json").read_text())
    assert "best_lambda" in payload
    assert len(payload["summaries"]) == len(sv.ExperimentConfig(seed=9).lambda_grid)
