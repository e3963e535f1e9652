import json
import math
import warnings

import numpy as np
import pytest

import solvbie as sv
from conftest import drawn_config, summary_for
from solvbie import sphere
from solvbie.errors import DomainError
from solvbie.experiments import (
    METHOD_KIRKWOOD,
    ROW_COLUMNS,
    SUMMARY_COLUMNS,
    _draw,
    report_to_json,
    rows_to_csv,
)
from solvbie.sphere import VARIANT_CFA, VARIANT_M, VARIANT_P


def small_config(**overrides):
    base = dict(seed=101, num_configs=3, charges_per_config=6,
                methods=(METHOD_KIRKWOOD, VARIANT_CFA, VARIANT_P))
    base.update(overrides)
    return sv.ExperimentConfig(**base)


class TestConfig:
    def test_margin_validation(self):
        with pytest.raises(DomainError):
            small_config(placement_margin=1.0)
        with pytest.raises(DomainError):
            small_config(placement_margin=0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            small_config(methods=("kirkwood", "magic"))

    @pytest.mark.parametrize("overrides", [
        {"sphere_radius": 0.0}, {"eps_in": 0.0}, {"eps_out": -80.0}, {"n_max": -1},
        {"num_configs": 0}, {"charges_per_config": -1},
    ])
    def test_sphere_checked_at_load(self, overrides):
        with pytest.raises(DomainError):
            small_config(**overrides)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            small_config(seed=-1)

    def test_from_dict_roundtrip(self):
        cfg = small_config()
        data = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
        data["methods"] = list(data["methods"])
        data["lambda_grid"] = list(data["lambda_grid"])
        assert sv.ExperimentConfig.from_dict(data) == cfg

    def test_from_dict_unknown_key(self):
        with pytest.raises(DomainError):
            sv.ExperimentConfig.from_dict({"seed": 1, "bogus": 2})


class TestSampling:
    def test_deterministic_regeneration(self):
        cfg = small_config()
        a = drawn_config(101, 2, cfg)
        b = drawn_config(101, 2, cfg)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.magnitudes, b.magnitudes)

    def test_streams_independent_of_ensemble_size(self):
        # Configuration 7 is the same whether or not 0..6 were generated.
        cfg = small_config(num_configs=10)
        direct = drawn_config(101, 7, cfg)
        rng_check = np.random.default_rng([101, 7])
        dirs = rng_check.standard_normal((6, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        r = 0.95 * 5.0 * rng_check.random(6) ** (1.0 / 3.0)
        q = rng_check.uniform(-0.5, 0.5, 6)
        np.testing.assert_array_equal(direct.positions, dirs * r[:, None])
        np.testing.assert_array_equal(direct.magnitudes, q)

    @pytest.mark.parametrize("charges", [1, 25, 200])
    def test_chunk_draw_equals_one_set_draws(self, charges):
        # The chunk draw gives each configuration the bits of a draw of it alone.
        cfg = small_config(num_configs=9, charges_per_config=charges)
        indices = range(2, 9)
        pos, q = _draw(cfg.seed, indices, cfg)
        assert pos.shape == (len(indices), charges, 3) and q.shape == (len(indices), charges)
        for c, index in enumerate(indices):
            rng = np.random.default_rng([cfg.seed, index])
            dirs = rng.standard_normal((charges, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            r = 0.95 * 5.0 * rng.random(charges) ** (1.0 / 3.0)
            np.testing.assert_array_equal(pos[c], dirs * r[:, None])
            np.testing.assert_array_equal(q[c], rng.uniform(-0.5, 0.5, charges))
            d = drawn_config(cfg.seed, index, cfg)
            np.testing.assert_array_equal(d.positions, pos[c])
            np.testing.assert_array_equal(d.magnitudes, q[c])

    def test_placement_stays_inside_margin(self):
        cfg = small_config(num_configs=50, charges_per_config=25)
        for index in range(50):
            d = drawn_config(cfg.seed, index, cfg)
            radii = np.linalg.norm(d.positions, axis=1)
            assert np.max(radii) <= 0.95 * 5.0 + 1e-12

    def test_charge_magnitude_statistics(self):
        # |q| ~ U(0, 0.5) gives mean 0.25; check the ensemble mean.
        cfg = small_config(num_configs=400, charges_per_config=25)
        mags = np.concatenate([
            np.abs(drawn_config(cfg.seed, i, cfg).magnitudes)
            for i in range(400)
        ])
        assert np.mean(mags) == pytest.approx(0.25, abs=0.01)


class TestComparison:
    def test_hand_computed_summary(self):
        cfg = small_config()
        report = sv.run_comparison(cfg)
        model = cfg.sphere
        exact = []
        cfa = []
        for index in range(3):
            d = drawn_config(cfg.seed, index, cfg)
            exact.append(sv.kirkwood_energy(d, model).value)
            cfa.append(sv.sphere_energies(d, model, ["cfa"])[0].value)
        exact = np.array(exact)
        cfa = np.array(cfa)
        s = summary_for(report, VARIANT_CFA)
        assert s["rmsd"] == pytest.approx(np.sqrt(np.mean((cfa - exact) ** 2)), rel=1e-13)
        assert s["mean_dev_pct"] == pytest.approx(
            100.0 * np.mean(np.abs(cfa - exact) / np.abs(exact)), rel=1e-13)
        assert s["n"] == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", [1e-200, 1e200])
    def test_rmsd_at_extreme_radius(self, radius):
        # Deviations near 1e201 square past the float range, and near 1e-199
        # square to 0: the rmsd takes the scaled form, and scales as 1/b.
        cfg = small_config(sphere_radius=radius, methods=(METHOD_KIRKWOOD, VARIANT_CFA,
                                                          VARIANT_P, VARIANT_M))
        report = sv.run_comparison(cfg)
        unit = sv.run_comparison(small_config(sphere_radius=1.0, methods=cfg.methods))
        def energies(method):
            return np.array([r["energy_kcal_mol"] for r in report.rows if r["method"] == method])

        exact = energies(METHOD_KIRKWOOD)
        for method in cfg.methods[1:]:
            vals = energies(method)
            dev = np.abs(vals - exact)
            scale = np.max(dev)
            rmsd = summary_for(report, method)["rmsd"]
            assert 0.0 < rmsd < np.inf
            assert rmsd == pytest.approx(scale * np.sqrt(np.mean((dev / scale) ** 2)), rel=1e-14)
            assert rmsd == pytest.approx(summary_for(unit, method)["rmsd"] / radius, rel=1e-12)

    def test_kirkwood_summary_is_zero(self):
        report = sv.run_comparison(small_config())
        s = summary_for(report, METHOD_KIRKWOOD)
        assert s["rmsd"] == 0.0
        assert s["mean_dev_pct"] == 0.0

    def test_row_count_and_fields(self):
        report = sv.run_comparison(small_config())
        assert len(report.rows) == 3 * 3
        for row in report.rows:
            assert set(ROW_COLUMNS) <= set(row)

    def test_reruns_identical(self):
        cfg = small_config()
        a = sv.run_comparison(cfg)
        b = sv.run_comparison(cfg)
        assert rows_to_csv(a.rows, ROW_COLUMNS) == rows_to_csv(b.rows, ROW_COLUMNS)
        assert report_to_json(a) == report_to_json(b)

    @pytest.mark.parametrize("overrides", [{"max_abs_charge": 0.0},
                                           {"eps_in": 4.0, "eps_out": 4.0}])
    def test_zero_reference_deviates_by_zero(self, overrides):
        cfg = small_config(methods=sv.experiments.KNOWN_METHODS, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sv.run_comparison(cfg)
        assert all(row["energy_kcal_mol"] == 0.0 for row in report.rows)
        for s in report.summaries:
            assert s["mean_dev_pct"] == 0.0

    def test_empty_methods_rejected(self):
        with pytest.raises(DomainError):
            sv.run_comparison(small_config(methods=()))

    def test_infeasible_ensemble_is_domain_error(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty", refuse)
        message = "energies of 3 configurations and 4 methods need 96 bytes"
        with pytest.raises(DomainError, match=message):
            sv.run_comparison(small_config())

    def test_bound_ordering_in_summaries(self):
        # P deviates from exact at least as much as its role as a lower bound
        # implies; CFA sits above exact. Check sign structure on raw rows.
        cfg = small_config(num_configs=10)
        report = sv.run_comparison(cfg)
        by = {}
        for row in report.rows:
            by.setdefault(row["method"], {})[row["index"]] = row["energy_kcal_mol"]
        for i in range(10):
            assert by[VARIANT_CFA][i] >= by[METHOD_KIRKWOOD][i] - 1e-10
            assert by[METHOD_KIRKWOOD][i] >= by[VARIANT_P][i] - 1e-10


class TestSweep:
    def test_sweep_reports_and_best(self):
        cfg = small_config(num_configs=5, lambda_grid=(-0.12, -0.16, -0.20))
        out = sv.lambda_sweep(cfg)
        assert {s["lambda"] for s in out["summaries"]} == {-0.12, -0.16, -0.20}
        best = out["best_lambda"]
        devs = {s["lambda"]: s["mean_dev_pct"] for s in out["summaries"]}
        assert devs[best] == min(devs.values())

    def test_sweep_adds_hybrid_method(self):
        cfg = small_config(num_configs=2, lambda_grid=(-0.14,))
        out = sv.lambda_sweep(cfg)
        [summary] = out["summaries"]
        assert summary["method"] == VARIANT_M
        assert summary["lambda"] == -0.14

    def test_tie_breaks_toward_smaller_magnitude(self):
        # Duplicate grid values produce exact ties; the smaller |lambda| wins.
        cfg = small_config(num_configs=2, lambda_grid=(-0.2, -0.1, -0.2))
        out = sv.lambda_sweep(cfg)
        devs = {s["lambda"]: s["mean_dev_pct"] for s in out["summaries"]}
        if devs[-0.1] <= devs[-0.2]:
            assert out["best_lambda"] == -0.1

    def test_one_pass_equals_per_lambda_comparisons(self):
        cfg = small_config(num_configs=4, lambda_grid=(-0.2, -0.1, -0.2))
        out = sv.lambda_sweep(cfg)
        assert [s["lambda"] for s in out["summaries"]] == [-0.2, -0.1]
        for s in out["summaries"]:
            single = sv.run_comparison(cfg, [(VARIANT_M, s["lambda"])])
            assert repr(s) == repr(summary_for(single, VARIANT_M))

    def test_default_grid_flags_its_edge(self):
        # With seed 7 the optimum lies near -0.08, outside the default grid.
        out = sv.lambda_sweep(sv.ExperimentConfig(seed=7))
        assert out["best_lambda"] == -0.10
        assert out["best_at_grid_edge"] is True

    def test_bracketing_grid_not_flagged(self):
        out = sv.lambda_sweep(sv.ExperimentConfig(seed=7, lambda_grid=(-0.12, -0.10, -0.08, -0.06)))
        assert out["best_lambda"] == -0.08
        assert out["best_at_grid_edge"] is False

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            sv.lambda_sweep(small_config(lambda_grid=()))
        with pytest.raises(DomainError):
            sv.lambda_sweep(small_config(lambda_grid=(0.1,)))


class TestSerialization:
    def test_csv_deterministic_layout(self):
        rows = [{"seed": 1, "index": 0, "method": "p", "lambda": None,
                 "energy_kcal_mol": -1.2345678901234567,
                 "truncation_estimate": 0.0, "net_charge": 0.5}]
        text = rows_to_csv(rows, ROW_COLUMNS)
        lines = text.split("\n")
        assert lines[0] == ",".join(ROW_COLUMNS)
        assert "-1.2345678901234567" in lines[1]
        assert text.endswith("\n")
        assert "\r" not in text

    def test_summary_csv_columns(self):
        report = sv.run_comparison(small_config())
        text = rows_to_csv(report.summaries, SUMMARY_COLUMNS)
        assert text.split("\n")[0] == ",".join(SUMMARY_COLUMNS)

    def test_json_parses_and_sorted(self):
        report = sv.run_comparison(small_config())
        payload = json.loads(report_to_json(report))
        assert payload["config"]["seed"] == 101
        assert len(payload["rows"]) == 9


class TestChunks:
    def test_chunks_match_one_set_calls(self, monkeypatch):
        cfg = small_config(num_configs=7, methods=sphere.SPHERE_METHODS, lambda_value=-0.15)
        whole = sv.run_comparison(cfg)
        table = 8 * (cfg.n_max + 1) ** 2 * cfg.charges_per_config
        monkeypatch.setattr(sphere, "_CHUNK_BYTES", 3 * table)
        assert sphere.chunk_length(cfg.n_max, cfg.charges_per_config) == 3
        report = sv.run_comparison(cfg)
        # Chunks of 3, 3 and 1 sets give the rows of one chunk of 7, bit for bit.
        assert report.rows == whole.rows
        rows = iter(report.rows)
        lams = [cfg.lambda_value if m in ("lambda", "m") else None for m in cfg.methods]
        for index in range(cfg.num_configs):
            d = drawn_config(cfg.seed, index, cfg)
            for res in sv.sphere_energies(d, cfg.sphere, cfg.methods, lams):
                row = next(rows)
                assert row["index"] == index
                assert row["energy_kcal_mol"] == res.value
                assert row["truncation_estimate"] == res.truncation_error_estimate
                assert row["net_charge"] == math.fsum(d.magnitudes)
