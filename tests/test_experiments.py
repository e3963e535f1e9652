import json
import warnings

import numpy as np
import pytest

import solvbie as sv
from solvbie.errors import DomainError
from solvbie.experiments import (
    METHOD_CFA,
    METHOD_KIRKWOOD,
    METHOD_M,
    METHOD_P,
    ROW_COLUMNS,
    SUMMARY_COLUMNS,
    report_to_json,
    rows_to_csv,
)


def small_config(**overrides):
    base = dict(seed=101, num_configs=3, charges_per_config=6,
                methods=(METHOD_KIRKWOOD, METHOD_CFA, METHOD_P))
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
        a = sv.random_sphere_config(101, 2, cfg)
        b = sv.random_sphere_config(101, 2, cfg)
        np.testing.assert_array_equal(a.positions(), b.positions())
        np.testing.assert_array_equal(a.magnitudes(), b.magnitudes())

    def test_streams_independent_of_ensemble_size(self):
        # Configuration 7 is the same whether or not 0..6 were generated.
        cfg = small_config(num_configs=10)
        direct = sv.random_sphere_config(101, 7, cfg)
        rng_check = np.random.default_rng([101, 7])
        dirs = rng_check.standard_normal((6, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        r = 0.95 * 5.0 * rng_check.random(6) ** (1.0 / 3.0)
        q = rng_check.uniform(-0.5, 0.5, 6)
        np.testing.assert_array_equal(direct.positions(), dirs * r[:, None])
        np.testing.assert_array_equal(direct.magnitudes(), q)

    def test_placement_stays_inside_margin(self):
        cfg = small_config(num_configs=50, charges_per_config=25)
        for index in range(50):
            d = sv.random_sphere_config(cfg.seed, index, cfg)
            radii = np.linalg.norm(d.positions(), axis=1)
            assert np.max(radii) <= 0.95 * 5.0 + 1e-12

    def test_charge_magnitude_statistics(self):
        # |q| ~ U(0, 0.5) gives mean 0.25; check the ensemble mean.
        cfg = small_config(num_configs=400, charges_per_config=25)
        mags = np.concatenate([
            np.abs(sv.random_sphere_config(cfg.seed, i, cfg).magnitudes())
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
            d = sv.random_sphere_config(cfg.seed, index, cfg)
            exact.append(sv.kirkwood_energy(d, model).value)
            cfa.append(sv.bibee_energy(d, model, sv.BibeeVariant.cfa()).value)
        exact = np.array(exact)
        cfa = np.array(cfa)
        s = report.summary_for(METHOD_CFA)
        assert s["rmsd"] == pytest.approx(np.sqrt(np.mean((cfa - exact) ** 2)), rel=1e-13)
        assert s["mean_dev_pct"] == pytest.approx(
            100.0 * np.mean(np.abs(cfa - exact) / np.abs(exact)), rel=1e-13)
        assert s["n"] == 3

    def test_kirkwood_summary_is_zero(self):
        report = sv.run_comparison(small_config())
        s = report.summary_for(METHOD_KIRKWOOD)
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

    def test_bound_ordering_in_summaries(self):
        # P deviates from exact at least as much as its role as a lower bound
        # implies; CFA sits above exact. Check sign structure on raw rows.
        cfg = small_config(num_configs=10)
        report = sv.run_comparison(cfg)
        by = {}
        for row in report.rows:
            by.setdefault(row["method"], {})[row["index"]] = row["energy_kcal_mol"]
        for i in range(10):
            assert by[METHOD_CFA][i] >= by[METHOD_KIRKWOOD][i] - 1e-10
            assert by[METHOD_KIRKWOOD][i] >= by[METHOD_P][i] - 1e-10


class TestSweep:
    def test_sweep_reports_and_best(self):
        cfg = small_config(num_configs=5, lambda_grid=(-0.12, -0.16, -0.20))
        out = sv.lambda_sweep(cfg)
        assert set(out["reports"]) == {-0.12, -0.16, -0.20}
        best = out["best_lambda"]
        devs = {lam: out["reports"][lam].summary_for(METHOD_M)["mean_dev_pct"]
                for lam in cfg.lambda_grid}
        assert devs[best] == min(devs.values())

    def test_sweep_adds_hybrid_method(self):
        cfg = small_config(num_configs=2, lambda_grid=(-0.14,))
        out = sv.lambda_sweep(cfg)
        report = out["reports"][-0.14]
        assert report.summary_for(METHOD_M)["lambda"] == -0.14

    def test_tie_breaks_toward_smaller_magnitude(self):
        # Duplicate grid values produce exact ties; the smaller |lambda| wins.
        cfg = small_config(num_configs=2, lambda_grid=(-0.2, -0.1, -0.2))
        out = sv.lambda_sweep(cfg)
        devs = {lam: out["reports"][lam].summary_for(METHOD_M)["mean_dev_pct"]
                for lam in (-0.1, -0.2)}
        if devs[-0.1] <= devs[-0.2]:
            assert out["best_lambda"] == -0.1

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
