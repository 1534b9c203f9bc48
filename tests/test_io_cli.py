"""CSV ingestion, report emission, pipeline, and CLI checks."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tiltrisk.cli import main as cli_main
from tiltrisk.config import AnalysisConfig
from tiltrisk.errors import ConfigError, DataError
from tiltrisk.estimators import estimate
from tiltrisk.io import (
    load_table,
    read_curve_csv,
    run_analysis,
    validate_report,
    write_curve_csv,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TOY_CSV = """s,y,age,severity
1,1,0.5,0.2
1,0,-0.3,0.8
1,1,0.1,0.4
1,0,0.9,-0.1
0,,-0.5,0.3
0,,0.2,-0.6
0,,0.7,0.1
"""


def write_clipped_nested(tmp_path, name="nested.csv"):
    """Nested cohort whose selection is steep in x0, so the fitted p leaves
    the clip band [0.01, 0.99] on about 5% of the rows."""
    from scipy.special import expit

    rng = np.random.default_rng(7)
    n = 3000
    x = rng.uniform(-1.0, 1.0, (n, 2))
    s = (rng.random(n) < expit(0.3 + 5.0 * x[:, 0])).astype(int)
    y = (rng.random(n) < expit(-0.4 + 1.2 * x[:, 0] + 0.8 * x[:, 1])).astype(int)
    lines = ["s,y,x0,x1"]
    for i in range(n):
        yv = str(y[i]) if s[i] == 1 else ""
        lines.append(f"{s[i]},{yv},{float(x[i, 0])!r},{float(x[i, 1])!r}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def write_toy(tmp_path, text=TOY_CSV, name="toy.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def toy_config(tmp_path, **overrides):
    base = dict(
        data_path=str(tmp_path / "toy.csv"),
        design="non-nested",
        loss="brier",
        x_columns=["age", "severity"],
        model_coefficients=[0.1, 0.4, -0.2],
        eta_grid=[0.0],
        estimator="cl",
        out_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return AnalysisConfig.from_dict(base)


class TestLoadTable:
    def test_well_formed(self, tmp_path):
        write_toy(tmp_path)
        table = load_table(tmp_path / "toy.csv", toy_config(tmp_path))
        assert table.n == 7 and table.n1 == 4 and table.n0 == 3

    def test_source_row_missing_y(self, tmp_path):
        bad = TOY_CSV.replace("1,0,-0.3,0.8", "1,,-0.3,0.8")
        write_toy(tmp_path, bad)
        with pytest.raises(DataError, match="row 1"):
            load_table(tmp_path / "toy.csv", toy_config(tmp_path))

    def test_target_row_y_ignored_with_warning(self, tmp_path):
        extra = TOY_CSV.replace("0,,-0.5,0.3", "0,1,-0.5,0.3")
        write_toy(tmp_path, extra)
        with pytest.warns(UserWarning, match="1 target rows"):
            table = load_table(tmp_path / "toy.csv", toy_config(tmp_path))
        assert np.all(np.isnan(table.y[table.s == 0]))

    def test_missing_column(self, tmp_path):
        write_toy(tmp_path)
        cfg = toy_config(tmp_path, x_columns=["age", "bmi"],
                         model_coefficients=[0.1, 0.4, -0.2])
        with pytest.raises(DataError, match="bmi"):
            load_table(tmp_path / "toy.csv", cfg)

    def test_non_numeric_cell(self, tmp_path):
        bad = TOY_CSV.replace("0,,0.2,-0.6", "0,,oops,-0.6")
        write_toy(tmp_path, bad)
        with pytest.raises(DataError, match="row 5, column age"):
            load_table(tmp_path / "toy.csv", toy_config(tmp_path))

    def test_empty_stratum(self, tmp_path):
        only_src = "\n".join(TOY_CSV.splitlines()[:5]) + "\n"
        write_toy(tmp_path, only_src)
        with pytest.raises(DataError, match="target"):
            load_table(tmp_path / "toy.csv", toy_config(tmp_path))

    def test_bad_s_value(self, tmp_path):
        bad = TOY_CSV.replace("0,,0.7,0.1", "2,,0.7,0.1")
        write_toy(tmp_path, bad)
        with pytest.raises(DataError, match="s must be 0 or 1"):
            load_table(tmp_path / "toy.csv", toy_config(tmp_path))


class TestConfigValidation:
    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            AnalysisConfig.from_dict({"data_path": "x", "bogus": 1})

    def test_exactly_one_grid_source(self, tmp_path):
        with pytest.raises(ConfigError, match="eta_grid or anchor"):
            toy_config(tmp_path, eta_grid=[0.0], anchor={"mu": 0.2})

    def test_xstar_subset(self, tmp_path):
        with pytest.raises(ConfigError, match="xstar"):
            toy_config(tmp_path, xstar_columns=["age", "bmi"])

    def test_seed_needed_for_bootstrap(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            toy_config(tmp_path, resample={"method": "bootstrap", "replicates": 10})

    def test_aug_alt_non_nested_only(self, tmp_path):
        with pytest.raises(ConfigError, match="non-nested"):
            toy_config(tmp_path, design="nested", estimator="aug-alt")


class TestRunAnalysis:
    def test_single_point_matches_phi_cl(self, tmp_path):
        write_toy(tmp_path)
        config = toy_config(tmp_path)
        out = run_analysis(config)
        assert len(out.curve) == 1
        table = load_table(tmp_path / "toy.csv", config)
        from tiltrisk.io import _recipe_from_config

        recipe = _recipe_from_config(config)
        expected = estimate(table, recipe.fit(table), 0.0, "cl").estimate
        assert out.curve.points[0].result.estimate == pytest.approx(expected, abs=1e-15)
        rows = read_curve_csv(out.curve_csv)
        assert rows[0]["estimate"] == pytest.approx(expected, abs=0)
        assert rows[0]["status"] == "ok"

    def test_byte_identical_reruns(self, tmp_path):
        write_toy(tmp_path)
        cfg = toy_config(
            tmp_path, estimator="aug",
            resample={"method": "bootstrap", "replicates": 25},
            seed=42, eta_grid=[-0.5, 0.0, 0.5],
        )
        first = run_analysis(cfg)
        csv1 = first.curve_csv.read_bytes()
        json1 = first.report_json.read_bytes()
        second = run_analysis(cfg)
        assert second.curve_csv.read_bytes() == csv1
        assert second.report_json.read_bytes() == json1

    def test_replicates_raise_no_warnings(self, tmp_path):
        # p reaches its clip bound on most source rows of some bootstrap
        # replicates of the toy table, never on the full table
        write_toy(tmp_path)
        cfg = toy_config(
            tmp_path, estimator="aug",
            resample={"method": "bootstrap", "replicates": 25},
            seed=42, eta_grid=[-0.5, 0.0, 0.5],
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_analysis(cfg)
        assert [str(w.message) for w in caught] == []
        assert not any(pt.result.diagnostics.get("positivity_warning") for pt in out.curve)

    def test_curve_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = ["s,y,age,severity"]
        for i in range(40):
            s = 1 if i < 20 else 0
            a, b = rng.uniform(-1, 1, 2)
            y = int(rng.random() < 0.4) if s == 1 else ""
            lines.append(f"{s},{y},{a:.4f},{b:.4f}")
        (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
        cfg = toy_config(
            tmp_path, estimator="aug",
            resample={"method": "jackknife"}, eta_grid=[-0.3, 0.0, 0.3],
        )
        out = run_analysis(cfg)
        rows = read_curve_csv(out.curve_csv)
        for row, pt in zip(rows, out.curve):
            assert row["eta"] == pt.eta
            assert row["estimate"] == pt.result.estimate
            assert row["se"] == pt.result.se
            assert row["ci_lo"] == pt.result.ci[0]
            assert row["ci_hi"] == pt.result.ci[1]
        # and writing the parsed rows again reproduces the file
        tmp2 = tmp_path / "again.csv"
        write_curve_csv(out.curve, tmp2)
        assert tmp2.read_bytes() == out.curve_csv.read_bytes()

    def test_report_schema_valid(self, tmp_path):
        write_toy(tmp_path)
        out = run_analysis(toy_config(tmp_path))
        validate_report(json.loads(out.report_json.read_text()))

    def test_partial_curve_on_failed_point(self, tmp_path):
        write_toy(tmp_path)
        cfg = toy_config(tmp_path, eta_grid=[0.0, 900.0], estimator="aug")
        out = run_analysis(cfg)
        rows = read_curve_csv(out.curve_csv)
        assert rows[0]["status"] == "ok" and rows[1]["status"].startswith("failed")
        assert out.report["diagnostics"]["n_failed_points"] == 1

    def test_benchmark_shaped_grid_emits_45_rows(self, tmp_path):
        # 45-point grid from -0.95 to 1.25 in steps of 0.05, with bootstrap
        rng = np.random.default_rng(2)
        lines = ["s,y,age,severity"]
        for i in range(80):
            s = 1 if i < 40 else 0
            a, b = rng.uniform(-1, 1, 2)
            y = int(rng.random() < 0.4) if s == 1 else ""
            lines.append(f"{s},{y},{a:.4f},{b:.4f}")
        (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
        grid = [round(-0.95 + 0.05 * k, 10) for k in range(45)]
        cfg = toy_config(
            tmp_path, estimator="aug", eta_grid=grid,
            resample={"method": "bootstrap", "replicates": 50}, seed=3,
        )
        out = run_analysis(cfg)
        rows = read_curve_csv(out.curve_csv)
        assert len(rows) == 45
        assert all(r["status"] == "ok" for r in rows)

    def test_binary_outcome_absolute_deviation(self, tmp_path):
        # binary outcomes under a non-Brier loss: the table caches no
        # L(1, h) / L(0, h), so the nuisances take them from the predictions
        data = write_clipped_nested(tmp_path)
        cfg = AnalysisConfig.from_dict(dict(
            data_path=str(data), design="nested", loss="absolute-deviation",
            outcome="binary", x_columns=["x0", "x1"],
            model_coefficients=[-1.2, 0.25, 0.1], eta_grid=[-0.5, 0.0, 0.5],
            estimator="aug", out_dir=str(tmp_path / "out"),
        ))
        out = run_analysis(cfg)
        np.testing.assert_allclose(
            out.curve.estimates, [0.426936, 0.457306, 0.494839], atol=5e-7
        )

    def test_fit_split_mode(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["s,y,age,severity"]
        for i in range(60):
            s = 1 if i < 40 else 0
            a, b = rng.uniform(-1, 1, 2)
            y = int(rng.random() < 0.4) if s == 1 else ""
            lines.append(f"{s},{y},{a:.4f},{b:.4f}")
        (tmp_path / "toy.csv").write_text("\n".join(lines) + "\n")
        cfg = toy_config(tmp_path, model_coefficients=None, fit_split=0.5, seed=7)
        out = run_analysis(cfg)
        assert out.report["diagnostics"]["fit_split_rows_used"] == 20
        assert len(out.curve) == 1 and out.curve.points[0].ok


class TestCli:
    def test_analyze_with_flags(self, tmp_path):
        write_toy(tmp_path)
        rc = cli_main([
            "analyze", "--data", str(tmp_path / "toy.csv"),
            "--design", "non-nested", "--loss", "brier",
            "--x-cols", "age,severity",
            "--coefficients", "0.1,0.4,-0.2",
            "--eta-list=-0.2,0,0.2", "--estimator", "cl",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "curve.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_analyze_with_config_file(self, tmp_path):
        write_toy(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(toy_config(tmp_path).to_dict()))
        assert cli_main(["analyze", "--config", str(cfg_path)]) == 0

    def test_config_error_exit_code(self, tmp_path):
        assert cli_main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2

    def test_data_error_exit_code(self, tmp_path):
        bad = write_toy(tmp_path, TOY_CSV.replace("1,0,-0.3,0.8", "1,,-0.3,0.8"))
        rc = cli_main([
            "analyze", "--data", str(bad),
            "--design", "non-nested", "--loss", "brier",
            "--x-cols", "age,severity", "--coefficients", "0.1,0.4,-0.2",
            "--eta-list", "0", "--estimator", "cl",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 3

    def test_simulate_then_analyze(self, tmp_path):
        dgp = {
            "design": "non-nested", "covariate_kind": "uniform", "dim": 2,
            "selection_coefs": [0.4, 1.2, -1.0], "outcome_coefs": [-0.4, 1.2, 0.8],
            "eta_true": 0.5, "loss": "brier",
            "model": {"coefficients": [0.2, 0.6, -0.3], "xstar_columns": [0, 1]},
            "n_source": 300, "n_target": 300,
        }
        (tmp_path / "dgp.json").write_text(json.dumps(dgp))
        rc = cli_main([
            "simulate", "--dgp", str(tmp_path / "dgp.json"),
            "--seed", "4", "--out", str(tmp_path / "sim.csv"),
            "--hidden-out", str(tmp_path / "hidden.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "hidden.csv").exists()
        rc = cli_main([
            "analyze", "--data", str(tmp_path / "sim.csv"),
            "--design", "non-nested", "--loss", "brier",
            "--x-cols", "x0,x1", "--coefficients", "0.2,0.6,-0.3",
            "--eta-list", "0,0.5", "--estimator", "aug",
            "--bootstrap", "20", "--seed", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0

    def test_eta_range_outputs_json(self, tmp_path, capsys):
        write_toy(tmp_path)
        rc = cli_main([
            "eta-range", "--data", str(tmp_path / "toy.csv"),
            "--x-cols", "age,severity", "--anchor-mu", "0.4",
            "--multipliers", "0.5,2", "--step", "0.05",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta_lo"] <= payload["eta_hi"]
        assert payload["n_points"] == len(payload["grid"])

    def test_eta_range_matches_analyze_grid(self, tmp_path, capsys):
        # both commands anchor on the recipe's clipped p
        data = write_clipped_nested(tmp_path)
        anchor = ["--anchor-alpha", "0.2997684658", "--multipliers", "1,1.6432388464",
                  "--step", "0.05"]
        rc = cli_main(["eta-range", "--data", str(data), "--x-cols", "x0,x1", *anchor])
        assert rc == 0
        grid = json.loads(capsys.readouterr().out)["grid"]
        rc = cli_main([
            "analyze", "--data", str(data), "--design", "nested", "--loss", "brier",
            "--x-cols", "x0,x1", "--coefficients=-1.2,0.25,0.1", *anchor,
            "--estimator", "cl", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert grid == report["eta_grid"]

    def test_selftest_subprocess_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tiltrisk.cli", "selftest"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout


def test_package_import_skips_scipy_stats():
    # scipy.stats costs over half a second of import time; the package
    # needs only the standard normal, from scipy.special.  scipy.interpolate
    # (which loads scipy.optimize) is imported only when a spline basis is
    # built.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, tiltrisk, tiltrisk.io, tiltrisk.cli; "
            "print([m for m in ('scipy.stats', 'scipy.interpolate', 'scipy.optimize') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
