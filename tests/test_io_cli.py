"""CSV ingestion, report emission, pipeline, and CLI checks."""

import copy
import functools
import importlib.metadata
import importlib.util
import json
import math
import operator
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk.cli import main as cli_main
from tiltrisk.config import AnalysisConfig
from tiltrisk.errors import ConfigError, DataError, TiltriskError
from tiltrisk.estimators import estimate
from tiltrisk.resampling import ResampleConfig
from tiltrisk.io import (
    _check,
    _check_schema,
    load_table,
    read_curve_csv,
    report_schema,
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

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_non_finite_covariate(self, tmp_path, cell):
        bad = TOY_CSV.replace("0,,0.2,-0.6", f"0,,0.2,{cell}")
        write_toy(tmp_path, bad)
        with pytest.raises(DataError, match="row 5: covariate 1 is"):
            run_analysis(toy_config(tmp_path))


# config faults in the anchor or resampling choices, each with a phrase of
# its message
BAD_CONFIGS = [
    (dict(eta_grid=None, anchor={"mu": 1.2}), "anchor: .*mu must lie in"),
    (dict(eta_grid=None, anchor={"mu": "x"}), "anchor: mu must be a number"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "multipliers": [2, 0.5]}), "ordered"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "multipliers": [0.5]}), "two numbers"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "multipliers": [0.5, 2, 3]}), "two numbers"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "step": "a"}), "step must be a number"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "step": 0}), "step must be positive"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "alpha": 0.3}), "exactly one of mu"),
    (dict(eta_grid=None, anchor={"mu": 0.3, "seed": 1}), "unknown anchor keys"),
    (dict(eta_grid=None, anchor=0.3), "anchor must be a mapping"),
    (dict(eta_grid=None, anchor={"mu": 0.3}, loss="squared-error"), "binary outcomes only"),
    (dict(resample="bootstrap"), "resample must be a mapping"),
    (dict(resample={"method": "jackknife", "replicates": "many"}),
     "replicates must be an integer"),
    (dict(resample={"method": "permutation"}), "method must be"),
    (dict(resample={"method": "jackknife", "level": 95}), "level must be in"),
    (dict(resample={"method": "jackknife", "stratified": "yes"}), "stratified"),
    (dict(resample={"method": "bootstrap", "replicates": 1}, seed=3), "at least 2"),
    (dict(resample={"method": "bootstrap", "seed": 3}), "unknown resample keys"),
    (dict(resample={"method": "bootstrap"}, seed="x"), "seed must be an integer"),
]

# malformed values of the other keys, each with a phrase of its message
BAD_VALUES = [
    (dict(eta_grid=["a"]), "eta_grid must be a list of numbers"),
    (dict(eta_grid=0.5), "eta_grid must be a list of numbers"),
    (dict(eta_grid=[True]), "eta_grid must be a list of numbers"),
    (dict(model_coefficients=["a", 1, 2]), "model_coefficients must be a list of numbers"),
    (dict(g_basis="spline:x"), "cannot parse basis spec"),
    (dict(p_basis={"kind": "spline", "degree": "x"}), "cannot parse basis spec"),
    (dict(x_columns="ab"), "x_columns must be a list of column names"),
    (dict(xstar_columns="age"), "xstar_columns must be a list of column names"),
    (dict(seed="x", fit_split=0.5, model_coefficients=None), "seed must be an integer"),
    (dict(seed=1.5), "seed must be an integer"),
    (dict(model_link="probit"), "model_link must be one of"),
    (dict(fit_split="half", seed=1, model_coefficients=None), "fit_split must be a fraction"),
    (dict(g_basis="spline:5:2"), "cannot parse basis spec.*degree must be in"),
    (dict(g_basis="spline:3:-1"), "cannot parse basis spec.*interior_knots must be >= 0"),
    (dict(p_basis={"kind": "spline", "knots": 4}), "cannot parse basis spec.*unknown keys"),
    (dict(g_basis={"kind": "spline", "degree": True}), "cannot parse basis spec.*integer"),
    (dict(p_basis={"kind": "spline", "degree": 2.5}), "cannot parse basis spec.*integer"),
    (dict(eta_grid=[0.0, math.inf]), "eta grid must be nonempty, finite"),
    (dict(eta_grid=[math.nan]), "eta grid must be nonempty, finite"),
    (dict(model_coefficients=[math.nan, 0.9, -0.4]), "coefficients must be finite"),
    (dict(xstar_columns=["age"]), "coefficient length 3 does not match 1 selected"),
    (dict(x_columns=["age", "age"]), "more than once"),
]


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

    @pytest.mark.parametrize("overrides, match", BAD_CONFIGS)
    def test_bad_anchor_or_resample(self, tmp_path, overrides, match):
        with pytest.raises(ConfigError, match=match):
            toy_config(tmp_path, **overrides)

    @pytest.mark.parametrize("overrides, match", BAD_VALUES)
    def test_bad_value(self, tmp_path, overrides, match):
        with pytest.raises(ConfigError, match=match):
            toy_config(tmp_path, **overrides)

    def test_resample_seed_must_be_the_config_seed(self, tmp_path):
        cfg = toy_config(tmp_path, seed=4, resample={"method": "bootstrap", "replicates": 10})
        assert cfg.resample == ResampleConfig(replicates=10, seed=4)
        fields = dict(vars(cfg), resample=ResampleConfig(replicates=10, seed=5))
        with pytest.raises(ConfigError, match="seed"):
            AnalysisConfig(**fields)

    @pytest.mark.parametrize("overrides", [
        dict(eta_grid=None, anchor={"mu": 0.3, "multipliers": [1, 2.5], "step": 0.1},
             seed=9, resample={"method": "bootstrap", "replicates": 30, "stratified": True}),
        dict(design="nested", eta_grid=None, anchor={"alpha": 0.4},
             resample={"method": "jackknife", "level": 0.9}),
    ])
    def test_round_trip(self, tmp_path, overrides):
        cfg = toy_config(tmp_path, g_basis="spline:3:2", **overrides)
        echoed = cfg.to_dict()
        assert AnalysisConfig.from_dict(echoed) == cfg
        assert sorted(echoed["anchor"]) == ["alpha", "mu", "multipliers", "step"]
        assert sorted(echoed["resample"]) == ["level", "method", "replicates", "stratified"]


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
        jsonschema.validate(json.loads(out.report_json.read_text()), report_schema())

    def test_report_names_installed_versions(self, tmp_path):
        import scipy

        write_toy(tmp_path)
        report = json.loads(run_analysis(toy_config(tmp_path)).report_json.read_text())
        versions = report["versions"]
        assert versions["scipy"] == scipy.__version__
        assert versions["numpy"] == np.__version__

    @pytest.mark.parametrize("version_file", ["__version__ = '0.0'\n", None])
    def test_report_reads_scipy_metadata_without_its_version_file(
            self, tmp_path, monkeypatch, version_file):
        # a version file in another layout, or none: the package metadata
        if version_file is not None:
            (tmp_path / "version.py").write_text(version_file)
        spec = types.SimpleNamespace(origin=str(tmp_path / "__init__.py"))
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *a: spec if name == "scipy" else find_spec(name, *a))
        write_toy(tmp_path)
        report = json.loads(run_analysis(toy_config(tmp_path)).report_json.read_text())
        assert report["versions"]["scipy"] == importlib.metadata.version("scipy")

    def test_report_without_scipy(self, tmp_path, monkeypatch):
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *a: None if name == "scipy" else find_spec(name, *a))
        write_toy(tmp_path)
        report = json.loads(run_analysis(toy_config(tmp_path)).report_json.read_text())
        assert report["versions"]["scipy"] == "not installed"

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
        # load_table reads the data as the analysis does: the 40 rows not fitted on
        table = load_table(tmp_path / "toy.csv", cfg)
        assert (table.n, table.n1) == (40, 20)


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

    def test_level_flag_sets_the_config_resample_level(self, tmp_path):
        write_toy(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg = toy_config(tmp_path, resample={"method": "jackknife"}).to_dict()
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["analyze", "--config", str(cfg_path), "--level", "0.9"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["resample"]["level"] == 0.9
        assert report["diagnostics"]["resampling"]["level"] == 0.9

    def test_level_flag_without_resampling_exits_2(self, tmp_path, capsys):
        write_toy(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(toy_config(tmp_path).to_dict()))
        assert cli_main(["analyze", "--config", str(cfg_path), "--level", "0.9"]) == 2
        assert "--level needs resampling" in capsys.readouterr().err

    def test_block_flags_merge_into_the_config_anchor(self, tmp_path, capsys):
        write_toy(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg = toy_config(tmp_path, eta_grid=None, anchor={"mu": 0.4}).to_dict()
        cfg_path.write_text(json.dumps(cfg))

        def analyze(*flags):
            assert cli_main(["analyze", "--config", str(cfg_path), *flags]) == 0
            capsys.readouterr()
            return json.loads((tmp_path / "out" / "report.json").read_text())

        default = analyze()["eta_grid"]
        report = analyze("--step", "0.5")
        assert report["config"]["anchor"]["step"] == 0.5
        assert len(report["eta_grid"]) < len(default)
        assert all(round(2 * e, 9) == round(2 * e) for e in report["eta_grid"])
        # the grid eta-range gives for the same anchor
        rc = cli_main(["eta-range", "--data", str(tmp_path / "toy.csv"),
                       "--x-cols", "age,severity", "--anchor-mu", "0.4", "--step", "0.5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["grid"] == report["eta_grid"]
        report = analyze("--multipliers", "1,1.2")
        assert report["config"]["anchor"]["multipliers"] == [1.0, 1.2]
        assert report["eta_grid"] != default

    def test_grid_flag_replaces_the_config_grid(self, tmp_path, capsys):
        write_toy(tmp_path)
        anchored, listed = tmp_path / "anchored.json", tmp_path / "listed.json"
        anchored.write_text(json.dumps(
            toy_config(tmp_path, eta_grid=None, anchor={"mu": 0.4}).to_dict()))
        listed.write_text(json.dumps(toy_config(tmp_path).to_dict()))

        def analyze(path, *flags):
            rc = cli_main(["analyze", "--config", str(path), *flags])
            capsys.readouterr()
            return rc, json.loads((tmp_path / "out" / "report.json").read_text())

        rc, report = analyze(anchored, "--eta-list", "0,0.5")
        assert rc == 0 and report["eta_grid"] == [0.0, 0.5]
        assert report["config"]["anchor"] is None
        rc, report = analyze(listed, "--anchor-mu", "0.4")
        assert rc == 0 and report["config"]["anchor"]["mu"] == 0.4
        assert report["config"]["eta_grid"] is None and len(report["eta_grid"]) > 2
        # two grid flags still conflict
        rc = cli_main(["analyze", "--config", str(listed), "--eta-list", "0",
                       "--anchor-mu", "0.4"])
        assert rc == 2
        assert "exactly one of eta_grid or anchor" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, other, design", [("mu", "alpha", "non-nested"),
                                                      ("alpha", "mu", "nested")])
    def test_anchor_flag_replaces_the_config_anchor_kind(self, tmp_path, capsys, kind, other,
                                                         design):
        write_toy(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(toy_config(
            tmp_path, design=design, eta_grid=None,
            anchor={other: 0.4, "multipliers": [1.0, 1.2], "step": 0.5}).to_dict()))
        assert cli_main(["analyze", "--config", str(cfg_path), f"--anchor-{kind}", "0.3"]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["anchor"] == {"mu": None, "alpha": None, kind: 0.3,
                                              "multipliers": [1.0, 1.2], "step": 0.5}

    @pytest.mark.parametrize("flag", [["--step", "0.5"], ["--multipliers", "1,1.2"]])
    @pytest.mark.parametrize("from_file", [True, False])
    def test_block_flag_without_a_block_exits_2(self, tmp_path, capsys, flag, from_file):
        # the data file does not exist: reading it first would exit 3
        cfg = toy_config(tmp_path, data_path=str(tmp_path / "missing.csv")).to_dict()
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = (["--config", str(tmp_path / "cfg.json")] if from_file else
                ["--data", str(tmp_path / "missing.csv"), "--design", "non-nested",
                 "--loss", "brier", "--x-cols", "age", "--coefficients", "0.1,0.4",
                 "--out", str(tmp_path / "out")])
        assert cli_main(["analyze", *args, *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag[0]} needs an anchor: ")

    def test_bootstrap_and_jackknife_exclude_each_other(self, tmp_path, capsys):
        write_toy(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(toy_config(tmp_path).to_dict()))
        rc = cli_main(["analyze", "--config", str(cfg_path), "--bootstrap", "20",
                       "--jackknife", "--seed", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: choose one of --bootstrap or --jackknife\n")

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("[1, 2]")
        assert cli_main(["analyze", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: config file must hold")

    def test_flag_keys_name_config_fields(self):
        from dataclasses import fields

        from tiltrisk.cli import ETA_RANGE_FLAGS, FLAGS
        from tiltrisk.etaselect import PrevalenceAnchor

        blocks = {"": AnalysisConfig, "anchor": PrevalenceAnchor, "resample": ResampleConfig}
        for flag in FLAGS.values():
            for key in (flag.key, *(k for k, _ in flag.also)):
                block, _, name = key.rpartition(".")
                assert name in {f.name for f in fields(blocks[block])}, key
        assert set(ETA_RANGE_FLAGS) <= set(FLAGS)

    @pytest.mark.parametrize("command, options", [
        ("analyze", {"--config", "--data", "--design", "--loss", "--x-cols", "--xstar-cols",
                     "--coefficients", "--fit-split", "--link", "--g-basis", "--p-basis",
                     "--eta-list", "--anchor-mu", "--anchor-alpha", "--multipliers",
                     "--step", "--estimator", "--bootstrap", "--jackknife", "--level",
                     "--seed", "--out"}),
        ("eta-range", {"--data", "--x-cols", "--anchor-mu", "--anchor-alpha",
                       "--multipliers", "--step"}),
        ("simulate", {"--dgp", "--seed", "--out", "--hidden-out"}),
        ("selftest", {"--seed"}),
    ])
    def test_help_exits_0(self, capsys, command, options):
        from tiltrisk.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: tiltrisk {command}")
        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        listed = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert listed - {"-h", "--help"} == options

    def test_choices_are_the_library_names(self):
        from tiltrisk.cli import build_parser
        from tiltrisk.data import DESIGNS
        from tiltrisk.estimators import ESTIMATOR_NAMES
        from tiltrisk.tilt import LINKS, LOSSES

        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        choices = {a.dest: a.choices for a in sub.choices["analyze"]._actions if a.choices}
        assert choices == {"design": DESIGNS, "loss": LOSSES, "link": LINKS,
                           "estimator": ESTIMATOR_NAMES}

    def test_config_error_exit_code(self, tmp_path):
        assert cli_main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("overrides, match", BAD_CONFIGS + BAD_VALUES)
    def test_config_file_checked_before_data(self, tmp_path, capsys, overrides, match):
        # the data file does not exist: reading it first would exit 3
        cfg = dict(data_path=str(tmp_path / "missing.csv"), design="non-nested",
                   loss="brier", x_columns=["age", "severity"],
                   model_coefficients=[0.1, 0.4, -0.2], eta_grid=[0.0],
                   out_dir=str(tmp_path / "out"))
        cfg.update(overrides)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {k: v for k, v in cfg.items() if v is not None}))
        assert cli_main(["analyze", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("overrides, match", BAD_VALUES)
    def test_bad_config_value_exits_2(self, tmp_path, capsys, overrides, match):
        write_toy(tmp_path)
        cfg = dict(data_path=str(tmp_path / "toy.csv"), design="non-nested", loss="brier",
                   x_columns=["age", "severity"], model_coefficients=[0.1, 0.4, -0.2],
                   eta_grid=[0.0], out_dir=str(tmp_path / "out"))
        cfg.update(overrides)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {k: v for k, v in cfg.items() if v is not None}))
        assert cli_main(["analyze", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ("analyze", "eta-range"))
    @pytest.mark.parametrize("flags", [
        ["--anchor-mu", "1.2"],
        ["--anchor-mu", "0.3", "--multipliers", "2,0.5"],
        ["--anchor-mu", "0.3", "--multipliers", "0.5"],
        ["--anchor-mu", "0.3", "--multipliers", "0.5,2,3"],
        ["--anchor-mu", "0.3", "--multipliers", "half,2"],
        ["--anchor-alpha", "0.3", "--step", "0"],
        ["--anchor-mu", "0.3", "--anchor-alpha", "0.3"],
    ])
    def test_anchor_flags_checked_before_data(self, tmp_path, capsys, command, flags):
        args = {
            "analyze": ["--design", "non-nested", "--loss", "brier",
                        "--coefficients", "0.1,0.4", "--out", str(tmp_path / "out")],
            "eta-range": [],
        }[command]
        rc = cli_main([command, "--data", str(tmp_path / "missing.csv"), "--x-cols", "age",
                       *flags, *args])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")

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

    @pytest.mark.parametrize("command", ("analyze", "eta-range"))
    def test_brier_non_binary_outcome_exits_3(self, tmp_path, capsys, command):
        bad = write_toy(tmp_path, TOY_CSV.replace("1,1,0.1,0.4", "1,2,0.1,0.4"))
        args = {
            "analyze": ["--design", "non-nested", "--loss", "brier",
                        "--coefficients", "0.1,0.4,-0.2", "--eta-list", "0",
                        "--estimator", "cl", "--out", str(tmp_path / "out")],
            "eta-range": ["--anchor-mu", "0.4"],
        }[command]
        rc = cli_main([command, "--data", str(bad), "--x-cols", "age,severity", *args])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "data error: source row 2 has outcome 2.0; a Brier loss needs binary outcomes")

    @pytest.mark.parametrize("command", ("analyze", "eta-range"))
    def test_rank_deficient_fit_exit_code(self, tmp_path, capsys, command):
        # x1 = 2 x0: the nuisance designs are collinear
        rng = np.random.default_rng(8)
        x0 = rng.uniform(-1.0, 1.0, 40)
        rows = [f"{i % 2},{(i // 2) % 2 if i % 2 else ''},{a!r},{2.0 * a!r}"
                for i, a in enumerate(x0.tolist())]
        data = write_toy(tmp_path, "s,y,x0,x1\n" + "\n".join(rows) + "\n", "collinear.csv")
        args = {
            "analyze": ["--design", "non-nested", "--loss", "brier",
                        "--coefficients", "0.1,0.4,-0.2", "--eta-list", "0",
                        "--estimator", "cl", "--out", str(tmp_path / "out")],
            "eta-range": ["--anchor-mu", "0.4"],
        }[command]
        assert cli_main([command, "--data", str(data), "--x-cols", "x0,x1", *args]) == 4
        assert capsys.readouterr().err.startswith(
            "numeric failure: design matrix is rank deficient; dependent columns: x0")

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

    @pytest.mark.parametrize("edit", [
        {"n_sorce": 300},
        {"design": "sideways"},
        {"dim": "two"},
        {"eta_true": "x"},
        {"model": 3},
        {"model": {"xstar_columns": [0, 1]}},
    ], ids=["unknown-key", "design", "dim", "eta_true", "model", "no-coefficients"])
    def test_malformed_dgp_exits_2(self, tmp_path, capsys, edit):
        dgp = {
            "design": "non-nested", "covariate_kind": "uniform", "dim": 2,
            "selection_coefs": [0.4, 1.2, -1.0], "outcome_coefs": [-0.4, 1.2, 0.8],
            "eta_true": 0.5, "model": {"coefficients": [0.2, 0.6, -0.3]},
            "n_source": 30, "n_target": 30,
        }
        dgp.update(edit)
        (tmp_path / "dgp.json").write_text(json.dumps(dgp))
        rc = cli_main(["simulate", "--dgp", str(tmp_path / "dgp.json"), "--seed", "4",
                       "--out", str(tmp_path / "sim.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "sim.csv").exists()

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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tiltrisk.cli", "selftest"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout


def test_package_import_skips_scipy_stats(tmp_path):
    # No scipy module is loaded by the package import or by a linear-basis
    # analysis, report included: scipy.linalg and scipy.special alone cost
    # about 0.4 s of import time.  scipy.interpolate (which loads
    # scipy.optimize, and scipy.stats before it) is imported only when a
    # spline basis is built, and simgen imports scipy.special inside the
    # functions that use it.  Nor does the analysis load jsonschema (with
    # referencing and rpds, about 0.1 s): the report is checked by the
    # built-in validator.
    write_toy(tmp_path)
    config = dict(
        data_path=str(tmp_path / "toy.csv"), design="non-nested", loss="brier",
        x_columns=["age", "severity"], model_coefficients=[0.1, 0.4, -0.2],
        eta_grid=[-0.5, 0.0, 0.5], estimator="aug", seed=42,
        resample={"method": "bootstrap", "replicates": 25}, out_dir=str(tmp_path / "out"),
    )
    code = "\n".join([
        "import json, sys",
        "import tiltrisk, tiltrisk.io, tiltrisk.cli",
        "from tiltrisk.config import AnalysisConfig",
        "def loaded(*names):",
        "    return sorted(m for m in sys.modules if m.split('.')[0] in names)",
        "print(loaded('scipy'))",
        "out = tiltrisk.io.run_analysis(AnalysisConfig.from_dict(json.loads(sys.argv[1])))",
        "assert all(pt.ok for pt in out.curve)",
        "print(loaded('scipy'))",
        "print(loaded('jsonschema', 'referencing', 'rpds'))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(config)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


# ---------------------------------------------------------------------------
# The built-in report validator against jsonschema
# ---------------------------------------------------------------------------

REFERENCE_VALIDATOR = jsonschema.Draft202012Validator(report_schema())
REPLACEMENTS = (
    True, False, 0, 1, -1, 1.0, 1.5, -0.0, math.nan, math.inf, -math.inf, None, 2**70,
    "", "ok", "nested", "non-nested", [], [1.0], ["ok"], {}, {"n": 1},
)


@pytest.fixture(scope="module")
def toy_reports(tmp_path_factory):
    """Reports of analyses of the toy data: both designs, with and without
    resampling, and one with a failed grid point."""
    tmp = tmp_path_factory.mktemp("reports")
    write_toy(tmp)
    runs = [
        dict(),
        dict(design="nested", estimator="aug", eta_grid=[-0.5, 0.5]),
        dict(estimator="aug", eta_grid=[-0.5, 0.0, 0.5], seed=3,
             resample={"method": "bootstrap", "replicates": 20}),
        dict(design="nested", estimator="aug", eta_grid=[0.0, 0.5], seed=3,
             resample={"method": "jackknife"}),
        dict(estimator="aug", eta_grid=[0.0, 900.0]),
    ]
    reports = []
    for i, overrides in enumerate(runs):
        out = run_analysis(toy_config(tmp, out_dir=str(tmp / f"out{i}"), **overrides))
        reports.append(json.loads(out.report_json.read_text()))
    assert reports[-1]["diagnostics"]["n_failed_points"] == 1
    return reports


def accepts(report, schema=None) -> bool:
    """Whether ``validate_report`` passes ``report``; with ``schema``, whether
    the same checker passes it against that schema instead."""
    try:
        if schema is None:
            validate_report(report)
        else:
            _check(report, _check_schema(schema), "$")
    except ValueError:
        return False
    return True


def members(value, path=()):
    """The path to every member of a JSON value, at any depth."""
    for key in (sorted(value) if isinstance(value, dict)
                else range(len(value)) if isinstance(value, list) else ()):
        yield path + (key,)
        yield from members(value[key], path + (key,))


def mutate(data, report: dict) -> None:
    """Delete a random member of ``report``, at any depth, or replace it
    with a value from REPLACEMENTS."""
    parent, key = report, data.draw(st.sampled_from(sorted(report)))
    while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
        parent = parent[key]
        key = data.draw(st.sampled_from(
            sorted(parent) if isinstance(parent, dict) else range(len(parent))))
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validator_agrees_with_jsonschema(toy_reports, data):
    report = copy.deepcopy(data.draw(st.sampled_from(toy_reports)))
    for _ in range(data.draw(st.integers(0, 3))):
        if report:
            mutate(data, report)
    assert accepts(report) == REFERENCE_VALIDATOR.is_valid(report)


@pytest.mark.parametrize("schema", [
    {"const": 1}, {"const": True}, {"const": 0.0}, {"const": [1, True]},
    {"const": {"a": 1}}, {"enum": [1, "nested"]}, {"enum": [False, None]},
    {"minimum": 0}, {"minimum": 1.5}, {"type": "integer"}, {"type": "number"},
    {"type": "boolean"}, {"type": ["integer", "null"]},
    {"type": "array", "items": {"type": "string"}, "minItems": 1},
    {"required": ["a"], "properties": {"a": {"type": "boolean"}}},
])
def test_validator_keywords_agree_with_jsonschema(schema):
    reference = jsonschema.Draft202012Validator(schema)
    values = (*REPLACEMENTS, [1, True], [True, 1], [1.0, 1], {"a": 1}, {"a": True},
              {"a": 1.0, "b": 1}, ["", "ok"], -2**70, 1.5000001)
    for value in values:
        assert accepts(value, schema) == reference.is_valid(value), value


def _set(path, value):
    def edit(report):
        *parents, key = path
        functools.reduce(operator.getitem, parents, report)[key] = value
        return report
    return edit


def _delete(*path):
    def edit(report):
        *parents, key = path
        del functools.reduce(operator.getitem, parents, report)[key]
        return report
    return edit


def test_validator_agrees_on_every_single_edit(toy_reports):
    # every member of two reports deleted, or replaced by each value of
    # REPLACEMENTS, one edit at a time
    for base in (toy_reports[2], toy_reports[4]):
        for path in members(base):
            for edit in (_delete(*path), *(_set(path, v) for v in REPLACEMENTS)):
                report = edit(copy.deepcopy(base))
                assert accepts(report) == REFERENCE_VALIDATOR.is_valid(report), path


@pytest.mark.parametrize("edit, where, keyword", [
    (_delete("versions"), "$", "required"),
    (_delete("data", "n1"), "$.data", "required"),
    (_set(("data", "n"), 0), "$.data.n", "minimum"),
    (_set(("eta_grid",), []), "$.eta_grid", "minItems"),
    (_set(("format_version",), True), "$.format_version", "type"),
    (_set(("format_version",), 2), "$.format_version", "const"),
    (_set(("data", "design"), "cohort"), "$.data.design", "enum"),
    (_set(("statuses", 0), 1), "$.statuses[0]", "type"),
    (lambda report: [report], "$", "type"),
])
def test_validator_rejects(toy_reports, edit, where, keyword):
    report = edit(copy.deepcopy(toy_reports[2]))
    assert not REFERENCE_VALIDATOR.is_valid(report)
    with pytest.raises(ValueError) as info:
        validate_report(report)
    # a bad report is a program bug, not a data or config error
    assert not isinstance(info.value, TiltriskError)
    assert f"at {where}: {keyword}:" in str(info.value)


@pytest.mark.parametrize("edit", [
    _set(("format_version",), 1.0),
    _set(("data", "n"), 2**70),
    _set(("data", "n0"), -0.0),
    _set(("diagnostics", "max_weight"), math.nan),
    _set(("eta_grid", 0), math.inf),
    _set(("seed",), None),
    _set(("unlisted",), True),
])
def test_validator_accepts(toy_reports, edit):
    report = edit(copy.deepcopy(toy_reports[2]))
    assert REFERENCE_VALIDATOR.is_valid(report)
    validate_report(report)


@pytest.mark.parametrize("schema", [
    {"type": "object", "additionalProperties": False},
    {"properties": {"absent": {"maximum": 1}}},
    {"properties": {"eta_grid": {"items": {"pattern": "x"}}}},
    {"properties": {"seed": True}},
    {"type": ["object", "decimal"]},
])
def test_unsupported_schema_raises(toy_reports, schema):
    # even where the report does not reach the keyword
    with pytest.raises(ValueError, match="^schema at"):
        _check(toy_reports[0], _check_schema(schema), "$")
