"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured margin.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Tolerances are fixed here, not tuned at runtime.
"""

import itertools
import math
import time
from dataclasses import replace as drep

import numpy as np
import pytest

from tiltrisk.data import build_table
from tiltrisk.estimators import estimate, influence_values, sensitivity_curve
from tiltrisk.etaselect import (
    eta_from_prevalence_nested,
    eta_from_prevalence_nonnested,
    implied_prevalence_nested,
    implied_prevalence_nonnested,
)
from tiltrisk.nuisance import DesignSpec, NuisanceSet
from tiltrisk.resampling import ResampleConfig
from tiltrisk.simgen import (
    brute_force_phi,
    brute_force_psi,
    generate,
    recipe_for,
    true_phi_oracle,
    true_psi_oracle,
)
from tiltrisk.tilt import PredictionModel

from conftest import BRIER, logistic_fn, manual_binary_nuisances, random_binary_table
from dgps import discrete_binary, nested_binary, nonnested_binary


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_table_and_nuisances(rng, n=200, design="non-nested"):
    model = PredictionModel(
        coefficients=tuple(rng.normal(0, 0.5, 3)), xstar_columns=(0, 1)
    )
    table = random_binary_table(rng, n=n, design=design, model=model)
    nuis = manual_binary_nuisances(
        table,
        model,
        g_coefs=tuple(rng.normal(0, 0.6, 3)),
        p_coefs=tuple(rng.normal(0, 0.6, 3)),
    )
    return table, nuis


def zero_b(nuis):
    return drep(nuis, b=lambda eta: np.zeros(nuis.p.size))


def with_p_one(nuis):
    return drep(nuis, p=np.ones(nuis.p.size))


class TestCriterion01ReductionIdentities:
    def test_augmented_reduces_to_plug_in_at_p_one(self):
        start = time.time()
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(100):
            design = "non-nested" if i % 2 == 0 else "nested"
            table, nuis = _random_table_and_nuisances(rng, n=200, design=design)
            eta = float(rng.uniform(-1.5, 1.5))
            ones = with_p_one(nuis)
            gap = abs(
                estimate(table, ones, eta, "aug").estimate
                - estimate(table, nuis, eta, "cl").estimate
            )
            worst = max(worst, gap)
        elapsed = time.time() - start
        report(
            "criterion 1 (reduction identities)",
            worst < 1e-12 and elapsed < 10.0,
            f"max |aug - cl| = {worst:.2e} over 100 tables, {elapsed:.1f}s",
        )


class TestCriterion02ParameterizationEquivalence:
    def test_offset_form_matches_inverse_odds_form(self):
        start = time.time()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            table, nuis = _random_table_and_nuisances(rng, n=200)
            eta = float(rng.uniform(-1.5, 1.5))
            gap = abs(
                estimate(table, nuis, eta, "aug-alt").estimate
                - estimate(table, nuis, eta, "aug").estimate
            )
            worst = max(worst, gap)
        elapsed = time.time() - start
        report(
            "criterion 2 (parameterization equivalence)",
            worst < 1e-12 and elapsed < 10.0,
            f"max |alt - aug| = {worst:.2e} over 100 tables, {elapsed:.1f}s",
        )


class TestCriterion03TinyInstanceOracle:
    PRED_CYCLE = (0.2, 0.7, 0.4, 0.55, 0.35, 0.8)
    MODEL = PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(0,))

    def _table(self, s_pattern, design):
        n = len(s_pattern)
        preds = np.array(self.PRED_CYCLE[:n])
        s = np.array(s_pattern, dtype=int)
        y = np.where(s == 1, (np.arange(n) % 2).astype(float), np.nan)
        return build_table(s, preds.reshape(-1, 1), y, self.MODEL, BRIER, design)

    def _nuis(self, g_rows, table):
        from tiltrisk.tilt import binary_b

        l1, l0 = table.loss1, table.loss0
        g_rows = np.asarray(g_rows)
        return NuisanceSet(
            p=np.full(table.n, 0.5),
            b=lambda eta: np.asarray(binary_b(l1, l0, g_rows, eta)),
            c=lambda eta: np.ones(table.n),
        )

    def test_exhaustive_family_matches_enumeration(self):
        start = time.time()
        levels = (0.1, 0.5, 0.9)
        etas = (-1.0, 0.0, 1.0)
        worst = 0.0
        checked = 0
        for n in range(2, 7):
            for bits in itertools.product((0, 1), repeat=n):
                n1 = sum(bits)
                if n1 == 0:
                    continue
                has_target = n1 < n
                tables = {}
                if has_target:
                    tables["non-nested"] = self._table(bits, "non-nested")
                tables["nested"] = self._table(bits, "nested")
                for g_rows in itertools.product(levels, repeat=n):
                    for eta in etas:
                        if has_target:
                            t = tables["non-nested"]
                            est = estimate(t, self._nuis(g_rows, t), eta, "cl").estimate
                            ref = brute_force_phi(t, np.array(g_rows), eta)
                            worst = max(worst, abs(est - ref))
                            checked += 1
                        t = tables["nested"]
                        est = estimate(t, self._nuis(g_rows, t), eta, "cl").estimate
                        ref = brute_force_psi(t, np.array(g_rows), eta)
                        worst = max(worst, abs(est - ref))
                        checked += 1
        elapsed = time.time() - start
        report(
            "criterion 3 (tiny-instance oracle equivalence)",
            worst < 1e-12 and elapsed < 30.0,
            f"max |cl - enumeration| = {worst:.2e} over {checked} cases, {elapsed:.1f}s",
        )


class TestCriterion04ConsistencyCorrectNuisances:
    def test_augmented_estimator_tracks_oracle(self):
        start = time.time()
        spec = nonnested_binary(n_source=10_000, n_target=10_000, eta_true=0.5)
        ok = True
        details = []
        for eta in (-1.0, 0.0, 1.0):
            oracle = true_phi_oracle(spec, eta, n_mc=2_000_000, seed=40_000)
            hits = 0
            for seed in range(20):
                sim = generate(spec, seed=4_000 + seed)
                nuis = recipe_for(spec).fit(sim.table)
                err = abs(estimate(sim.table, nuis, eta, "aug").estimate - oracle.value)
                hits += err < 0.01
            details.append(f"eta={eta:+.0f}: {hits}/20 within 0.01")
            ok = ok and hits >= 18
        elapsed = time.time() - start
        ok = ok and elapsed < 300.0
        report("criterion 4 (consistency, correct nuisances)", ok,
               "; ".join(details) + f", {elapsed:.1f}s")


class TestCriterion05DoubleRobustnessWrongP:
    def test_augmentation_repairs_wrong_selection_model(self):
        start = time.time()
        spec = nonnested_binary(n_source=10_000, n_target=10_000, eta_true=0.5)
        eta = 0.5
        oracle = true_phi_oracle(spec, eta, n_mc=2_000_000, seed=50_000)
        hits = 0
        iow_errs = []
        for seed in range(20):
            sim = generate(spec, seed=5_000 + seed)
            nuis = recipe_for(spec, wrong_p=True).fit(sim.table)
            err = abs(estimate(sim.table, nuis, eta, "aug").estimate - oracle.value)
            hits += err < 0.01
            iow_errs.append(estimate(sim.table, zero_b(nuis), eta, "aug").estimate - oracle.value)
        iow_bias = abs(float(np.mean(iow_errs)))
        elapsed = time.time() - start
        ok = hits >= 18 and iow_bias > 0.02 and elapsed < 300.0
        report(
            "criterion 5 (double robustness under wrong p)",
            ok,
            f"aug {hits}/20 within 0.01; inverse-odds benchmark bias "
            f"{iow_bias:.3f} > 0.02, {elapsed:.1f}s",
        )


class TestCriterion06AltParameterizationAndNested:
    def test_gmm_offset_with_wrong_b_and_nested_wrong_p(self):
        start = time.time()
        eta = 0.5
        spec_a = discrete_binary(n_source=10_000, n_target=10_000, eta_true=0.7)
        oracle_a = true_phi_oracle(spec_a, eta, n_mc=2_000_000, seed=60_000)
        hits_a = 0
        for seed in range(20):
            sim = generate(spec_a, seed=6_000 + seed)
            nuis = recipe_for(spec_a, wrong_g=True, a_design=DesignSpec((0,))).fit(sim.table)
            err = abs(estimate(sim.table, nuis, eta, "aug-alt").estimate - oracle_a.value)
            hits_a += err < 0.015

        spec_b = nested_binary(n_cohort=20_000, eta_true=0.5)
        oracle_b = true_psi_oracle(spec_b, eta, n_mc=2_000_000, seed=61_000)
        hits_b = 0
        for seed in range(20):
            sim = generate(spec_b, seed=6_500 + seed)
            nuis = recipe_for(spec_b, wrong_p=True).fit(sim.table)
            err = abs(estimate(sim.table, nuis, eta, "aug").estimate - oracle_b.value)
            hits_b += err < 0.015
        elapsed = time.time() - start
        ok = hits_a >= 17 and hits_b >= 17 and elapsed < 480.0
        report(
            "criterion 6 (offset-GMM and nested double robustness)",
            ok,
            f"alt/wrong-b {hits_a}/20, nested/wrong-p {hits_b}/20 within 0.015, {elapsed:.1f}s",
        )


class TestCriterion07InfluenceFunction:
    def test_mean_zero_and_sandwich_agreement(self):
        start = time.time()
        rng = np.random.default_rng(707)
        worst_mean = 0.0
        for i in range(100):
            design = "non-nested" if i % 2 == 0 else "nested"
            table, nuis = _random_table_and_nuisances(rng, n=200, design=design)
            eta = float(rng.uniform(-1.0, 1.0))
            plugged = estimate(table, nuis, eta, "aug").estimate
            iv = influence_values(table, nuis, eta, plugged)
            worst_mean = max(worst_mean, abs(iv.mean))

        spec = nonnested_binary(n_source=2_500, n_target=2_500, eta_true=0.5)
        eta = 0.5
        sim = generate(spec, seed=7_007)
        recipe = recipe_for(spec)
        nuis = recipe.fit(sim.table)
        plugged = estimate(sim.table, nuis, eta, "aug").estimate
        if_se = influence_values(sim.table, nuis, eta, plugged).se
        boot = sensitivity_curve(
            sim.table,
            nuis,
            [eta],
            "aug",
            resample=ResampleConfig(replicates=200, seed=7_008, stratified=True),
        ).points[0].result
        rel = abs(if_se - boot.se) / boot.se
        elapsed = time.time() - start
        ok = worst_mean < 1e-10 and rel < 0.25 and elapsed < 120.0
        report(
            "criterion 7 (influence values)",
            ok,
            f"max |mean IF| = {worst_mean:.2e}; sandwich vs bootstrap SE "
            f"rel diff {rel:.3f} < 0.25, {elapsed:.1f}s",
        )


class TestCriterion08EtaRoundTrip:
    def test_prevalence_round_trip_both_designs(self):
        start = time.time()
        rng = np.random.default_rng(808)
        g = logistic_fn((0.1, 0.6, -0.4))
        p = logistic_fn((0.2, 0.3, 0.3))
        worst = 0.0
        table_nn = random_binary_table(rng, n=300, design="non-nested")
        table_ne = random_binary_table(rng, n=300, design="nested")
        g_nn = g(table_nn.x)
        gv_nn = g_nn[table_nn.s == 0]
        gv_ne, pv_ne = g(table_ne.x), p(table_ne.x)
        for eta_star in (-2.0, -0.5, 0.0, 0.5, 2.0):
            mu = implied_prevalence_nonnested(gv_nn, eta_star)
            worst = max(worst, abs(eta_from_prevalence_nonnested(table_nn, g_nn, mu) - eta_star))
            alpha = implied_prevalence_nested(gv_ne, pv_ne, eta_star)
            worst = max(
                worst, abs(eta_from_prevalence_nested(table_ne, gv_ne, pv_ne, alpha) - eta_star)
            )
        elapsed = time.time() - start
        report(
            "criterion 8 (eta round trip)",
            worst < 1e-8 and elapsed < 5.0,
            f"max |eta - eta*| = {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion09BootstrapCoverage:
    def test_wald_interval_coverage(self):
        start = time.time()
        spec = nonnested_binary(n_source=1_000, n_target=1_000, eta_true=0.5)
        eta = 0.5
        oracle = true_phi_oracle(spec, eta, n_mc=2_000_000, seed=90_000)
        recipe = recipe_for(spec)
        covered = 0
        reps = 200
        for rep in range(reps):
            sim = generate(spec, seed=9_000 + rep)
            out = sensitivity_curve(
                sim.table,
                recipe.fit(sim.table),
                [eta],
                "aug",
                resample=ResampleConfig(replicates=300, seed=90_500 + rep, stratified=True),
            ).points[0].result
            covered += out.ci[0] <= oracle.value <= out.ci[1]
        rate = covered / reps
        elapsed = time.time() - start
        ok = 0.88 <= rate <= 0.99 and elapsed < 900.0
        report(
            "criterion 9 (bootstrap coverage)",
            ok,
            f"coverage {rate:.3f} in [0.88, 0.99] over {reps} repetitions, {elapsed:.0f}s",
        )


class TestCriterion10WorkflowShapeParity:
    def test_end_to_end_workflow(self, tmp_path):
        import csv as csv_mod
        import json

        from tiltrisk.config import AnalysisConfig
        from tiltrisk.etaselect import PrevalenceAnchor
        from tiltrisk.io import read_curve_csv, run_analysis, validate_report

        start = time.time()
        spec = nonnested_binary(n_source=400, n_target=400, eta_true=0.4, quad=(-0.5, 0.3))
        sim = generate(spec, seed=1_010)
        t = sim.table
        data = tmp_path / "synthetic.csv"
        with open(data, "w", newline="") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(["s", "y", "x0", "x1"])
            for i in range(t.n):
                yv = "" if t.s[i] == 0 else repr(float(t.y[i]))
                writer.writerow([int(t.s[i]), yv, repr(float(t.x[i, 0])), repr(float(t.x[i, 1]))])

        # hypothesized target prevalence: the fitted untilted value
        nuis = recipe_for(spec).fit(t)
        mu_hat = float(np.mean(nuis.g[t.s == 0]))

        def config(out_name, **overrides):
            base = dict(
                data_path=str(data),
                design="non-nested",
                loss="brier",
                x_columns=["x0", "x1"],
                model_coefficients=list(spec.model.coefficients),
                anchor={"mu": mu_hat, "multipliers": [0.5, 2.0], "step": 0.05},
                estimator="aug",
                resample={"method": "bootstrap", "replicates": 1000},
                seed=77,
                out_dir=str(tmp_path / out_name),
            )
            base.update(overrides)
            return AnalysisConfig.from_dict(base)

        main_cfg = config("main")
        out1 = run_analysis(main_cfg)
        out2 = run_analysis(config("main_again"))
        deterministic = (
            out1.curve_csv.read_bytes() == out2.curve_csv.read_bytes()
        )
        validate_report(json.loads(out1.report_json.read_text()))

        jk = run_analysis(config("jackknife", resample={"method": "jackknife"}))
        validate_report(json.loads(jk.report_json.read_text()))

        spl = run_analysis(config("spline", g_basis="spline:3:2", p_basis="spline:3:2"))
        validate_report(json.loads(spl.report_json.read_text()))

        rows_lin = read_curve_csv(out1.curve_csv)
        rows_spl = read_curve_csv(spl.curve_csv)
        all_ok = all(r["status"] == "ok" for r in rows_lin + rows_spl)
        gap = max(
            abs(a["estimate"] - b["estimate"]) for a, b in zip(rows_lin, rows_spl)
        )
        elapsed = time.time() - start
        ok = deterministic and all_ok and gap < 0.03 and elapsed < 600.0
        report(
            "criterion 10 (workflow shape parity)",
            ok,
            f"deterministic={deterministic}, {len(rows_lin)} grid points, "
            f"max spline-vs-logistic gap {gap:.4f} < 0.03, {elapsed:.0f}s",
        )
