"""Generator and oracle checks."""

import math

import numpy as np
import pytest
from scipy.special import expit

from tiltrisk.data import build_table
from tiltrisk.errors import DataError, DomainError
from tiltrisk.estimators import estimate
from tiltrisk.nuisance import DesignSpec, fit_logistic
from tiltrisk.simgen import (
    DgpSpec,
    brute_force_phi,
    brute_force_psi,
    dgp_from_dict,
    dgp_to_dict,
    generate,
    recipe_for,
    true_phi_oracle,
    true_psi_oracle,
)
from tiltrisk.tilt import PredictionModel, binary_b, tilted_bernoulli

from conftest import BRIER
from dgps import constant_g_binary, nested_binary, nonnested_binary

LN4 = math.log(4.0)


class TestDgpValidation:
    def test_positivity_guard(self):
        with pytest.raises(DomainError, match="positivity"):
            nonnested_binary()._replace_selection((0.0, 3.0, 3.0))

    def test_sizes_required(self):
        with pytest.raises(DomainError):
            DgpSpec(
                design="nested", covariate_kind="uniform", dim=1,
                selection_coefs=(0.0, 0.5), outcome_coefs=(0.0, 0.5),
                eta_true=0.0, model=PredictionModel(coefficients=(0.0, 0.1), xstar_columns=(0,)),
                loss=BRIER,
            )

    def test_serialization_round_trip(self):
        spec = nonnested_binary(quad=(-0.4, 0.2))
        again = dgp_from_dict(dgp_to_dict(spec))
        assert again.selection_coefs == spec.selection_coefs
        assert again.outcome_quad == spec.outcome_quad
        assert again.model.coefficients == spec.model.coefficients


# DgpSpec is frozen; helper for the validation test above
def _replace_selection(self, coefs):
    from dataclasses import replace

    return replace(self, selection_coefs=coefs)


DgpSpec._replace_selection = _replace_selection


class TestGenerate:
    def test_zero_tilt_target_mean_matches_g(self):
        spec = constant_g_binary(g_level=0.3, n_target=4000, eta_true=0.0)
        sim = generate(spec, seed=1)
        n0 = sim.table.n0
        tol = 3.0 * math.sqrt(0.3 * 0.7 / n0)
        assert sim.target_y.mean() == pytest.approx(0.3, abs=tol)

    def test_tilted_target_mean(self):
        spec = constant_g_binary(g_level=0.2, n_target=6000, eta_true=LN4)
        sim = generate(spec, seed=2)
        tol = 3.0 * math.sqrt(0.5 * 0.5 / sim.table.n0)
        assert sim.target_y.mean() == pytest.approx(0.5, abs=tol)

    def test_fixed_seed_identical(self):
        spec = nonnested_binary(n_source=300, n_target=300)
        a = generate(spec, seed=9)
        b = generate(spec, seed=9)
        assert np.array_equal(a.table.x, b.table.x)
        assert np.array_equal(a.table.y[a.table.s == 1], b.table.y[b.table.s == 1])
        assert np.array_equal(a.target_y, b.target_y)

    def test_table_masks_target_outcomes(self):
        sim = generate(nonnested_binary(n_source=100, n_target=100), seed=3)
        assert np.all(np.isnan(sim.table.y[sim.table.s == 0]))

    def test_nested_strata_fractions(self):
        sim = generate(nested_binary(n_cohort=4000), seed=4)
        frac = sim.table.n1 / sim.table.n
        assert 0.2 < frac < 0.8

    def test_tilt_correctness_calibration(self):
        # with a logistic-linear g, the tilted conditional is the same
        # logistic with intercept shifted by eta; refitting on the hidden
        # outcomes must recover it
        spec = nonnested_binary(n_source=1000, n_target=100_000, eta_true=0.8)
        sim = generate(spec, seed=5)
        x_tgt = sim.table.x[sim.table.s == 0]
        fit = fit_logistic(DesignSpec((0, 1)), x_tgt, sim.target_y)
        fitted = expit(fit.design.matrix(x_tgt) @ fit.coefficients)
        truth = tilted_bernoulli(spec.g(x_tgt), spec.eta_true)
        assert np.mean(np.abs(fitted - truth)) < 0.02


class TestPhiOracle:
    def test_constant_everything_closed_form(self):
        spec = constant_g_binary(g_level=0.2)
        # model predicts expit(-2) everywhere; closed-form tilted risk
        pred = float(expit(-2.0))
        expected = binary_b((1 - pred) ** 2, pred**2, 0.2, LN4)
        oracle = true_phi_oracle(spec, LN4, n_mc=150_000, seed=0)
        assert oracle.value == pytest.approx(expected, abs=3 * oracle.mc_se + 1e-12)
        assert oracle.mc_se < 1e-3

    def test_matches_hidden_outcome_risk_at_eta_true(self):
        spec = nonnested_binary(n_source=500, n_target=200_000, eta_true=0.6)
        sim = generate(spec, seed=11)
        tgt = sim.table.s == 0
        emp = np.mean((sim.target_y - sim.table.pred[tgt]) ** 2)
        emp_se = np.std((sim.target_y - sim.table.pred[tgt]) ** 2, ddof=1) / math.sqrt(tgt.sum())
        oracle = true_phi_oracle(spec, 0.6, n_mc=400_000, seed=12)
        combined = math.hypot(emp_se, oracle.mc_se)
        assert oracle.value == pytest.approx(emp, abs=3 * combined)

    def test_eta_zero_matches_untilted_transport(self):
        spec = nonnested_binary()
        rng = np.random.default_rng(13)
        # independent untilted computation: E[g l1 + (1-g) l0 | S=0]
        x = []
        need = 200_000
        while sum(len(b) for b in x) < need:
            cand = spec.draw_covariates(100_000, rng)
            keep = rng.random(100_000) < 1.0 - spec.p(cand)
            x.append(cand[keep])
        x = np.vstack(x)[:need]
        pred = spec.model.predict(x)
        g = spec.g(x)
        ref = np.mean(g * (1 - pred) ** 2 + (1 - g) * pred**2)
        oracle = true_phi_oracle(spec, 0.0, n_mc=200_000, seed=14)
        assert oracle.value == pytest.approx(ref, abs=4 * oracle.mc_se)

    def test_self_consistency_across_seeds(self):
        spec = nonnested_binary(eta_true=0.4)
        a = true_phi_oracle(spec, 0.8, n_mc=150_000, seed=1)
        b = true_phi_oracle(spec, 0.8, n_mc=150_000, seed=2)
        assert abs(a.value - b.value) < 4 * math.hypot(a.mc_se, b.mc_se)

    def test_rejects_small_mc(self):
        with pytest.raises(DomainError):
            true_phi_oracle(nonnested_binary(), 0.0, n_mc=10_000, seed=0)


class TestPsiOracle:
    def test_all_source_equals_source_risk(self):
        # selection intercept pushed to the positivity cap keeps p near 0.95
        spec = nested_binary()
        oracle = true_psi_oracle(spec, 1.0, n_mc=150_000, seed=3)
        assert np.isfinite(oracle.value)

    def test_half_sampling_closed_form(self):
        spec = DgpSpec(
            design="nested", covariate_kind="uniform", dim=1,
            selection_coefs=(0.0, 0.0),            # p = 1/2 everywhere
            outcome_coefs=(math.log(0.25), 0.0),   # g = 0.2
            eta_true=0.0,
            model=PredictionModel(coefficients=(-2.0, 0.0), xstar_columns=(0,)),
            loss=BRIER,
            n_cohort=1000,
        )
        pred = float(expit(-2.0))
        l1, l0 = (1 - pred) ** 2, pred**2
        b_tilted = binary_b(l1, l0, 0.2, LN4)
        b_plain = 0.2 * l1 + 0.8 * l0
        expected = 0.5 * b_plain + 0.5 * b_tilted
        oracle = true_psi_oracle(spec, LN4, n_mc=150_000, seed=4)
        assert oracle.value == pytest.approx(expected, abs=3 * oracle.mc_se + 1e-12)

    def test_eta_zero_matches_untilted_nested(self):
        spec = nested_binary()
        rng = np.random.default_rng(15)
        x = spec.draw_covariates(200_000, rng)
        pred = spec.model.predict(x)
        g = spec.g(x)
        ref = np.mean(g * (1 - pred) ** 2 + (1 - g) * pred**2)  # p*b0 + (1-p)*b0
        oracle = true_psi_oracle(spec, 0.0, n_mc=200_000, seed=16)
        assert oracle.value == pytest.approx(ref, abs=4 * oracle.mc_se)


class TestBruteForce:
    def _one_row_table(self):
        x = np.array([[0.1], [0.1]])
        s = np.array([1, 0])
        y = np.array([1.0, np.nan])
        model = PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(0,))
        return build_table(s, x, y, model, BRIER, "non-nested")

    def test_hand_value(self):
        table = self._one_row_table()
        # target row pred = 0.1: l1 = 0.81, l0 = 0.01, g = 0.2, eta = ln4
        assert brute_force_phi(table, np.array([0.2, 0.2]), LN4) == pytest.approx(0.41, abs=1e-12)

    def test_eta_zero_formula(self):
        table = self._one_row_table()
        g = np.array([0.3, 0.3])
        expected = 0.3 * 0.81 + 0.7 * 0.01
        assert brute_force_phi(table, g, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_duplicate_rows_average_invariant(self):
        x = np.array([[0.1], [0.1], [0.1]])
        s = np.array([1, 0, 0])
        y = np.array([1.0, np.nan, np.nan])
        model = PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(0,))
        table = build_table(s, x, y, model, BRIER, "non-nested")
        one = brute_force_phi(self._one_row_table(), np.array([0.2, 0.2]), 0.7)
        two = brute_force_phi(table, np.array([0.2, 0.2, 0.2]), 0.7)
        assert one == pytest.approx(two, abs=1e-15)

    def test_size_limit(self):
        x = np.full((9, 1), 0.1)
        s = np.r_[np.ones(5, dtype=int), np.zeros(4, dtype=int)]
        y = np.where(s == 1, 1.0, np.nan)
        model = PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(0,))
        table = build_table(s, x, y, model, BRIER, "non-nested")
        with pytest.raises(DataError):
            brute_force_phi(table, np.full(9, 0.2), 0.0)

    def test_agrees_with_cl_estimators_exact_nuisances(self, rng):
        # spot check; the exhaustive family lives in the acceptance suite
        from conftest import manual_binary_nuisances

        model = PredictionModel(coefficients=(0.1, 0.5), xstar_columns=(0,))
        x = rng.uniform(-1, 1, (6, 1))
        s = np.array([1, 1, 1, 0, 0, 0])
        y = np.where(s == 1, (rng.random(6) < 0.5).astype(float), np.nan)
        g_fn_coefs = (0.2, 0.7)
        for design, brute in (
            ("non-nested", brute_force_phi),
            ("nested", brute_force_psi),
        ):
            table = build_table(s, x, y, model, BRIER, design)
            nuis = manual_binary_nuisances(table, model, g_fn_coefs, (0.0, 0.0))
            g_rows = nuis.g
            for eta in (-1.0, 0.0, 1.0):
                assert estimate(table, nuis, eta, "cl").estimate == pytest.approx(
                    brute(table, g_rows, eta), abs=1e-12
                )


class TestRecipeSwitches:
    def test_wrong_switches_build_intercept_only(self):
        spec = nonnested_binary()
        r_ok = recipe_for(spec)
        r_bad = recipe_for(spec, wrong_p=True, wrong_g=True)
        assert r_ok.p_design.columns == (0, 1)
        assert r_bad.p_design.columns == ()
        assert r_bad.g_design.columns == ()

    def test_spline_basis_passthrough(self):
        spec = nonnested_binary()
        r = recipe_for(spec, basis="spline", degree=3, interior_knots=2)
        assert r.g_design.basis == "spline"
