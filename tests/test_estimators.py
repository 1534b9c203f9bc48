"""Estimator checks: hand values, reduction identities, influence values."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tiltrisk import estimators, nuisance
from tiltrisk.data import build_table
from tiltrisk.errors import ConfigError, TiltOverflowError
from tiltrisk.estimators import estimate, influence_values, sensitivity_curve
from tiltrisk.nuisance import DesignSpec, NuisanceRecipe, NuisanceSet, fit_logistic
from tiltrisk.resampling import ResampleConfig
from tiltrisk.simgen import brute_force_phi, brute_force_psi
from tiltrisk.tilt import LossFunction, PredictionModel, binary_b, expit

from conftest import (
    BRIER,
    constant_nuisances,
    manual_binary_nuisances,
    random_binary_table,
)

LN4 = math.log(4.0)


def tiny_table(s, preds, y=None, design="non-nested"):
    """Table with per-row predictions set through a passthrough model."""
    s = np.asarray(s, dtype=int)
    preds = np.asarray(preds, dtype=np.float64)
    n = s.size
    x = preds.reshape(-1, 1)  # identity-link model reproduces preds exactly
    if y is None:
        y = np.where(s == 1, 1.0, np.nan)
    model = PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(0,))
    return build_table(s, x, y, model, BRIER, design)


def with_p_one(nuis):
    return replace(nuis, p=np.ones(nuis.p.size))


def brier_b_from_g(table, g_rows):
    """Exact b on the table's rows from per-row g and the cached predictions."""
    pred = table.pred
    return lambda eta: np.asarray(binary_b((1 - pred) ** 2, pred**2, g_rows, eta))


def half_p_nuisances(table, b):
    n = table.n
    return NuisanceSet(p=np.full(n, 0.5), b=b, c=lambda eta: np.ones(n))


class TestPhiCl:
    def test_mean_of_b(self):
        table = tiny_table([1, 0, 0], [0.5, 0.5, 0.5])
        nuis = constant_nuisances(3, b_rows=[0.0, 0.2, 0.4])
        res = estimate(table, nuis, 0.0, "cl")
        assert res.estimate == pytest.approx(0.3, abs=1e-15)

    def test_constant_binary_mode_hand_value(self):
        # g = 0.2, pred = 0.1 -> l1 = 0.81, l0 = 0.01; eta = ln4 -> 0.41
        table = tiny_table([1, 0, 0, 0], [0.1, 0.1, 0.1, 0.1])
        nuis = manual_binary_nuisances(
            table,
            model=PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(0,)),
            g_coefs=(math.log(0.25), 0.0),  # expit == 0.2 everywhere
            p_coefs=(0.0, 0.0),
        )
        assert estimate(table, nuis, LN4, "cl").estimate == pytest.approx(0.41, abs=1e-12)

    def test_matches_brute_force_at_eta_zero(self):
        table = tiny_table([1, 1, 0, 0], [0.3, 0.6, 0.2, 0.7], y=[1.0, 0.0, np.nan, np.nan])
        g_rows = np.array([0.4, 0.1, 0.25, 0.8])
        nuis = half_p_nuisances(table, brier_b_from_g(table, g_rows))
        assert estimate(table, nuis, 0.0, "cl").estimate == pytest.approx(
            brute_force_phi(table, g_rows, 0.0), abs=1e-12
        )


class TestPhiAug:
    def test_p_one_reduces_to_cl(self, rng):
        table = random_binary_table(rng, n=60)
        model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
        nuis = manual_binary_nuisances(table, model, (0.2, 0.5, 0.1), (0.1, -0.4, 0.3))
        for eta in (-1.0, 0.0, 0.7):
            aug = estimate(table, with_p_one(nuis), eta, "aug").estimate
            cl = estimate(table, nuis, eta, "cl").estimate
            assert aug == pytest.approx(cl, abs=1e-15)

    def test_eta_zero_equals_independent_transport_dr(self, rng):
        model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
        table = random_binary_table(rng, n=80, model=model)
        nuis = manual_binary_nuisances(table, model, (0.2, 0.5, 0.1), (0.1, -0.4, 0.3))
        est = estimate(table, nuis, 0.0, "aug").estimate

        # independent eta-free doubly robust transport estimator
        src = table.s == 1
        g = nuis.g
        b0 = g * table.loss1 + (1 - g) * table.loss0
        p = nuis.p
        resid = table.loss[src] - b0[src]
        w = (1 - p[src]) / p[src]
        ref = (b0[~src].sum() + (w * resid).sum()) / table.n0
        assert est == pytest.approx(ref, abs=1e-12)

    def test_six_row_hand_computation(self):
        preds = np.array([0.3, 0.6, 0.2, 0.5, 0.7, 0.4])
        s = np.array([1, 1, 1, 0, 0, 0])
        y = np.array([1.0, 0.0, 1.0, np.nan, np.nan, np.nan])
        table = tiny_table(s, preds, y=y)
        b_vals = np.array([0.3, 0.2, 0.5, 0.25, 0.45, 0.15])
        c_vals = np.array([1.2, 1.1, 1.3, 1.0, 1.0, 1.0])
        p_vals = np.array([0.6, 0.7, 0.5, 0.4, 0.4, 0.4])

        nuis = NuisanceSet(p=p_vals, b=lambda eta: b_vals, c=lambda eta: c_vals)
        eta = 0.5
        est = estimate(table, nuis, eta, "aug").estimate

        # spreadsheet-style evaluation of the display, term by term
        losses = (y[:3] - preds[:3]) ** 2
        w = np.exp(eta * y[:3])
        terms = (1 - p_vals[:3]) / p_vals[:3] * w / c_vals[:3] * (losses - b_vals[:3])
        expected = (b_vals[3:].sum() + terms.sum()) / 3.0
        assert est == pytest.approx(expected, abs=1e-14)

    def test_max_weight_diagnostic(self, rng):
        table = random_binary_table(rng, n=50)
        model = PredictionModel(coefficients=(0.0, 0.1, 0.1), xstar_columns=(0, 1))
        nuis = manual_binary_nuisances(table, model, (0.0, 0.3, 0.1), (0.0, -0.2, 0.2))
        res = estimate(table, nuis, 0.5, "aug")
        assert res.diagnostics["max_weight"] > 0


class TestPhiAugAlt:
    def test_matches_phi_aug_with_derived_offset(self, rng):
        for _ in range(10):
            table = random_binary_table(rng, n=60)
            model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
            nuis = manual_binary_nuisances(table, model, (0.2, 0.5, 0.1), (0.1, -0.4, 0.3))
            for eta in (-0.8, 0.0, 1.2):
                alt = estimate(table, nuis, eta, "aug-alt").estimate
                aug = estimate(table, nuis, eta, "aug").estimate
                assert alt == pytest.approx(aug, abs=1e-12)

    def test_intercept_only_gmm_hand_value(self, rng):
        # at eta = 0 the moment root gives weights n0/n1 on every source row
        table = random_binary_table(rng, n=6, d=1)
        recipe = NuisanceRecipe(
            outcome="binary", loss=BRIER,
            p_design=DesignSpec(()), g_design=DesignSpec(()),
            a_design=DesignSpec(()),
        )
        nuis = recipe.fit(table)
        est = estimate(table, nuis, 0.0, "aug-alt").estimate

        src = table.s == 1
        b0 = nuis.b(0.0)
        resid = table.loss[src] - b0[src]
        expected = b0[~src].mean() + resid.sum() / table.n1
        assert est == pytest.approx(expected, abs=1e-10)

    def test_zero_residuals_reduce_to_cl(self):
        table = tiny_table([1, 1, 0, 0], [0.5, 0.5, 0.5, 0.5],
                           y=[1.0, 1.0, np.nan, np.nan])
        # b == observed loss on source rows (0.25), so augmentation vanishes
        nuis = constant_nuisances(4, b_val=0.25, c_val=1.0, p_val=0.3)
        alt = estimate(table, nuis, 0.7, "aug-alt")
        cl = estimate(table, nuis, 0.7, "cl")
        assert alt.estimate == pytest.approx(cl.estimate, abs=1e-14)


class TestPsiCl:
    def test_all_source_rows_plain_average(self):
        table = tiny_table([1, 1, 1], [0.2, 0.4, 0.6], y=[1.0, 0.0, 1.0], design="nested")
        res = estimate(table, constant_nuisances(3, b_val=99.0), 0.0, "cl")
        expected = np.mean((np.array([1.0, 0.0, 1.0]) - np.array([0.2, 0.4, 0.6])) ** 2)
        assert res.estimate == pytest.approx(expected, abs=1e-15)

    def test_hand_value(self):
        table = tiny_table([1, 1, 0, 0], [0.9, 0.7, 0.5, 0.5],
                           y=[1.0, 1.0, np.nan, np.nan], design="nested")
        # source losses: 0.01, 0.09 -> rebuild with direct preds
        losses = table.loss[table.s == 1]
        nuis = constant_nuisances(4, b_rows=[0.0, 0.0, 0.2, 0.4])
        res = estimate(table, nuis, 0.0, "cl")
        assert res.estimate == pytest.approx((losses.sum() + 0.6) / 4.0, abs=1e-15)

    def test_matches_brute_force_at_eta_zero(self):
        table = tiny_table([1, 1, 0, 0], [0.3, 0.6, 0.2, 0.7],
                           y=[1.0, 0.0, np.nan, np.nan], design="nested")
        g_rows = np.array([0.4, 0.1, 0.25, 0.8])
        nuis = half_p_nuisances(table, brier_b_from_g(table, g_rows))
        assert estimate(table, nuis, 0.0, "cl").estimate == pytest.approx(
            brute_force_psi(table, g_rows, 0.0), abs=1e-12
        )


class TestPsiAug:
    def _nested_setup(self, rng, n=80):
        table = random_binary_table(rng, n=n, design="nested")
        model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
        nuis = manual_binary_nuisances(table, model, (0.2, 0.5, 0.1), (0.1, -0.4, 0.3))
        return table, nuis

    def test_p_one_reduces_to_cl(self, rng):
        table, nuis = self._nested_setup(rng)
        for eta in (-0.6, 0.0, 0.9):
            assert estimate(table, with_p_one(nuis), eta, "aug").estimate == pytest.approx(
                estimate(table, nuis, eta, "cl").estimate, abs=1e-15
            )

    def test_zero_residuals_reduce_to_cl(self):
        table = tiny_table([1, 1, 0], [0.5, 0.5, 0.5], y=[1.0, 1.0, np.nan], design="nested")
        nuis = constant_nuisances(3, b_val=0.25, c_val=1.3, p_val=0.4)
        assert estimate(table, nuis, 0.5, "aug").estimate == pytest.approx(
            estimate(table, nuis, 0.5, "cl").estimate, abs=1e-15
        )

    def test_six_row_hand_computation(self):
        preds = np.array([0.3, 0.6, 0.2, 0.5, 0.7, 0.4])
        s = np.array([1, 1, 1, 0, 0, 0])
        y = np.array([1.0, 0.0, 1.0, np.nan, np.nan, np.nan])
        table = tiny_table(s, preds, y=y, design="nested")
        b_vals = np.array([0.3, 0.2, 0.5, 0.25, 0.45, 0.15])
        c_vals = np.array([1.2, 1.1, 1.3, 1.0, 1.0, 1.0])
        p_vals = np.array([0.6, 0.7, 0.5, 0.4, 0.4, 0.4])

        nuis = NuisanceSet(p=p_vals, b=lambda eta: b_vals, c=lambda eta: c_vals)
        eta = -0.4
        est = estimate(table, nuis, eta, "aug").estimate
        losses = (y[:3] - preds[:3]) ** 2
        w = np.exp(eta * y[:3])
        aug = (1 - p_vals[:3]) / p_vals[:3] * w / c_vals[:3] * (losses - b_vals[:3])
        expected = (losses.sum() + b_vals[3:].sum() + aug.sum()) / 6.0
        assert est == pytest.approx(expected, abs=1e-14)


class TestInfluenceValues:
    def test_nonnested_mean_zero_at_augmented(self, rng):
        for _ in range(5):
            table = random_binary_table(rng, n=70)
            model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
            nuis = manual_binary_nuisances(table, model, (0.2, 0.5, 0.1), (0.1, -0.4, 0.3))
            eta = 0.6
            plugged = estimate(table, nuis, eta, "aug").estimate
            iv = influence_values(table, nuis, eta, plugged)
            assert abs(iv.mean) < 1e-10
            assert iv.se > 0

    def test_nested_mean_zero_at_augmented(self, rng):
        table = random_binary_table(rng, n=70, design="nested")
        model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
        nuis = manual_binary_nuisances(table, model, (0.2, 0.5, 0.1), (0.1, -0.4, 0.3))
        eta = -0.3
        plugged = estimate(table, nuis, eta, "aug").estimate
        iv = influence_values(table, nuis, eta, plugged)
        assert abs(iv.mean) < 1e-10

    def test_nonnested_hand_values(self):
        table = tiny_table([1, 0], [0.5, 0.5], y=[1.0, np.nan])
        nuis = constant_nuisances(2, b_val=0.2, c_val=1.0, p_val=0.5)
        plugged = 0.3
        iv = influence_values(table, nuis, 0.0, plugged)
        # n/n0 = 2; source row: 2 * 1 * (0.25 - 0.2) = 0.1; target: 2 * (0.2 - 0.3)
        np.testing.assert_allclose(iv.values, [0.1, -0.2], atol=1e-14)

    def test_degenerate_constant_loss_all_zero(self):
        # all losses equal k, b == k, plugged == k -> all contributions zero
        table = tiny_table([1, 1, 0], [0.5, 0.5, 0.5], y=[1.0, 1.0, np.nan])
        nuis = constant_nuisances(3, b_val=0.25, c_val=1.0, p_val=0.5)
        iv = influence_values(table, nuis, 0.0, 0.25)
        np.testing.assert_allclose(iv.values, 0.0, atol=1e-14)

    def test_nested_all_source_constant_loss(self):
        table = tiny_table([1, 1, 1], [0.5, 0.5, 0.5], y=[1.0, 1.0, 1.0], design="nested")
        nuis = constant_nuisances(3, b_val=0.25, c_val=1.0, p_val=0.5)
        iv = influence_values(table, nuis, 0.0, 0.25)
        np.testing.assert_allclose(iv.values, 0.0, atol=1e-14)


class TestSensitivityCurve:
    def _recipe(self):
        model = PredictionModel(coefficients=(-0.4, 0.3, -0.2), xstar_columns=(0, 1))
        return model, NuisanceRecipe(
            outcome="binary", loss=BRIER,
            p_design=DesignSpec((0, 1)), g_design=DesignSpec((0, 1)),
        )

    def test_single_point_equals_phi_cl(self, rng):
        model, recipe = self._recipe()
        table = random_binary_table(rng, n=120, model=model)
        nuis = recipe.fit(table)
        curve = sensitivity_curve(table, nuis, [0.0], estimator="cl")
        assert len(curve) == 1
        assert curve.points[0].result.estimate == pytest.approx(
            estimate(table, nuis, 0.0, "cl").estimate, abs=1e-15
        )

    def test_monotone_when_l1_dominates(self, rng):
        # predictions <= 0.5 make L(1, h) >= L(0, h) for every row
        model = PredictionModel(coefficients=(-1.0, 0.2, 0.1), xstar_columns=(0, 1))
        _, recipe = self._recipe()
        table = random_binary_table(rng, n=150, model=model)
        assert np.all(table.loss1 >= table.loss0)
        curve = sensitivity_curve(table, recipe.fit(table), [-0.5, 0.0, 0.5], estimator="cl")
        est = curve.estimates
        assert est[0] <= est[1] <= est[2]

    def test_failed_points_marked_not_fatal(self, rng):
        model, recipe = self._recipe()
        table = random_binary_table(rng, n=60, model=model)
        curve = sensitivity_curve(table, recipe.fit(table), [0.0, 800.0], estimator="aug")
        assert curve.points[0].ok
        assert not curve.points[1].ok
        assert curve.points[1].status.startswith("failed:")

    @pytest.mark.parametrize("estimator", ("cl", "aug"))
    def test_non_finite_point_marked_failed(self, estimator):
        # b is NaN at eta = 0.5 only: that point fails, estimate itself is NaN
        table = tiny_table([1, 1, 0, 0], [0.5, 0.5, 0.5, 0.5], y=[1.0, 0.0, np.nan, np.nan])
        nuis = half_p_nuisances(
            table, lambda eta: np.where(np.asarray(eta) == 0.5, np.nan, 0.25) * np.ones(4))
        curve = sensitivity_curve(table, nuis, [0.0, 0.5, 1.0], estimator)
        assert [pt.status for pt in curve] == ["ok", "failed: non-finite estimate", "ok"]
        assert [pt.ok for pt in curve] == [True, False, True]
        assert math.isnan(estimate(table, nuis, 0.5, estimator).estimate)

    def test_resampling_needs_a_recipe(self):
        # replicates refit the nuisances, which a hand-built set cannot do
        table = tiny_table([1, 1, 0, 0], [0.5, 0.5, 0.5, 0.5], y=[1.0, 0.0, np.nan, np.nan])
        nuis = constant_nuisances(4, b_val=0.25)
        with pytest.raises(ConfigError, match="NuisanceRecipe"):
            sensitivity_curve(table, nuis, [0.0], resample=ResampleConfig(replicates=5, seed=1))

    @pytest.mark.parametrize("other_n", (120, 100))
    def test_set_of_another_table_rejected(self, rng, other_n):
        # a fitted set is tied to its own table; a replaced copy, which
        # carries no fits, still needs a p on the table's rows
        model, recipe = self._recipe()
        nuis = recipe.fit(random_binary_table(rng, n=120, model=model))
        other = random_binary_table(rng, n=other_n, model=model)
        for given in [nuis] + ([replace(nuis)] if other_n != 120 else []):
            with pytest.raises(ConfigError, match="another table|nuisance p has shape"):
                estimate(other, given, 0.5, "aug")
            with pytest.raises(ConfigError, match="another table|nuisance p has shape"):
                influence_values(other, given, 0.5, 0.3)
            with pytest.raises(ConfigError, match="another table|nuisance p has shape"):
                sensitivity_curve(other, given, [0.0, 0.5], "aug")

    def test_cass_shaped_grid_has_45_points(self):
        grid = np.round(np.arange(-19, 26) * 0.05, 10)
        assert grid.size == 45 and grid[0] == -0.95 and grid[-1] == 1.25


def overflow_case(rng, outcome_kind):
    """(table, fitted nuisances, eta whose tilt weight overflows): e^{800 y}
    at y = 1 for binary outcomes, e^{200 y} at y > 3.55 for continuous."""
    recipe_args = dict(p_design=DesignSpec((0, 1)))
    if outcome_kind == "binary":
        table = random_binary_table(rng, n=60)
        recipe = NuisanceRecipe(outcome="binary", loss=BRIER, g_design=DesignSpec((0, 1)),
                                **recipe_args)
        return table, recipe.fit(table), 800.0
    x = rng.uniform(-1.0, 1.0, (60, 2))
    s = np.r_[np.ones(30, dtype=int), np.zeros(30, dtype=int)]
    y = np.where(s == 1, 2.5 + 2.0 * x[:, 0] + 0.3 * rng.normal(size=60), np.nan)
    assert np.nanmax(y) > 3.6
    loss = LossFunction("squared-error")
    model = PredictionModel(coefficients=(2.5, 2.0, 0.0), link="identity", xstar_columns=(0, 1))
    table = build_table(s, x, y, model, loss, "non-nested")
    recipe = NuisanceRecipe(outcome="continuous", loss=loss, g_design=DesignSpec((0, 1)),
                            **recipe_args)
    return table, recipe.fit(table), 200.0


class TestGridBlocks:
    """The grid is evaluated in blocks of eta; a block that fails reruns
    its points one at a time, so only the failing point fails."""

    @pytest.mark.parametrize("method", (None, "bootstrap", "jackknife"))
    @pytest.mark.parametrize("outcome_kind", ("binary", "continuous"))
    def test_failing_point_fails_alone(self, rng, outcome_kind, method):
        table, nuis, bad_eta = overflow_case(rng, outcome_kind)
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert estimators._BLOCK_CELLS // table.n > len(grid)  # one block
        resample = None if method is None else ResampleConfig(method=method, replicates=10, seed=3)
        with_bad = sensitivity_curve(table, nuis, grid + [bad_eta], "aug", resample)
        without = sensitivity_curve(table, nuis, grid, "aug", resample)
        with pytest.raises(TiltOverflowError, match="tilt exponent") as exc:
            estimate(table, nuis, bad_eta, "aug")
        assert with_bad.points[-1].status == f"failed: {exc.value}"
        assert with_bad.points[:-1] == without.points
        assert all(pt.status == "ok" for pt in without)

    @pytest.mark.parametrize("method", ("bootstrap", "jackknife"))
    def test_bug_in_a_replicate_raises(self, rng, monkeypatch, method):
        # only numerical failures are recorded; a TypeError is a bug
        table = random_binary_table(rng, n=60)
        recipe = NuisanceRecipe(outcome="binary", loss=BRIER, p_design=DesignSpec((0, 1)),
                                g_design=DesignSpec((0, 1)))
        real = nuisance._fit_logistic_rows
        calls = []

        def fit_logistic_rows(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # the g fit of the first chunk of replicates
                raise TypeError("synthetic bug")
            return real(*args, **kwargs)

        monkeypatch.setattr(nuisance, "_fit_logistic_rows", fit_logistic_rows)
        nuis = recipe.fit(table)
        resample = ResampleConfig(method=method, replicates=20, seed=5)
        with pytest.raises(TypeError, match="synthetic bug"):
            sensitivity_curve(table, nuis, [0.0, 0.5], "aug", resample)


class TestPositivityWarning:
    def test_full_table_estimate_warns_at_clip_bound(self, rng):
        table = random_binary_table(rng, n=40)
        nuis = NuisanceRecipe(
            outcome="binary", loss=BRIER,
            p_design=DesignSpec((0, 1)), g_design=DesignSpec((0, 1)),
        ).fit(table)
        src = table.s == 1
        p = nuis.p.copy()
        p[np.flatnonzero(src)[: table.n1 // 2 + 1]] = 0.01  # the lower clip bound
        with pytest.warns(UserWarning, match="clipping bound"):
            res = estimate(table, replace(nuis, p=p), 0.3, "aug")
        assert res.diagnostics["positivity_warning"]
        assert res.diagnostics["clip_count"] >= table.n1 // 2 + 1


class TestBinaryNonBrierLoss:
    def test_absolute_deviation_cl_closed_form(self, rng):
        # L(1, h) = 1 - h and L(0, h) = h; the table caches neither
        loss = LossFunction("absolute-deviation")
        model = PredictionModel(coefficients=(-0.3, 0.6, 0.2), xstar_columns=(0, 1))
        x = rng.uniform(-1.0, 1.0, (200, 2))
        s = np.r_[np.ones(100, dtype=int), np.zeros(100, dtype=int)]
        y = np.where(s == 1, (rng.random(200) < 0.4).astype(float), np.nan)
        table = build_table(s, x, y, model, loss, "non-nested")
        assert table.loss1 is None and table.loss0 is None
        nuis = NuisanceRecipe(
            outcome="binary", loss=loss,
            p_design=DesignSpec((0, 1)), g_design=DesignSpec((0, 1)),
        ).fit(table)
        src = table.s == 1
        fit = fit_logistic(DesignSpec((0, 1)), table.x[src], table.y[src])
        g = expit(fit.design.matrix(table.x[~src]) @ fit.coefficients)
        h = table.pred[~src]
        for eta in (-2.0, -0.5, 0.0, 0.7, 3.0):
            expected = float(np.mean(binary_b(1.0 - h, h, g, eta)))
            assert estimate(table, nuis, eta, "cl").estimate == pytest.approx(
                expected, abs=1e-12
            )
