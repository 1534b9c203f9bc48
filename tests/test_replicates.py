"""Replicates as row counts on the original table.

A bootstrap or jackknife replicate is a vector of row counts; the sweep
fits all replicates together and evaluates each one's grid as
count-weighted sums on the table's rows.  The reference here builds every
replicate table with ``take`` and refits it from scratch, one eta at a
time, as the estimator is defined.  Both must give the same estimates
within 1e-10 and fail at the same (replicate, point) cells.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk import estimators, nuisance, resampling
from tiltrisk.data import build_table
from tiltrisk.errors import (
    NUMERIC_FAILURES,
    ConvergenceError,
    DomainError,
    NumericError,
    RankDeficientError,
    TiltOverflowError,
)
from tiltrisk.estimators import _replicate_matrix, estimate, sensitivity_curve
from tiltrisk.nuisance import DesignSpec, NuisanceRecipe
from tiltrisk.resampling import ResampleConfig, replicate_counts, resample_indices
from tiltrisk.tilt import LossFunction, PredictionModel, TiltSpec

TOL = 1e-10
GRID = np.array([-1.0, 0.0, 0.7])


def make_table(rng, n, design, outcome_kind, n_target=None):
    x = rng.uniform(-1.0, 1.0, (n, 2))
    n0 = n // 2 if n_target is None else n_target
    s = np.r_[np.ones(n - n0, dtype=int), np.zeros(n0, dtype=int)]
    if outcome_kind == "binary":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.2 + x[:, 0])))).astype(float)
        model = PredictionModel(coefficients=(-0.4, 0.7, -0.3), xstar_columns=(0, 1))
        loss = LossFunction("brier")
    else:
        y = 0.5 + x[:, 0] - 0.5 * x[:, 1] + 0.3 * rng.normal(size=n)
        model = PredictionModel(coefficients=(0.4, 0.9, -0.4), link="identity",
                                xstar_columns=(0, 1))
        loss = LossFunction("squared-error")
    return build_table(s, x, np.where(s == 1, y, np.nan), model, loss, design)


def make_recipe(outcome_kind, basis="linear", a_basis=None):
    """Nuisance designs on ``basis``; ``a_basis`` adds a moment-fitted
    offset on its own basis."""
    def design(kind):
        return (DesignSpec((0, 1)) if kind == "linear"
                else DesignSpec((0, 1), basis="spline", degree=3, interior_knots=2))
    cols = design(basis)
    a_design = None if a_basis is None else design(a_basis)
    if outcome_kind == "binary":
        return NuisanceRecipe(outcome="binary", loss=LossFunction("brier"), p_design=cols,
                              g_design=cols, a_design=a_design)
    return NuisanceRecipe(outcome="continuous", loss=LossFunction("squared-error"),
                          p_design=cols, g_design=cols, a_design=a_design)


def replicate_indices(table, resample):
    if resample.method == "jackknife":
        return [np.delete(np.arange(table.n), i) for i in range(table.n)]
    stratified = resample.resolve_stratified(table)
    return [resample_indices(table, r, resample.seed, stratified)
            for r in range(resample.replicates)]


def take_matrix(table, recipe, grid, estimator, resample):
    """Each replicate's table built by ``take``, refitted and estimated one
    eta at a time; NaN where the table, the fit or the point fails."""
    out = np.full((len(replicate_indices(table, resample)), grid.size), np.nan)
    for r, idx in enumerate(replicate_indices(table, resample)):
        try:
            t = table.take(idx)
            nuis = recipe.fit(t)
        except NUMERIC_FAILURES:
            continue
        for j, eta in enumerate(grid):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    out[r, j] = estimate(t, nuis, float(eta), estimator).estimate
            except NUMERIC_FAILURES:
                pass
    return out


def assert_same(weighted, taken):
    assert np.array_equal(np.isnan(weighted), np.isnan(taken))
    ok = ~np.isnan(taken)
    assert np.all(np.abs(weighted[ok] - taken[ok]) <= TOL * np.maximum(1.0, np.abs(taken[ok])))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(24, 40),
    design=st.sampled_from(("non-nested", "nested")),
    outcome_kind=st.sampled_from(("binary", "continuous")),
    estimator=st.sampled_from(("cl", "aug", "aug-alt")),
    a_basis=st.sampled_from((None, "linear", "spline")),
    basis=st.sampled_from(("linear", "spline")),
    method=st.sampled_from(("stratified", "simple", "jackknife")),
)
def test_weighted_replicates_match_take_refits(seed, n, design, outcome_kind, estimator,
                                               a_basis, basis, method):
    rng = np.random.default_rng(seed)
    table = make_table(rng, n, design, outcome_kind)
    recipe = make_recipe(outcome_kind, basis, a_basis)
    if method == "jackknife":
        resample = ResampleConfig(method="jackknife")
    else:
        resample = ResampleConfig(replicates=6, seed=seed % 1000,
                                  stratified=method == "stratified")
    weighted, why = _replicate_matrix(table, recipe, GRID, estimator, resample)
    assert_same(weighted, take_matrix(table, recipe, GRID, estimator, resample))
    assert np.array_equal(np.isnan(weighted), why != None)  # noqa: E711


class TestFixedCases:
    def test_replicate_that_loses_rank(self):
        # x1 is nonzero on one source row only; replicates without it lose x1
        rng = np.random.default_rng(11)
        table = make_table(rng, 40, "non-nested", "binary")
        x = table.x.copy()
        x[:, 1] = 0.0
        x[3, 1] = 1.0
        table = replace(table, x=x)
        recipe = make_recipe("binary")
        resample = ResampleConfig(replicates=12, seed=4)
        weighted, why = _replicate_matrix(table, recipe, GRID, "aug", resample)
        lost = np.isnan(weighted[:, 0])
        assert 0 < lost.sum() < 12
        assert set(why[lost, 0]) == {"RankDeficientError"}
        assert_same(weighted, take_matrix(table, recipe, GRID, "aug", resample))

    def test_replicate_with_too_few_distinct_rows_loses_rank(self):
        # four source rows: a replicate drawing four of them but only two
        # distinct ones has enough rows for g's three coefficients, not the rank
        table = make_table(np.random.default_rng(17), 24, "non-nested", "binary", n_target=20)
        recipe = make_recipe("binary")
        resample = ResampleConfig(replicates=12, seed=3)
        counts = replicate_counts(table, resample, range(12))
        assert np.all(counts[:, table.source_rows].sum(axis=1) == 4)
        two = (counts[:, table.source_rows] > 0).sum(axis=1) == 2
        assert 0 < two.sum() < 12
        weighted, why = _replicate_matrix(table, recipe, GRID, "aug", resample)
        assert set(why[two].ravel()) == {"RankDeficientError"}
        assert "RankDeficientError" not in set(why[~two].ravel())
        for r, idx in enumerate(replicate_indices(table, resample)):
            if two[r]:
                with pytest.raises(RankDeficientError):
                    recipe.fit(table.take(idx))
        assert_same(weighted, take_matrix(table, recipe, GRID, "aug", resample))

    def test_replicate_that_separates_takes_the_ridge_path(self):
        # y = 1 exactly where x0 > 0, except on two source rows; a replicate
        # that draws neither is separated
        rng = np.random.default_rng(12)
        table = make_table(rng, 30, "non-nested", "binary")
        y = np.where(table.s == 1, (table.x[:, 0] > 0).astype(float), np.nan)
        pos, neg = np.flatnonzero((table.s == 1) & (table.x[:, 0] > 0))[:1], \
            np.flatnonzero((table.s == 1) & (table.x[:, 0] <= 0))[:1]
        y[pos], y[neg] = 0.0, 1.0
        loss = (y - table.pred) ** 2
        table = replace(table, y=y, loss=loss)
        recipe = NuisanceRecipe(outcome="binary", loss=LossFunction("brier"),
                                p_design=DesignSpec((1,)), g_design=DesignSpec((0,)))
        resample = ResampleConfig(replicates=16, seed=7)
        fits = recipe.fit_counts(table, replicate_counts(table, resample, range(16)))
        ridge = [fits.meta(r)["g_ridge"] for r in range(16)]
        assert any(ridge) and not all(ridge)
        weighted, _ = _replicate_matrix(table, recipe, GRID, "aug", resample)
        assert_same(weighted, take_matrix(table, recipe, GRID, "aug", resample))

    @pytest.mark.parametrize("estimator", ("cl", "aug", "aug-alt"))
    @pytest.mark.parametrize("method", ("bootstrap", "jackknife"))
    def test_custom_tilt_map(self, estimator, method):
        table = make_table(np.random.default_rng(18), 30, "non-nested", "continuous")
        recipe = replace(make_recipe("continuous"), q=np.tanh)
        resample = (ResampleConfig(replicates=12, seed=5) if method == "bootstrap"
                    else ResampleConfig(method="jackknife"))
        weighted, _ = _replicate_matrix(table, recipe, GRID, estimator, resample)
        identity, _ = _replicate_matrix(table, make_recipe("continuous"), GRID, estimator,
                                        resample)
        assert np.isfinite(weighted).all()
        assert not np.allclose(weighted[:, 0], identity[:, 0])
        assert_same(weighted, take_matrix(table, recipe, GRID, estimator, resample))

    def test_tilt_map_that_decreases_past_the_second_largest_outcome(self):
        # q is the identity up to the second-largest source outcome and falls
        # past it: only the replicates that draw the largest outcome fail
        table = make_table(np.random.default_rng(19), 30, "non-nested", "continuous")
        src = table.source_rows
        top = src[np.argmax(table.y[src])]
        y = table.y.copy()
        y[top] += 1.0
        table = replace(table, y=y, loss=(y - table.pred) ** 2)
        second = np.sort(y[src])[-2]
        recipe = replace(make_recipe("continuous"),
                         q=lambda v: np.where(v <= second, v, 2.0 * second - v))
        resample = ResampleConfig(replicates=12, seed=6)
        weighted, why = _replicate_matrix(table, recipe, GRID, "aug", resample)
        drawn = replicate_counts(table, resample, range(12))[:, top] > 0
        assert 0 < drawn.sum() < 12
        assert set(why[drawn].ravel()) == {"DomainError"}
        assert np.isfinite(weighted[~drawn]).all()
        for r, idx in enumerate(replicate_indices(table, resample)):
            if drawn[r]:
                with pytest.raises(DomainError, match="nondecreasing"):
                    recipe.fit(table.take(idx))
        assert_same(weighted, take_matrix(table, recipe, GRID, "aug", resample))

    def test_replicate_without_target_rows(self):
        rng = np.random.default_rng(13)
        table = make_table(rng, 20, "non-nested", "binary", n_target=1)
        recipe = make_recipe("binary")
        resample = ResampleConfig(replicates=10, seed=3, stratified=False)
        weighted, why = _replicate_matrix(table, recipe, GRID, "aug", resample)
        empty = np.isnan(weighted[:, 0])
        assert empty.any()
        assert set(why[empty, 0]) == {"DataError"}
        assert_same(weighted, take_matrix(table, recipe, GRID, "aug", resample))

    def test_jackknife_without_target_rows_names_the_row(self):
        rng = np.random.default_rng(13)
        table = make_table(rng, 20, "non-nested", "binary", n_target=1)
        recipe = make_recipe("binary")
        with pytest.raises(NumericError, match="failed at row 19: non-nested table has no "
                                               "target rows"):
            _replicate_matrix(table, recipe, GRID, "aug", ResampleConfig(method="jackknife"))

    def test_every_bootstrap_replicate_unusable_raises(self, monkeypatch):
        # replicates that draw only source rows of a non-nested table
        rng = np.random.default_rng(13)
        table = make_table(rng, 20, "non-nested", "binary")

        def source_only(table, cfg, reps):
            counts = np.zeros((len(reps), table.n))
            counts[:, table.source_rows] = 2.0
            return counts

        monkeypatch.setattr(resampling, "replicate_counts", source_only)
        with pytest.raises(NumericError, match="every bootstrap replicate failed"):
            _replicate_matrix(table, make_recipe("binary"), GRID, "aug",
                              ResampleConfig(replicates=4, seed=1))

    @pytest.mark.parametrize("bad", (0.5, -1.0, np.nan, np.inf))
    def test_counts_must_be_non_negative_integers(self, bad):
        table = make_table(np.random.default_rng(16), 20, "non-nested", "binary")
        counts = np.ones((2, table.n))
        counts[1, 4] = bad
        with pytest.raises(DomainError, match="non-negative integers"):
            make_recipe("binary").fit_counts(table, counts)

    def test_point_that_overflows_in_some_replicates(self):
        # one outlying outcome: e^{eta y} overflows only where it is drawn
        rng = np.random.default_rng(14)
        table = make_table(rng, 30, "non-nested", "continuous")
        y = table.y.copy()
        y[0] = 800.0
        table = replace(table, y=y, loss=(y - table.pred) ** 2)
        recipe = make_recipe("continuous")
        grid = np.array([0.0, 1.0])
        resample = ResampleConfig(replicates=12, seed=9)
        weighted, why = _replicate_matrix(table, recipe, grid, "aug", resample)
        over = np.isnan(weighted[:, 1])
        assert 0 < over.sum() < 12
        assert set(why[over, 1]) == {"TiltOverflowError"}
        assert not np.isnan(weighted[:, 0]).any()
        assert_same(weighted, take_matrix(table, recipe, grid, "aug", resample))

    def test_point_that_overflows_fails_under_cl(self):
        # cl takes no tilt weights, so b's own solve must raise the overflow
        rng = np.random.default_rng(14)
        table = make_table(rng, 30, "non-nested", "continuous")
        y = table.y.copy()
        y[0] = 800.0
        table = replace(table, y=y, loss=(y - table.pred) ** 2)
        recipe = make_recipe("continuous")
        grid = np.array([0.0, 1.0])
        resample = ResampleConfig(replicates=12, seed=9)
        weighted, why = _replicate_matrix(table, recipe, grid, "cl", resample)
        over = np.isnan(weighted[:, 1])
        assert 0 < over.sum() < 12
        assert set(why[over, 1]) == {"TiltOverflowError"}
        assert_same(weighted, take_matrix(table, recipe, grid, "cl", resample))

    @pytest.mark.parametrize("estimator", ("cl", "aug", "aug-alt"))
    def test_far_point_that_overflows_in_some_replicates(self, estimator):
        # at eta = 40 e^{eta y} overflows on the outlying row alone: replicates
        # that do not draw it stay finite there, and those that draw it fail
        # with the text of the same replicate built by take() and refitted
        rng = np.random.default_rng(14)
        table = make_table(rng, 30, "non-nested", "continuous")
        y = table.y.copy()
        y[0] = 20.0
        table = replace(table, y=y, loss=(y - table.pred) ** 2)
        recipe = make_recipe("continuous")
        grid = np.array([-1.0, 0.0, 40.0])
        resample = ResampleConfig(replicates=12, seed=9)
        weighted, why = _replicate_matrix(table, recipe, grid, estimator, resample)
        counts = replicate_counts(table, resample, range(12))
        drawn = counts[:, 0] > 0
        assert 0 < drawn.sum() < 12
        assert np.isfinite(weighted[~drawn]).all()
        assert set(why[drawn, 2]) == {"TiltOverflowError"}
        assert np.isfinite(weighted[drawn, :2]).all()
        fits = recipe.fit_counts(table, counts)
        _, failed, _ = estimators._replicate_rows(table, fits, list(range(12)), grid, estimator)
        for r, idx in enumerate(replicate_indices(table, resample)):
            if drawn[r]:
                taken = table.take(idx)
                with pytest.raises(TiltOverflowError) as refit:
                    estimate(taken, recipe.fit(taken), 40.0, estimator)
                assert str(failed[r, 2]) == str(refit.value)
        assert_same(weighted, take_matrix(table, recipe, grid, estimator, resample))


class TestFailureNotes:
    def test_skipped_replicates_counted_by_class(self):
        rng = np.random.default_rng(11)
        table = make_table(rng, 40, "non-nested", "binary")
        x = table.x.copy()
        x[:, 1] = 0.0
        x[3, 1] = 1.0
        table = replace(table, x=x)
        recipe = make_recipe("binary")
        nuis = recipe.fit(table)
        resample = ResampleConfig(replicates=40, seed=4)
        curve = sensitivity_curve(table, nuis, [0.0, 0.5], "aug", resample)
        weighted, _ = _replicate_matrix(table, recipe, np.array([0.0, 0.5]), "aug", resample)
        lost = int(np.isnan(weighted[:, 0]).sum())
        note = curve.points[0].result.diagnostics["resampling_note"]
        if lost > 8:
            assert note == (f"ci unavailable: {lost} of 40 replicates failed "
                            f"(RankDeficientError: {lost})")
        else:
            assert note == f"{lost} replicates skipped (RankDeficientError: {lost})"

    def test_jackknife_note_names_row_and_classes(self):
        rng = np.random.default_rng(11)
        table = make_table(rng, 20, "non-nested", "binary")
        x = table.x.copy()
        x[:, 1] = 0.0
        x[3, 1] = 1.0
        table = replace(table, x=x)
        nuis = make_recipe("binary").fit(table)
        curve = sensitivity_curve(table, nuis, [0.0], "aug", ResampleConfig(method="jackknife"))
        assert curve.points[0].result.diagnostics["resampling_note"] == (
            "ci unavailable: leave-one-out estimate failed at row 3 (RankDeficientError: 1)")


class TestNewtonFailures:
    @staticmethod
    def spline_offset_recipe():
        return make_recipe("binary", a_basis="spline")

    def test_offset_without_root_fails_every_point_by_name(self):
        # at 40 rows the target moments of the eleven-column spline basis lie
        # outside the hull of the source rows: the dual's iterates run off
        table = make_table(np.random.default_rng(5), 40, "non-nested", "binary")
        recipe = self.spline_offset_recipe()
        curve = sensitivity_curve(table, recipe.fit(table), GRID, "aug-alt",
                                  ResampleConfig(method="jackknife"))
        assert [p.status for p in curve] == [
            "failed: selection-offset fit: no root: a + eta q(y) passed ±709.78 on a "
            "source row"] * GRID.size
        _, why = _replicate_matrix(table, recipe, GRID, "aug-alt",
                                   ResampleConfig(method="jackknife"))
        assert set(why.ravel()) == {"ConvergenceError"}

    def test_failed_offset_points_are_not_refit(self, monkeypatch):
        # one offset fit per replicate and the full table, at every eta at
        # once: a failed eta is a failure of its point, with no refit
        table = make_table(np.random.default_rng(5), 40, "non-nested", "binary")
        recipe = self.spline_offset_recipe()
        calls, offset_theta = [], nuisance._offset_theta
        monkeypatch.setattr(nuisance, "_offset_theta",
                            lambda *args: calls.append(1) or offset_theta(*args))
        curve = sensitivity_curve(table, recipe.fit(table), GRID, "aug-alt",
                                  ResampleConfig(method="jackknife"))
        assert not any(p.ok for p in curve)
        assert len(calls) == table.n + 1

    def test_offset_with_root_gives_every_point(self):
        table = make_table(np.random.default_rng(5), 120, "non-nested", "binary")
        curve = sensitivity_curve(table, self.spline_offset_recipe().fit(table), GRID,
                                  "aug-alt", ResampleConfig(method="jackknife"))
        assert all(p.status == "ok" and p.result.se > 0 for p in curve)
        assert not any("resampling_note" in p.result.diagnostics for p in curve)

    @pytest.mark.parametrize("method", ("bootstrap", "jackknife"))
    @pytest.mark.parametrize("outcome_kind", ("binary", "continuous"))
    def test_spline_offset_replicates_match_take_refits(self, outcome_kind, method):
        # the property's 24-40 rows rarely give a spline offset a root; 120 do
        table = make_table(np.random.default_rng(5), 120, "non-nested", outcome_kind)
        recipe = make_recipe(outcome_kind, "spline", "spline")
        resample = ResampleConfig(method=method, replicates=6, seed=3)
        weighted, why = _replicate_matrix(table, recipe, GRID, "aug-alt", resample)
        assert np.isfinite(weighted).mean() >= 0.8
        assert_same(weighted, take_matrix(table, recipe, GRID, "aug-alt", resample))
        assert np.array_equal(np.isnan(weighted), why != None)  # noqa: E711

    def test_intercept_slope_offset_converges_inside_and_fails_outside(self):
        # on an intercept and one covariate the moments have a root exactly
        # when the target rows' mean of the covariate lies strictly inside the
        # range of the source rows' values: inside, every eta converges;
        # outside, every eta fails by name, as no root or on a singular
        # Hessian, and none stalls
        rng = np.random.default_rng(2306_08086)
        tilt = TiltSpec(np.array([[-2.0], [0.0], [0.5], [3.0]]))
        named = {"selection-offset fit: " + nuisance._FAILURES[reason]
                 for reason in (nuisance._NO_ROOT, nuisance._SINGULAR)}
        inside, outside = 0, set()
        for _ in range(300):
            n1, n0 = rng.integers(5, 20), rng.integers(3, 15)
            x_s = rng.uniform(-1.0, 1.0, n1)
            x_t = rng.uniform(-1.0, 1.0, n0) + rng.uniform(-3.0, 3.0)
            src = np.r_[np.ones(n1, dtype=bool), np.zeros(n0, dtype=bool)]
            y = np.where(src, (rng.random(n1 + n0) < 0.4).astype(float), np.nan)
            x = np.r_[x_s, x_t]
            theta, failures = nuisance._offset_theta(np.vstack([np.ones_like(x), x]), src, y,
                                                     np.ones(n1 + n0), tilt)
            if x_s.min() < x_t.mean() < x_s.max():
                assert all(f is None for f in failures) and np.isfinite(theta).all()
                inside += 1
                continue
            assert all(isinstance(f, ConvergenceError) for f in failures)
            outside.update(str(f) for f in failures)
        assert inside >= 50 and outside == named

    def test_offset_at_an_eta_column_equals_one_eta_calls(self):
        table = make_table(np.random.default_rng(5), 120, "non-nested", "binary")
        counts = np.ones((3, table.n))
        counts[1, 7] = 0.0
        counts[2, [3, 60]] = (3.0, 2.0)
        fits = self.spline_offset_recipe().fit_counts(table, counts)
        rows = np.arange(table.n)
        for r in range(3):
            block = fits.a(GRID[:, None], r, rows)
            for j, eta in enumerate(GRID):
                assert np.array_equal(block[j], fits.a(eta, r, rows))

    def test_offset_reaching_tolerance_on_its_last_step_converges(self, monkeypatch):
        table = make_table(np.random.default_rng(5), 120, "non-nested", "binary")
        fits = self.spline_offset_recipe().fit_counts(table, np.ones((1, table.n)))
        rows, calls, newton = np.arange(table.n), [], nuisance._newton

        def spy(*args, **kwargs):
            calls.append(newton(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(nuisance, "_newton", spy)
        want = fits.a(GRID[:, None], 0, rows)
        reasons, iters = calls[-1]
        assert set(reasons) == {nuisance._CONVERGED}
        steps = int(iters.max()) - 1  # an item is judged converged before its next step
        monkeypatch.setattr(nuisance, "_OFFSET_MAX_ITER", steps)
        assert np.array_equal(fits.a(GRID[:, None], 0, rows), want)
        monkeypatch.setattr(nuisance, "_OFFSET_MAX_ITER", steps - 1)
        with pytest.raises(ConvergenceError, match=f"after {steps - 1} iterations"):
            fits.a(GRID[:, None], 0, rows)

    def test_logistic_fit_short_of_tolerance_fails_its_replicate(self, monkeypatch):
        # with the cap one iteration past the full-table fit's, the replicates
        # whose g or p fit needs more iterations fail, and the note counts them
        table = make_table(np.random.default_rng(0), 40, "non-nested", "binary")
        recipe = make_recipe("binary")
        resample = ResampleConfig(replicates=20, seed=4)
        nuis = recipe.fit(table)
        fits = recipe.fit_counts(table, replicate_counts(table, resample, range(20)))

        def needed(rows, r):
            glm = [rows._fits[part][r] for part in ("g", "p")]
            assert not any(f.ridge for f in glm)
            return max(f.iterations for f in glm)

        cap = needed(nuis._fits, 0) + 1
        short = np.array([needed(fits, r) > cap for r in range(20)])
        lost = int(short.sum())
        assert 0 < lost <= 4
        monkeypatch.setattr(nuisance, "_IRLS_MAX_ITER", cap)
        capped = recipe.fit_counts(table, replicate_counts(table, resample, range(20)))
        for r in range(20):
            if short[r]:
                assert isinstance(capped.errors[r], ConvergenceError)
                assert str(capped.errors[r]) == (f"logistic fit: did not reach tolerance "
                                                 f"after {cap} iterations")
            else:
                assert capped.errors[r] is None
        curve = sensitivity_curve(table, nuis, [0.0, 0.5], "aug", resample)
        for point in curve:
            assert point.result.diagnostics["resampling_note"] == (
                f"{lost} replicates skipped (ConvergenceError: {lost})")


BLOCK_GRID = np.array([-1.0, -0.3, 0.0, 0.4, 1.1])
# binary cl and aug sum every eta by one route: also the rearranged forms
# past |eta| = 30 and the exact zero, in blocks that mix them
FAR_BLOCK_GRID = np.array([-31.0, -1.0, 0.0, 0.4, 31.0])

# every estimator; the aug-alt cases keep the ids they had before the
# estimator was a parameter
BLOCK_CASES = [
    pytest.param(block_cells, method, outcome_kind, basis, estimator, BLOCK_GRID,
                 id="-".join([basis, outcome_kind, method, str(block_cells)]
                             + ([] if estimator == "aug-alt" else [estimator])))
    for estimator in ("aug-alt", "cl", "aug") for basis in ("linear", "spline")
    for outcome_kind in ("binary", "continuous") for method in ("bootstrap", "jackknife")
    for block_cells in (2, 130, 700, 1300)
] + [
    pytest.param(block_cells, method, "binary", basis, estimator, FAR_BLOCK_GRID,
                 id="-".join([basis, "binary", method, str(block_cells), estimator, "far"]))
    for estimator in ("cl", "aug") for basis in ("linear", "spline")
    for method in ("bootstrap", "jackknife") for block_cells in (2, 130, 700, 1300)
]


@pytest.mark.parametrize("block_cells, method, outcome_kind, basis, estimator, grid",
                         BLOCK_CASES)
def test_replicate_values_do_not_depend_on_blocks(block_cells, method, outcome_kind, basis,
                                                  estimator, grid, monkeypatch):
    # at n = 40, 2 cells: one replicate a chunk, one eta a block; 130: one
    # replicate, three etas; 700: four replicates, all five etas; 1300: eight
    # replicates.  The module's size fits every replicate in one chunk.
    # Spline replicates each carry their own design matrix.
    rng = np.random.default_rng(15)
    table = make_table(rng, 40, "nested", outcome_kind)
    recipe = make_recipe(outcome_kind, basis, a_basis="linear")
    resample = ResampleConfig(method=method, replicates=9, seed=8)
    whole = _replicate_matrix(table, recipe, grid, estimator, resample)
    assert np.isfinite(whole[0]).any()
    assert estimators._BLOCK_CELLS // (4 * table.n) >= table.n
    monkeypatch.setattr(estimators, "_BLOCK_CELLS", block_cells)
    split = _replicate_matrix(table, recipe, grid, estimator, resample)
    assert np.array_equal(whole[0], split[0], equal_nan=True)
    assert np.array_equal(whole[1], split[1])


# binary groups lay out their drawn rows replicate after replicate and sum
# each replicate's segment; 720 overflows every weight (the tilt where a
# drawn y is 1, else the normalizer), so a group's block reruns by replicate
GROUP_GRID = np.array([-31.0, -1.0, 0.0, 0.5, 31.0, 720.0])


def binary_groups_case(design):
    """A binary table and the counts of replicate 0 (every row once), four
    bootstrap draws and replicates that draw no y = 1 source row, no y = 0
    source row and (in a nested cohort) no target row, whose target segment
    is empty."""
    table = make_table(np.random.default_rng(40), 40, design, "binary")
    counts = [np.ones(table.n), *replicate_counts(table, ResampleConfig(replicates=5, seed=4),
                                                  range(1, 5))]
    for keep in (table.y != 1.0, table.y != 0.0) + ((table.s == 1,) if design == "nested"
                                                   else ()):
        counts.append(keep.astype(float))
    return table, np.array(counts)


def outcomes(values, failed, tops):
    return (values, [[None if e is None else (type(e), str(e)) for e in row] for row in failed],
            tops)


@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("estimator, a_basis", (("cl", None), ("aug", None), ("aug-alt", None),
                                                ("aug-alt", "linear")),
                         ids=("cl", "aug", "aug-alt-derived", "aug-alt-moment-fitted"))
def test_binary_replicate_values_do_not_depend_on_their_group(design, estimator, a_basis):
    table, counts = binary_groups_case(design)
    fits = make_recipe("binary", a_basis=a_basis).fit_counts(table, counts)
    assert all(e is None for e in fits.errors)
    n_reps = counts.shape[0]
    alone = [outcomes(*estimators._replicate_rows(table, fits, [r], GROUP_GRID, estimator,
                                                  top=True)) for r in range(n_reps)]
    alone = [(values[0], failed[0], None if tops is None else tops[0])
             for values, failed, tops in alone]
    assert np.isfinite(alone[0][0][:-1]).all()
    assert (alone[0][1][-1] is not None) == (estimator != "cl")  # a group's block reruns
    for size in (2, 5, n_reps):
        for lo in range(0, n_reps, size):
            group = list(range(lo, min(n_reps, lo + size)))
            values, failed, tops = outcomes(*estimators._replicate_rows(
                table, fits, group, GROUP_GRID, estimator, top=True))
            for j, r in enumerate(group):
                assert np.array_equal(values[j], alone[r][0], equal_nan=True), (size, r)
                assert failed[j] == alone[r][1], (size, r)
                if tops is not None:
                    assert np.array_equal(tops[j], alone[r][2], equal_nan=True), (size, r)


# the last point fails in every replicate: at 720 the tilt overflows on the
# drawn source rows with y > 0.986, failing b's and c's items, and at 100 a
# moment-fitted offset has no root
CONTINUOUS_GROUP_GRIDS = {None: np.array([-1.0, 0.0, 0.5, 720.0]),
                          "linear": np.array([-1.0, 0.0, 0.5, 100.0])}


def shared_source_case(design, outcome_kind):
    """A table and the counts of replicate 0 (every row once), leave-one-out
    replicates dropping five target rows, then two source rows, and two
    bootstrap draws; the target drops and replicate 0 share their
    source-row counts."""
    table = make_table(np.random.default_rng(41), 40, design, outcome_kind)
    drops = [*table.target_rows[:5], *table.source_rows[:2]]
    jackknife = replicate_counts(table, ResampleConfig(method="jackknife"), drops)
    boot = replicate_counts(table, ResampleConfig(replicates=2, seed=6), range(2))
    return table, np.vstack([np.ones(table.n), jackknife, boot])


def distinct_source_counts(table, counts, live):
    return len({counts[r, table.source_rows].tobytes() for r in live})


@pytest.mark.parametrize("estimator, a_basis", (("cl", None), ("aug", None), ("aug-alt", None),
                                                ("aug-alt", "linear")),
                         ids=("cl", "aug", "aug-alt-derived", "aug-alt-moment-fitted"))
def test_continuous_replicate_values_do_not_depend_on_their_group_or_chunk(
        estimator, a_basis, monkeypatch):
    table, counts = shared_source_case("non-nested", "continuous")
    recipe = make_recipe("continuous", a_basis=a_basis)
    n_reps, grid = counts.shape[0], CONTINUOUS_GROUP_GRIDS[a_basis]
    alone = []
    for r in range(n_reps):
        fits = recipe.fit_counts(table, counts[[r]])
        assert fits.errors[0] is None
        values, failed, tops = outcomes(*estimators._replicate_rows(table, fits, [0], grid,
                                                                    estimator, top=True))
        alone.append((values[0], failed[0], None if tops is None else tops[0]))
    assert np.isfinite(alone[0][0][:-1]).all()
    assert all(failed[-1] is not None and failed[:-1] == [None] * 3 for _, failed, _ in alone)
    # two grid blocks of two points: a chunk solves b (and c) once per block
    # and distinct vector of source-row counts, however it is grouped
    monkeypatch.setattr(estimators, "_BLOCK_CELLS", 2 * table.n)
    tilted_wls, items = nuisance._tilted_wls, []

    def count(dT, r_inv, pT, cnt, tilt, w, response=None):
        items.append(w.shape[0])
        return tilted_wls(dT, r_inv, pT, cnt, tilt, w, response)

    monkeypatch.setattr(nuisance, "_tilted_wls", count)
    parts = 1 if estimator == "cl" or a_basis is not None else 2
    for chunk in (3, 8, n_reps):
        for size in (1, 2, 5, n_reps):
            items.clear()
            distinct = 0
            for lo in range(0, n_reps, chunk):
                reps = range(lo, min(n_reps, lo + chunk))
                fits = recipe.fit_counts(table, counts[reps])
                distinct += distinct_source_counts(table, counts[reps], range(len(reps)))
                solved = {}
                for g_lo in range(0, len(reps), size):
                    group = list(range(g_lo, min(len(reps), g_lo + size)))
                    values, failed, tops = outcomes(*estimators._replicate_rows(
                        table, fits, group, grid, estimator, top=True, solved=solved))
                    for j, i in enumerate(group):
                        r = reps[i]
                        assert np.array_equal(values[j], alone[r][0], equal_nan=True), (chunk, r)
                        assert failed[j] == alone[r][1], (chunk, size, r)
                        if tops is not None:
                            assert np.array_equal(tops[j], alone[r][2], equal_nan=True)
            assert sum(items) == distinct * 2 * parts, (chunk, size)


def test_moment_fitted_offset_fails_an_overflowing_tilt_without_warnings():
    """At eta = 720 the tilt overflows on drawn source rows: every replicate
    of a moment-fitted aug-alt fails there with the tilt's named error, and
    the offset fit's start, formed in log space, warns of no overflow (the
    suite turns RuntimeWarnings into errors)."""
    table = make_table(np.random.default_rng(41), 40, "non-nested", "continuous")
    recipe, grid = make_recipe("continuous", a_basis="linear"), np.array([0.0, 720.0])
    resample = ResampleConfig(replicates=4, seed=1)
    curve = sensitivity_curve(table, recipe.fit(table), grid, "aug-alt", resample=resample)
    assert curve.points[0].status == "ok"
    assert curve.points[1].status.startswith("failed: tilt exponent")
    est, reasons = _replicate_matrix(table, recipe, grid, "aug-alt", resample)
    assert np.isfinite(est[:, 0]).all() and np.isnan(est[:, 1]).all()
    assert reasons[:, 0].tolist() == [None] * 4
    assert reasons[:, 1].tolist() == ["TiltOverflowError"] * 4


@pytest.mark.parametrize("method", ("jackknife", "bootstrap"))
def test_replicate_matrix_solves_each_source_counts_once_per_chunk(method, monkeypatch):
    """A continuous sweep in chunks of ten replicates and groups of five
    solves b and c once per chunk and distinct vector of source-row counts:
    a chunk's target drops share one solve across its groups, and a
    bootstrap, whose counts do not repeat, solves every replicate."""
    table = make_table(np.random.default_rng(43), 40, "non-nested", "continuous")
    recipe, grid = make_recipe("continuous"), np.linspace(-1.0, 1.0, 8)
    resample = ResampleConfig(method=method, replicates=30, seed=2)
    expected = _replicate_matrix(table, recipe, grid, "aug", resample)
    # chunks of 40 n / 4n = 10 and one grid block of 8: groups of 40 n / 8n = 5
    monkeypatch.setattr(estimators, "_BLOCK_CELLS", 40 * table.n)
    tilted_wls, items = nuisance._tilted_wls, []

    def count(dT, r_inv, pT, cnt, tilt, w, response=None):
        items.append(w.shape[0])
        return tilted_wls(dT, r_inv, pT, cnt, tilt, w, response)

    monkeypatch.setattr(nuisance, "_tilted_wls", count)
    est, why = _replicate_matrix(table, recipe, grid, "aug", resample)
    assert np.array_equal(est, expected[0], equal_nan=True)
    assert np.array_equal(why, expected[1])
    n_reps = est.shape[0]
    distinct = sum(distinct_source_counts(table, replicate_counts(table, resample, reps),
                                          range(len(reps)))
                   for reps in (range(lo, min(n_reps, lo + 10)) for lo in range(0, n_reps, 10)))
    assert sum(items) == 2 * distinct
    assert distinct < n_reps if method == "jackknife" else distinct == n_reps


@pytest.mark.parametrize("design", ("non-nested", "nested"))
def test_binary_g_is_fitted_once_per_source_counts(design, monkeypatch):
    table, counts = shared_source_case(design, "binary")
    keep_zeros = table.y != 1.0  # no y = 1 source row: g separates
    no_target = (table.s == 1).astype(float)  # a stratum failure where non-nested
    counts = np.vstack([no_target, counts, keep_zeros, keep_zeros])
    counts[-1, table.target_rows[0]] = 0.0
    recipe = make_recipe("binary")
    irls, fitted = nuisance._irls, []

    def count(dT, y, w_case, ridge=0.0):
        if ridge == 0.0 and w_case.shape[1] == table.n1:  # g's first fit
            fitted.append(w_case.shape[0])
        return irls(dT, y, w_case, ridge)

    monkeypatch.setattr(nuisance, "_irls", count)
    fits = recipe.fit_counts(table, counts)
    live = [r for r in range(len(counts)) if not fits.lacks_stratum[r]]
    assert fits.lacks_stratum[0] == (design == "non-nested")
    assert sum(fitted) == distinct_source_counts(table, counts, live) < len(live)
    assert fits.meta(len(counts) - 1)["g_ridge"]
    for r in range(len(counts)):
        one = recipe.fit_counts(table, counts[[r]])
        assert np.array_equal(fits.g[r], one.g[0], equal_nan=True), r
        shared, own = fits._fits["g"][r], one._fits["g"][0]
        assert (shared is None) == (own is None)
        if own is not None:
            assert np.array_equal(shared.coefficients, own.coefficients)
            assert (shared.converged, shared.iterations, shared.ridge) == \
                (own.converged, own.iterations, own.ridge)
        assert (type(fits.errors[r]), str(fits.errors[r])) == \
            (type(one.errors[0]), str(one.errors[0])), r


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 40),
    design=st.sampled_from(("non-nested", "nested")),
    outcome_kind=st.sampled_from(("binary", "continuous")),
)
def test_aug_equals_cl_at_p_one(seed, n, design, outcome_kind):
    """p = 1 on the source rows zeroes the augmentation on both paths."""
    rng = np.random.default_rng(seed)
    table = make_table(rng, n, design, outcome_kind)
    nuis = make_recipe(outcome_kind).fit(table)
    p = nuis.p.copy()
    p[table.s == 1] = 1.0
    ones = replace(nuis, p=p, meta={})
    grid = [-1.2, -0.4, 0.0, 0.3, 1.5]
    for eta in grid:
        assert estimate(table, ones, eta, "aug").estimate == pytest.approx(
            estimate(table, ones, eta, "cl").estimate, abs=1e-15)
    aug = sensitivity_curve(table, ones, grid, "aug").estimates
    cl = sensitivity_curve(table, ones, grid, "cl").estimates
    np.testing.assert_allclose(aug, cl, rtol=0, atol=1e-15)


# Far tilts: b's weights e^{eta y} span hundreds of orders of magnitude on
# the source rows, and its stacked solve hands every such item to the
# one-replicate solve (``NuisanceRows.solve``).  Not checked here: a spline
# design on bootstrap replicates, whose take() tables repeat rows (a QR of
# a row repeated at weight e^{40 y} buries the other rows in its rounding,
# so the refits differ from the exact fit by O(1)), and aug or aug-alt on a
# spline design, where c sits at its floor on a third of the rows and the
# source weights reach 1e26: they multiply the rounding of L - b (b nearly
# interpolates L on the heavy rows) into terms of 1e11, in count and take()
# fits alike.
FAR_GRID = np.array([-40.0, -31.0, -30.0, 30.0, 31.0, 40.0])


def far_case(basis, method):
    table = make_table(np.random.default_rng(22), 36, "non-nested", "continuous")
    resample = (ResampleConfig(method="jackknife") if method == "jackknife"
                else ResampleConfig(replicates=8, seed=5))
    return table, make_recipe("continuous", basis), resample


@pytest.mark.parametrize("estimator", ("cl", "aug", "aug-alt"))
@pytest.mark.parametrize("method", ("bootstrap", "jackknife"))
def test_far_eta_replicates_match_take_refits(method, estimator):
    table, recipe, resample = far_case("linear", method)
    weighted, _ = _replicate_matrix(table, recipe, FAR_GRID, estimator, resample)
    assert np.isfinite(weighted).all()
    assert_same(weighted, take_matrix(table, recipe, FAR_GRID, estimator, resample))


def test_far_eta_spline_jackknife_matches_take_refits():
    table, recipe, resample = far_case("spline", "jackknife")
    weighted, _ = _replicate_matrix(table, recipe, FAR_GRID, "cl", resample)
    assert np.isfinite(weighted).all()
    assert_same(weighted, take_matrix(table, recipe, FAR_GRID, "cl", resample))



@pytest.mark.parametrize("design", ("non-nested", "nested"))
def test_binary_moment_fitted_offset_past_the_float64_exponent(design):
    """Past eta = 709.78 a binary aug-alt with a moment-fitted offset fails
    by its tilt only where a replicate draws a source row with y = 1: the
    bootstrap replicate fails there with the tilt's text, and the replicate
    that drops every such row stays finite, as their take() refits do."""
    table = make_table(np.random.default_rng(5), 120, design, "binary")
    recipe, grid = make_recipe("binary", a_basis="linear"), np.array([0.0, 710.0, 800.0])
    counts = np.vstack([replicate_counts(table, ResampleConfig(replicates=2, seed=4), [0]),
                        np.where((table.s == 1) & (table.y == 1.0), 0.0, 1.0)])
    fits = recipe.fit_counts(table, counts)
    est, failed, _ = estimators._replicate_rows(table, fits, [0, 1], grid, "aug-alt")
    assert [type(e) for e in failed[0]] == [type(None), TiltOverflowError, TiltOverflowError]
    assert np.isfinite(est[1]).all()
    for r in range(2):
        taken = table.take(np.repeat(np.arange(table.n), counts[r].astype(int)))
        nuis = recipe.fit(taken)
        for j, eta in enumerate(grid):
            if failed[r, j] is not None:
                with pytest.raises(type(failed[r, j])) as refit:
                    estimate(taken, nuis, float(eta), "aug-alt")
                assert str(refit.value) == str(failed[r, j])
                continue
            want = estimate(taken, nuis, float(eta), "aug-alt").estimate
            assert abs(est[r, j] - want) <= TOL * max(1.0, abs(want))
