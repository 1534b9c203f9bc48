"""Nuisance-fitting checks: IRLS, splines, weighted LS, moment fit."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk.data import build_table
from tiltrisk.errors import (
    ConvergenceError,
    DataError,
    DomainError,
    RankDeficientError,
)
from tiltrisk.nuisance import (
    DesignSpec,
    NuisanceRecipe,
    _rank_errors,
    fit_a_gmm,
    fit_b_continuous,
    fit_binary_nuisances,
    fit_c_continuous,
    fit_logistic,
    spline_expand,
)
from tiltrisk.tilt import LossFunction, PredictionModel, TiltSpec, selection_a

from conftest import BRIER, random_binary_table

INTERCEPT_ONLY = DesignSpec(())


def logit(p):
    return math.log(p / (1.0 - p))


class TestFitLogistic:
    def test_intercept_only_balanced(self):
        fit = fit_logistic(INTERCEPT_ONLY, np.zeros((10, 1)), np.r_[np.ones(5), np.zeros(5)])
        assert fit.coefficients[0] == 0.0

    def test_intercept_only_closed_form(self):
        y = np.r_[np.ones(3), np.zeros(7)]
        fit = fit_logistic(INTERCEPT_ONLY, np.zeros((10, 1)), y)
        assert fit.coefficients[0] == logit(0.3)
        assert fit.coefficients[0] == pytest.approx(-0.8473, abs=5e-5)

    def test_weighted_intercept_only_exact(self):
        y = np.array([1.0, 0.0, 0.0])
        w = np.array([2.0, 1.0, 1.0])
        fit = fit_logistic(INTERCEPT_ONLY, np.zeros((3, 1)), y, case_weights=w)
        assert fit.coefficients[0] == logit(0.5)

    def test_separation_takes_ridge_path(self):
        x = np.linspace(-1, 1, 20).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(float)
        fit = fit_logistic(DesignSpec((0,)), x, y)
        assert fit.ridge and not fit.converged
        assert np.all(np.isfinite(fit.coefficients))

    def test_benign_fit_converges_without_ridge(self, rng):
        x = rng.normal(size=(500, 2))
        p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x[:, 0] - 0.5 * x[:, 1])))
        y = (rng.random(500) < p).astype(float)
        fit = fit_logistic(DesignSpec((0, 1)), x, y)
        assert fit.converged and not fit.ridge

    def test_score_equations_solved(self, rng):
        for trial in range(10):
            x = rng.normal(size=(300, 2))
            p = 1.0 / (1.0 + np.exp(-(0.2 + x[:, 0])))
            y = (rng.random(300) < p).astype(float)
            w = rng.uniform(0.5, 2.0, 300)
            fit = fit_logistic(DesignSpec((0, 1)), x, y, case_weights=w)
            assert not fit.ridge
            d = fit.design.matrix(x)
            probs = 1.0 / (1.0 + np.exp(-(d @ fit.coefficients)))
            score = d.T @ (w * (y - probs))
            assert np.max(np.abs(score)) < 1e-6

    def test_rank_deficiency_names_columns(self, rng):
        x = rng.normal(size=(50, 1))
        x = np.hstack([x, 2.0 * x])  # x1 = 2 * x0
        y = (rng.random(50) < 0.5).astype(float)
        with pytest.raises(RankDeficientError) as err:
            fit_logistic(DesignSpec((0, 1)), x, y)
        assert err.value.columns  # at least one dependent column named

    def test_non_binary_target_rejected(self):
        with pytest.raises(DomainError):
            fit_logistic(INTERCEPT_ONLY, np.zeros((5, 1)), np.array([0, 1, 2, 0, 1]))

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            fit_logistic(DesignSpec((0, 1)), np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_refit_bit_identical(self, rng):
        x = rng.normal(size=(200, 2))
        y = (rng.random(200) < 0.4).astype(float)
        f1 = fit_logistic(DesignSpec((0, 1)), x, y)
        f2 = fit_logistic(DesignSpec((0, 1)), x, y)
        assert np.array_equal(f1.coefficients, f2.coefficients)

    def test_prediction_clip(self):
        fit = fit_logistic(INTERCEPT_ONLY, np.zeros((10, 1)), np.r_[np.ones(9), np.zeros(1)])
        p = fit.predict(np.zeros((4, 1)))
        assert np.all(p >= 1e-8) and np.all(p <= 1 - 1e-8)


def scipy_rank(d, counts, names):
    """The reference rank check: scipy's column-pivoted QR of the rows
    repeated by count.  Returns None at full rank, else the columns past the
    rank, and the distance of the deciding |diag| (the first one at or below
    the tolerance, or the last one) from the tolerance in units of
    eps * ||rows||_F, the scale of a QR's rounding."""
    repeated = np.repeat(d, counts.astype(np.intp), axis=0)
    r, piv = scipy.linalg.qr(repeated, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    diag = np.r_[diag, np.zeros(d.shape[1] - diag.size)]  # fewer rows than columns
    eps = np.finfo(np.float64).eps
    tol = max(repeated.shape) * eps * diag.max()
    rank = int(np.sum(diag > tol))
    margin = abs(diag[min(rank, d.shape[1] - 1)] - tol) / (eps * np.linalg.norm(repeated))
    return (None if rank == d.shape[1] else [names[j] for j in piv[rank:]]), margin


def scipy_rank_names(d, counts, names):
    return scipy_rank(d, counts, names)[0]


def our_rank_names(dT, counts, names):
    errors = _rank_errors(dT, counts, names)
    return [None if e is None else e.columns for e in errors]


def random_design(rng, n, k, kind):
    """(n, k) columns scaled by 1e-3 to 1e3: independent, or with one of
    them an exact combination of the others, or one to 1e-13; Poisson
    counts with at least one row drawn."""
    d = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3.0, 3.0, k)
    if kind != "independent" and k > 1:
        j = rng.integers(k)
        combo = np.delete(d, j, axis=1) @ rng.normal(size=k - 1)
        if kind == "near":
            combo *= 1.0 + 1e-13 * rng.normal(size=n)
        d[:, j] = combo
    counts = rng.poisson(1.0, n).astype(np.float64)
    if counts.sum() == 0:
        counts[rng.integers(n)] = 1.0
    return d, counts


class TestRankCheck:
    """The count-weighted rank check against scipy's pivoted QR of the rows
    repeated by count."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), k=st.integers(1, 7),
           kind=st.sampled_from(("independent", "exact", "near")))
    def test_decision_and_columns_match_scipy(self, seed, n, k, kind):
        d, counts = random_design(np.random.default_rng(seed), n, k, kind)
        names = [f"x{j}" for j in range(k)]
        expected, margin = scipy_rank(d, counts, names)
        got = our_rank_names(np.ascontiguousarray(d.T), counts[None], [names])[0]
        if (got is None) != (expected is None):
            # a decision on the tolerance itself: the deciding |diag| is within
            # a k-column QR's rounding of it, and either answer is right (five
            # of 60,000 draws, all collinear ones with at most 11 rows)
            assert kind != "independent" and margin <= k
        elif got is not None and got != expected:
            # past the rank the pivot order is noise, and on a near-tie either
            # column is a correct answer: dropping the named ones leaves full rank
            assert len(got) == len(expected)
            keep = [j for j in range(k) if names[j] not in got]
            assert scipy_rank_names(d[:, keep], counts, [names[j] for j in keep]) is None

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), k=st.integers(1, 7),
           n_reps=st.integers(2, 6), shared=st.booleans())
    def test_replicate_does_not_depend_on_its_chunk(self, seed, n, k, n_reps, shared):
        rng = np.random.default_rng(seed)
        kinds = ("independent", "exact", "near")
        draws = [random_design(rng, n, k, kinds[r % 3]) for r in range(n_reps)]
        counts = np.stack([c for _, c in draws])
        dT = (np.ascontiguousarray(draws[0][0].T) if shared
              else np.ascontiguousarray(np.stack([d.T for d, _ in draws])))
        names = [[f"x{j}" for j in range(k)]] * n_reps
        chunk = our_rank_names(dT, counts, names)
        for r in range(n_reps):
            alone = dT if shared else dT[r:r + 1]
            assert our_rank_names(alone, counts[r:r + 1], names[:1]) == chunk[r:r + 1]

    def test_fewer_distinct_rows_than_columns(self):
        d = np.array([[1.0, 0.5, 2.0], [1.0, -1.0, 0.25], [1.0, 3.0, 1.0]])
        counts = np.array([[4.0, 3.0, 0.0], [1.0, 1.0, 1.0]])
        got = our_rank_names(np.ascontiguousarray(d.T), counts, [["a", "b", "c"]] * 2)
        assert got[1] is None
        assert got[0] is not None and len(got[0]) == 1
        assert got[0] == scipy_rank_names(d, counts[0], ["a", "b", "c"])

    def test_fewer_fit_rows_than_columns(self):
        # past the first column all trailing norms are zero: any order is right
        d = np.array([[1.0, 2.0, 3.0]])
        got = our_rank_names(np.ascontiguousarray(d.T), np.array([[5.0]]), [["a", "b", "c"]])
        assert sorted(got[0]) == sorted(scipy_rank_names(d, np.array([5.0]), ["a", "b", "c"]))


class TestSplineExpand:
    def test_degree1_no_knots_two_hats(self):
        col = np.linspace(0.0, 1.0, 50)
        basis = spline_expand(col, degree=1, interior_knots=0)
        assert basis.shape == (50, 2)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)
        # hat functions: first decreases, second increases
        assert basis[0, 0] == 1.0 and basis[-1, 1] == 1.0

    def test_dimension_formula(self, rng):
        col = rng.uniform(0, 1, 80)
        basis = spline_expand(col, degree=3, interior_knots=2)
        assert basis.shape[1] == 6  # degree + interior + 1

    def test_partition_of_unity(self, rng):
        col = rng.normal(size=200)
        for degree in (1, 2, 3):
            basis = spline_expand(col, degree=degree, interior_knots=3)
            np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DomainError, match="distinct"):
            spline_expand(np.ones(30), degree=1, interior_knots=0)

    def test_bad_degree(self):
        with pytest.raises(DomainError):
            spline_expand(np.linspace(0, 1, 30), degree=4, interior_knots=0)


class TestDesignSpec:
    def test_spline_block_drops_first_with_intercept(self, rng):
        x = np.column_stack([rng.uniform(0, 1, 60), rng.integers(0, 2, 60)])
        built = DesignSpec((0, 1), basis="spline", degree=3, interior_knots=2).build(x)
        # intercept + (6 - 1) spline columns + 1 linear binary column
        assert built.ncols == 1 + 5 + 1
        assert built.names[0] == "intercept"
        assert built.names[-1] == "x1"

    def test_matrix_reproducible_on_new_rows(self, rng):
        x = rng.uniform(0, 1, (100, 1))
        built = DesignSpec((0,), basis="spline", degree=2, interior_knots=1).build(x)
        m1 = built.matrix(x[:10])
        m2 = built.matrix(x[:10])
        assert np.array_equal(m1, m2)


class TestFitBContinuous:
    def test_eta_zero_is_ols(self, rng):
        x = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        losses = (y - 0.3) ** 2
        fit = fit_b_continuous(DesignSpec((0,)), x, losses, TiltSpec(0.0), y)
        d = np.column_stack([np.ones(100), x[:, 0]])
        beta_ols = np.linalg.lstsq(d, losses, rcond=None)[0]
        np.testing.assert_allclose(fit.coefficients, beta_ols, atol=1e-10)

    def test_intercept_only_unweighted_mean(self):
        losses = np.array([1.0, 3.0])
        fit = fit_b_continuous(INTERCEPT_ONLY, np.zeros((2, 1)), losses,
                               TiltSpec(0.0), np.array([0.0, 0.0]))
        assert fit.predict(np.zeros((1, 1)))[0] == pytest.approx(2.0, abs=1e-12)

    def test_intercept_only_weighted_mean(self):
        # weights e^{eta*y} = {3, 1} via y = {ln 3, 0}, eta = 1
        losses = np.array([1.0, 3.0])
        outcomes = np.array([math.log(3.0), 0.0])
        fit = fit_b_continuous(INTERCEPT_ONLY, np.zeros((2, 1)), losses,
                               TiltSpec(1.0), outcomes)
        assert fit.predict(np.zeros((1, 1)))[0] == pytest.approx(1.5, abs=1e-12)


class TestFitCContinuous:
    def test_eta_zero_predicts_one(self, rng):
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        fit = fit_c_continuous(DesignSpec((0, 1)), x, TiltSpec(0.0), y)
        np.testing.assert_allclose(fit.predict(x), 1.0, atol=1e-12)

    def test_intercept_only_mean_of_weights(self):
        y = np.array([0.0, 1.0])
        fit = fit_c_continuous(INTERCEPT_ONLY, np.zeros((2, 1)), TiltSpec(math.log(4.0)), y)
        assert fit.predict(np.zeros((1, 1)))[0] == pytest.approx(2.5, abs=1e-12)

    def test_floor_applied(self):
        # fit passes through (0, 2) and (1, 0.5); extrapolation at x=2 is negative
        x = np.array([[0.0], [1.0]])
        y = np.array([math.log(2.0), math.log(0.5)])
        fit = fit_c_continuous(DesignSpec((0,)), x, TiltSpec(1.0), y)
        val = fit.predict(np.array([[2.0]]))[0]
        assert val == pytest.approx(1e-6)


class TestFitAGmm:
    def _table(self, rng, n=120):
        return random_binary_table(rng, n=n)

    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            table = self._table(rng)
            for eta in (-1.0, 0.0, 1.0):
                fit = fit_a_gmm(INTERCEPT_ONLY, table, TiltSpec(eta))
                w = np.exp(eta * table.y[table.s == 1])
                expected = math.log(table.n0 / w.sum())
                assert abs(fit.theta[0] - expected) < 1e-10

    def test_eta_zero_log_odds_of_strata(self, rng):
        table = self._table(rng)
        fit = fit_a_gmm(INTERCEPT_ONLY, table, TiltSpec(0.0))
        assert fit.theta[0] == pytest.approx(math.log(table.n0 / table.n1), abs=1e-10)

    def test_moment_norm_invariant(self, rng):
        table = self._table(rng)
        fit = fit_a_gmm(DesignSpec((0, 1)), table, TiltSpec(0.5))
        assert fit.moment_norm < 1e-8

    def test_empty_stratum_rejected(self, rng):
        # nested cohorts may lack target rows, but the moment fit needs both
        x = rng.uniform(-1, 1, (20, 1))
        y = (rng.random(20) < 0.5).astype(float)
        model = PredictionModel(coefficients=(0.0, 0.5), xstar_columns=(0,))
        table = build_table(np.ones(20, dtype=int), x, y, model, BRIER, "nested")
        with pytest.raises(DataError):
            fit_a_gmm(INTERCEPT_ONLY, table, TiltSpec(0.5))

    def test_recovers_true_offset_on_saturated_design(self):
        # single binary covariate: the linear family contains the truth
        from scipy.special import expit

        rng = np.random.default_rng(11)
        n = 60_000
        x = rng.integers(0, 2, (n, 1)).astype(float)
        p = expit(0.3 + 0.9 * x[:, 0])
        s = (rng.random(n) < p).astype(int)
        g = expit(-0.5 + 1.1 * x[:, 0])
        y = np.where(s == 1, (rng.random(n) < g).astype(float), np.nan)
        model = PredictionModel(coefficients=(0.0, 0.5), xstar_columns=(0,))
        table = build_table(s, x, y, model, BRIER, "non-nested")
        eta = 0.7
        fit = fit_a_gmm(DesignSpec((0,)), table, TiltSpec(eta))
        for xv in (0.0, 1.0):
            pv = expit(0.3 + 0.9 * xv)
            gv = expit(-0.5 + 1.1 * xv)
            cv = math.exp(eta) * gv + 1 - gv
            a_true = selection_a(pv, cv)
            a_hat = fit.predict(np.array([[xv]]))[0]
            assert a_hat == pytest.approx(a_true, abs=0.05)


class TestBinaryNuisanceBundle:
    def test_closed_forms_consistent_with_g(self, rng):
        table = random_binary_table(rng, n=300)
        nuis = fit_binary_nuisances(table, DesignSpec((0, 1)), DesignSpec((0, 1)), BRIER)
        g = nuis.g
        eta = 0.8
        from tiltrisk.tilt import binary_b, binary_c, eval_loss

        np.testing.assert_allclose(nuis.c(eta), binary_c(g, eta), atol=1e-14)
        pred = table.pred
        l1 = eval_loss(BRIER, np.ones_like(pred), pred)
        l0 = eval_loss(BRIER, np.zeros_like(pred), pred)
        np.testing.assert_allclose(nuis.b(eta), binary_b(l1, l0, g, eta), atol=1e-14)

    def test_p_clipped(self, rng):
        table = random_binary_table(rng, n=300)
        nuis = fit_binary_nuisances(table, DesignSpec(()), DesignSpec(()), BRIER)
        p = nuis.p
        assert np.all(p >= 0.01) and np.all(p <= 0.99)

    def test_recipe_rejects_custom_q_for_binary(self):
        with pytest.raises(DomainError, match="identity"):
            NuisanceRecipe(
                outcome="binary", loss=BRIER,
                p_design=DesignSpec(()), g_design=DesignSpec(()),
                q=lambda y: y**3,
            )

    def test_determinism(self, rng):
        table = random_binary_table(rng, n=200)
        recipe = NuisanceRecipe(
            outcome="binary", loss=BRIER,
            p_design=DesignSpec((0, 1)), g_design=DesignSpec((0, 1)),
        )
        n1 = recipe.fit(table)
        n2 = recipe.fit(table)
        assert np.array_equal(n1.b(0.7), n2.b(0.7))
        assert np.array_equal(n1.p, n2.p)


class TestContinuousBundle:
    def test_fit_and_predict(self, rng):
        n = 400
        x = rng.normal(size=(n, 1))
        s = np.r_[np.ones(n // 2, dtype=int), np.zeros(n // 2, dtype=int)]
        y = np.where(s == 1, 0.5 * x[:, 0] + rng.normal(0, 0.3, n), np.nan)
        model = PredictionModel(coefficients=(0.0, 0.5), link="identity", xstar_columns=(0,))
        loss = LossFunction("squared-error")
        table = build_table(s, x, y, model, loss, "non-nested")
        recipe = NuisanceRecipe(
            outcome="continuous", loss=loss,
            p_design=DesignSpec((0,)), b_design=DesignSpec((0,)), c_design=DesignSpec((0,)),
        )
        nuis = recipe.fit(table)
        b0 = nuis.b(0.0)
        assert b0.shape == (table.n,) and np.all(np.isfinite(b0))
        c0 = nuis.c(0.0)
        np.testing.assert_allclose(c0, 1.0, atol=1e-10)
        assert np.all(nuis.c(1.0) >= 1e-6)
