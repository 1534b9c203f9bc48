"""Nuisance-fitting checks: IRLS, splines, weighted LS, moment fit.

Apart from ``fit_logistic``, every fit is reached through the one entry
point, ``NuisanceRecipe.fit``, and checked on the nuisance values it gives
on the table's rows."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk.data import build_table
from tiltrisk.errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    RankDeficientError,
    TiltOverflowError,
)
from tiltrisk import nuisance
from tiltrisk.nuisance import (
    DesignSpec,
    NuisanceRecipe,
    NuisanceRows,
    _rank_errors,
    _spline_basis,
    _fit_logistic_rows,
    _wls_coefficients,
    fit_logistic,
    spline_knots,
)
from tiltrisk.tilt import LossFunction, PredictionModel, TiltSpec, selection_a, tilt_weight

from conftest import BRIER, random_binary_table

INTERCEPT_ONLY = DesignSpec(())
ABSOLUTE = LossFunction("absolute-deviation")


def logit(p):
    return math.log(p / (1.0 - p))


def counted_logistic(design, x, y, counts):
    """One replicate's logistic fit, row i taken ``counts[i]`` times."""
    errors = [None]
    _, fits = _fit_logistic_rows(design, x, slice(None), y, np.asarray(counts)[None, :], errors)
    assert errors == [None]
    return fits[0]


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
        fit = counted_logistic(INTERCEPT_ONLY, np.zeros((3, 1)), y, w)
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
            fit = fit_logistic(DesignSpec((0, 1)), x, y)
            assert not fit.ridge
            d = fit.design.matrix(x)
            probs = 1.0 / (1.0 + np.exp(-(d @ fit.coefficients)))
            score = d.T @ (y - probs)
            assert np.max(np.abs(score)) < 1e-6

    def test_count_weighted_score_equations_solved(self, rng):
        # replicate fits weight each row by its draw count
        for trial in range(10):
            x = rng.normal(size=(300, 2))
            p = 1.0 / (1.0 + np.exp(-(0.2 + x[:, 0])))
            y = (rng.random(300) < p).astype(float)
            w = rng.integers(0, 4, 300).astype(float)
            fit = counted_logistic(DesignSpec((0, 1)), x, y, w)
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
        # g fitted on 10 source rows, 9 of them y = 1, evaluated on every row
        y = np.r_[np.ones(9), np.zeros(1), np.full(4, np.nan)]
        s = np.r_[np.ones(10, dtype=int), np.zeros(4, dtype=int)]
        model = PredictionModel(coefficients=(0.0, 0.5), xstar_columns=(0,))
        table = build_table(s, np.zeros((14, 1)), y, model, BRIER, "non-nested")
        g = binary_recipe(INTERCEPT_ONLY).fit(table).g
        assert np.all(g >= 1e-8) and np.all(g <= 1 - 1e-8)


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


def column_basis(col, degree, interior_knots):
    """The B-spline basis of one column, every basis function kept, with
    ``DesignSpec``'s checks of the degree and of the distinct values."""
    x = np.asarray(col, dtype=np.float64)
    spec = DesignSpec((0,), basis="spline", degree=degree, interior_knots=interior_knots)
    spec.build(x[:, None])
    return _spline_basis(x, spline_knots(x, degree, interior_knots), degree)


class TestSplineExpand:
    def test_degree1_no_knots_two_hats(self):
        col = np.linspace(0.0, 1.0, 50)
        basis = column_basis(col, degree=1, interior_knots=0)
        assert basis.shape == (50, 2)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)
        # hat functions: first decreases, second increases
        assert basis[0, 0] == 1.0 and basis[-1, 1] == 1.0

    def test_dimension_formula(self, rng):
        col = rng.uniform(0, 1, 80)
        basis = column_basis(col, degree=3, interior_knots=2)
        assert basis.shape[1] == 6  # degree + interior + 1

    def test_partition_of_unity(self, rng):
        col = rng.normal(size=200)
        for degree in (1, 2, 3):
            basis = column_basis(col, degree=degree, interior_knots=3)
            np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DomainError, match="distinct"):
            column_basis(np.ones(30), degree=1, interior_knots=0)

    def test_bad_degree(self):
        with pytest.raises(DomainError):
            column_basis(np.linspace(0, 1, 30), degree=4, interior_knots=0)


class TestDesignSpec:
    def test_spline_block_drops_first_with_intercept(self, rng):
        x = np.column_stack([rng.uniform(0, 1, 60), rng.integers(0, 2, 60)])
        built = DesignSpec((0, 1), basis="spline", degree=3, interior_knots=2).build(x)
        # intercept + (6 - 1) spline columns + 1 linear binary column
        assert built.ncols == 1 + 5 + 1
        assert built.names[0] == "intercept"
        assert built.names[-1] == "x1"

    def test_spline_column_needs_enough_distinct_values(self, rng):
        # degree 3 with 2 interior knots needs 6 distinct values; a column
        # with two stays linear, one with five cannot be expanded
        x = np.column_stack([rng.integers(0, 2, 40), rng.integers(0, 5, 40)]).astype(float)
        spec = DesignSpec((0, 1), basis="spline", degree=3, interior_knots=2)
        with pytest.raises(DomainError, match=r"^column x1 has 5 distinct values; spline "
                                              r"expansion needs at least 6$"):
            spec.build(x)
        assert DesignSpec((0,), basis="spline", degree=3, interior_knots=2).build(x).names \
            == ("intercept", "x0")

    def test_matrix_reproducible_on_new_rows(self, rng):
        x = rng.uniform(0, 1, (100, 1))
        built = DesignSpec((0,), basis="spline", degree=2, interior_knots=1).build(x)
        m1 = built.matrix(x[:10])
        m2 = built.matrix(x[:10])
        assert np.array_equal(m1, m2)


def continuous_table(x, y, n_target=0, x_target=None, pred=(0.0, 0.0)):
    """Source rows ``x`` with outcomes ``y``, then ``n_target`` target rows
    at ``x_target`` (default zero); absolute-deviation losses |y - h| of
    the linear prediction h = pred[0] + pred[1] * x0."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_tgt = np.zeros((n_target, x.shape[1])) if x_target is None else np.asarray(x_target)
    s = np.r_[np.ones(len(x), dtype=int), np.zeros(n_target, dtype=int)]
    y = np.r_[y, np.full(n_target, np.nan)]
    model = PredictionModel(coefficients=pred, link="identity", xstar_columns=(0,))
    return build_table(s, np.vstack([x, x_tgt]), y, model, ABSOLUTE, "nested")


def continuous_fit(table, design):
    """The continuous nuisances with ``design`` for b and c."""
    return NuisanceRecipe(outcome="continuous", loss=ABSOLUTE, p_design=INTERCEPT_ONLY,
                          g_design=design).fit(table)


class TestFitBContinuous:
    def test_eta_zero_is_ols(self, rng):
        x = rng.normal(size=(100, 1))
        y = rng.normal(size=100)
        table = continuous_table(x, y, pred=(0.3, 0.0))
        losses = np.abs(y - 0.3)
        b = continuous_fit(table, DesignSpec((0,))).b(0.0)
        d = np.column_stack([np.ones(100), x[:, 0]])
        beta_ols = np.linalg.lstsq(d, losses, rcond=None)[0]
        np.testing.assert_allclose(b, d @ beta_ols, atol=1e-10)

    def test_intercept_only_unweighted_mean(self):
        # losses |0 - h| = {1, 3}
        table = continuous_table([[1.0], [3.0]], [0.0, 0.0], pred=(0.0, 1.0))
        b = continuous_fit(table, INTERCEPT_ONLY).b(0.0)
        assert b[0] == pytest.approx(2.0, abs=1e-12)

    def test_intercept_only_weighted_mean(self):
        # weights e^{eta*y} = {3, 1} via y = {ln 3, 0}, eta = 1; losses {1, 3}
        y = [math.log(3.0), 0.0]
        table = continuous_table([[math.log(3.0) + 1.0], [3.0]], y, pred=(0.0, 1.0))
        b = continuous_fit(table, INTERCEPT_ONLY).b(1.0)
        assert b[0] == pytest.approx(1.5, abs=1e-12)


class TestFitCContinuous:
    def test_eta_zero_predicts_one(self, rng):
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        c = continuous_fit(continuous_table(x, y), DesignSpec((0, 1))).c(0.0)
        np.testing.assert_allclose(c, 1.0, atol=1e-12)

    def test_intercept_only_mean_of_weights(self):
        table = continuous_table(np.zeros((2, 1)), [0.0, 1.0])
        c = continuous_fit(table, INTERCEPT_ONLY).c(math.log(4.0))
        assert c[0] == pytest.approx(2.5, abs=1e-12)

    def test_floor_applied(self):
        # fit passes through (0, 2) and (1, 0.5); extrapolation at x=2 is negative
        x = np.array([[0.0], [1.0]])
        y = np.array([math.log(2.0), math.log(0.5)])
        table = continuous_table(x, y, n_target=1, x_target=[[2.0]])
        val = continuous_fit(table, DesignSpec((0,))).c(1.0)[2]
        assert val == pytest.approx(1e-6)


def binary_recipe(design, a_design=None):
    """Binary nuisances with ``design`` for g and p."""
    return NuisanceRecipe(outcome="binary", loss=BRIER, p_design=design, g_design=design,
                          a_design=a_design)


def offset(table, design):
    """The moment-fitted selection offset on every row of ``table``, as a
    function of eta."""
    return binary_recipe(INTERCEPT_ONLY, a_design=design).fit(table).a


class TestFitAGmm:
    def _table(self, rng, n=120):
        return random_binary_table(rng, n=n)

    def test_intercept_only_closed_form(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            table = self._table(rng)
            a_of = offset(table, INTERCEPT_ONLY)
            for eta in (-1.0, 0.0, 1.0):
                a = a_of(eta)
                w = np.exp(eta * table.y[table.s == 1])
                expected = math.log(table.n0 / w.sum())
                assert np.all(np.abs(a - expected) < 1e-10)

    def test_eta_zero_log_odds_of_strata(self, rng):
        table = self._table(rng)
        a = offset(table, INTERCEPT_ONLY)(0.0)
        assert a[0] == pytest.approx(math.log(table.n0 / table.n1), abs=1e-10)

    def test_moment_norm_invariant(self, rng):
        table = self._table(rng)
        eta = 0.5
        a = offset(table, DesignSpec((0, 1)))(eta)
        src = table.s == 1
        d = np.column_stack([np.ones(table.n), table.x])
        resid = np.where(src, np.exp(a + eta * np.where(src, table.y, 0.0)), 0.0) - ~src
        assert np.max(np.abs(d.T @ resid / table.n)) < 1e-8

    def test_empty_stratum_rejected(self, rng):
        # nested cohorts may lack target rows, but the moment fit needs both
        x = rng.uniform(-1, 1, (20, 1))
        y = (rng.random(20) < 0.5).astype(float)
        model = PredictionModel(coefficients=(0.0, 0.5), xstar_columns=(0,))
        table = build_table(np.ones(20, dtype=int), x, y, model, BRIER, "nested")
        nuis = binary_recipe(INTERCEPT_ONLY, a_design=INTERCEPT_ONLY).fit(table)
        with pytest.raises(DataError):
            nuis.a(0.5)

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
        a = offset(table, DesignSpec((0,)))(eta)
        for xv in (0.0, 1.0):
            pv = expit(0.3 + 0.9 * xv)
            gv = expit(-0.5 + 1.1 * xv)
            cv = math.exp(eta) * gv + 1 - gv
            a_true = selection_a(pv, cv)
            a_hat = a[np.flatnonzero(x[:, 0] == xv)[0]]
            assert a_hat == pytest.approx(a_true, abs=0.05)


class TestBinaryNuisanceBundle:
    def test_closed_forms_consistent_with_g(self, rng):
        table = random_binary_table(rng, n=300)
        nuis = binary_recipe(DesignSpec((0, 1))).fit(table)
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
        nuis = binary_recipe(INTERCEPT_ONLY).fit(table)
        p = nuis.p
        assert np.all(p >= 0.01) and np.all(p <= 0.99)

    def test_recipe_loss_must_give_the_table_losses(self, rng):
        # an absolute-deviation recipe on a Brier table: b's L(1, h) and
        # L(0, h) would not be the observed losses the augmentation reads
        table = random_binary_table(rng, n=200)
        recipe = NuisanceRecipe(outcome="binary", loss=ABSOLUTE,
                                p_design=DesignSpec((0, 1)), g_design=DesignSpec((0, 1)))
        with pytest.raises(ConfigError, match="absolute-deviation loss does not give the "
                                              "table's observed losses"):
            recipe.fit(table)
        with pytest.raises(ConfigError):
            recipe.fit_counts(table, np.ones((3, table.n)))

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
            p_design=DesignSpec((0,)), g_design=DesignSpec((0,)),
        )
        nuis = recipe.fit(table)
        b0 = nuis.b(0.0)
        assert b0.shape == (table.n,) and np.all(np.isfinite(b0))
        c0 = nuis.c(0.0)
        np.testing.assert_allclose(c0, 1.0, atol=1e-10)
        assert np.all(nuis.c(1.0) >= 1e-6)


FAR_ETAS = np.array([-40.0, -31.0, -30.0, -1.0, 0.0, 0.7, 30.0, 31.0, 40.0])


def stacked_case(counts_kind, basis, seed=31):
    """A continuous nested table of 40 rows, 20 of them source rows, six
    replicates' row counts of it (or the one full-table replicate) and
    their fits."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (40, 2))
    y = 0.5 + x[:, 0] - 0.5 * x[:, 1] + 0.3 * rng.normal(size=40)
    table = continuous_table(x[:20], y[:20], n_target=20, x_target=x[20:], pred=(0.4, 0.9))
    if counts_kind == "full":
        counts = np.ones((1, table.n))
    elif counts_kind == "jackknife":
        counts = np.ones((6, table.n)) - np.eye(6, table.n, 3)
    else:
        counts = rng.multinomial(table.n, np.full(table.n, 1.0 / table.n), size=6).astype(float)
    design = (DesignSpec((0, 1)) if basis == "linear"
              else DesignSpec((0, 1), basis="spline", degree=3, interior_knots=2))
    recipe = NuisanceRecipe(outcome="continuous", loss=ABSOLUTE, p_design=INTERCEPT_ONLY,
                            g_design=design)
    return table, counts, recipe.fit_counts(table, counts)


class TestNewtonStepHalving:
    @staticmethod
    def run(objective, step):
        # one coefficient from 0, whose Newton step ``step`` no halving accepts
        def derivs(items, x):
            return (np.ones((len(x), 1, 1)), np.full((len(x), 1), step),
                    np.full(len(x), nuisance._GOING))

        def merit(items, x):
            with np.errstate(over="ignore"):
                f = objective(x[:, 0])
            return f, np.abs(f)

        return nuisance._newton(np.zeros((1, 1)), derivs, 5, merit=merit)

    def test_step_raising_the_objective_stalls(self):
        reasons, iters = self.run(lambda t: 1.0 + t, 1.0)
        assert reasons.tolist() == [nuisance._STALLED] and iters.tolist() == [1]

    def test_step_overflowing_the_objective_at_every_halving_has_no_root(self):
        reasons, iters = self.run(np.exp, 1e30)
        assert reasons.tolist() == [nuisance._NO_ROOT] and iters.tolist() == [1]


class TestStackedSolve:
    """``NuisanceRows.solve`` fits b and c of many replicates and etas at
    once; every item must match the one-replicate weighted least squares
    of ``_wls_coefficients`` on the rows the replicate draws."""

    # at seed 33 a spline's D = d R^-1 rounds to 3e-10 in the bootstrap
    # coefficients, which the corrected step takes out
    @pytest.mark.parametrize("seed", (31, 33))
    @pytest.mark.parametrize("basis", ("linear", "spline"))
    @pytest.mark.parametrize("counts_kind", ("full", "jackknife", "bootstrap"))
    def test_items_match_one_replicate_solves(self, counts_kind, basis, seed, monkeypatch):
        table, counts, fits = stacked_case(counts_kind, basis, seed)
        live = [r for r in range(len(counts)) if fits.errors[r] is None]
        assert len(live) >= len(counts) - 1  # a bootstrap spline may lose rank
        if counts_kind == "bootstrap":  # rows drawn none, once and more than once
            assert (counts[:, table.source_rows] == 0).any(axis=1).all()
            assert (counts > 1).any()
        alone = []
        source_fit = NuisanceRows._source_fit

        def record(self, dT, r, eta, response=None):
            alone.extend(float(e) for e in np.ravel(eta))
            return source_fit(self, dT, r, eta, response)

        monkeypatch.setattr(NuisanceRows, "_source_fit", record)
        b, c, failed = fits.solve(FAR_ETAS[:, None], live)
        assert np.all(failed == None)  # noqa: E711
        # the tilt's spread sends the far etas, and only those, to the solve alone
        assert {abs(e) for e in alone} == {30.0, 31.0, 40.0}
        src = table.source_rows
        for g, r in enumerate(live):
            dT = fits._designs[r][0]
            rows = src[counts[r, src] > 0]
            cnt = counts[r, rows]
            for j, eta in enumerate(FAR_ETAS):
                t = tilt_weight(table.y[rows], TiltSpec(eta))
                ref_b = _wls_coefficients(dT[:, rows], table.loss[rows], cnt * t)
                ref_c = _wls_coefficients(dT[:, rows], t, cnt)
                for got, ref in ((b[g, j], ref_b), (c[g, j], ref_c)):
                    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), \
                        (counts_kind, basis, r, eta)

    def test_item_failing_the_check_is_solved_alone(self, monkeypatch):
        table, counts, fits = stacked_case("bootstrap", "linear")
        reps = list(range(len(counts)))
        assert all(exc is None for exc in fits.errors)
        eta = np.array([[-1.0], [0.0], [0.7]])
        b, c, _ = fits.solve(eta, reps)
        tilted_wls = nuisance._tilted_wls

        def fail_one(*args):
            beta, ok = tilted_wls(*args)
            ok[2, 1] = False
            return beta, ok

        monkeypatch.setattr(nuisance, "_tilted_wls", fail_one)
        b2, c2, failed = fits.solve(eta, reps)
        assert np.all(failed == None)  # noqa: E711
        src = table.source_rows
        rows = src[counts[2, src] > 0]
        dT = fits._designs[2][0]
        assert np.array_equal(b2[2, 1], _wls_coefficients(dT[:, rows], table.loss[rows],
                                                          counts[2, rows]))
        assert np.array_equal(c2[2, 1], _wls_coefficients(dT[:, rows], np.ones(rows.size),
                                                          counts[2, rows]))
        keep = np.ones(b.shape[:2], dtype=bool)
        keep[2, 1] = False
        assert np.array_equal(b2[keep], b[keep]) and np.array_equal(c2[keep], c[keep])
        assert np.max(np.abs(b2[2, 1] - b[2, 1])) <= 1e-12 * max(1.0, np.max(np.abs(b[2, 1])))

    def test_overflowing_row_fails_c_alone(self):
        # c has no solve to fail, so a drawn row whose tilt overflows must
        # send the item to the one-replicate solve, which raises
        x = np.linspace(-1.0, 1.0, 12).reshape(-1, 1)
        y = np.r_[800.0, np.linspace(0.0, 1.0, 11)]
        nuis = continuous_fit(continuous_table(x, y, n_target=2), DesignSpec((0,)))
        assert np.all(np.isfinite(nuis.c(0.5)))
        with pytest.raises(TiltOverflowError):
            nuis.c(1.0)
        with pytest.raises(TiltOverflowError):
            nuis.c(np.array([[0.5], [1.0]]))

    def test_values_do_not_depend_on_the_batch(self):
        table, counts, fits = stacked_case("bootstrap", "spline")
        live = [r for r in range(len(counts)) if fits.errors[r] is None]
        b, c, _ = fits.solve(FAR_ETAS[:, None], live)
        for g, r in enumerate(live):
            for j in (0, 4, 8):
                b1, c1, _ = fits.solve(FAR_ETAS[j:j + 1, None], [r])
                assert np.array_equal(b1[0, 0], b[g, j]) and np.array_equal(c1[0, 0], c[g, j])
