"""Tilt-kernel checks: hand-computed values, identities, and properties."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk.errors import DomainError, PositivityError, TiltOverflowError
from tiltrisk.tilt import (
    LossFunction,
    PredictionModel,
    TiltSpec,
    binary_b,
    binary_c,
    eval_loss,
    expit,
    selection_a,
    tilt_weight,
    tilted_bernoulli,
)

LN4 = math.log(4.0)

probs = st.floats(min_value=0.0, max_value=1.0)
inner_probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
etas = st.floats(min_value=-20.0, max_value=20.0)
losses = st.floats(min_value=0.0, max_value=10.0)


def expit_ulps(z):
    """|expit - scipy.special.expit| in units in the last place of the
    larger, where scipy's value is a normal float; raises on any warning."""
    z = np.asarray(z, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = expit(z)
    ref = scipy.special.expit(z)
    # below the smallest normal float both lose precision and reach zero
    # where e^{-z} overflows; only normal values are compared in ulps
    tiny = np.finfo(np.float64).tiny
    assert np.all((ref >= tiny) | (ours < tiny))
    normal = ref >= tiny
    return np.abs(ours - ref)[normal] / np.spacing(np.maximum(ours, ref)[normal])


class TestExpit:
    # both compute 1 / (1 + e^{-z}), each within 2.5 ulp of the exact value;
    # numpy's exp and the C library's differ in the last place, so the two
    # functions can be 4 ulp apart (seen in 2e8 draws)
    ULPS = 4

    @given(st.floats(min_value=-800.0, max_value=800.0))
    def test_matches_scipy(self, z):
        assert expit_ulps(z).max(initial=0.0) <= self.ULPS

    def test_matches_scipy_on_a_dense_grid(self):
        z = np.r_[np.linspace(-800.0, 800.0, 400_001), np.linspace(-2.0, 2.0, 400_001)]
        assert expit_ulps(z).max() <= self.ULPS

    def test_exact_values(self):
        out = expit(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert out[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
        assert np.isnan(out[4])


class TestTiltWeight:
    def test_no_tilt(self):
        assert tilt_weight(1.0, TiltSpec(0.0)) == 1.0

    def test_direct_exponentiation(self):
        assert tilt_weight(1.0, TiltSpec(LN4)) == pytest.approx(4.0, abs=1e-12)

    def test_zero_outcome_identity_q(self):
        assert tilt_weight(0.0, TiltSpec(LN4)) == 1.0

    def test_overflow_guard_reports_exponent(self):
        with pytest.raises(TiltOverflowError, match="exceeds"):
            tilt_weight(10.0, TiltSpec(100.0))

    def test_vectorized(self):
        w = tilt_weight(np.array([0.0, 1.0, 2.0]), TiltSpec(0.5))
        np.testing.assert_allclose(w, np.exp([0.0, 0.5, 1.0]))

    def test_custom_q(self):
        w = tilt_weight(4.0, TiltSpec(1.0, q=np.sqrt))
        assert w == pytest.approx(math.exp(2.0))


class TestTiltSpec:
    def test_eta_must_be_finite(self):
        with pytest.raises(DomainError):
            TiltSpec(float("inf"))

    def test_decreasing_q_rejected(self):
        spec = TiltSpec(1.0, q=lambda y: -y)
        with pytest.raises(DomainError, match="nondecreasing"):
            spec.validate_q(0.0, 1.0)

    def test_nondecreasing_q_accepted(self):
        TiltSpec(1.0, q=lambda y: np.floor(y)).validate_q(0.0, 5.0)


class TestTiltedBernoulli:
    def test_zero_tilt_preserves(self):
        assert tilted_bernoulli(0.3, 0.0) == 0.3

    def test_hand_value(self):
        # 0.8 / (0.8 + 0.8)
        assert tilted_bernoulli(0.2, LN4) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_unaffected(self):
        assert tilted_bernoulli(0.0, 5.0) == 0.0
        assert tilted_bernoulli(1.0, -5.0) == 1.0

    @given(g=probs)
    def test_zero_tilt_exact(self, g):
        assert tilted_bernoulli(g, 0.0) == g

    @given(g=inner_probs, eta=etas)
    def test_range(self, g, eta):
        t = tilted_bernoulli(g, eta)
        assert 0.0 < t < 1.0

    @given(g=inner_probs, eta=st.floats(min_value=-10, max_value=10))
    def test_strictly_increasing_in_eta(self, g, eta):
        assert tilted_bernoulli(g, eta + 0.25) > tilted_bernoulli(g, eta)

    def test_extreme_eta_stable(self):
        assert tilted_bernoulli(0.2, 500.0) == pytest.approx(1.0, abs=1e-12)
        assert tilted_bernoulli(0.2, -500.0) == pytest.approx(0.0, abs=1e-12)


class TestBinaryC:
    def test_zero_tilt(self):
        assert binary_c(0.5, 0.0) == 1.0

    def test_hand_value(self):
        assert binary_c(0.2, LN4) == pytest.approx(1.6, abs=1e-12)

    def test_degenerate_y1(self):
        assert binary_c(1.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)

    @given(g=probs)
    def test_zero_tilt_exact(self, g):
        assert binary_c(g, 0.0) == 1.0

    def test_overflow_guard(self):
        with pytest.raises(TiltOverflowError):
            binary_c(0.5, 800.0)


class TestBinaryB:
    def test_constant_loss(self):
        assert binary_b(0.25, 0.25, 0.5, 0.0) == 0.25

    def test_hand_value(self):
        # tilt g=0.2 to 0.5, then 0.5*0.81 + 0.5*0.01
        assert binary_b(0.81, 0.01, 0.2, LN4) == pytest.approx(0.41, abs=1e-12)

    def test_large_eta_limit(self):
        assert binary_b(0.81, 0.01, 0.5, 40.0) == pytest.approx(0.81, abs=1e-8)

    @given(l1=losses, l0=losses, g=probs)
    def test_zero_tilt_is_untilted_mean(self, l1, l0, g):
        assert binary_b(l1, l0, g, 0.0) == g * l1 + (1.0 - g) * l0

    @given(l1=losses, l0=losses, g=probs, eta=etas)
    def test_bounded_by_losses(self, l1, l0, g, eta):
        b = binary_b(l1, l0, g, eta)
        assert min(l0, l1) - 1e-12 <= b <= max(l0, l1) + 1e-12

    @given(l1=losses, l0=losses, g=inner_probs, eta=st.floats(min_value=-10, max_value=10))
    def test_monotone_toward_l1(self, l1, l0, g, eta):
        lo, hi = binary_b(l1, l0, g, eta), binary_b(l1, l0, g, eta + 0.5)
        if l1 > l0:
            assert hi >= lo
        elif l1 < l0:
            assert hi <= lo


class TestEtaColumn:
    """A (K, 1) eta column gives, row by row, exactly the one-eta values:
    the exact zero branch, the ratio form and the rearranged |eta| > 30
    branch side by side in one call."""

    ETAS = (-800.0, -40.0, -30.0, -1.0, 0.0, 0.7, 30.0, 31.0, 800.0)

    @pytest.mark.parametrize("fn", ("tilted_bernoulli", "binary_b", "binary_c"))
    def test_rows_equal_scalar_calls(self, fn):
        rng = np.random.default_rng(3)
        g = np.r_[0.0, 1.0, rng.uniform(0.0, 1.0, 6)]
        l1, l0 = rng.uniform(0.0, 1.0, (2, g.size))
        etas = self.ETAS if fn != "binary_c" else self.ETAS[:-1]  # exp(800) overflows
        call = {
            "tilted_bernoulli": lambda eta: tilted_bernoulli(g, eta),
            "binary_b": lambda eta: binary_b(l1, l0, g, eta),
            "binary_c": lambda eta: binary_c(g, eta),
        }[fn]
        grid = call(np.array(etas)[:, None])
        assert grid.shape == (len(etas), g.size)
        for row, eta in zip(grid, etas):
            assert np.array_equal(row, call(eta)), eta

    def test_overflow_names_the_largest_exponent(self):
        with pytest.raises(TiltOverflowError, match=r"exp\(800\)"):
            binary_c(0.5, np.array([[1.0], [800.0]]))
        with pytest.raises(TiltOverflowError, match="tilt exponent 800 "):
            tilt_weight(np.array([0.0, 1.0]), TiltSpec(np.array([[1.0], [800.0]])))


class TestSelectionA:
    def test_balanced_no_tilt(self):
        assert selection_a(0.5, 1.0) == 0.0

    def test_hand_values(self):
        assert selection_a(0.2, 1.6) == pytest.approx(math.log(2.5), abs=1e-12)
        assert selection_a(0.8, 1.0) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_positivity_violation(self):
        with pytest.raises(PositivityError):
            selection_a(0.0, 1.0)
        with pytest.raises(PositivityError):
            selection_a(1.0, 1.0)

    @given(p=st.floats(min_value=0.01, max_value=0.99),
           g=st.floats(min_value=0.05, max_value=0.95),
           eta=st.floats(min_value=-5, max_value=5),
           y=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=200)
    def test_parameterization_identity(self, p, g, eta, y):
        c = binary_c(g, eta)
        lhs = math.exp(selection_a(p, c) + eta * y)
        rhs = (1.0 - p) / p * math.exp(eta * y) / c
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestEvalLoss:
    def test_brier_perfect(self):
        assert eval_loss(LossFunction("brier"), 1.0, 1.0) == 0.0

    def test_brier_hand_value(self):
        assert eval_loss(LossFunction("brier"), 1.0, 0.1) == pytest.approx(0.81, abs=1e-15)

    def test_absolute(self):
        assert eval_loss(LossFunction("absolute-deviation"), 2.5, 1.0) == 1.5

    def test_brier_rejects_non_binary_y(self):
        with pytest.raises(DomainError):
            eval_loss(LossFunction("brier"), 0.5, 0.5)

    def test_brier_rejects_out_of_range_pred(self):
        with pytest.raises(DomainError):
            eval_loss(LossFunction("brier"), 1.0, 1.5)

    def test_squared_identity_zero(self):
        assert eval_loss(LossFunction("squared-error"), 3.0, 3.0) == 0.0

    def test_custom_hook(self):
        loss = LossFunction("custom", fn=lambda y, pred: (y - pred) ** 4)
        assert eval_loss(loss, 2.0, 1.0) == 1.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            LossFunction("hinge")


class TestNormalizationIdentities:
    """Discrete-outcome identities for the normalized tilt."""

    @given(eta=st.floats(min_value=-5, max_value=5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_tilted_probabilities_sum_to_one(self, eta, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        yvals = np.sort(rng.normal(size=k))
        w = np.exp(eta * yvals)
        tilted = w * p / np.sum(w * p)
        assert abs(tilted.sum() - 1.0) < 1e-12

    @given(eta=st.floats(min_value=-3, max_value=3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_ratio_identity_on_discrete_outcome(self, eta, seed):
        # tilted conditional mean by enumeration == E[L w]/E[w]
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        yvals = np.sort(rng.normal(size=k))
        lvals = rng.uniform(0, 2, k)
        w = np.exp(eta * yvals)
        direct = np.sum(lvals * w * p / np.sum(w * p))
        ratio = np.sum(lvals * w * p) / np.sum(w * p)
        assert abs(direct - ratio) < 1e-12


class TestPredictionModel:
    def test_logit_predictions_strictly_inside(self):
        m = PredictionModel(coefficients=(50.0,), xstar_columns=())
        p = m.predict(np.zeros((3, 2)))
        assert np.all(p < 1.0) and np.all(p > 0.0)

    def test_identity_link(self):
        m = PredictionModel(coefficients=(1.0, 2.0), link="identity", xstar_columns=(1,))
        np.testing.assert_allclose(m.predict(np.array([[9.0, 3.0]])), [7.0])

    def test_coefficient_width_checked(self):
        # against the selected columns when built, else on the matrix given
        with pytest.raises(DomainError, match="coefficient length 2 does not match 2"):
            PredictionModel(coefficients=(0.0, 1.0), xstar_columns=(0, 1))
        m = PredictionModel(coefficients=(0.0, 1.0))
        with pytest.raises(DomainError, match="coefficient length 2 does not match 2"):
            m.predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_coefficients_refused(self, bad):
        with pytest.raises(DomainError, match="must be finite"):
            PredictionModel(coefficients=(0.0, bad))

    def test_subset_selector(self):
        m = PredictionModel(coefficients=(0.0, 1.0), link="identity", xstar_columns=(2,))
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(m.predict(x), [3.0])
