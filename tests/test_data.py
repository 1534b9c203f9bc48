"""ObservationTable invariants and resampling helpers."""

from dataclasses import replace

import numpy as np
import pytest

from tiltrisk.data import build_table
from tiltrisk.errors import DataError
from tiltrisk.tilt import LossFunction, PredictionModel

BRIER = LossFunction("brier")
MODEL = PredictionModel(coefficients=(0.0, 0.5), xstar_columns=(0,))


def simple(s, y=None, design="non-nested"):
    s = np.asarray(s, dtype=int)
    x = np.linspace(-1, 1, s.size).reshape(-1, 1)
    if y is None:
        y = np.where(s == 1, 1.0, np.nan)
    return build_table(s, x, y, MODEL, BRIER, design)


class TestInvariants:
    def test_source_row_needs_outcome(self):
        with pytest.raises(DataError, match="row 1"):
            simple([1, 1, 0], y=[1.0, np.nan, np.nan])

    def test_target_outcomes_masked(self):
        t = simple([1, 0], y=[1.0, 0.0])
        assert np.isnan(t.y[1])

    def test_needs_source_rows(self):
        with pytest.raises(DataError, match="source"):
            simple([0, 0, 0])

    def test_non_nested_needs_target_rows(self):
        with pytest.raises(DataError, match="target"):
            simple([1, 1, 1], design="non-nested")

    def test_nested_cohort_may_be_all_source(self):
        t = simple([1, 1, 1], design="nested")
        assert t.n0 == 0 and t.n1 == 3

    def test_counts(self):
        t = simple([1, 1, 0, 0, 0])
        assert (t.n, t.n1, t.n0) == (5, 2, 3)

    def test_bad_s_values(self):
        with pytest.raises(DataError):
            simple([1, 2, 0])

    def test_brier_needs_binary_source_outcomes(self):
        with pytest.raises(DataError, match="source row 1 has outcome 0.5"):
            simple([1, 1, 0], y=[1.0, 0.5, np.nan])

    def test_binary_loss_caches(self):
        t = simple([1, 0])
        np.testing.assert_allclose(t.loss1 + t.loss0, (1 - t.pred) ** 2 + t.pred**2)

    def test_loss_cached_only_for_source(self):
        t = simple([1, 0])
        assert np.isfinite(t.loss[0]) and np.isnan(t.loss[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariate(self, bad):
        # named before the model sees it: inf * 0 in its linear predictor warns
        model = PredictionModel(coefficients=(0.1, 0.0, 0.5))
        x = np.zeros((4, 2))
        x[2, 0] = bad
        with pytest.raises(DataError, match=f"row 2: covariate 0 is {bad}"):
            build_table([1, 1, 0, 0], x, [1.0, 0.0, np.nan, np.nan], model, BRIER, "non-nested")
        t = simple([1, 1, 0, 0])
        with pytest.raises(DataError, match=f"row 3: covariate 0 is {bad}"):
            replace(t, x=np.where(np.arange(4)[:, None] == 3, bad, t.x))


class TestTakeDrop:
    def test_take_with_repetition(self):
        t = simple([1, 1, 0, 0])
        sub = t.take([0, 0, 3, 2])
        assert sub.n == 4 and sub.n1 == 2
        np.testing.assert_allclose(sub.x[0], sub.x[1])

    def test_drop_row(self):
        t = simple([1, 1, 0, 0])
        sub = t.drop_row(1)
        assert sub.n == 3 and sub.n1 == 1

    def test_take_preserves_caches(self):
        t = simple([1, 1, 0, 0])
        sub = t.take([1, 2, 3])
        np.testing.assert_allclose(sub.loss1, t.loss1[[1, 2, 3]])
