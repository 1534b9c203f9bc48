"""Resampling checks: determinism, closed-form SE oracles, failure handling."""

import numpy as np
import pytest

from tiltrisk.data import build_table
from tiltrisk.errors import DataError, DomainError, NumericError
from tiltrisk.resampling import (
    ResampleConfig,
    bootstrap_ci,
    bootstrap_matrix,
    jackknife_ci,
    resample_indices,
)
from tiltrisk.tilt import LossFunction, PredictionModel

from conftest import BRIER, random_binary_table


def column_mean(table):
    return float(table.x[:, 0].mean())


def make_marked_table(rng, n=500):
    x = rng.normal(size=(n, 2))
    x[:, 0] = rng.normal(loc=np.where(np.arange(n) < n // 2, 0.0, 1.0), scale=1.0)
    s = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
    y = np.where(s == 1, (rng.random(n) < 0.5).astype(float), np.nan)
    model = PredictionModel(coefficients=(0.0, 0.0, 0.0), xstar_columns=(0, 1))
    return build_table(s, x, y, model, BRIER, "non-nested")


class TestBootstrap:
    def test_zero_variance_strata(self):
        # all rows identical within each stratum -> every resample is the
        # same table -> se collapses to zero
        s = np.r_[np.ones(5, dtype=int), np.zeros(5, dtype=int)]
        x = np.r_[np.tile([[1.0]], (5, 1)), np.tile([[2.0]], (5, 1))]
        y = np.where(s == 1, 1.0, np.nan)
        model = PredictionModel(coefficients=(0.0, 0.3), xstar_columns=(0,))
        table = build_table(s, x, y, model, BRIER, "non-nested")
        cfg = ResampleConfig(replicates=50, seed=3)
        out = bootstrap_ci(table, column_mean, cfg)
        assert out.se == 0.0
        assert out.ci[0] == out.ci[1] == out.estimate

    def test_seed_determinism(self, rng):
        table = make_marked_table(rng)
        cfg = ResampleConfig(replicates=40, seed=77)
        a = bootstrap_ci(table, column_mean, cfg)
        b = bootstrap_ci(table, column_mean, cfg)
        assert a.se == b.se and a.ci == b.ci

    def test_matches_closed_form_stratified_se(self, rng):
        table = make_marked_table(rng, n=500)
        cfg = ResampleConfig(replicates=4000, seed=5, stratified=True)
        out = bootstrap_ci(table, column_mean, cfg)
        col = table.x[:, 0]
        src = table.s == 1
        n = table.n
        var = (src.sum() * col[src].var() + (~src).sum() * col[~src].var()) / n**2
        closed = float(np.sqrt(var))
        assert out.se == pytest.approx(closed, rel=0.15)

    def test_stratified_preserves_strata_sizes(self, rng):
        table = random_binary_table(rng, n=100)
        for b in range(20):
            idx = resample_indices(table, b, seed=9, stratified=True)
            sub = table.take(idx)
            assert sub.n1 == table.n1 and sub.n0 == table.n0

    def test_substreams_keyed_by_replicate_index(self, rng):
        table = random_binary_table(rng, n=50)
        i5 = resample_indices(table, 5, seed=1, stratified=False)
        # same replicate index gives the same rows regardless of how many
        # other replicates were drawn before it
        assert np.array_equal(i5, resample_indices(table, 5, seed=1, stratified=False))
        assert not np.array_equal(i5, resample_indices(table, 6, seed=1, stratified=False))

    def test_ci_contains_point(self, rng):
        table = make_marked_table(rng, n=120)
        out = bootstrap_ci(table, column_mean, ResampleConfig(replicates=60, seed=2))
        assert out.ci[0] <= out.estimate <= out.ci[1]

    def test_failed_replicates_skipped_and_counted(self, rng):
        table = make_marked_table(rng, n=60)

        def flaky(t):
            if t.x[:, 1].mean() > 0.02:
                raise DomainError("synthetic failure")
            return column_mean(t)

        flaky(table)  # the point estimate itself must be computable
        cfg = ResampleConfig(replicates=50, seed=21)
        try:
            out = bootstrap_ci(table, flaky, cfg)
            assert out.skipped >= 0
        except NumericError as exc:
            assert "replicates failed" in str(exc)

    def test_all_failures_error(self, rng):
        table = make_marked_table(rng, n=40)
        calls = {"n": 0}

        def estimator(t):
            calls["n"] += 1
            if calls["n"] == 1:
                return 0.0  # point estimate succeeds
            raise DomainError("boom")

        with pytest.raises(NumericError):
            bootstrap_ci(table, estimator, ResampleConfig(replicates=20, seed=4))

    def test_seed_required(self):
        with pytest.raises(DomainError):
            ResampleConfig(replicates=10)

    def test_min_replicates(self):
        with pytest.raises(DomainError):
            ResampleConfig(replicates=1, seed=0)


class TestSubstreams:
    """Replicate r draws from the substream (seed, r) alone."""

    def test_fewer_replicates_are_a_prefix(self, rng):
        table = make_marked_table(rng, n=40)

        def means(t):
            return t.x.mean(axis=0)

        eight, _ = bootstrap_matrix(table, means, ResampleConfig(replicates=8, seed=11))
        sixteen, _ = bootstrap_matrix(table, means, ResampleConfig(replicates=16, seed=11))
        assert np.array_equal(eight, sixteen[:8])

    @pytest.mark.parametrize("stratified", (False, True))
    def test_draw_order_does_not_matter(self, rng, stratified):
        table = random_binary_table(rng, n=30)
        forward = [resample_indices(table, r, 21, stratified) for r in range(8)]
        backward = [resample_indices(table, r, 21, stratified) for r in reversed(range(8))]
        for a, b in zip(forward, reversed(backward)):
            assert np.array_equal(a, b)


class TestJackknife:
    def test_constant_estimator(self, rng):
        table = random_binary_table(rng, n=20)
        out = jackknife_ci(table, lambda t: 42.0)
        assert out.se == 0.0

    def test_sample_mean_classical_identity(self, rng):
        table = make_marked_table(rng, n=60)
        out = jackknife_ci(table, column_mean)
        col = table.x[:, 0]
        classical = float(col.std(ddof=1) / np.sqrt(col.size))
        assert out.se == pytest.approx(classical, rel=1e-10)

    def test_too_small(self, rng):
        table = random_binary_table(rng, n=10)
        tiny = table.take([0, int(np.flatnonzero(table.s == 0)[0])])
        with pytest.raises(DataError):
            jackknife_ci(tiny, column_mean)

    def test_failure_names_row(self, rng):
        table = random_binary_table(rng, n=12)
        marker = table.x[3, 0]

        def estimator(t):
            if marker not in t.x[:, 0]:
                raise DomainError("lost the marked row")
            return 0.0

        with pytest.raises(NumericError, match="row 3"):
            jackknife_ci(table, estimator)

    def test_ci_contains_point(self, rng):
        table = make_marked_table(rng, n=40)
        out = jackknife_ci(table, column_mean)
        assert out.ci[0] <= out.estimate <= out.ci[1]
