"""Resampling checks: determinism, closed-form SE oracles and the rules of
``standard_errors``, on count-weighted replicates of a column mean.

Whether the count path refits and sweeps a replicate as the table it
stands for would give is checked against ``take`` refits in
``test_replicates.py`` (``test_weighted_replicates_match_take_refits``,
1e-10 per replicate); the failure notes of real estimators there too
(``TestFailureNotes``)."""

import numpy as np
import pytest
import scipy.special

from tiltrisk.data import build_table
from tiltrisk.errors import DataError, DomainError
from tiltrisk.resampling import (
    ResampleConfig,
    jackknife_size,
    replicate_counts,
    resample_indices,
    standard_errors,
    wald_interval,
    z_quantile,
)
from tiltrisk.tilt import PredictionModel

from conftest import BRIER, random_binary_table

JACKKNIFE = ResampleConfig(method="jackknife")


def column_mean(table):
    return float(table.x[:, 0].mean())


def counted_means(table, cfg):
    """(R, 1) count-weighted means of x[:, 0], one per replicate of ``cfg``."""
    reps = range(cfg.replicates if cfg.method == "bootstrap" else jackknife_size(table))
    counts = replicate_counts(table, cfg, reps)
    return (counts @ table.x[:, :1]) / counts.sum(axis=1, keepdims=True)


def counted_se(table, cfg, est=None, why=None):
    """(se, note) of ``standard_errors`` on the replicates' column means,
    or on ``est`` with failure reasons ``why``."""
    est = counted_means(table, cfg) if est is None else est
    why = np.full(est.shape, None, dtype=object) if why is None else why
    [(se, note)] = standard_errors(est, why, cfg.method)
    return se, note


def failed(est, rows, reason):
    """``est`` and its failure reasons with ``rows`` failed by ``reason``."""
    est, why = est.copy(), np.full(est.shape, None, dtype=object)
    est[rows], why[rows] = np.nan, reason
    return est, why


def make_marked_table(rng, n=500):
    x = rng.normal(size=(n, 2))
    x[:, 0] = rng.normal(loc=np.where(np.arange(n) < n // 2, 0.0, 1.0), scale=1.0)
    s = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
    y = np.where(s == 1, (rng.random(n) < 0.5).astype(float), np.nan)
    model = PredictionModel(coefficients=(0.0, 0.0, 0.0), xstar_columns=(0, 1))
    return build_table(s, x, y, model, BRIER, "non-nested")


class TestBootstrap:
    def test_zero_variance_strata(self):
        # all rows identical within each stratum -> every resample has the
        # same mean -> se collapses to zero
        s = np.r_[np.ones(5, dtype=int), np.zeros(5, dtype=int)]
        x = np.r_[np.tile([[1.0]], (5, 1)), np.tile([[2.0]], (5, 1))]
        y = np.where(s == 1, 1.0, np.nan)
        model = PredictionModel(coefficients=(0.0, 0.3), xstar_columns=(0,))
        table = build_table(s, x, y, model, BRIER, "non-nested")
        se, note = counted_se(table, ResampleConfig(replicates=50, seed=3))
        assert se == 0.0 and note is None
        point = column_mean(table)
        assert wald_interval(point, se, 0.95) == (point, point)

    def test_seed_determinism(self, rng):
        table = make_marked_table(rng)
        cfg = ResampleConfig(replicates=40, seed=77)
        assert np.array_equal(counted_means(table, cfg), counted_means(table, cfg))

    def test_matches_closed_form_stratified_se(self, rng):
        table = make_marked_table(rng, n=500)
        se, _ = counted_se(table, ResampleConfig(replicates=4000, seed=5, stratified=True))
        col = table.x[:, 0]
        src = table.s == 1
        n = table.n
        var = (src.sum() * col[src].var() + (~src).sum() * col[~src].var()) / n**2
        closed = float(np.sqrt(var))
        assert se == pytest.approx(closed, rel=0.15)

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
        se, _ = counted_se(table, ResampleConfig(replicates=60, seed=2))
        lo, hi = wald_interval(column_mean(table), se, 0.95)
        assert lo < column_mean(table) < hi

    def test_failed_replicates_skipped_and_counted(self, rng):
        # replicates 0..lost-1 fail, the first four of them non-finite:
        # 10 of 50 is within the 20% rule, 11 of 50 is not
        table = make_marked_table(rng, n=60)
        cfg = ResampleConfig(replicates=50, seed=21)
        means = counted_means(table, cfg)

        def lose(lost):
            est, why = failed(means, slice(4, lost), "DomainError")
            est[:4], why[:4] = np.nan, "non-finite"
            return counted_se(table, cfg, est, why)

        se, note = lose(10)
        assert se == float(np.std(means[10:, 0], ddof=1))
        assert note == "10 replicates skipped (DomainError: 6, non-finite: 4)"
        assert lose(11) == (
            None, "ci unavailable: 11 of 50 replicates failed (DomainError: 7, non-finite: 4)")

    def test_all_failures_error(self, rng):
        table = make_marked_table(rng, n=40)
        cfg = ResampleConfig(replicates=20, seed=4)
        est, why = failed(counted_means(table, cfg), slice(None), "DomainError")
        assert counted_se(table, cfg, est, why) == (
            None, "ci unavailable: 20 of 20 replicates failed (DomainError: 20)")

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
        eight = replicate_counts(table, ResampleConfig(replicates=8, seed=11), range(8))
        sixteen = replicate_counts(table, ResampleConfig(replicates=16, seed=11), range(16))
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
        assert counted_se(table, JACKKNIFE, np.full((table.n, 1), 42.0)) == (0.0, None)

    def test_sample_mean_classical_identity(self, rng):
        table = make_marked_table(rng, n=60)
        se, _ = counted_se(table, JACKKNIFE)
        col = table.x[:, 0]
        classical = float(col.std(ddof=1) / np.sqrt(col.size))
        assert se == pytest.approx(classical, rel=1e-10)

    def test_too_small(self, rng):
        table = random_binary_table(rng, n=10)
        tiny = table.take([0, int(np.flatnonzero(table.s == 0)[0])])
        with pytest.raises(DataError):
            jackknife_size(tiny)

    def test_failure_names_row(self, rng):
        table = random_binary_table(rng, n=12)
        est, why = failed(counted_means(table, JACKKNIFE), [3], "DomainError")
        se, note = counted_se(table, JACKKNIFE, est, why)
        assert se is None and "row 3" in note

    def test_failure_counts_every_row(self, rng):
        # the note names the first failed row and counts every failure
        table = random_binary_table(rng, n=12)
        est, why = failed(counted_means(table, JACKKNIFE), [3, 7], "DomainError")
        assert counted_se(table, JACKKNIFE, est, why) == (
            None, "ci unavailable: leave-one-out estimate failed at row 3 (DomainError: 2)")

    def test_ci_contains_point(self, rng):
        table = make_marked_table(rng, n=40)
        se, _ = counted_se(table, JACKKNIFE)
        lo, hi = wald_interval(column_mean(table), se, 0.95)
        assert lo < column_mean(table) < hi


@pytest.mark.parametrize("level", (0.8, 0.9, 0.95, 0.99))
def test_z_quantile_matches_scipy(level):
    ref = float(scipy.special.ndtri(1.0 - (1.0 - level) / 2.0))
    assert abs(z_quantile(level) - ref) <= 1e-15 * ref
