"""Bootstrap and jackknife confidence intervals.

A replicate's estimates come from one of two engines.  The package's own
estimators get theirs from ``sensitivity_curve(..., resample=cfg)``,
which fits the replicates as row-count vectors over the original table
(``replicate_counts``) and sweeps them without building replicate tables.
``bootstrap_ci`` and ``jackknife_ci`` serve opaque callables: they build
each replicate table with ``take`` and call the estimator on it.  Both
turn their replicate estimates into standard errors by one rule set,
``standard_errors``.  Bootstrap replicates draw from per-replicate
substreams keyed by (seed, replicate index), making results deterministic
and independent of execution order.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np
# numpy loads its random module on first use; loaded here, it is part of the
# package import rather than of the first resampled analysis
import numpy.random  # noqa: F401

from .data import ObservationTable
from .errors import NUMERIC_FAILURES, DataError, DomainError, NumericError, require_number


@dataclass(frozen=True)
class ResampleConfig:
    """Resampling choices: method, replicate count, seed, stratification.

    ``stratified=None`` resolves by design: within-stratum resampling for
    non-nested tables (their strata sizes are fixed by construction),
    simple resampling for nested cohorts.
    """

    method: str = "bootstrap"
    replicates: int = 1000
    seed: Optional[int] = None
    stratified: Optional[bool] = None
    level: float = 0.95

    def __post_init__(self):
        if self.method not in ("bootstrap", "jackknife"):
            raise DomainError(f"method must be 'bootstrap' or 'jackknife', got {self.method!r}")
        replicates = require_number(self.replicates, "replicates", numbers.Integral)
        if self.method == "bootstrap" and replicates < 2:
            raise DomainError("bootstrap needs at least 2 replicates")
        if not 0.0 < require_number(self.level, "ci level") < 1.0:
            raise DomainError("ci level must be in (0, 1)")
        if self.seed is not None:
            require_number(self.seed, "seed", numbers.Integral)
        elif self.method == "bootstrap":
            raise DomainError("bootstrap requires an explicit seed")
        if self.stratified is not None and not isinstance(self.stratified, bool):
            raise DomainError(f"stratified must be true, false or null, got {self.stratified!r}")

    def resolve_stratified(self, table: ObservationTable) -> bool:
        if self.stratified is not None:
            return self.stratified
        return table.design == "non-nested"


@dataclass(frozen=True)
class ResampleResult:
    estimate: float
    se: float
    ci: tuple
    method: str
    replicates_used: int
    skipped: int = 0


def z_quantile(level: float) -> float:
    return NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)


def wald_interval(estimate: float, se: float, level: float) -> tuple:
    z = z_quantile(level)
    return (estimate - z * se, estimate + z * se)


def resample_indices(
    table: ObservationTable, rep_index: int, seed: int, stratified: bool
) -> np.ndarray:
    """Row indices for one bootstrap replicate (with replacement).

    Stratified draws keep both strata at their original sizes.  The
    substream is keyed by (seed, rep_index) alone, so replicate r is the
    same no matter how many replicates run or in what order.
    """
    rng = np.random.default_rng((int(seed), int(rep_index)))
    if not stratified:
        return rng.integers(0, table.n, table.n)
    src, tgt = table.source_rows, table.target_rows
    picks = [src[rng.integers(0, src.size, src.size)]]
    if tgt.size:
        picks.append(tgt[rng.integers(0, tgt.size, tgt.size)])
    return np.concatenate(picks)


def jackknife_size(table: ObservationTable) -> int:
    """Number of leave-one-out replicates: one per row, at least 3."""
    if table.n < 3:
        raise DataError("jackknife needs at least 3 rows")
    return table.n


def replicate_counts(table: ObservationTable, cfg: ResampleConfig, reps) -> np.ndarray:
    """Row counts of the replicates ``reps``, one (n,) float row each.

    A bootstrap replicate counts how often ``resample_indices`` draws each
    row; jackknife replicate i holds every row once except row i.
    """
    if cfg.method == "bootstrap":
        stratified = cfg.resolve_stratified(table)
        return np.array([np.bincount(resample_indices(table, r, cfg.seed, stratified),
                                     minlength=table.n) for r in reps], dtype=np.float64)
    reps = np.asarray(reps, dtype=np.intp)
    out = np.ones((reps.size, table.n))
    out[np.arange(reps.size), reps] = 0.0
    return out


def table_matrix(table: ObservationTable, fn: Callable, cfg: ResampleConfig) -> tuple:
    """Apply ``fn`` to every replicate table: ``take`` of bootstrap draw r,
    or the table without row r for the jackknife.

    ``fn`` returns a float vector (or scalar).  Returns the (R, k)
    estimates, NaN where a replicate failed, and the reason of each
    failure: the class of the numeric failure ``fn`` raised, or
    'non-finite'.  Any other exception propagates.
    """
    if cfg.method == "bootstrap":
        stratified = cfg.resolve_stratified(table)
        tables = (table.take(resample_indices(table, r, cfg.seed, stratified))
                  for r in range(cfg.replicates))
    else:
        tables = (table.drop_row(i) for i in range(jackknife_size(table)))
    values, raised = [], {}
    for r, t in enumerate(tables):
        try:
            values.append(np.asarray(fn(t), dtype=np.float64))
        except NUMERIC_FAILURES as exc:
            values.append(np.nan)
            raised[r] = type(exc).__name__
    width = max(np.size(v) for v in values)
    est = np.array([np.broadcast_to(v, width) for v in values])
    why = np.where(np.isfinite(est), None, "non-finite")
    for r, name in raised.items():
        why[r] = name
    return est, why


def _failure_counts(names) -> str:
    """' (Class: count, ...)' for the failure names of a column's replicates."""
    counts = Counter(names)
    return " (" + ", ".join(f"{name}: {counts[name]}" for name in sorted(counts)) + ")"


def standard_errors(est: np.ndarray, why: np.ndarray, method: str) -> list:
    """(se, note) for every column of the (R, K) replicate estimates ``est``,
    NaN where a replicate failed with the reason in ``why``.

    A bootstrap SE is the standard deviation of the replicates that did not
    fail; more than 20% failed leaves it unavailable (None).  A jackknife SE
    needs every leave-one-out replicate.  The note counts the failures by
    reason.
    """
    n_reps = est.shape[0]
    out = []
    for col, reasons in zip(est.T, why.T):
        ok = np.isfinite(col)
        failed = n_reps - int(ok.sum())
        counts = _failure_counts(reasons[~ok])
        if method == "bootstrap" and failed > 0.2 * n_reps:
            out.append((None, f"ci unavailable: {failed} of {n_reps} replicates failed{counts}"))
        elif method == "bootstrap":
            out.append((float(np.std(col[ok], ddof=1)),
                        f"{failed} replicates skipped{counts}" if failed else None))
        elif failed:
            row = int(np.flatnonzero(~ok)[0])
            out.append((None, f"ci unavailable: leave-one-out estimate failed at row {row}{counts}"))
        else:
            centered = col - col.mean()
            out.append((float(np.sqrt((n_reps - 1) / n_reps * np.sum(centered**2))), None))
    return out


def _closure_ci(table: ObservationTable, estimator: Callable,
                cfg: ResampleConfig) -> ResampleResult:
    point = float(estimator(table))
    est, why = table_matrix(table, lambda t: float(estimator(t)), cfg)
    [(se, note)] = standard_errors(est, why, cfg.method)
    if se is None:
        raise NumericError(note)
    used = int(np.isfinite(est).sum())
    return ResampleResult(estimate=point, se=se, ci=wald_interval(point, se, cfg.level),
                          method=cfg.method, replicates_used=used, skipped=est.shape[0] - used)


def bootstrap_ci(
    table: ObservationTable, estimator: Callable, cfg: ResampleConfig
) -> ResampleResult:
    """Bootstrap standard error and Wald interval for a scalar estimator.

    The point estimate is computed on the original table; the SE is the
    standard deviation of the replicate estimates.  More than 20% failed
    replicates is a NumericError carrying the note a sensitivity curve
    gives.
    """
    return _closure_ci(table, estimator, replace(cfg, method="bootstrap"))


def jackknife_ci(
    table: ObservationTable, estimator: Callable, level: float = 0.95
) -> ResampleResult:
    """Leave-one-out standard error and Wald interval for a scalar estimator.

    Every leave-one-out table is evaluated; any failure is a NumericError
    naming the first failed row."""
    return _closure_ci(table, estimator, ResampleConfig(method="jackknife", level=level))
