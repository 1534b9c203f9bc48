"""Bootstrap and jackknife confidence intervals.

``bootstrap_ci`` and ``jackknife_ci`` treat the estimator as a black-box
closure over an ObservationTable, so nuisance models are refit inside
every replicate table.  ``replicate_counts`` gives the same replicates as
row-count vectors over the original table, which sensitivity curves fit
and sweep without building replicate tables.  Bootstrap replicates draw
from per-replicate substreams keyed by (seed, replicate index), making
results deterministic and independent of execution order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
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


def leave_one_out_failure(row: int, exc: Exception) -> NumericError:
    """The error of a jackknife whose leave-one-out table ``row`` failed."""
    return NumericError(f"leave-one-out estimator failed at row {row}: {exc}")


def check_usable(usable: int) -> None:
    """A bootstrap needs at least one replicate it could evaluate."""
    if usable == 0:
        raise NumericError("every bootstrap replicate failed")


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


def bootstrap_matrix(
    table: ObservationTable, fn: Callable, cfg: ResampleConfig
) -> tuple:
    """Apply ``fn`` to every bootstrap resample of the table.

    ``fn`` returns a float vector (or scalar).  A replicate where ``fn``
    fails numerically is recorded as a NaN row and counted; any other
    exception propagates.  Returns the (B, k) array and the failure count.
    """
    stratified = cfg.resolve_stratified(table)
    rows = []
    failed = 0
    width = None
    for b in range(cfg.replicates):
        idx = resample_indices(table, b, cfg.seed, stratified)
        try:
            val = np.atleast_1d(np.asarray(fn(table.take(idx)), dtype=np.float64))
            width = val.size
            rows.append(val)
        except NUMERIC_FAILURES:
            failed += 1
            rows.append(None)
    check_usable(cfg.replicates - failed)
    out = np.full((cfg.replicates, width), np.nan)
    for b, val in enumerate(rows):
        if val is not None:
            out[b] = val
    return out, failed


def bootstrap_ci(
    table: ObservationTable, estimator: Callable, cfg: ResampleConfig
) -> ResampleResult:
    """Bootstrap standard error and Wald interval for a scalar estimator.

    The point estimate is computed on the original table; the SE is the
    standard deviation of the replicate estimates.  More than 20% failed
    replicates is an error.
    """
    point = float(estimator(table))
    reps, failed = bootstrap_matrix(table, lambda t: float(estimator(t)), cfg)
    vals = reps[:, 0]
    ok = np.isfinite(vals)
    failed_total = cfg.replicates - int(ok.sum())
    if failed_total > 0.2 * cfg.replicates:
        raise NumericError(
            f"{failed_total} of {cfg.replicates} bootstrap replicates failed"
        )
    se = float(np.std(vals[ok], ddof=1))
    return ResampleResult(
        estimate=point,
        se=se,
        ci=wald_interval(point, se, cfg.level),
        method="bootstrap",
        replicates_used=int(ok.sum()),
        skipped=failed_total,
    )


def jackknife_matrix(table: ObservationTable, fn: Callable) -> np.ndarray:
    """Apply ``fn`` to every leave-one-out table; numeric failures name the
    row, any other exception propagates."""
    rows = []
    for i in range(jackknife_size(table)):
        try:
            rows.append(np.atleast_1d(np.asarray(fn(table.drop_row(i)), dtype=np.float64)))
        except NUMERIC_FAILURES as exc:
            raise leave_one_out_failure(i, exc) from exc
    return np.vstack(rows)


def jackknife_se(loo_values: np.ndarray) -> float:
    n = loo_values.shape[0]
    centered = loo_values - loo_values.mean()
    return float(np.sqrt((n - 1) / n * np.sum(centered**2)))


def jackknife_ci(
    table: ObservationTable, estimator: Callable, level: float = 0.95
) -> ResampleResult:
    """Leave-one-out standard error and Wald interval for a scalar estimator."""
    point = float(estimator(table))
    loo = jackknife_matrix(table, lambda t: float(estimator(t)))[:, 0]
    se = jackknife_se(loo)
    return ResampleResult(
        estimate=point,
        se=se,
        ci=wald_interval(point, se, level),
        method="jackknife",
        replicates_used=table.n,
    )
