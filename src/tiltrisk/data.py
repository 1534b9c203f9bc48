"""Observed-data container.

An ObservationTable holds the combined sample: population indicator s
(1 = source, 0 = target), covariates x, outcomes y (present only for
source rows), the design flag, and cached model predictions and losses.
Tables are immutable; ``take`` builds new tables from row indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DataError
from .tilt import LossFunction, PredictionModel, eval_loss

DESIGNS = ("nested", "non-nested")


@dataclass(frozen=True)
class ObservationTable:
    s: np.ndarray            # (n,) in {0, 1}
    x: np.ndarray            # (n, d) covariates
    y: np.ndarray            # (n,) outcomes, NaN where s = 0
    design: str              # "nested" or "non-nested"
    pred: np.ndarray         # (n,) cached h(x*)
    loss: np.ndarray         # (n,) cached L(y, pred), NaN where s = 0
    loss1: Optional[np.ndarray] = None   # L(1, pred), binary outcomes only
    loss0: Optional[np.ndarray] = None   # L(0, pred), binary outcomes only

    def __post_init__(self):
        s = np.asarray(self.s)
        if s.ndim != 1 or not np.all(np.isin(s, (0, 1))):
            raise DataError("s must be a 1-d array of 0/1 indicators")
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != s.shape[0]:
            raise DataError("x must be a 2-d array with one row per observation")
        check_finite(x)
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != s.shape:
            raise DataError("y must align with s")
        if self.design not in DESIGNS:
            raise DataError(f"design must be one of {DESIGNS}, got {self.design!r}")
        if np.any(np.isnan(y[s == 1])):
            bad = int(np.where((s == 1) & np.isnan(y))[0][0])
            raise DataError(f"source row {bad} is missing its outcome")
        check_strata(int(np.sum(s == 1)), int(np.sum(s == 0)), self.design)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @cached_property
    def n1(self) -> int:
        return int(np.sum(self.s == 1))

    @cached_property
    def n0(self) -> int:
        return int(np.sum(self.s == 0))

    @cached_property
    def source_rows(self) -> np.ndarray:
        """Indices of the source rows (s = 1)."""
        return np.flatnonzero(self.s == 1)

    @cached_property
    def source_losses(self) -> np.ndarray:
        """The observed losses on the source rows, read-only."""
        losses = self.loss.take(self.source_rows)
        losses.flags.writeable = False
        return losses

    @cached_property
    def target_rows(self) -> np.ndarray:
        """Indices of the target rows (s = 0)."""
        return np.flatnonzero(self.s == 0)

    @property
    def has_binary_losses(self) -> bool:
        return self.loss1 is not None and self.loss0 is not None

    def take(self, indices) -> "ObservationTable":
        """New table holding rows ``indices`` (with repetition allowed): the
        replicate tables of ``bootstrap_ci`` and ``jackknife_ci``, which serve
        opaque estimators (the package's own resample as row counts)."""
        idx = np.asarray(indices, dtype=np.intp)
        return replace(
            self,
            s=self.s[idx],
            x=self.x[idx],
            y=self.y[idx],
            pred=self.pred[idx],
            loss=self.loss[idx],
            loss1=None if self.loss1 is None else self.loss1[idx],
            loss0=None if self.loss0 is None else self.loss0[idx],
        )

    def drop_row(self, i: int) -> "ObservationTable":
        """Leave-one-out table without row i."""
        keep = np.ones(self.n, dtype=bool)
        keep[i] = False
        return self.take(np.where(keep)[0])


def check_finite(x: np.ndarray) -> None:
    """Raise DataError naming the first non-finite covariate cell of x."""
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise DataError(f"row {i}: covariate {j} is {x[i, j]}, not a finite number")


def check_strata(n1: float, n0: float, design: str) -> None:
    """Raise DataError when a table, or a count-weighted replicate of one,
    with n1 source and n0 target rows cannot be analysed."""
    if n1 == 0:
        raise DataError("table has no source rows (s = 1)")
    # a nested cohort may consist entirely of source rows; a non-nested
    # table needs a separately sampled target stratum
    if n0 == 0 and design == "non-nested":
        raise DataError("non-nested table has no target rows (s = 0)")


def build_table(
    s,
    x,
    y,
    model: PredictionModel,
    loss: LossFunction,
    design: str,
) -> ObservationTable:
    """Assemble a table, caching predictions and losses.

    Outcomes supplied on target rows are masked to NaN (they are not part
    of the observed data); under a Brier loss a source outcome other than
    0 or 1 is a DataError.  For binary-outcome losses the per-row losses
    at y = 1 and y = 0 are cached as well, since the closed-form nuisances
    need them at every row.
    """
    s = np.asarray(s, dtype=np.int64)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).copy()
    y[s == 0] = np.nan
    src = s == 1
    missing = src & np.isnan(y)
    if np.any(missing):
        raise DataError(f"source row {int(np.flatnonzero(missing)[0])} is missing its outcome")
    if loss.is_binary_outcome:
        (bad,) = np.nonzero(src & (y != 0.0) & (y != 1.0))
        if bad.size:
            raise DataError(f"source row {int(bad[0])} has outcome {float(y[bad[0]])!r}; "
                            "a Brier loss needs binary outcomes (0 or 1)")
    check_finite(x)   # before the model sees x

    pred = model.predict(x)
    loss_obs = np.full(s.shape, np.nan)
    if np.any(src):
        loss_obs[src] = eval_loss(loss, y[src], pred[src])

    loss1 = loss0 = None
    if loss.is_binary_outcome:
        loss1 = eval_loss(loss, np.ones_like(pred), pred)
        loss0 = eval_loss(loss, np.zeros_like(pred), pred)

    return ObservationTable(
        s=s, x=x, y=y, design=design, pred=pred, loss=loss_obs,
        loss1=loss1, loss0=loss0,
    )
