"""Target-population risk estimators under the exponential tilt model.

Non-nested designs estimate the risk among target rows (phi); nested
designs estimate the cohort-wide risk (psi).  Every estimator is one sum
of per-row terms at the nuisance values on the table's rows:

    r = b                   on target rows,
    r = w (L - b)           on source rows (non-nested),
    r = L + w (L - b)       on source rows (nested),

with the source weight w = 0 for the plug-in ``cl``, the inverse odds
(1-p)/p * e^{eta q(y)} / c for the augmented ``aug`` and e^{a + eta q(y)}
for the selection-offset ``aug-alt``.  The estimate is sum(r)/n0
(non-nested) or sum(r)/n (nested); the same terms give the per-row
influence values behind the sandwich standard error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import ObservationTable
from .errors import NUMERIC_FAILURES, ConfigError
from .nuisance import NuisanceSet
from .tilt import TiltSpec, tilt_weight

_CLIP_TOL = 1e-12

# A grid block holds max(1, _BLOCK_CELLS // n) points, so its (K, n) arrays
# stay near 2^16 cells; large tables go one point at a time.
_BLOCK_CELLS = 2**16

ESTIMATOR_NAMES = ("cl", "aug", "aug-alt")


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate at one eta, with optional uncertainty and diagnostics."""

    eta: float
    estimate: float
    method: str
    se: Optional[float] = None
    ci: Optional[tuple] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ci is not None:
            lo, hi = self.ci
            if not (lo <= self.estimate <= hi):
                raise ValueError("confidence interval must contain the estimate")

    def with_interval(self, se: float, ci: tuple) -> "EstimateResult":
        return EstimateResult(
            eta=self.eta, estimate=self.estimate, method=self.method,
            se=se, ci=ci, diagnostics=dict(self.diagnostics),
        )


@dataclass(frozen=True)
class InfluenceValues:
    """Per-row influence contributions around a plugged-in estimate."""

    values: np.ndarray
    mean: float
    plugged: float
    se: float


def _check_estimator(name: str) -> None:
    if name not in ESTIMATOR_NAMES:
        raise ConfigError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")


def _clip_diagnostics(p_src: np.ndarray, nuis: NuisanceSet) -> dict:
    # only fitted sets clip p; hand-built sets (e.g. p = 1 test mode)
    # carry no bounds and report no clipping
    if "p_clip" not in nuis.meta or p_src.size == 0:
        return {"clip_count": 0}
    lo, hi = nuis.meta["p_clip"]
    at_bound = (p_src <= lo + _CLIP_TOL) | (p_src >= hi - _CLIP_TOL)
    diag = {"clip_count": int(at_bound.sum())}
    if at_bound.mean() > 0.5:
        diag["positivity_warning"] = True
    return diag


def _source_weights(table: ObservationTable, nuis: NuisanceSet, eta: np.ndarray,
                    estimator: str, src: np.ndarray) -> tuple:
    """Source-row weights of ``aug`` or ``aug-alt``, (K, n1) at a (K, 1) eta,
    and the eta-free clip diagnostics."""
    tilt = tilt_weight(table.y[src], TiltSpec(eta, nuis.q))
    if estimator == "aug-alt":
        if nuis.a is None:
            raise ConfigError("aug-alt needs the selection offset a in the nuisance set")
        return np.exp(np.take(nuis.a(eta), src, axis=-1)) * tilt, {}
    p = np.asarray(nuis.p)[src]
    weight = (1.0 - p) / p * tilt / np.take(nuis.c(eta), src, axis=-1)
    return weight, _clip_diagnostics(p, nuis)


def _terms(table: ObservationTable, nuis: NuisanceSet, eta, estimator: str) -> tuple:
    """Per-row terms r (K, n), the estimates (K,) and a diagnostics dict per
    eta of ``eta``; a scalar is K = 1 on cheaper (n,) nuisance rows."""
    _check_estimator(estimator)
    eta = np.asarray(eta, dtype=np.float64)
    eta = eta.reshape(-1, 1) if eta.ndim else eta
    src = table.s == 1
    nested = table.design == "nested"
    b = np.asarray(nuis.b(eta), dtype=np.float64)
    if b.ndim < eta.ndim:  # eta-free rows of a hand-built set
        b = np.broadcast_to(b, (eta.size, table.n))
    r = np.where(src, table.loss if nested else 0.0, b).reshape(-1, table.n)
    if estimator != "cl":
        src = np.flatnonzero(src)  # integer indices take columns faster than a mask
        weight, clip = _source_weights(table, nuis, eta, estimator, src)
        r[:, src] += weight * (table.loss[src] - np.take(b, src, axis=-1))
    est = r.sum(axis=1) / (table.n if nested else table.n0)
    if estimator == "cl":
        return r, est, [{} for _ in range(est.size)]
    max_weight = np.atleast_2d(weight).max(axis=1) if weight.size else np.zeros(eta.size)
    return r, est, [{"max_weight": float(m), **clip, "overshoot": _overshoot(table, e)}
                    for m, e in zip(max_weight, est)]


def _overshoot(table: ObservationTable, estimate: float) -> float:
    # Brier-type losses live in [0, 1]; augmentation may leave that range
    if not table.has_binary_losses:
        return 0.0
    return float(max(0.0, estimate - 1.0) + max(0.0, -estimate))


def _warn_positivity(diagnostics: dict) -> None:
    if diagnostics.get("positivity_warning"):
        warnings.warn("p(X) sits at its clipping bound for more than half of the source "
                      "rows; inverse-odds weights may be unstable", stacklevel=3)


def estimate(
    table: ObservationTable, nuis: NuisanceSet, eta: float, estimator: str
) -> EstimateResult:
    """Risk estimate at one eta: ``cl``, ``aug`` or ``aug-alt``, for the
    table's design.

    Warns when p sits at its clipping bound on more than half of the
    source rows; the ``positivity_warning`` diagnostic records the same.
    """
    _, est, diag = _terms(table, nuis, eta, estimator)
    _warn_positivity(diag[0])
    return EstimateResult(eta=eta, estimate=float(est[0]), method=f"{estimator}/{table.design}",
                          diagnostics=diag[0])


def influence_values(
    table: ObservationTable, nuis: NuisanceSet, eta: float, plugged: float
) -> InfluenceValues:
    """Per-row influence contributions of the augmented estimator.

    Non-nested: (r - plugged on target rows) * n/n0; nested: r - plugged.
    With the matching augmented estimate plugged in, the values average to
    zero and sqrt(mean(values^2) / n) is the sandwich standard error.
    """
    r = _terms(table, nuis, eta, "aug")[0][0]
    if table.design == "nested":
        vals = r - plugged
    else:
        vals = (r - plugged * (table.s == 0)) * (table.n / table.n0)
    se = float(np.sqrt(np.mean(vals**2) / table.n))
    return InfluenceValues(vals, float(vals.mean()), plugged, se)


def _grid_terms(table, nuis, grid: np.ndarray, estimator: str, step: int = 0) -> list:
    """(estimate, diagnostics) at every grid point, or the numeric failure
    the point raised, in blocks of max(1, _BLOCK_CELLS // n) points."""
    step = step or max(1, _BLOCK_CELLS // table.n)
    out = []
    for lo in range(0, grid.size, step):
        block = grid[lo:lo + step]
        try:
            out += zip(*_terms(table, nuis, block, estimator)[1:])
        except NUMERIC_FAILURES as exc:
            # rerun one point at a time so that only the failing points fail
            out += [exc] if block.size == 1 else _grid_terms(table, nuis, block, estimator, 1)
    return out


# ---------------------------------------------------------------------------
# Sensitivity curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    eta: float
    result: Optional[EstimateResult]
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass(frozen=True)
class SensitivityCurve:
    """Ordered (eta, estimate) points plus provenance metadata."""

    points: tuple
    metadata: dict

    @property
    def etas(self) -> np.ndarray:
        return np.array([p.eta for p in self.points])

    @property
    def estimates(self) -> np.ndarray:
        return np.array(
            [p.result.estimate if p.ok else np.nan for p in self.points]
        )

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def sensitivity_curve(
    table: ObservationTable,
    nuis: NuisanceSet,
    eta_grid: Sequence[float],
    estimator: str = "aug",
    resample=None,
) -> SensitivityCurve:
    """Sweep the estimator over an eta grid at the nuisance values ``nuis``
    fitted to ``table``.

    Failed points are marked and the sweep continues.  When ``resample``
    (a ResampleConfig) is given, per-point standard errors and Wald
    intervals come from replicate sweeps that refit all nuisances with
    ``nuis.recipe`` on each resampled table; replicates raise no warnings.
    """
    eta_grid = np.asarray(list(eta_grid), dtype=np.float64)
    if eta_grid.size == 0:
        raise ConfigError("eta grid is empty")
    if np.any(np.diff(eta_grid) < 0):
        raise ConfigError("eta grid must be sorted ascending")
    _check_estimator(estimator)
    if resample is not None and nuis.recipe is None:
        raise ConfigError("resampling refits the nuisances; fit them with a NuisanceRecipe")

    results = []
    for eta, out in zip(eta_grid, _grid_terms(table, nuis, eta_grid, estimator)):
        if isinstance(out, Exception):  # failed grid points are marked, not fatal
            results.append((float(eta), None, f"failed: {out}"))
            continue
        res = EstimateResult(eta=float(eta), estimate=float(out[0]),
                             method=f"{estimator}/{table.design}", diagnostics=out[1])
        results.append((float(eta), res, "ok"))
    # the clip diagnostics are eta-free: one warning covers the grid
    _warn_positivity(next((res.diagnostics for _, res, _ in results if res is not None), {}))
    metadata = {
        "design": table.design,
        "estimator": estimator,
        "n": table.n,
        "n1": table.n1,
        "n0": table.n0,
        "eta_grid": [float(e) for e in eta_grid],
    }

    if resample is None:
        points = tuple(CurvePoint(e, r, st) for e, r, st in results)
        return SensitivityCurve(points, metadata)

    from .resampling import (
        bootstrap_matrix,
        jackknife_matrix,
        jackknife_se,
        wald_interval,
    )

    def sweep(t: ObservationTable) -> np.ndarray:
        # refit all nuisances on the resampled table, then sweep the grid;
        # per-point failures become NaN so the other points survive
        try:
            ns = nuis.recipe.fit(t)
        except NUMERIC_FAILURES:
            return np.full(eta_grid.size, np.nan)
        return np.array([np.nan if isinstance(out, Exception) else out[0]
                         for out in _grid_terms(t, ns, eta_grid, estimator)])

    ses: list = [None] * eta_grid.size
    cis: list = [None] * eta_grid.size
    notes: list = [None] * eta_grid.size
    if resample.method == "bootstrap":
        reps, _ = bootstrap_matrix(table, sweep, resample)
        for i in range(eta_grid.size):
            col = reps[:, i]
            ok = np.isfinite(col)
            n_failed = resample.replicates - int(ok.sum())
            if n_failed > 0.2 * resample.replicates:
                notes[i] = f"ci unavailable: {n_failed} of {resample.replicates} replicates failed"
                continue
            ses[i] = float(np.std(col[ok], ddof=1))
            if n_failed:
                notes[i] = f"{n_failed} replicates skipped"
    else:
        loo = jackknife_matrix(table, sweep)
        for i in range(eta_grid.size):
            col = loo[:, i]
            if not np.all(np.isfinite(col)):
                bad = int(np.flatnonzero(~np.isfinite(col))[0])
                notes[i] = f"ci unavailable: leave-one-out estimate failed at row {bad}"
                continue
            ses[i] = jackknife_se(col)
    metadata["resampling"] = {
        "method": resample.method,
        "replicates": resample.replicates if resample.method == "bootstrap" else table.n,
        "seed": resample.seed,
        "stratified": resample.resolve_stratified(table),
        "level": resample.level,
    }

    points = []
    for i, (eta, res, status) in enumerate(results):
        if res is not None and ses[i] is not None:
            res = res.with_interval(
                ses[i], wald_interval(res.estimate, ses[i], resample.level)
            )
        if res is not None and notes[i]:
            res = EstimateResult(
                eta=res.eta, estimate=res.estimate, method=res.method,
                se=res.se, ci=res.ci,
                diagnostics={**res.diagnostics, "resampling_note": notes[i]},
            )
        points.append(CurvePoint(eta, res, status))
    return SensitivityCurve(tuple(points), metadata)
