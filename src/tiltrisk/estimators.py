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
from .errors import ConfigError
from .nuisance import NuisanceSet
from .tilt import TiltSpec, tilt_weight

_CLIP_TOL = 1e-12

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


def _source_weights(table: ObservationTable, nuis: NuisanceSet, eta: float,
                    estimator: str, src: np.ndarray) -> tuple:
    """Source-row weights of ``aug`` or ``aug-alt`` and their diagnostics."""
    tilt = tilt_weight(table.y[src], TiltSpec(eta, nuis.q))
    if estimator == "aug-alt":
        if nuis.a is None:
            raise ConfigError("aug-alt needs the selection offset a in the nuisance set")
        weight = np.exp(np.asarray(nuis.a(eta))[src]) * tilt
        clip = {}
    else:
        p = np.asarray(nuis.p)[src]
        weight = (1.0 - p) / p * tilt / np.asarray(nuis.c(eta))[src]
        clip = _clip_diagnostics(p, nuis)
    return weight, {"max_weight": float(weight.max()) if weight.size else 0.0, **clip}


def _terms(table: ObservationTable, nuis: NuisanceSet, eta: float, estimator: str) -> tuple:
    """Per-row terms r, the estimate and the weight diagnostics at one eta."""
    _check_estimator(estimator)
    src = table.s == 1
    nested = table.design == "nested"
    b = np.asarray(nuis.b(eta), dtype=np.float64)
    r = np.where(src, table.loss if nested else 0.0, b)
    diag = {}
    if estimator != "cl":
        weight, diag = _source_weights(table, nuis, eta, estimator, src)
        r[src] += weight * (table.loss[src] - b[src])
    est = float(r.sum() / (table.n if nested else table.n0))
    if estimator != "cl":
        diag["overshoot"] = _overshoot(table, est)
    return r, est, diag


def _overshoot(table: ObservationTable, estimate: float) -> float:
    # Brier-type losses live in [0, 1]; augmentation may leave that range
    if not table.has_binary_losses:
        return 0.0
    return float(max(0.0, estimate - 1.0) + max(0.0, -estimate))


def estimate(
    table: ObservationTable, nuis: NuisanceSet, eta: float, estimator: str
) -> EstimateResult:
    """Risk estimate at one eta: ``cl``, ``aug`` or ``aug-alt``, for the
    table's design.

    Warns when p sits at its clipping bound on more than half of the
    source rows; the ``positivity_warning`` diagnostic records the same.
    """
    _, est, diag = _terms(table, nuis, eta, estimator)
    if diag.get("positivity_warning"):
        warnings.warn(
            "p(X) sits at its clipping bound for more than half of the "
            "source rows; inverse-odds weights may be unstable",
            stacklevel=2,
        )
    return EstimateResult(
        eta=eta, estimate=est, method=f"{estimator}/{table.design}", diagnostics=diag
    )


def influence_values(
    table: ObservationTable, nuis: NuisanceSet, eta: float, plugged: float
) -> InfluenceValues:
    """Per-row influence contributions of the augmented estimator.

    Non-nested: (r - plugged on target rows) * n/n0; nested: r - plugged.
    With the matching augmented estimate plugged in, the values average to
    zero and sqrt(mean(values^2) / n) is the sandwich standard error.
    """
    r, _, _ = _terms(table, nuis, eta, "aug")
    if table.design == "nested":
        vals = r - plugged
    else:
        vals = (r - plugged * (table.s == 0)) * (table.n / table.n0)
    se = float(np.sqrt(np.mean(vals**2) / table.n))
    return InfluenceValues(vals, float(vals.mean()), plugged, se)


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
    for eta in eta_grid:
        try:
            results.append((float(eta), estimate(table, nuis, float(eta), estimator), "ok"))
        except Exception as exc:  # failed grid points are marked, not fatal
            results.append((float(eta), None, f"failed: {exc}"))

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
        out = np.full(eta_grid.size, np.nan)
        try:
            ns = nuis.recipe.fit(t)
        except Exception:
            return out
        for i, eta in enumerate(eta_grid):
            try:
                out[i] = _terms(t, ns, float(eta), estimator)[1]
            except Exception:
                pass
        return out

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
