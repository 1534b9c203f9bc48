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

A fitted nuisance set is evaluated as replicate 0 of the fits it came
from, the replicate whose row counts are all one, by the same code as the
resampling replicates; a hand-built set through its b, c and a.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .data import ObservationTable
from .errors import NUMERIC_FAILURES, ConfigError
from .nuisance import NuisanceRows, NuisanceSet
from .tilt import BinaryTilt, TiltSpec, tilt_weight

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


def _check(table: ObservationTable, nuis: NuisanceSet, estimator: str = "aug") -> None:
    """A ConfigError for an unknown estimator, a fitted set of another table
    or a set whose p is not shaped (n,) like the table's rows."""
    if estimator not in ESTIMATOR_NAMES:
        raise ConfigError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_NAMES}")
    if nuis._fits is not None and nuis._fits.table is not table:
        raise ConfigError("the nuisance set was fitted to another table")
    if np.shape(nuis.p) != (table.n,):
        raise ConfigError(f"nuisance p has shape {np.shape(nuis.p)}, not ({table.n},)")


def _source_weight(estimator: str, y_src, eta, q, p_src, c_src: Callable,
                   a_src: Callable) -> np.ndarray:
    """Source-row weights of ``aug`` (inverse odds over c) or ``aug-alt``
    (e^a), times the tilt; (K, m) at a (K, 1) eta.  ``c_src`` and ``a_src``
    give c and a on the source rows when called."""
    tilt = tilt_weight(y_src, TiltSpec(eta, q))
    if estimator == "aug-alt":
        return np.exp(a_src()) * tilt
    return (1.0 - p_src) / p_src * tilt / c_src()


def _kernel(nested: bool, b_t, b_s, weight, loss_s) -> tuple:
    """The terms r on target rows (b) and on source rows: w (L - b), plus L
    in a nested cohort.  ``cl`` (``weight`` None, w = 0) leaves the eta-free
    losses (nested) or no source terms at all (None)."""
    if weight is None:
        return b_t, loss_s if nested else None
    r_s = np.subtract(loss_s, b_s, out=b_s)  # b_s is a fresh array, spent here
    r_s *= weight
    if nested:
        r_s += loss_s
    return b_t, r_s


def _sum(r, counts=None):
    """Row sums of the terms ``r``, weighted by ``counts``; 0 for no terms."""
    if r is None:
        return 0.0
    return np.add.reduce(r if counts is None else r * counts, axis=-1)


def _terms(table: ObservationTable, nuis: NuisanceSet, eta, estimator: str) -> tuple:
    """Terms of a hand-built set (one without fits) on the target rows and
    on the source rows, (K, n0) and (K, n1) at a (K, 1) eta column, the
    estimates (K,) and the source weights (None for ``cl``, whose source
    terms are eta-free or None, see ``_kernel``); a scalar eta gives (n0,)
    and (n1,) rows and a scalar estimate.  The set's b, c and a are called
    as given."""
    eta = np.asarray(eta, dtype=np.float64)
    eta = eta.reshape(-1, 1) if eta.ndim else eta
    tgt, src = table.target_rows, table.source_rows
    b = np.asarray(nuis.b(eta), dtype=np.float64)
    if b.ndim < eta.ndim:  # eta-free rows
        b = np.broadcast_to(b, (eta.size, table.n))
    b_t, b_s, weight = b.take(tgt, axis=-1), None, None
    if estimator != "cl":
        if estimator == "aug-alt" and nuis.a is None:
            raise ConfigError("aug-alt needs the selection offset a in the nuisance set")
        weight = _source_weight(estimator, table.y[src], eta, nuis.q, np.asarray(nuis.p)[src],
                                lambda: np.asarray(nuis.c(eta)).take(src, axis=-1),
                                lambda: np.asarray(nuis.a(eta)).take(src, axis=-1))
        b_s = b.take(src, axis=-1)
    nested = table.design == "nested"
    loss_s = table.source_losses if nested or weight is not None else None
    r_t, r_s = _kernel(nested, b_t, b_s, weight, loss_s)
    est = (np.add.reduce(r_t, axis=-1) + _sum(r_s)) / (table.n if nested else table.n0)
    return r_t, r_s, est, weight


def _set_terms(table: ObservationTable, nuis: NuisanceSet, eta, estimator: str) -> tuple:
    """The terms, estimates and weights of ``_terms``: a fitted set's as
    replicate 0 of its fits (``_replicate_terms``), a hand-built set's
    through its fields."""
    if nuis._fits is None:
        return _terms(table, nuis, eta, estimator)
    return _replicate_terms(table, nuis._fits, 0, np.asarray(eta, dtype=np.float64), estimator)


def _point_diagnostics(table: ObservationTable, est: np.ndarray, weight, clip: dict) -> list:
    """Per-eta diagnostics: max source weight, the eta-free ``clip`` entries
    and the overshoot; none for ``cl`` (``weight`` None)."""
    if weight is None:
        return [{} for _ in range(est.size)]
    max_weight = np.atleast_2d(weight).max(axis=1) if weight.size else np.zeros(est.size)
    return [{"max_weight": float(m), **clip, "overshoot": _overshoot(table, e)}
            for m, e in zip(max_weight, est)]


def _clip(table: ObservationTable, nuis: NuisanceSet, estimator: str) -> dict:
    """The eta-free clip diagnostics of ``aug``, computed once per curve.
    Only fitted sets clip p; a set without bounds in its meta (e.g. p = 1
    test mode) reports no clipping."""
    if estimator != "aug":
        return {}
    p_src = np.asarray(nuis.p)[table.source_rows]
    if "p_clip" not in nuis.meta or p_src.size == 0:
        return {"clip_count": 0}
    lo, hi = nuis.meta["p_clip"]
    at_bound = (p_src <= lo + _CLIP_TOL) | (p_src >= hi - _CLIP_TOL)
    diag = {"clip_count": int(at_bound.sum())}
    if at_bound.mean() > 0.5:
        diag["positivity_warning"] = True
    return diag


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
    A set that does not belong to ``table`` is a ConfigError (``_check``),
    as in ``influence_values`` and ``sensitivity_curve``.
    """
    _check(table, nuis, estimator)
    _, _, est, weight = _set_terms(table, nuis, eta, estimator)
    diag = {}
    if weight is not None:
        diag = _point_diagnostics(table, np.reshape(est, 1), weight,
                                  _clip(table, nuis, estimator))[0]
        _warn_positivity(diag)
    return EstimateResult(eta=eta, estimate=float(est), method=f"{estimator}/{table.design}",
                          diagnostics=diag)


def influence_values(
    table: ObservationTable, nuis: NuisanceSet, eta: float, plugged: float
) -> InfluenceValues:
    """Per-row influence contributions of the augmented estimator.

    Non-nested: (r - plugged on target rows) * n/n0; nested: r - plugged.
    With the matching augmented estimate plugged in, the values average to
    zero and sqrt(mean(values^2) / n) is the sandwich standard error.
    """
    _check(table, nuis)
    r_t, r_s, _, _ = _set_terms(table, nuis, eta, "aug")
    r = np.empty(table.n)
    r[table.target_rows] = r_t
    r[table.source_rows] = r_s
    if table.design == "nested":
        vals = r - plugged
    else:
        vals = (r - plugged * (table.s == 0)) * (table.n / table.n0)
    se = float(np.sqrt(np.mean(vals**2) / table.n))
    return InfluenceValues(vals, float(vals.mean()), plugged, se)


def _blocks(evaluate: Callable, grid: np.ndarray, step: int) -> list:
    """``evaluate(block)`` (one entry per point) over the grid in blocks of
    ``step`` points; a block that fails numerically reruns one point at a
    time, so only the failing points fail, with their exception as entry."""
    out = []
    for lo in range(0, grid.size, step):
        block = grid[lo:lo + step]
        try:
            out += evaluate(block)
        except NUMERIC_FAILURES as exc:
            out += [exc] if block.size == 1 else _blocks(evaluate, block, 1)
    return out


def _block_step(table: ObservationTable) -> int:
    return max(1, _BLOCK_CELLS // table.n)


def _grid_terms(table, nuis, grid: np.ndarray, estimator: str, clip: dict) -> list:
    """(estimate, diagnostics) at every grid point, or the numeric failure
    the point raised: a fitted set's as replicate 0 of its fits, a
    hand-built set's block by block through its fields."""

    def entries(terms):
        _, _, est, weight = terms
        return list(zip(est, _point_diagnostics(table, est, weight, clip)))

    if nuis._fits is not None:
        return _replicate_rows(table, nuis._fits, [0], grid, estimator, entries)[0]
    return _blocks(lambda block: entries(_terms(table, nuis, block, estimator)), grid,
                   _block_step(table))


# ---------------------------------------------------------------------------
# Replicates: count-weighted sums on the table's rows
# ---------------------------------------------------------------------------


def _drawn_rows(table: ObservationTable, fits: NuisanceRows, r: int) -> tuple:
    """Replicate r's eta-free state, computed once: the target and the
    source rows it draws, their counts (None where every drawn count is
    one, so the sums are plain, as on the full table), the losses on the
    drawn source rows, the denominator of its estimates and, for binary
    fits, the ``BinaryTilt`` closed forms on the drawn target rows and on
    the drawn source rows with their outcomes and the odds of p (else
    None)."""
    cnt = fits.counts[r]
    tgt = fits.rows_drawn(r, table.target_rows)
    src = fits.rows_drawn(r, table.source_rows)
    c_t, c_s = cnt[tgt], cnt[src]
    den = c_t.sum() + c_s.sum() if table.design == "nested" else c_t.sum()
    counts = None if (c_t == 1.0).all() and (c_s == 1.0).all() else (c_t, c_s)
    forms = None
    if fits.g is not None:
        (l1, l0), g = fits.losses, fits.g[r]
        forms = (BinaryTilt(g[tgt], l1[tgt], l0[tgt]),
                 BinaryTilt(g[src], l1[src], l0[src], table.y[src], fits.p[r, src]))
    return tgt, src, counts, table.loss[src], den, forms


def _replicate_terms(table: ObservationTable, fits: NuisanceRows, r: int, eta,
                     estimator: str, drawn=None, coef=None) -> tuple:
    """The terms, estimates and weights of ``_terms`` for replicate r of
    ``fits``: the kernel's terms on the rows the replicate draws (``drawn``,
    from ``_drawn_rows``), summed with their counts.  The estimates equal
    those on the table holding each row that many times.  Binary fits take
    b and the source weights from their closed forms (``cl`` needs neither
    the source b nor weights).  ``coef`` holds a continuous fit's b and c
    coefficients at eta (``NuisanceRows.solve``; c None where the estimator
    needs none), else they are solved here."""
    tgt, src, counts, loss_s, den, forms = drawn or _drawn_rows(table, fits, r)
    b_beta, c_beta = coef or (None, None)
    a_src = lambda: fits.a(eta, r, src, c_beta)
    b_s = weight = None
    if forms is not None:
        b_t = forms[0].b(eta)
        if estimator == "aug":
            b_s, weight = forms[1].b_weight(eta)
        elif estimator == "aug-alt":
            tilt = forms[1].tilt(eta)
            b_s, weight = forms[1].b(eta), np.exp(a_src()) * tilt
    elif estimator == "cl":
        b_t = fits.b(eta, r, tgt, beta=b_beta)[0]
    else:
        b_t, b_s = fits.b(eta, r, tgt, src, beta=b_beta)
        weight = _source_weight(estimator, table.y[src], eta, fits.q, fits.p[r, src],
                                lambda: fits.c(eta, r, src, c_beta), a_src)
    r_t, r_s = _kernel(table.design == "nested", b_t, b_s, weight, loss_s)
    c_t, c_s = counts or (None, None)
    return r_t, r_s, (_sum(r_t, c_t) + _sum(r_s, c_s)) / den, weight


def _replicate_rows(table: ObservationTable, fits: NuisanceRows, group: list,
                    grid: np.ndarray, estimator: str,
                    entries: Callable = lambda terms: list(terms[2])) -> list:
    """Replicates ``group`` (indices into ``fits``) at every grid point: per
    replicate one entry per point, from ``entries`` of a block's
    ``_replicate_terms`` (by default its estimates), or the numeric failure
    the point raised.  The grid goes in blocks of ``_block_step`` points.
    For continuous fits each block first solves b, and c where the
    estimator needs it, for the whole group at once
    (``NuisanceRows.solve``); a point whose solve failed fails alone, and
    the other points keep their coefficients."""
    step = _block_step(table)
    drawn = [_drawn_rows(table, fits, i) for i in group]
    parts = ("b", "c") if estimator == "aug" or (estimator == "aug-alt"
                                                  and fits.derived_a) else ("b",)
    rows = [[] for _ in group]
    for lo in range(0, grid.size, step):
        eta = grid[lo:lo + step, None]
        solved = None if fits.g is not None else fits.solve(eta, group, parts)
        for j, i in enumerate(group):
            def evaluate(idx):
                coef = None
                if solved is not None:
                    b, c, failed = solved
                    exc = next((e for e in failed[j, idx] if e is not None), None)
                    if exc is not None:
                        raise exc
                    coef = (b[j, idx], None if c is None else c[j, idx])
                return entries(_replicate_terms(table, fits, i, eta[idx], estimator, drawn[j],
                                                coef))

            rows[j] += _blocks(evaluate, np.arange(eta.shape[0]), step)
    return rows


def _failure_counts(names) -> str:
    """' (Class: count, ...)' for the failure names of a point's replicates."""
    counts = Counter(names)
    return " (" + ", ".join(f"{name}: {counts[name]}" for name in sorted(counts)) + ")"


def _replicate_matrix(table: ObservationTable, recipe, grid: np.ndarray, estimator: str,
                      resample) -> tuple:
    """Every replicate's estimate at every grid point, (B, K) with NaN where
    it failed, and the reason of each failure: the class of the exception
    its fit or point raised, or 'non-finite'.

    Replicates are row-count vectors (``resampling.replicate_counts``)
    fitted together in chunks of max(1, _BLOCK_CELLS // 4n): the fits'
    largest arrays are (chunk, k, n) design products, and the 4 sizes them
    for k = 4 (an intercept and three covariates), with peak memory measured
    on the boot-anchored benchmark workload only; a spline design with k
    coefficients makes those arrays k/4 times larger.  A replicate that
    lacks a stratum the design needs fails like the table it stands for
    (``resampling.leave_one_out_failure``, ``resampling.check_usable``).

    A chunk's usable replicates are swept in batches of max(1, _BLOCK_CELLS
    // Kn), K the points of a grid block, so the batch's (replicates, K, n)
    arrays stay at the block size; a batch of continuous fits solves b and
    c of all its replicates at each block at once (``_replicate_rows``).
    Every solved item passes the normal-equation check of the one-replicate
    solve, which re-solves any item that does not (``NuisanceRows.solve``).
    """
    from .resampling import (check_usable, jackknife_size, leave_one_out_failure,
                             replicate_counts)

    jackknife = resample.method == "jackknife"
    n_reps = jackknife_size(table) if jackknife else resample.replicates
    est = np.full((n_reps, grid.size), np.nan)
    why = np.full((n_reps, grid.size), None, dtype=object)
    chunk = max(1, _BLOCK_CELLS // (4 * table.n))
    batch = max(1, _BLOCK_CELLS // (min(_block_step(table), grid.size) * table.n))
    unusable = 0
    for lo in range(0, n_reps, chunk):
        reps = range(lo, min(n_reps, lo + chunk))
        fits = recipe.fit_counts(table, replicate_counts(table, resample, reps))
        usable = []
        for i, rep in enumerate(reps):
            exc = fits.errors[i]
            if exc is None:
                usable.append(i)
                continue
            if fits.lacks_stratum[i]:
                if jackknife:
                    raise leave_one_out_failure(rep, exc) from exc
                unusable += 1
            why[rep] = type(exc).__name__
        for b_lo in range(0, len(usable), batch):
            group = usable[b_lo:b_lo + batch]
            for i, row in zip(group, _replicate_rows(table, fits, group, grid, estimator)):
                rep = reps[i]
                for j, out in enumerate(row):
                    if isinstance(out, Exception):
                        why[rep, j] = type(out).__name__
                    elif np.isfinite(out):
                        est[rep, j] = out
                    else:
                        why[rep, j] = "non-finite"
    check_usable(n_reps - unusable)
    return est, why


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


def check_eta_grid(eta_grid) -> np.ndarray:
    """``eta_grid`` as a float array; a ConfigError unless it is nonempty,
    finite and sorted ascending."""
    grid = np.asarray(list(eta_grid), dtype=np.float64)
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) < 0):
        raise ConfigError(f"eta grid must be nonempty, finite and ascending, got {grid.tolist()}")
    return grid


def sensitivity_curve(
    table: ObservationTable,
    nuis: NuisanceSet,
    eta_grid: Sequence[float],
    estimator: str = "aug",
    resample=None,
) -> SensitivityCurve:
    """Sweep the estimator over an eta grid at the nuisance values ``nuis``
    fitted to ``table``.

    Failed points, and points whose estimate is not finite, are marked and
    the sweep continues.  When ``resample`` (a ResampleConfig) is given,
    per-point standard errors and Wald intervals come from replicates:
    row-count vectors over the table, each refitted with ``nuis.recipe``
    and swept as count-weighted sums on the table's rows.  Replicates raise
    no warnings; a point's failed replicates are noted with their count by
    failure class.
    """
    eta_grid = check_eta_grid(eta_grid)
    _check(table, nuis, estimator)
    if resample is not None and nuis.recipe is None:
        raise ConfigError("resampling refits the nuisances; fit them with a NuisanceRecipe")

    clip = _clip(table, nuis, estimator)
    results = []
    for eta, out in zip(eta_grid, _grid_terms(table, nuis, eta_grid, estimator, clip)):
        if isinstance(out, Exception):  # failed grid points are marked, not fatal
            results.append((float(eta), None, f"failed: {out}"))
            continue
        if not np.isfinite(out[0]):
            results.append((float(eta), None, "failed: non-finite estimate"))
            continue
        res = EstimateResult(eta=float(eta), estimate=float(out[0]),
                             method=f"{estimator}/{table.design}", diagnostics=out[1])
        results.append((float(eta), res, "ok"))
    # the clip diagnostics are eta-free: one warning covers the grid
    if any(res is not None for _, res, _ in results):
        _warn_positivity(clip)
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

    from .resampling import jackknife_se, wald_interval

    reps, why = _replicate_matrix(table, nuis.recipe, eta_grid, estimator, resample)
    ses: list = [None] * eta_grid.size
    notes: list = [None] * eta_grid.size
    for i in range(eta_grid.size):
        col = reps[:, i]
        ok = np.isfinite(col)
        reasons = _failure_counts(why[~ok, i])
        if resample.method == "bootstrap":
            n_failed = resample.replicates - int(ok.sum())
            if n_failed > 0.2 * resample.replicates:
                notes[i] = (f"ci unavailable: {n_failed} of {resample.replicates} "
                            f"replicates failed{reasons}")
                continue
            ses[i] = float(np.std(col[ok], ddof=1))
            if n_failed:
                notes[i] = f"{n_failed} replicates skipped{reasons}"
        elif not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            notes[i] = f"ci unavailable: leave-one-out estimate failed at row {bad}{reasons}"
        else:
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
            res = replace(res, diagnostics={**res.diagnostics, "resampling_note": notes[i]})
        points.append(CurvePoint(eta, res, status))
    return SensitivityCurve(tuple(points), metadata)
