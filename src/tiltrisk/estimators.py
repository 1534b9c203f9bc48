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

A sweep evaluates a fitted nuisance set as replicate 0 of its fits (row
counts all one) by the same code as the resampling replicates; estimates,
influence values and hand-built sets read a set's b, c and a, which for a
fitted set are replicate 0's values bit for bit.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .data import ObservationTable
from .errors import NUMERIC_FAILURES, ConfigError
from .nuisance import C_FLOOR, NuisanceRows, NuisanceSet
from .tilt import BinaryTilt, TiltSpec, selection_a, tilt_weight

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


def _source_weight(estimator: str, tilt, p_src, c_src: Callable, a_src: Callable) -> np.ndarray:
    """Source-row weights of ``aug`` (inverse odds over c) or ``aug-alt``
    (e^a), times the tilt weights ``tilt``; ``c_src`` and ``a_src`` give c
    and a on the source rows when called."""
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
    """Terms of a set, through its b, c and a as given, on the target rows
    and on the source rows, (K, n0) and (K, n1) at a (K, 1) eta column, the
    estimates (K,) and the source weights (None for ``cl``, whose source
    terms are eta-free or None, see ``_kernel``); a scalar eta gives (n0,)
    and (n1,) rows and a scalar estimate."""
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
        weight = _source_weight(estimator, tilt_weight(table.y[src], TiltSpec(eta, nuis.q)),
                                np.asarray(nuis.p)[src],
                                lambda: np.asarray(nuis.c(eta)).take(src, axis=-1),
                                lambda: np.asarray(nuis.a(eta)).take(src, axis=-1))
        b_s = b.take(src, axis=-1)
    nested = table.design == "nested"
    r_t, r_s = _kernel(nested, b_t, b_s, weight, table.source_losses)
    est = (np.add.reduce(r_t, axis=-1) + _sum(r_s)) / (table.n if nested else table.n0)
    return r_t, r_s, est, weight


def _point_diagnostics(table: ObservationTable, est: np.ndarray, top, clip: dict) -> list:
    """Per-eta diagnostics: the largest source weight ``top``, the eta-free
    ``clip`` entries and the overshoot; none for ``cl`` (``top`` None)."""
    if top is None:
        return [{} for _ in range(est.size)]
    return [{"max_weight": float(m), **clip, "overshoot": _overshoot(table, e)}
            for m, e in zip(top, est)]


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
    table's design, from the set's fields (for a fitted set, replicate 0's).

    Warns when p sits at its clipping bound on more than half of the
    source rows; the ``positivity_warning`` diagnostic records the same.
    A set that does not belong to ``table`` is a ConfigError (``_check``),
    as in ``influence_values`` and ``sensitivity_curve``.
    """
    _check(table, nuis, estimator)
    _, _, est, weight = _terms(table, nuis, eta, estimator)
    diag = {}
    if weight is not None:
        diag = _point_diagnostics(table, np.reshape(est, 1), np.reshape(weight.max(), 1),
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
    zero and sqrt(mean(values^2) / n) is the sandwich standard error.  As
    in ``estimate``, the terms read the set's p, b and c.
    """
    _check(table, nuis)
    r_t, r_s, _, _ = _terms(table, nuis, eta, "aug")
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
    if nuis._fits is not None:
        est, failed, top = (None if v is None else v[0] for v in
                            _replicate_rows(table, nuis._fits, [0], grid, estimator, top=True))
        points = zip(est, _point_diagnostics(table, est, top, clip))
        return [point if exc is None else exc for exc, point in zip(failed, points)]

    def entries(block):
        _, _, est, weight = _terms(table, nuis, block, estimator)
        return list(zip(est, _point_diagnostics(table, est, None if weight is None
                                                else weight.max(axis=-1), clip)))

    return _blocks(entries, grid, _block_step(table))


# ---------------------------------------------------------------------------
# Replicates: count-weighted sums on the table's rows
# ---------------------------------------------------------------------------


def _drawn_rows(table: ObservationTable, fits: NuisanceRows, r: int) -> tuple:
    """Binary replicate r's eta-free state: its drawn target and source
    rows, their counts (None if all one: plain sums, as on the full table),
    the drawn source losses, its estimates' denominator and the
    ``BinaryTilt`` forms of the drawn rows."""
    cnt = fits.counts[r]
    tgt = fits.rows_drawn(r, table.target_rows)
    src = fits.rows_drawn(r, table.source_rows)
    c_t, c_s = cnt[tgt], cnt[src]
    den = c_t.sum() + c_s.sum() if table.design == "nested" else c_t.sum()
    counts = None if (c_t == 1.0).all() and (c_s == 1.0).all() else (c_t, c_s)
    (l1, l0), g = fits.losses, fits.g[r]
    forms = (BinaryTilt(g[tgt], l1[tgt], l0[tgt]),
             BinaryTilt(g[src], l1[src], l0[src], table.y[src], fits.p[r, src]))
    return tgt, src, counts, table.loss[src], den, forms


def _replicate_terms(table: ObservationTable, fits: NuisanceRows, r: int, eta,
                     estimator: str, drawn=None) -> tuple:
    """``_terms`` for replicate r of binary ``fits`` on the rows it draws
    (``drawn``, from ``_drawn_rows``), by the closed forms, summed with the
    counts; then a moment-fitted offset's failures per eta (else None)."""
    tgt, src, counts, loss_s, den, (form_t, form_s) = drawn or _drawn_rows(table, fits, r)
    b_t = form_t.b(eta)
    b_s = weight = failed = None
    if estimator == "aug":
        b_s, weight = form_s.b_weight(eta)
    elif estimator == "aug-alt":
        tilt = form_s.tilt(eta)
        a, failed = (fits.a(eta, r, src), None) if fits.derived_a else fits.offset(eta, r, src)
        b_s, weight = form_s.b(eta), np.exp(a) * tilt
    r_t, r_s = _kernel(table.design == "nested", b_t, b_s, weight, loss_s)
    c_t, c_s = counts or (None, None)
    return r_t, r_s, (_sum(r_t, c_t) + _sum(r_s, c_s)) / den, weight, failed


def _group_estimates(table: ObservationTable, fits: NuisanceRows, group: list,
                     eta: np.ndarray, estimator: str) -> tuple:
    """Continuous replicates ``group`` at a (K, 1) eta column, evaluated on
    every row: (G, K) estimates (terms summed with the row counts), source
    weights (None for ``cl``) and failures of b's and c's solve and of a
    moment-fitted offset.  A source row a replicate does not draw weighs
    zero, so its tilt overflow or NaN neither raises nor reaches the sums
    (on a drawn row b's solve fails).  Replicate 0 gets full-table values."""
    fitted_a = estimator == "aug-alt" and not fits.derived_a
    b_beta, c_beta, failed = fits.solve(eta, group, ("b",) if estimator == "cl" or fitted_a
                                        else ("b", "c"))
    tgt, src, cnt = table.target_rows, table.source_rows, fits.counts[group]
    # C-ordered counts: the memory order of a product picks its sums' order
    c_t, c_s = cnt.take(tgt, axis=-1)[:, None], cnt.take(src, axis=-1)[:, None]
    b = fits.on_every_row(group, b_beta)
    b_s = weight = None
    if estimator != "cl":
        if fitted_a:
            a = np.empty(b.shape[:-1] + src.shape)
            for j, r in enumerate(group):  # after the solve's failures
                a[j], offset_failed = fits.offset(eta, r, src)
                np.copyto(failed[j], offset_failed, where=np.equal(failed[j], None))
        p_src, spec = fits.p[group].take(src, axis=-1)[:, None], TiltSpec(eta, fits.q)
        c_src = lambda: np.maximum(fits.on_every_row(group, c_beta).take(src, axis=-1), C_FLOOR)
        with np.errstate(over="ignore", invalid="ignore"):
            weight = _source_weight(estimator, np.exp(spec.eta * spec.apply_q(table.y[src])),
                                    p_src, c_src, (lambda: a) if fitted_a
                                    else lambda: selection_a(p_src, c_src()))
        np.copyto(weight, 0.0, where=c_s == 0.0)
        b_s = b.take(src, axis=-1)
    nested = table.design == "nested"
    r_t, r_s = _kernel(nested, b.take(tgt, axis=-1), b_s, weight, table.source_losses)
    den = c_t.sum(axis=-1) + c_s.sum(axis=-1) if nested else c_t.sum(axis=-1)
    return (_sum(r_t, c_t) + _sum(r_s, c_s)) / den, weight, failed


def _replicate_rows(table: ObservationTable, fits: NuisanceRows, group: list,
                    grid: np.ndarray, estimator: str, top: bool = False) -> tuple:
    """Replicates ``group`` (indices into ``fits``) at every grid point as
    (G, K) arrays: estimates (NaN where failed), failures (None or the
    exception) and, with ``top``, largest source weights.  Per block of
    ``_block_step`` points a continuous group goes on every row at once
    (``_group_estimates``), binary replicates one at a time on their drawn
    rows (``_replicate_terms``).  A block that raises reruns by replicate,
    then by point, so each replicate-point gets what it would alone."""
    shape = (len(group), grid.size)
    out = (np.full(shape, np.nan), np.full(shape, None, dtype=object),
           np.full(shape, np.nan) if top and estimator != "cl" else None)
    drawn = [_drawn_rows(table, fits, r) for r in group] if fits.g is not None else None

    def evaluate(reps: slice, points: slice):  # a block's terms die with its call
        eta = grid[points, None]
        if drawn is None:
            est, weights, failed = _group_estimates(table, fits, group[reps], eta, estimator)
        else:
            _, _, est, weights, failed = zip(*[_replicate_terms(table, fits, r, eta, estimator, d)
                                               for r, d in zip(group[reps], drawn[reps])])
            failed = None if all(f is None for f in failed) else np.array(
                [[None] * len(eta) if f is None else f for f in failed], dtype=object)
        return est, failed, None if out[2] is None else [w.max(axis=-1) for w in weights]

    step = _block_step(table)
    todo = [(slice(0, len(group)), slice(lo, lo + step)) for lo in range(0, grid.size, step)]
    while todo:
        reps, points = todo.pop()
        try:
            values = evaluate(reps, points)
        except NUMERIC_FAILURES as exc:
            rows, cols = range(len(group))[reps], range(grid.size)[points]
            if len(rows) > 1:
                todo += [(slice(i, i + 1), points) for i in rows]
            elif len(cols) > 1:
                todo += [(reps, slice(j, j + 1)) for j in cols]
            else:
                out[1][reps, points] = exc
            continue
        for dest, value in zip(out, values):
            if value is not None:
                dest[reps, points] = value
    out[0][np.not_equal(out[1], None)] = np.nan
    return out


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
    fitted together in chunks of max(1, _BLOCK_CELLS // 4n), which keeps the
    fits' (chunk, k, n) design products at the block size for k = 4 (peak
    memory measured on the boot-anchored workload; k spline coefficients
    make them k/4 times larger).  A replicate that lacks a stratum the
    design needs fails like the table it stands for
    (``resampling.leave_one_out_failure``, ``resampling.check_usable``).
    The usable ones go in groups of max(1, _BLOCK_CELLS // Kn), K the points
    of a grid block: ``_replicate_rows`` evaluates a continuous group on
    every row at once and binary replicates on their drawn rows, and its
    (G, K) estimates and failures fill the matrices by array operations.
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
        for i, exc in enumerate(fits.errors):
            if exc is not None:
                if jackknife and fits.lacks_stratum[i]:
                    raise leave_one_out_failure(reps[i], exc) from exc
                why[reps[i]] = type(exc).__name__
        usable = [i for i, exc in enumerate(fits.errors) if exc is None]
        unusable += sum(fits.lacks_stratum)
        for b_lo in range(0, len(usable), batch):
            group = usable[b_lo:b_lo + batch]
            values, failed, _ = _replicate_rows(table, fits, group, grid, estimator)
            rows, ok = lo + np.asarray(group), np.isfinite(values)
            est[rows] = np.where(ok, values, np.nan)
            reason = np.where(ok, None, "non-finite")
            bad = np.not_equal(failed, None)
            reason[bad] = [type(e).__name__ for e in failed[bad]]
            why[rows] = reason
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
