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

A sweep, and ``estimate`` as its one-point grid, evaluates a fitted set
as replicate 0 of its fits (row counts all one) by the code that sweeps
the resampling replicates, so a fitted set's estimate is its curve's bit
for bit.  Influence values, hand-built sets and ``dataclasses.replace``
copies read a set's b, c and a (``_terms``).

A binary sweep sums every estimator from eta-free rows.  With
D = e^eta g + 1 - g and the tilted probability t = e^eta g / D, b is
l0 + (l1 - l0) t, and n (L - b) on a source row is e^{eta (1-y)} k'' / D,
where k'' = n (l1 - l0) times 1 - g (y = 1) or -g (y = 0), n the row count.
So the aug source term is e^eta k / D^2 with k = k'' (1-p)/p, and the
aug-alt one e^a e^eta k'' / D: n0 (or n) times an estimate is
sum_t n l0 + sum_t n (l1 - l0) t + sum_s (source terms) (+ sum_s n L,
nested).  A derived offset has e^a = ((1-p)/p)/c, so derived aug-alt is
summed as aug; a moment-fitted one scales k'' by e^a.  ``max_weight``
comes from the same D.  A group of replicates takes the table's rows in
windows of ``nuisance._BLOCK_ROWS``: it lays out the rows each replicate
draws in a window, replicate after replicate, sums each replicate's
segment alone and adds its windows' sums in window order.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .data import ObservationTable
from .errors import NUMERIC_FAILURES, ConfigError, NumericError
from .nuisance import C_FLOOR, NuisanceRows, NuisanceSet, _row_blocks
from .tilt import _LOG_MAX, TiltSpec, binary_c, binary_scales, selection_a, tilt_weight

_CLIP_TOL = 1e-12

# A grid block holds max(1, _BLOCK_CELLS // n) points (n the rows it spans:
# the table's, or a binary group's drawn rows), so its (K, n) arrays stay
# near 2^16 cells; large tables go one point at a time.
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
    """The eta-free clip diagnostics of ``aug``, computed once per curve, by
    row blocks of the source rows.  Only fitted sets clip p; a set without
    bounds in its meta (e.g. p = 1 test mode) reports no clipping."""
    if estimator != "aug":
        return {}
    src = table.source_rows
    if "p_clip" not in nuis.meta or src.size == 0:
        return {"clip_count": 0}
    (lo, hi), p = nuis.meta["p_clip"], np.asarray(nuis.p)
    count = 0
    for s in _row_blocks(src.size):  # a sum of counts: exact in any order
        p_src = p.take(src[s])
        count += int(np.count_nonzero((p_src <= lo + _CLIP_TOL) | (p_src >= hi - _CLIP_TOL)))
    diag = {"clip_count": count}
    if count / src.size > 0.5:
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
    table's design.  A fitted set's is the one-point grid of
    ``sensitivity_curve`` (``_grid_terms``), so its estimate and diagnostics
    equal its curve's bit for bit, and a failed point raises its failure; a
    hand-built set's comes from one pass of ``_terms`` at the scalar eta.

    Warns when p sits at its clipping bound on more than half of the
    source rows; the ``positivity_warning`` diagnostic records the same.
    A set that does not belong to ``table`` is a ConfigError (``_check``),
    as in ``influence_values`` and ``sensitivity_curve``.  A fitted set
    keeps what its points share (``_point_rows``).
    """
    _check(table, nuis, estimator)
    if nuis._fits is None:  # a one-point grid costs half as much again per call
        _, _, est, weight = _terms(table, nuis, eta, estimator)
        diag = {} if weight is None else _point_diagnostics(
            table, np.reshape(est, 1), np.reshape(weight.max(), 1),
            _clip(table, nuis, estimator))[0]
    else:
        if estimator != "cl":
            TiltSpec(eta)  # a non-finite eta fails as the weights' tilt does
        out = _grid_terms(table, nuis, np.array([eta], dtype=np.float64), estimator,
                          *_point_rows(table, nuis, estimator))[0]
        if isinstance(out, Exception):
            raise out
        est, diag = out
    if diag:
        _warn_positivity(diag)
    return EstimateResult(eta=eta, estimate=float(est), method=f"{estimator}/{table.design}",
                          diagnostics=diag)


def _point_rows(table: ObservationTable, nuis: NuisanceSet, estimator: str) -> tuple:
    """A fitted set's eta-free clip diagnostics for ``estimator`` and, for a
    binary fit on a table of one row block, replicate 0's layout
    (``_chunk_rows``; None otherwise), kept on its fits: the clip
    diagnostics from its first ``estimate``, which makes its p and g
    read-only, and a layout per estimator summed (``_summed_as``)."""
    fits, summed = nuis._fits, _summed_as(nuis._fits, estimator)
    kept = fits.point_rows
    if not kept:  # what is kept is derived from p and g
        for values in (nuis.p, nuis.g, fits.p, fits.g):
            if values is not None:
                values.flags.writeable = False
        kept["clip"] = _clip(table, nuis, "aug")
    if summed not in kept:
        windows = _row_blocks(table.n)
        kept[summed] = (_chunk_rows(table, fits, [0], summed, windows[0], top=True)
                        if fits.g is not None and len(windows) == 1 else None)
    return kept["clip"] if estimator == "aug" else {}, kept[summed]


def influence_values(
    table: ObservationTable, nuis: NuisanceSet, eta: float, plugged: float
) -> InfluenceValues:
    """Per-row influence contributions of the augmented estimator.

    Non-nested: (r - plugged on target rows) * n/n0; nested: r - plugged.
    With the matching augmented estimate plugged in, the values average to
    zero and sqrt(mean(values^2) / n) is the sandwich standard error.  The
    terms read the set's p, b and c (for a fitted set, replicate 0's).
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


def _grid_terms(table, nuis, grid: np.ndarray, estimator: str, clip: dict,
                layout: Optional[tuple] = None) -> list:
    """(estimate, diagnostics) at every grid point, or the numeric failure
    the point raised: a fitted set's as replicate 0 of its fits (a binary
    one from ``layout``, if built), a hand-built (or ``replace``d) set's
    block by block through its fields (``_terms``)."""
    if nuis._fits is not None:
        est, failed, top = (None if v is None else v[0] for v in
                            _replicate_rows(table, nuis._fits, [0], grid, estimator, top=True,
                                            layout=layout))
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


def _drawn(counts: np.ndarray, *rows) -> list:
    """The (G + 1,) offsets of each replicate's segment and, per (G, m) row
    set of ``rows``, its entries where ``counts`` is positive, replicate
    after replicate: read in place when every count is, else gathered by
    one flat index (a boolean mask per row set costs three times more)."""
    drawn = counts > 0
    offsets = np.zeros(drawn.shape[0] + 1, dtype=np.intp)
    np.cumsum(drawn.sum(axis=1), out=offsets[1:])
    if offsets[-1] == drawn.size:
        return [offsets] + [r.reshape(-1) for r in rows]
    at = np.flatnonzero(drawn)
    return [offsets] + [r.take(at) for r in rows]


def _within(rows: np.ndarray, window: slice) -> np.ndarray:
    """The entries of the sorted row indices ``rows`` that lie in the table
    rows ``window``, a view."""
    return rows[np.searchsorted(rows, window.start):np.searchsorted(rows, window.stop)]


def _take(values: np.ndarray, group: list, rows: np.ndarray) -> np.ndarray:
    """The (G, m) entries of the (R, n) ``values`` of replicates ``group``
    on the table rows ``rows``, C-ordered (``take`` would first copy a
    broadcast ``values``, such as a fitted set's counts, whole)."""
    return values[:, rows][group]


def _chunk_rows(table: ObservationTable, fits: NuisanceRows, group: list,
                estimator: str, window: slice, top: bool = False) -> tuple:
    """The binary replicates ``group``'s eta-free rows among the table rows
    ``window`` (a slice) for ``_chunk_sums``: per replicate the eta-free
    sum and the denominator over those rows, then the target rows each
    draws there, concatenated in replicate order (``_drawn``), as
    (offsets, g, 1 - g, n (l1 - l0)), and (``aug``, ``aug-alt``) its drawn
    source rows as (offsets, g, 1 - g, k (``aug``) or k'', whether y = 1
    and, for ``aug`` with ``top``, (1-p)/p where y = 1 and where y = 0,
    else 0)."""
    nested, (l1, l0) = table.design == "nested", fits.losses
    tgt, src = _within(table.target_rows, window), _within(table.source_rows, window)
    # C-ordered, and one product of fixed shape per replicate
    c_t, c_s = _take(fits.counts, group, tgt), _take(fits.counts, group, src)
    fixed = (c_t[:, None] @ l0[tgt][:, None])[:, 0, 0]
    if nested:
        fixed += (c_s[:, None] @ table.loss[src][:, None])[:, 0, 0]
    den = c_t.sum(axis=1) + c_s.sum(axis=1) if nested else c_t.sum(axis=1)
    g_t = _take(fits.g, group, tgt)
    sides = [_drawn(c_t, g_t, 1.0 - g_t, c_t * (l1[tgt] - l0[tgt]))]
    if estimator != "cl":
        g_s, odds = _take(fits.g, group, src), None
        h_s, y1 = 1.0 - g_s, (table.y[src] == 1.0)[None].repeat(len(group), axis=0)
        coef = c_s * (l1[src] - l0[src])
        if estimator == "aug":
            odds = _take(fits.p, group, src)
            odds = (1.0 - odds) / odds
        coef *= (1.0 if odds is None else odds) * np.where(y1, h_s, -g_s)
        held = (odds * y1, odds * ~y1) if top and odds is not None else ()
        sides.append(_drawn(c_s, g_s, h_s, coef, y1, *held))
    return fixed, den, sides


def _draws_y1(table: ObservationTable, fits: NuisanceRows, group: list) -> np.ndarray:
    """Whether each replicate of ``group`` draws a source row with y = 1."""
    out = np.zeros(len(group), dtype=bool)
    for window in _row_blocks(table.n):
        src = _within(table.source_rows, window)
        out |= ((_take(fits.counts, group, src) > 0) & (table.y[src] == 1.0)).any(axis=1)
    return out


def _summed_as(fits: NuisanceRows, estimator: str) -> str:
    """The estimator whose binary sums give ``estimator``'s: ``aug`` for
    ``aug-alt`` with the offset derived from p and c, e^a = ((1 - p)/p)/c."""
    return "aug" if estimator == "aug-alt" and fits.derived_a else estimator


def _segments(ufunc, values: np.ndarray, offsets: np.ndarray, empty: float = 0.0):
    """``ufunc`` reduced over each replicate's columns of the (K, m)
    ``values``, (K, G) from the (G + 1,) ``offsets``, and ``empty`` for a
    replicate without columns (where ``reduceat`` gives the next column)."""
    starts, some = offsets[:-1], offsets[1:] > offsets[:-1]
    if some.all():
        return ufunc.reduceat(values, starts, axis=1)
    out = np.full((values.shape[0], starts.size), empty)
    if some.any():
        out[:, some] = ufunc.reduceat(values, starts[some], axis=1)
    return out


def _chunk_sums(layout: tuple, work: np.ndarray, eta: np.ndarray, x, y,
                ea: Optional[np.ndarray] = None, top: bool = False) -> tuple:
    """The sums of a ``_chunk_rows`` layout at a (K, 1) eta column and its
    ``tilt.binary_scales``.  With D = x g + y (1 - g) the terms are t = x g
    / D on the target rows (g where D underflows to 0) and, on the source
    rows, k x y / D^2 (``aug``) or e^a k'' x / D (``aug-alt``, e^a on the
    layout's source rows in ``ea``), times the coefficients and summed over
    each replicate's rows in one reduction (``_segments``), so a
    replicate's sum does not depend on the replicates or points beside it.
    The block's x g and D fill the two rows of ``work``, reused from block
    to block: a fresh array per block costs more in page faults than its
    arithmetic.  Returns the (K, G) sums, the eta-free sums added, and,
    with ``top``, the (K, G) largest source weights (else None): (1-p)/p (x
    where y = 1, else y) / D, or e^a e^{eta y}."""
    fixed, _, sides = layout
    est, tops = fixed, None
    for side, (offsets, g, h, coef, *more) in enumerate(sides):
        f, d = (w[:eta.shape[0] * g.size].reshape(eta.shape[0], g.size) for w in work)
        np.multiply(x, g, out=f)
        if y is None:
            np.add(f, h, out=d)
        else:
            np.multiply(y, h, out=d)
            d += f
        # silent where D is 0 or tiny (g at 0 or 1, far eta): the sum reports it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if not side:
                np.divide(f, d, out=f)
                if y is not None:
                    np.copyto(f, g, where=d == 0.0)
            elif ea is None:
                np.divide(x if y is None else x * y, d, out=f)
                f /= d
            else:
                np.divide(x, d, out=f)
                f *= ea
            f *= coef
            est = est + _segments(np.add, f, offsets)
            if side and top:
                if ea is None:  # x or y times the odds, as one of the two odds is 0
                    weight = np.multiply(x, more[1], out=f)
                    weight += more[2] if y is None else y * more[2]
                    weight /= d
                else:  # e^eta overflows only where no y = 1 takes it
                    weight = np.multiply(ea, np.where(more[0], np.exp(eta), 1.0), out=f)
                tops = _segments(np.maximum, weight, offsets, -np.inf)
    return est, tops


def _offset_rows(fits: NuisanceRows, r: int, theta, points: slice, eta: np.ndarray,
                 src: np.ndarray, window: slice) -> np.ndarray:
    """Replicate r's moment-fitted offset at the ``points`` of its fits
    ``theta`` (None where every point failed before its fit, NaN then) on
    the source rows ``src`` it draws in the table rows ``window``."""
    rows = fits.rows_drawn(r, src)
    if theta is None:
        return np.full((eta.shape[0], rows.size), np.nan)
    return fits.offset_values(theta[points], r, rows, window)


def _binary_sums(table: ObservationTable, fits: NuisanceRows, group: list, grid: np.ndarray,
                 estimator: str, top: bool, layout: Optional[tuple],
                 thetas: Optional[list]) -> tuple:
    """The binary replicates ``group``'s (G, K) estimates at every grid
    point and, with ``top``, their (G, K) largest source weights (else
    None).  The table's rows go in windows of ``_row_blocks``: each
    window's rows are laid out once (``_chunk_rows``; ``layout``, when
    given, is that of every row, built before) and summed in
    blocks of max(1, _BLOCK_CELLS // m) points, m the rows laid out
    (``_chunk_sums``), and the windows' sums are added in window order.  A
    replicate's rows in a window do not depend on its group, so neither
    does its value, and no more of the layout than a window's is held.
    ``thetas``, for a moment-fitted offset, holds each replicate's (K, k)
    fits of it, evaluated as e^a on each window's drawn source rows
    (``_offset_rows``)."""
    summed = _summed_as(fits, estimator)
    sums = np.empty((grid.size, len(group)))
    tops = np.full(sums.shape, -np.inf) if top else None
    windows = _row_blocks(table.n) if layout is None else [slice(0, table.n)]
    for i, window in enumerate(windows):
        rows = _chunk_rows(table, fits, group, summed, window, top) if layout is None else layout
        den = rows[1] if i == 0 else den + rows[1]
        sizes = [side[0][-1] for side in rows[2]]  # the rows laid out per row set
        step = max(1, _BLOCK_CELLS // max(1, sum(sizes)))
        work = np.empty((2, min(step, grid.size) * max(sizes)))
        src = _within(table.source_rows, window)
        for lo in range(0, grid.size, step):
            points = slice(lo, lo + step)
            eta, ea = grid[points, None], None
            if thetas is not None:
                ea = np.exp(np.concatenate([_offset_rows(fits, r, theta, points, eta, src, window)
                                            for r, theta in zip(group, thetas)], axis=-1))
            est, most = _chunk_sums(rows, work, eta, *binary_scales(eta), ea, top)
            if i == 0:
                sums[points] = est
            else:
                sums[points] += est
            if top:
                np.maximum(tops[points], most, out=tops[points])
    return (sums / den).T, None if tops is None else tops.T


def _group_estimates(table: ObservationTable, fits: NuisanceRows, group: list,
                     eta: np.ndarray, estimator: str, solved: Optional[dict]) -> tuple:
    """Continuous replicates ``group`` at a (K, 1) eta column, evaluated on
    every row: (G, K) estimates (terms summed with the row counts), source
    weights (None for ``cl``) and failures of b's and c's solve and of a
    moment-fitted offset.  A source row a replicate does not draw weighs
    zero, so its tilt overflow or NaN neither raises nor reaches the sums
    (on a drawn row b's solve fails).  Replicate 0 gets full-table values.
    b and c are solved through ``solved`` (``NuisanceRows.solve``)."""
    fitted_a = estimator == "aug-alt" and not fits.derived_a
    b_beta, c_beta, failed = fits.solve(eta, group, ("b",) if estimator == "cl" or fitted_a
                                        else ("b", "c"), solved)
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
                    grid: np.ndarray, estimator: str, top: bool = False,
                    solved: Optional[dict] = None, layout: Optional[tuple] = None) -> tuple:
    """Replicates ``group`` (indices into ``fits``) at every grid point as
    (G, K) arrays: estimates (NaN where failed), failures (None or the
    exception) and, with ``top``, largest source weights.  The group goes
    in blocks of ``_block_step`` points.  A continuous block is evaluated
    on every row at once (``_group_estimates``).  A binary block raises as
    its source weights would (the tilt, then c) and fits a moment-fitted
    offset; the sums follow for the whole grid, window by window
    (``_binary_sums``, given ``layout``), and ``aug-alt`` with the offset
    derived from p and c is ``aug`` there: e^a = ((1 - p)/p)/c.  A block
    that raises reruns by replicate, then by point, so each replicate-point
    gets what it would alone.  ``solved`` goes to a continuous group's
    ``NuisanceRows.solve``."""
    shape = (len(group), grid.size)
    out = (np.full(shape, np.nan), np.full(shape, None, dtype=object),
           np.full(shape, np.nan) if top and estimator != "cl" else None)
    binary, fitted_a = fits.g is not None, estimator == "aug-alt" and not fits.derived_a
    thetas = [None] * len(group) if binary and fitted_a else None  # per replicate
    draws_y1 = functools.cache(lambda: _draws_y1(table, fits, group))

    def evaluate(reps: slice, points: slice):  # a block's terms die with its call
        eta = grid[points, None]
        if not binary:
            est, weights, failed = _group_estimates(table, fits, group[reps], eta, estimator,
                                                    solved)
            return est, failed, None if out[2] is None else [w.max(axis=-1) for w in weights]
        if estimator != "cl" and eta.max() > _LOG_MAX:  # the tilt, then c, overflow
            tilt_weight(float(draws_y1()[reps].any()), TiltSpec(eta))
            if not fitted_a:
                binary_c(0.0, eta)
        if not fitted_a:
            return None, None, None
        rows = range(len(group))[reps]
        failed = np.empty((len(rows), eta.shape[0]), dtype=object)
        for i, j in enumerate(rows):
            theta, failed[i] = fits.offset_fit(eta, group[j])
            if thetas[j] is None:
                thetas[j] = np.full((grid.size, theta.shape[-1]), np.nan)
            thetas[j][points] = theta
        return None, failed, None

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
    if binary:
        est, tops = _binary_sums(table, fits, group, grid, estimator, out[2] is not None,
                                 layout, thetas)
        out[0][...] = est
        if tops is not None:
            out[2][...] = tops
    out[0][np.not_equal(out[1], None)] = np.nan
    return out


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
    design needs fails like the table it stands for: a leave-one-out one
    fails the jackknife, and a bootstrap where every replicate lacks one
    fails.
    ``_replicate_rows`` evaluates a chunk's usable binary replicates as one
    group, whose drawn rows it lays out window by window, or a continuous
    group of max(1, _BLOCK_CELLS // Kn), K the points of a grid block; its
    (G, K) estimates and failures fill the matrices by array operations.

    The fits on the source rows alone (binary g; continuous b and c) are
    made once per chunk (and grid block) and distinct vector of source-row
    counts (``fit_counts``, ``NuisanceRows.solve``): the leave-one-out
    replicates that drop a target row share the full table's.  A chunk
    whose source-row counts never repeat (a bootstrap) keeps no solves
    past a group.
    """
    from .resampling import jackknife_size, replicate_counts

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
                    raise NumericError(
                        f"leave-one-out estimator failed at row {reps[i]}: {exc}") from exc
                why[reps[i]] = type(exc).__name__
        usable = [i for i, exc in enumerate(fits.errors) if exc is None]
        unusable += sum(fits.lacks_stratum)
        size = batch if fits.g is None else max(1, len(usable))  # binary: one group
        key = fits.source_key  # b and c solves shared across groups where counts repeat
        solved = {} if key is not None and (key != np.arange(key.size)).any() else None
        for b_lo in range(0, len(usable), size):
            group = usable[b_lo:b_lo + size]
            values, failed, _ = _replicate_rows(table, fits, group, grid, estimator,
                                                solved=solved)
            rows, ok = lo + np.asarray(group), np.isfinite(values)
            est[rows] = np.where(ok, values, np.nan)
            reason = np.where(ok, None, "non-finite")
            bad = np.not_equal(failed, None)
            reason[bad] = [type(e).__name__ for e in failed[bad]]
            why[rows] = reason
    if unusable == n_reps:
        raise NumericError("every bootstrap replicate failed")
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

    from .resampling import standard_errors, wald_interval

    intervals = [(None, None)] * eta_grid.size
    if resample is not None:
        reps, why = _replicate_matrix(table, nuis.recipe, eta_grid, estimator, resample)
        intervals = standard_errors(reps, why, resample.method)
        metadata["resampling"] = {
            "method": resample.method,
            "replicates": reps.shape[0],
            "seed": resample.seed,
            "stratified": resample.resolve_stratified(table),
            "level": resample.level,
        }
    points = []
    for (eta, res, status), (se, note) in zip(results, intervals):
        if res is not None and se is not None:
            res = res.with_interval(se, wald_interval(res.estimate, se, resample.level))
        if res is not None and note:
            res = replace(res, diagnostics={**res.diagnostics, "resampling_note": note})
        points.append(CurvePoint(eta, res, status))
    return SensitivityCurve(tuple(points), metadata)
