"""Nuisance-function estimation.

``NuisanceRecipe`` holds the designs of the conditional models the risk
estimators consume, and is the one fitting entry point:
``recipe.fit(table)`` gives a ``NuisanceSet`` of nuisance values on the
table's rows, and ``recipe.fit_counts(table, counts)`` gives
``NuisanceRows`` for R count-weighted replicates of it at once.  The fits:

* g(X) = Pr[Y=1 | X, S=1] and p(X) = Pr[S=1 | X] by iteratively
  reweighted least squares with a ridge fallback under separation (also
  ``fit_logistic`` for one logistic model on given rows);
* for binary outcomes, b and c in closed form from g; for continuous ones,
  the tilted conditional risk b and the tilted normalizer c by (weighted)
  least squares on the source rows, both on the outcome model's design
  (g's design for binary outcomes), solved for many replicates and etas
  at once;
* the selection offset a(X, theta; eta), implied by p and c, or fitted by
  a just-identified method of moments on an ``a_design``: the minimizer of
  the entropy-balancing dual, for a column of etas at once.

IRLS and the offset share one batched Newton loop (``_newton``); a fit
that does not converge fails its replicate or grid point with a
ConvergenceError naming why (``_FAILURES``).

A replicate is a vector of row counts over the table (a bootstrap draw or a
leave-one-out table); every fit weights row i by its count, which equals a
fit on the table holding row i that many times.  The full-table fit is the
replicate with every count one.

Design matrices (``DesignSpec``) hold an intercept and linear main effects
or per-column B-spline expansions with knots at empirical quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .data import ObservationTable, check_strata
from .errors import (
    NUMERIC_FAILURES,
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    RankDeficientError,
)
from .tilt import (
    _LOG_MAX,
    LossFunction,
    TiltSpec,
    binary_b,
    binary_c,
    eval_loss,
    expit,
    selection_a,
    tilt_weight,
)

P_CLIP = (0.01, 0.99)     # positivity clip applied to every fitted p(X)
C_FLOOR = 1e-6            # lower clip keeping fitted normalizers positive
# b's stacked solve takes a replicate's tilt weights up to this ratio on its
# drawn rows, which bounds the condition number of its k x k equations
_LOG_SPREAD = float(np.log(1e4))
GLM_PROB_CLIP = (1e-8, 1.0 - 1e-8)
OUTCOMES = ("binary", "continuous")
_TINY = np.finfo(np.float64).tiny
# The passes over a table's rows (the fits' design, the rank check's QR,
# IRLS's sums, fitted values on every row; the binary sweep's windows in
# ``estimators`` and the anchor solves in ``etaselect``) go in blocks of
# this many rows, whatever the replicate or column count, so a replicate's
# bits do not depend on its group and a pass makes no (G, n) or (k, n)
# temporary of a large table.
_BLOCK_ROWS = 2**13


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------


def spline_knots(column: np.ndarray, degree: int, interior_knots: int) -> np.ndarray:
    """Clamped knot vector: boundary knots at min/max (multiplicity
    degree+1), interior knots at empirical quantiles.  ``DesignSpec.build``
    checks that the column has enough distinct values."""
    col = np.asarray(column, dtype=np.float64)
    lo, hi = float(col.min()), float(col.max())
    if interior_knots > 0:
        probs = np.arange(1, interior_knots + 1) / (interior_knots + 1)
        inner = np.quantile(col, probs)
    else:
        inner = np.empty(0)
    return np.r_[[lo] * (degree + 1), inner, [hi] * (degree + 1)]


def _spline_basis(column: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    # imported here: scipy.interpolate pulls in scipy.optimize, and only
    # spline bases need it
    from scipy.interpolate import BSpline

    # evaluation points are clipped to the boundary knots so resampled or
    # held-out rows at the range edges stay inside the basis support
    xc = np.clip(np.asarray(column, dtype=np.float64), knots[0], knots[-1])
    return BSpline.design_matrix(xc, knots, degree, extrapolate=False).toarray()


@dataclass(frozen=True)
class DesignSpec:
    """Which covariate columns enter a nuisance model, after an intercept,
    and on what basis.

    ``basis="linear"`` uses the raw columns.  ``basis="spline"`` expands
    each column with enough distinct values into a B-spline block; columns
    with exactly two distinct values (binary indicators) stay linear.  The
    first basis function of each spline block is dropped, since the block
    sums to one and would be collinear with the intercept.
    """

    columns: Sequence[int]
    basis: str = "linear"
    degree: int = 3
    interior_knots: int = 0

    def __post_init__(self):
        if self.basis not in ("linear", "spline"):
            raise DomainError(f"basis must be 'linear' or 'spline', got {self.basis!r}")
        if self.basis == "spline" and self.degree not in (1, 2, 3):
            raise DomainError("spline degree must be in {1, 2, 3}")
        if self.interior_knots < 0:
            raise DomainError("interior_knots must be >= 0")
        object.__setattr__(self, "columns", tuple(int(j) for j in self.columns))

    def build(self, x: np.ndarray) -> "BuiltDesign":
        """Freeze the design against fitting data (knots from quantiles)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        terms = [("const",)]
        names = ["intercept"]
        for j in self.columns:
            col = x[:, j]
            # the distinct values matter to a spline basis only
            if self.basis == "linear" or (n_distinct := np.unique(col).size) == 2:
                terms.append(("lin", j))
                names.append(f"x{j}")
                continue
            needed = self.interior_knots + self.degree + 1
            if n_distinct < needed:
                raise DomainError(
                    f"column x{j} has {n_distinct} distinct values; spline "
                    f"expansion needs at least {needed}"
                )
            knots = tuple(spline_knots(col, self.degree, self.interior_knots))
            terms.append(("bs", j, knots, self.degree))
            names.extend(f"bs(x{j})[{i}]" for i in range(1, self.degree + self.interior_knots + 1))
        return BuiltDesign(terms=tuple(terms), names=tuple(names))


@dataclass(frozen=True)
class BuiltDesign:
    """A design frozen at fit time; evaluates the matrix on any rows."""

    terms: tuple
    names: tuple

    @property
    def ncols(self) -> int:
        return len(self.names)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The (n, ncols) design on the rows of ``x``, stored column by
        column: its transpose is C-ordered."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out, i = np.empty((self.ncols, x.shape[0])), 0
        for term in self.terms:
            if term[0] == "const":
                out[i] = 1.0
            elif term[0] == "lin":
                out[i] = x[:, term[1]]
            else:
                _, j, knots, degree = term
                basis = _spline_basis(x[:, j], np.asarray(knots), degree)[:, 1:].T
                out[i:i + len(basis)] = basis
                i += len(basis) - 1
            i += 1
        return out.T


def _pivoted_diagonal(r: np.ndarray) -> tuple:
    """|diag R| and the column order of a column-pivoted Householder QR of
    every (k, k) matrix of a (G, k, k) stack, which it overwrites.  Each step
    takes the column of largest trailing norm (the lowest-numbered of equal
    ones) and reflects the rows below it away; the columns stay in place."""
    n_mats, k = r.shape[0], r.shape[-1]
    items = np.arange(n_mats)
    piv = np.empty((n_mats, k), dtype=np.intp)
    diag = np.empty((n_mats, k))
    taken = np.zeros((n_mats, k), dtype=bool)
    for j in range(k):
        norms = np.sqrt(np.add.reduce(r[:, j:] ** 2, axis=1))
        norms[taken] = -1.0
        p = piv[:, j] = np.argmax(norms, axis=1)
        diag[:, j] = norms[items, p]
        if j == k - 1:
            break
        taken[items, p] = True
        # the reflector I - 2 v v' / v'v taking column p's rows j.. to row j
        v = r[items, j:, p]
        v[:, 0] += np.copysign(diag[:, j], v[:, 0])
        vv = np.maximum(np.add.reduce(v * v, axis=1), _TINY)  # v = 0: no reflection
        w = (v[:, None, :] @ r[:, j:])[:, 0] * (2.0 / vv)[:, None]
        r[:, j + 1:] -= v[:, 1:, None] * w[:, None, :]
    return diag, piv


def _row_blocks(m: int) -> list:
    """Slices of ``_BLOCK_ROWS`` consecutive rows covering m rows (one,
    possibly empty, block for m <= ``_BLOCK_ROWS``)."""
    return [slice(i, min(i + _BLOCK_ROWS, m)) for i in range(0, max(m, 1), _BLOCK_ROWS)]


def _r_factors(d_fit, counts: np.ndarray) -> np.ndarray:
    """The (G, k, k) R factors of sqrt(counts) * d for G replicates' fit
    rows, by a tall-skinny QR: an unpivoted numpy QR of each row block's
    count-weighted rows, then one of the blocks' stacked R factors (a
    single block's R is the factor itself).  Zero rows pad a factor of
    fewer fit rows than columns.  ``d_fit`` is the (k, m) transposed
    design, shared, a (G, k, m) stack or a ``_Design``; ``counts`` the
    (G, m) row counts."""
    d = _Design.of(d_fit)
    r = [np.linalg.qr(np.swapaxes(d.block(s) * np.sqrt(counts[:, s])[:, None, :], -1, -2),
                      mode="r") for s in _row_blocks(counts.shape[-1])]
    r = r[0] if len(r) == 1 else np.linalg.qr(np.concatenate(r, axis=-2), mode="r")
    if r.shape[-2] < d.k:  # fewer fit rows than columns
        r = np.concatenate([r, np.zeros((len(r), d.k - r.shape[-2], d.k))], axis=-2)
    return r


def _rank_errors(d_fit, counts: np.ndarray, names: list, r=None) -> list:
    """The exact rank check of G replicates' fit rows, each row taken
    ``counts`` times: per replicate None, or a RankDeficientError naming
    the columns past its rank.

    ``d_fit`` is the (k, m) transposed design on the fit rows, shared, a
    (G, k, m) stack or a ``_Design``; ``counts`` the (G, m) row counts;
    ``names`` each replicate's column names; ``r``, when given, their
    ``_r_factors``, which the check overwrites.

    The rank is that of a column-pivoted QR of the rows repeated by count,
    at tolerance max(rows, k) * eps * max |diag| (rows counted with
    repetition).  sqrt(counts) * d has the same R'R as the repeated rows, so
    its R factor by blocks of rows (``_r_factors``: each block's R, then the
    R of their stack) is theirs; a pivoted pass on that (k, k) R then picks
    the pivots and |diag| a pivoted QR of the rows would, since the norms of
    the trailing columns do not change under Q.
    """
    r = _r_factors(d_fit, counts) if r is None else r
    k = r.shape[-1]
    diag, piv = _pivoted_diagonal(r)
    tol = (np.maximum(counts.sum(axis=1), k) * np.finfo(np.float64).eps
           * np.max(diag, axis=1, initial=0.0))
    rank = np.add.reduce(diag > tol[:, None], axis=1)
    return [None if rank[i] == k else RankDeficientError([names[i][j] for j in piv[i, rank[i]:]])
            for i in range(len(r))]


# Products with a design are stacked matmuls whose every item is one small
# product of fixed shape, (k, m) by (m,) or (m, k), on a C-ordered design:
# each replicate's and each eta's value is computed alone by the same BLAS
# call, so it is the same in any batch (the memory order picks the BLAS
# kernel, hence the copies of strided designs).


def _values(dT: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """d @ beta on the rows of a (..., k, m) transposed design, one row per
    (..., k) coefficient row."""
    return (np.swapaxes(np.ascontiguousarray(dT), -1, -2) @ beta[..., None])[..., 0]


def _project(dT: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d' v: (..., k) for rows ``v`` (..., m)."""
    return (np.ascontiguousarray(dT) @ v[..., None])[..., 0]


def _gram(dT: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d' diag(w) d: (..., k, k) for row weights ``w`` (..., m)."""
    dT = np.ascontiguousarray(dT)
    return (dT * w[..., None, :]) @ np.swapaxes(dT, -1, -2)


def _per_replicate(dT: np.ndarray, reps) -> np.ndarray:
    """The design of replicates ``reps``: a shared (k, m) matrix as is, or
    their entries of a (G, k, m) stack."""
    return dT if dT.ndim == 2 else dT[reps]


def _counts_of(counts: np.ndarray, reps) -> np.ndarray:
    """The rows ``reps`` (sorted, distinct) of a (G, m) counts array, which
    is ``counts`` itself, not a copy, when they are all of its rows."""
    return counts if len(reps) == len(counts) else counts[reps]


def _group_matrix(builts: list, x: np.ndarray) -> np.ndarray:
    """The C-ordered (k, m) transposed design of a group of replicates on
    the rows ``x``, shared by the group, or a (G, k, m) stack when their
    built designs differ."""
    if all(b.terms == builts[0].terms for b in builts):
        return np.ascontiguousarray(builts[0].matrix(x).T)
    return np.ascontiguousarray(np.stack([b.matrix(x).T for b in builts]))


class _Design:
    """A group's transposed design on its fit rows ``x[fit]`` (``fit`` is
    ``slice(None)`` or an index array): the ``_group_matrix`` of its built
    designs ``builts``, held whole (``whole``) when the fit rows make one
    row block, else formed block by block as a pass reaches the block, so
    that no pass holds more of it than a block.  ``_values``, ``_gram`` and
    ``_project`` copy a block to contiguous memory, and ``_r_factors``
    multiplies it, so a block formed anew is the whole design's block bit
    for bit.  ``_Design.of`` wraps a given (k, m) or (G, k, m) array."""

    def __init__(self, builts=None, x=None, fit=slice(None), whole=None):
        self.builts, self.x, self.fit, self.whole = builts, x, fit, whole
        self.k = builts[0].ncols if whole is None else whole.shape[-2]

    @classmethod
    def on_rows(cls, builts: list, x: np.ndarray, fit) -> "_Design":
        m = x.shape[0] if isinstance(fit, slice) else len(fit)
        whole = _group_matrix(builts, x[fit]) if m <= _BLOCK_ROWS else None
        return cls(builts, x, fit, whole)

    @classmethod
    def of(cls, d) -> "_Design":
        return d if isinstance(d, cls) else cls(whole=d)

    def block(self, s: slice) -> np.ndarray:
        """The design on the fit rows ``s``."""
        if self.whole is not None:
            return self.whole[..., s]
        return _group_matrix(self.builts, self.x[s] if isinstance(self.fit, slice)
                             else self.x[self.fit[s]])

    def replicates(self, reps) -> "_Design":
        """The design of the group's replicates ``reps``."""
        if self.whole is not None:
            return _Design(whole=_per_replicate(self.whole, reps))
        return _Design([self.builts[i] for i in np.arange(len(self.builts))[reps]], self.x,
                       self.fit)


def _every_row(builts: list, x: np.ndarray, fit, d_fit: _Design,
               rows: slice = slice(None)) -> np.ndarray:
    """A group's design on the ``rows`` (a slice, all by default) of ``x``:
    ``d_fit``'s when the fit rows ``fit`` are every row (``slice(None)``),
    else evaluated anew."""
    return d_fit.block(rows) if isinstance(fit, slice) else _group_matrix(builts, x[rows])


def _replicate_designs(design: DesignSpec, x: np.ndarray, fit, cnt_fit: np.ndarray,
                       errors: list, min_rows: bool = False) -> list:
    """Freeze ``design`` on each live replicate's fit rows ``x[fit]`` (a
    spline's knots are quantiles of the rows repeated by count; a linear
    design does not read the rows), and rank-check it on the replicate's
    count-weighted fit rows (``_rank_errors``, one call per group).
    ``fit`` is ``slice(None)`` (every row) or an index array, and
    ``cnt_fit`` the (R, m) counts of the fit rows.

    Returns groups (replicates, one built design per replicate, d_fit,
    R), d_fit the group's ``_Design`` on the fit rows and R the (G, k, k)
    ``_r_factors`` of its count-weighted fit rows.  The callers that need
    the design on every row get it from ``_every_row`` after their fit, so
    a fit on the source rows never holds both.  A replicate that fails
    records its exception in ``errors``; with ``min_rows`` a replicate
    needs more fit rows (counted with repetition) than coefficients.
    """
    live = [r for r in range(cnt_fit.shape[0]) if errors[r] is None]
    keyed: dict = {}
    if design.basis == "linear":  # the terms do not depend on the rows
        if live:
            keyed[None] = ([design.build(x)] * len(live), live)
    else:
        x_fit = x[fit]
        for r in live:
            try:
                built = design.build(np.repeat(x_fit, cnt_fit[r].astype(np.intp), axis=0))
            except NUMERIC_FAILURES as exc:
                errors[r] = exc
                continue
            group = keyed.setdefault(built.names, ([], []))
            group[0].append(built)
            group[1].append(r)
    groups = []
    for builts, reps in keyed.values():
        d_fit = _Design.on_rows(builts, x, fit)
        k, cnt = d_fit.k, _counts_of(cnt_fit, reps)
        r_fit = _r_factors(d_fit, cnt)
        failed = _rank_errors(d_fit, cnt, [b.names for b in builts], r_fit.copy())
        keep = []
        for i, r in enumerate(reps):
            if min_rows and cnt_fit[r].sum() < k + 1:
                failed[i] = DataError(f"need at least {k + 1} rows to fit {k} coefficients")
            if failed[i] is None:
                keep.append(i)
            else:
                errors[r] = failed[i]
        if keep:
            groups.append((np.asarray(reps)[keep], [builts[i] for i in keep],
                           d_fit if len(keep) == len(reps) else d_fit.replicates(keep),
                           r_fit[keep]))
    return groups


def _by_source_counts(fit: Callable, counts: np.ndarray, src: np.ndarray, errors: list) -> tuple:
    """Run ``fit()``, a fit of the live replicates on the source rows
    ``src`` alone, on the first live replicate of each distinct vector of
    source-row counts, and copy its outputs (indexed by replicate) and
    failure to the others: each fit is fixed-shape products of its own
    rows, so the copy is bit for bit its own.  Returns (each replicate's
    first live replicate with its counts, else itself; the outputs)."""
    key = np.arange(counts.shape[0])
    live = [r for r in range(counts.shape[0]) if errors[r] is None]
    if len(live) > 1:  # a single replicate (a full-table fit) has nothing to share
        cnt, first = counts.take(src, axis=1), {}
        for r in live:
            key[r] = first.setdefault(cnt[r].tobytes(), r)
    shared = [r for r in live if key[r] != r]
    for r in shared:
        errors[r] = "shared"  # not live while ``fit`` runs
    outputs = fit()
    for r in shared:
        errors[r] = errors[key[r]]
        for out in outputs:
            out[r] = out[key[r]]
    return key, outputs


def _design_by_replicate(design: DesignSpec, x: np.ndarray, fit, counts: np.ndarray,
                         errors: list) -> list:
    """Each replicate's ((k, n) transposed design on every row of ``x``,
    (k, k) R factor of its count-weighted fit rows) from
    ``_replicate_designs``, None where it failed."""
    out = [None] * counts.shape[0]
    for reps, builts, d_fit, r_fit in _replicate_designs(design, x, fit, counts[:, fit],
                                                         errors):
        dT = _every_row(builts, x, fit, d_fit)
        for i, r in enumerate(reps):
            out[r] = (_per_replicate(dT, i), r_fit[i])
    return out


# ---------------------------------------------------------------------------
# Newton's method, batched
# ---------------------------------------------------------------------------


def _solve(h: np.ndarray, grad: np.ndarray) -> tuple:
    """Solutions of the (G, k, k) systems and a mask of the singular ones
    (left at zero)."""
    try:
        return np.linalg.solve(h, grad[..., None])[..., 0], np.zeros(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        delta = np.zeros_like(grad)
        singular = np.zeros(len(h), dtype=bool)
        for i in range(len(h)):
            try:
                delta[i] = np.linalg.solve(h[i], grad[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return delta, singular


# Why an item of ``_newton`` stopped, the texts of its failures, and the
# iteration caps of the logistic fits and of the selection offset
_GOING, _CONVERGED, _SEPARATED, _SINGULAR, _STALLED, _NO_ROOT, _MAX_ITER = range(7)
_FAILURES = {_SINGULAR: "singular Hessian", _STALLED: "no step-halving lowered its objective",
             _NO_ROOT: f"no root: a + eta q(y) passed ±{_LOG_MAX:.5g} on a source row",
             _MAX_ITER: "did not reach tolerance after {} iterations"}
_IRLS_MAX_ITER, _OFFSET_MAX_ITER = 100, 200


def _newton(x: np.ndarray, derivs: Callable, max_iter: int, tol: float = 0.0,
            merit: Optional[Callable] = None, check: Optional[Callable] = None) -> tuple:
    """Newton's method on G convex problems from the (G, k) iterates ``x``,
    updated in place; returns each item's stop reason and iteration count.
    ``derivs(items, x)`` gives the live items' (g, k, k) Hessians, (g, k)
    minus gradients and ``_GOING`` or why each stops there.  A singular
    Hessian stops its item; a step changing no coefficient by ``tol`` is
    taken and converges it.  ``merit(items, x)`` (objective values, sums of
    their terms' magnitudes) halves a step up to 26 times until the
    objective rises by at most four ulps of that sum, its rounding (near a
    root the decrease is below it); else the item stalls, or has no root
    when even its shortest trial step overflows the objective.
    ``check(items, x_new, reasons, it)`` may stop items after their step.
    The iterates left after ``max_iter`` steps are judged by ``derivs`` too.
    """
    reasons, iters = np.full(len(x), _MAX_ITER), np.full(len(x), max_iter)
    live = np.arange(len(x))
    f = None if merit is None else np.stack(merit(live, x))
    for it in range(1, max_iter + 1):
        some = slice(None) if live.size == len(x) else live  # a view while all are live
        x_live = x[some]
        h, grad, reason = derivs(some, x_live)
        step, singular = _solve(h, grad)
        reason[singular & (reason == _GOING)] = _SINGULAR
        go = reason == _GOING
        step[~go] = 0.0
        if merit is not None:
            scale, todo = np.where(go, 1.0, 0.0), np.flatnonzero(go)
            overflows = np.zeros(todo.size, dtype=bool)
            for _ in range(27):
                if todo.size == 0:
                    break
                items = live[todo]
                trial = np.stack(merit(items, x_live[todo] + scale[todo, None] * step[todo]))
                ok = trial[0] <= f[0, items] + 4.0 * np.finfo(np.float64).eps * f[1, items]
                f[:, items[ok]] = trial[:, ok]
                todo, overflows = todo[~ok], ~np.isfinite(trial[0, ~ok])
                scale[todo] *= 0.5
            reason[todo], scale[todo] = np.where(overflows, _NO_ROOT, _STALLED), 0.0
            step *= scale[:, None]
        x[some] = x_new = x_live + step
        reason[go & (np.maximum.reduce(np.abs(step), axis=1) < tol)] = _CONVERGED
        if check is not None:
            check(some, x_new, reason, it)
        stop = reason != _GOING
        if stop.any():
            reasons[live[stop]], iters[live[stop]] = reason[stop], it
            live = live[~stop]
            if live.size == 0:
                break
    else:  # the iterates of the last step
        reason = derivs(live, x[live])[2]
        reasons[live] = np.where(reason == _GOING, _MAX_ITER, reason)
    return reasons, iters


# ---------------------------------------------------------------------------
# Logistic regression by IRLS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlmFit:
    """Fitted logistic model.  ``ridge`` marks the separation fallback."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    design: BuiltDesign
    ridge: bool = False


def _irls(dT, y, w_case, ridge=0.0):
    """IRLS (``_newton`` with full steps, to a largest coefficient change
    of 1e-8) for G count-weighted, optionally ridge-penalized Bernoulli
    likelihoods: ``dT`` is the (k, m) or (G, k, m) transposed design or a
    ``_Design``, ``y`` the (m,) targets and ``w_case`` the (G, m) case
    weights.  Returns (beta, stop reasons, iterations).  The Hessian and
    score are sums over ``_row_blocks``, in block order.  Unpenalized, a
    replicate whose coefficient norm grows from the third iteration on
    while a fitted probability of its own rows is pinned at a bound stops
    as ``_SEPARATED``: the check takes the last block's probabilities from
    the Hessian's pass and evaluates the other blocks' anew."""
    dT = _Design.of(dT)
    beta = np.zeros((w_case.shape[0], dT.k))
    norm_prev, held = np.zeros(len(beta)), {}
    blocks = _row_blocks(w_case.shape[-1])

    def derivs(some, b):
        d = dT.replicates(some)
        for i, s in enumerate(blocks):
            d_s, wc_s = d.block(s), w_case[some, s]
            p = expit(_values(d_s, b))
            w = p * (1.0 - p)
            np.maximum(w, 1e-12, out=w)
            w *= wc_s
            h_s = _gram(d_s, w)
            resid = np.subtract(y[s], p, out=w)  # w is spent once h_s is formed
            resid *= wc_s
            grad_s = _project(d_s, resid)
            h, grad = (h_s, grad_s) if i == 0 else (h + h_s, grad + grad_s)
        held["p"], held["b"] = p, b.copy()  # for the separation check
        if ridge > 0.0:
            h = h + ridge * np.eye(dT.k)
            grad = grad - ridge * b
        return h, grad, np.full(len(b), _GOING)

    def separation(some, b_new, reason, it):
        p_last, b = held.pop("p"), held.pop("b")
        norm_new = np.sqrt(np.add.reduce(b_new**2, axis=1))
        if it >= 3:
            diverged = (reason == _GOING) & (norm_new > norm_prev[some])
            if diverged.any():
                # fitted probabilities of the replicate's own rows pinned at a bound
                d = dT.replicates(some)
                for i, s in enumerate(blocks):
                    p = p_last if i == len(blocks) - 1 else expit(_values(d.block(s), b))
                    p = np.where(w_case[some, s] > 0, p, 0.5)
                    lo_s, hi_s = np.minimum.reduce(p, axis=1), np.maximum.reduce(p, axis=1)
                    lo, hi = ((lo_s, hi_s) if i == 0
                              else (np.minimum(lo, lo_s), np.maximum(hi, hi_s)))
                diverged &= (lo < 1e-10) | (hi > 1.0 - 1e-10)
            reason[diverged] = _SEPARATED
        norm_prev[some] = norm_new

    reasons, iters = _newton(beta, derivs, _IRLS_MAX_ITER, tol=1e-8,
                             check=separation if ridge == 0.0 else None)
    return beta, reasons, iters


def _fit_logistic_rows(design: DesignSpec, x: np.ndarray, fit, targets: np.ndarray,
                       counts: np.ndarray, errors: list) -> tuple:
    """Logistic fits of ``targets[fit]`` (0 and 1, of any numeric or bool
    dtype) on ``design`` for every live replicate, each fit row taken
    ``counts`` times, by ``_irls``; intercept-only designs in closed form,
    the logit of the count-weighted mean.  Separation or a singular
    Hessian triggers a ridge refit (lambda = 1e-4) flagged on the result; a
    replicate whose fit or refit does not converge fails with a
    ConvergenceError naming why.  Returns the (R, n) fitted probabilities
    on every row of ``x``, evaluated by ``_row_blocks`` (NaN for failed
    replicates), and one GlmFit per replicate.
    """
    n_reps = counts.shape[0]
    y = np.asarray(targets)[fit]
    cnt = counts[:, fit]
    bad = ~np.isin(y, (0.0, 1.0))
    if bad.any():
        for r in np.flatnonzero((cnt[:, bad] > 0).any(axis=1)):
            errors[r] = errors[r] or DomainError("logistic targets must be binary 0/1")
    fitted = []   # (replicates, built designs, d_fit, coefficients) of each group
    fits = [None] * n_reps
    for reps, builts, d_fit, _ in _replicate_designs(design, x, fit, cnt, errors,
                                                     min_rows=True):
        w = _counts_of(cnt, reps)
        if d_fit.k == 1:  # the intercept alone
            m = (w * y).sum(axis=1) / w.sum(axis=1)  # all-0 or all-1 targets: no MLE
            reasons = np.where((m <= 0.0) | (m >= 1.0), _SEPARATED, _CONVERGED)
            with np.errstate(divide="ignore"):
                beta = np.where(reasons == _SEPARATED, 0.0, np.log(m / (1.0 - m)))[:, None]
            iters = np.zeros(len(reps), dtype=int)
        else:
            beta, reasons, iters = _irls(d_fit, y, w)
        ridge = (reasons == _SEPARATED) | (reasons == _SINGULAR)
        if ridge.any():
            sub = np.flatnonzero(ridge)
            beta[sub], reasons[sub], iters[sub] = _irls(d_fit.replicates(sub), y, w[sub],
                                                         ridge=1e-4)
        fitted.append((reps, builts, d_fit, beta))
        for i, r in enumerate(reps):
            if reasons[i] != _CONVERGED:
                errors[r] = errors[r] or ConvergenceError(
                    "logistic fit: " + _FAILURES[reasons[i]].format(_IRLS_MAX_ITER))
            fits[r] = GlmFit(beta[i], bool(reasons[i] == _CONVERGED and not ridge[i]),
                             int(iters[i]), builts[i], ridge=bool(ridge[i]))
    prob = np.full((n_reps, x.shape[0]), np.nan)  # not held through IRLS
    for reps, builts, d_fit, beta in fitted:
        for s in _row_blocks(x.shape[0]):
            values = expit(_values(_every_row(builts, x, fit, d_fit, s), beta))
            prob[reps, s] = np.clip(values, *GLM_PROB_CLIP, out=values)
    prob[[e is not None for e in errors]] = np.nan
    return prob, fits


def fit_logistic(design: DesignSpec, rows: np.ndarray, targets: np.ndarray) -> GlmFit:
    """Maximum-likelihood logistic fit of ``targets`` on ``design`` over
    ``rows``, each row once, via IRLS (see ``_fit_logistic_rows``, of which
    this is the one-replicate case)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    errors = [None]
    _, fits = _fit_logistic_rows(design, rows, slice(None), y, np.ones((1, y.size)), errors)
    if errors[0] is not None:
        raise errors[0]
    return fits[0]


# ---------------------------------------------------------------------------
# Continuous-outcome nuisances by (weighted) least squares
# ---------------------------------------------------------------------------


def _wls_coefficients(dT: np.ndarray, response, weights) -> np.ndarray:
    """Weighted least-squares coefficients on a rank-checked (k, m)
    transposed design, one row per row of a (K, m) ``response`` or
    ``weights``, each solved alike for any K: through the QR factors of
    diag(sqrt(w)) d, one factorization per weight row (an (m,) ``weights``
    is shared by every response).  The rows go in decreasing weight, which
    keeps a Householder QR accurate however far the weights spread (tilt
    weights at |eta| >= 30 span hundreds of orders of magnitude).  The
    normal equations are verified for every row."""
    dT = np.ascontiguousarray(dT)
    response = np.asarray(response, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    root = np.sqrt(w)
    order = np.argsort(-root, axis=-1, kind="stable")
    rows = np.take_along_axis(dT * root[..., None, :], order[..., None, :], axis=-1)
    rhs = response * root
    rhs = np.take_along_axis(rhs, np.broadcast_to(order, rhs.shape), axis=-1)
    q, r = np.linalg.qr(np.swapaxes(rows, -1, -2))
    beta = np.linalg.solve(r, _project(np.swapaxes(q, -1, -2), rhs)[..., None])
    beta = beta[..., 0]
    grad = np.max(np.abs(_project(dT, w * (response - _values(dT, beta)))), axis=-1)
    bad = grad > 1e-8 * np.maximum(1.0, np.max(np.abs(_project(dT, w * response)), axis=-1))
    if np.any(bad):
        raise ConvergenceError(
            f"weighted normal equations not solved: gradient norm "
            f"{np.max(grad, where=bad, initial=0.0):.3g}"
        )
    return beta


def _tilted_wls(dT: np.ndarray, r_inv: np.ndarray, pT: np.ndarray, counts: np.ndarray,
                tilt: np.ndarray, w: np.ndarray, response=None) -> tuple:
    """Weighted least squares of G replicates at K tilts at once: (G, K, k)
    coefficients and a (G, K) mask of the items whose normal equations pass
    ``_wls_coefficients``'s check (a singular or non-finite item fails it).

    ``dT`` is the (k, m) transposed design on the fit rows, shared, or a
    (G, k, m) stack; ``r_inv`` the (G, k, k) inverses of the ``_r_factors``
    R of sqrt(counts) d, so D = d R^-1 has D' diag(counts) D = I, and
    ``pT`` the (G, 1, k, m) D'; ``counts`` the (G, m) row counts, ``tilt``
    the (K, m) tilt weights t and ``w`` the (G, K, m) products counts * t.

    Without ``response`` this is c, t regressed on d with weights counts:
    its coefficients are R^-1 D' diag(counts) t, with no solve.  With the
    (m,) ``response`` L it is b, weights counts * t: each item solves the
    k x k normal equations of D, D' diag(counts t) D B = D' diag(counts t) L,
    and the coefficients are R^-1 B.  D carries the design's conditioning,
    so only the spread of the tilt weights is left in the solve.
    """
    k = r_inv.shape[-1]
    d_item = dT if dT.ndim == 2 else dT[:, None]  # each item's design, broadcast over K
    r_inv = r_inv[:, None]
    ok = np.ones(w.shape[:2], dtype=bool)

    def residual(beta):
        fitted = _values(d_item, beta)
        return counts[:, None] * (tilt - fitted) if response is None else w * (response - fitted)

    if response is None:
        target = w
        solve = lambda v: v
    else:
        target = w * response
        gram = _gram(pT, w).reshape(-1, k, k)

        def solve(v):
            out, singular = _solve(gram, v.reshape(-1, k))
            ok[singular.reshape(ok.shape)] = False
            return out.reshape(v.shape)

    beta = (r_inv @ solve(_project(pT, target))[..., None])[..., 0]
    # one corrected step: D's rounding is cond(R) times eps, and the step
    # takes it out of the coefficients
    beta += (r_inv @ solve(_project(pT, residual(beta)))[..., None])[..., 0]
    grad = np.max(np.abs(_project(d_item, residual(beta))), axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(_project(d_item, target)), axis=-1))
    return beta, ok & (grad <= 1e-8 * scale) & np.isfinite(beta).all(axis=-1)


# ---------------------------------------------------------------------------
# Parametric selection offset by method of moments
# ---------------------------------------------------------------------------


def _offset_theta(dT: np.ndarray, src: np.ndarray, y: np.ndarray, counts: np.ndarray,
                  tilt: TiltSpec) -> tuple:
    """Just-identified moment fits of the selection offset a(X, theta; eta)
    = d(X) theta at each eta of ``tilt`` (a (K, 1) column, with the tilt map
    q): (K, k) coefficients, NaN where the fit failed, and the (K,)
    failures, None where it converged.  ``dT`` is the (k, m) transposed
    design on rows with source flags ``src``, outcomes ``y`` and row counts
    ``counts``.

    The count-weighted moments (1/n) sum_i [I(s_i=1) e^{a(x_i) + eta
    q(y_i)} - I(s_i=0)] d(x_i) are driven below 1e-10 in max norm.  They
    are the gradient of the convex entropy-balancing dual F(theta) = (1/n)
    sum_{s=1} c_i e^{d_i theta + eta q(y_i)} - theta . t, t the target
    rows' count-weighted sum of d over n, which ``_newton`` minimizes with
    its exact Hessian and step-halving from the closed-form intercept (the
    root of an intercept-only design).  Without a root (target moments
    outside the hull of the source rows) F is unbounded below and the
    iterates run off: an item fails as having no root once an iterate puts
    a + eta q(y) below -_LOG_MAX on a source row, or once even the shortest
    trial step puts it above +_LOG_MAX (where F overflows, so no accepted
    step goes there).  A failed item's failure is a ConvergenceError naming
    why; rows of one stratum only fail every item with a DataError.
    """
    n, n0 = counts.sum(), counts[~src].sum()
    log_w = tilt.eta * tilt.apply_q(y[src])
    theta = np.zeros((log_w.shape[0], dT.shape[0]))
    failures = np.full(len(theta), None, dtype=object)
    if n0 == 0 or n0 == n:
        failures[:] = [DataError("selection-offset fit needs both source and target rows")]
        return np.full_like(theta, np.nan), failures
    d_src, c_src = np.ascontiguousarray(dT[:, src]), counts[src]
    t_bar = (dT[:, ~src] * counts[~src]).sum(axis=-1) / n
    # log n0 - log sum c e^{log_w}, in log space: e^{log_w} may overflow
    top = np.max(log_w, axis=1)
    theta[:, 0] = (np.log(n0) - top
                   - np.log(np.add.reduce(c_src * np.exp(log_w - top[:, None]), axis=1)))

    def weights(items, th):
        z = _values(d_src, th) + log_w[items]
        with np.errstate(over="ignore"):
            return z, c_src * np.exp(z) / n

    def merit(items, th):
        # an overflowing trial step weighs inf, which the step-halving rejects
        tilted, dot = np.add.reduce(weights(items, th)[1], axis=1), th * t_bar
        with np.errstate(invalid="ignore"):
            return tilted - np.add.reduce(dot, axis=1), tilted + np.add.reduce(abs(dot), axis=1)

    def derivs(items, th):
        z, w = weights(items, th)
        grad = _project(d_src, w) - t_bar
        reason = np.where(np.maximum.reduce(np.abs(grad), axis=1) < 1e-10, _CONVERGED, _GOING)
        reason[np.maximum.reduce(np.abs(z), axis=1) > _LOG_MAX] = _NO_ROOT
        return _gram(d_src, w), -grad, reason

    reasons, _ = _newton(theta, derivs, _OFFSET_MAX_ITER, merit=merit)
    for j in np.flatnonzero(reasons != _CONVERGED):
        theta[j] = np.nan
        failures[j] = ConvergenceError("selection-offset fit: "
                                       + _FAILURES[reasons[j]].format(_OFFSET_MAX_ITER))
    return theta, failures


# ---------------------------------------------------------------------------
# Nuisance bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuisanceSet:
    """Nuisance values on the rows of the table they were fitted to.

    ``p`` and ``g`` are eta-free (n,) arrays; ``b``, ``c`` and ``a`` map a
    scalar eta to (n,) arrays and a (K, 1) eta column to (K, n) or (n,)
    arrays.  ``q`` is the tilt map (None = identity) applied to source
    outcomes.  ``recipe`` is the recipe that fitted the set, which
    resampling uses to refit it; hand-built sets leave it None.

    A fitted set (``NuisanceRecipe.fit``) also carries its fits, the
    ``NuisanceRows`` of one all-ones replicate, and sensitivity curves
    evaluate it as replicate 0 of them.  Its first ``estimate`` keeps what
    its points share on the fits and makes its p and g read-only, so an
    edit cannot leave that stale.  ``dataclasses.replace`` does not copy
    the fits, so a replaced set is a hand-built one: the estimators
    read every field as given, and values derived at fit time, such as a
    from p and c, are not recomputed.
    """

    p: np.ndarray
    b: Callable[[float], np.ndarray]
    c: Callable[[float], np.ndarray]
    g: Optional[np.ndarray] = None
    a: Optional[Callable[[float], np.ndarray]] = None
    q: Optional[Callable[[np.ndarray], np.ndarray]] = None
    meta: dict = field(default_factory=dict)
    recipe: Optional[NuisanceRecipe] = None
    _fits: Optional[NuisanceRows] = field(init=False, default=None, repr=False, compare=False)


class NuisanceRows:
    """Nuisance values of R count-weighted fits on the rows of one table.

    Replicate r weights row i by ``counts[r, i]``.  ``errors[r]`` holds the
    numerical failure of a replicate whose fit failed (its values are then
    undefined); ``lacks_stratum[r]`` marks the failures of replicates that
    draw no source rows, or no target rows of a non-nested table, which
    could not be built as tables.  ``p`` and ``g`` are (R, n) arrays and,
    for binary fits, ``losses`` the (n,) L(1, h) and L(0, h) behind the
    closed forms; ``values`` (b and c) and ``a`` give one replicate's values
    at eta (a scalar or a (K, 1) column) on the given rows, each solved from
    that replicate's rows alone.  The full-table fit of ``NuisanceRecipe.fit``
    is replicate 0, whose counts are all one (``nuisance_set``).

    A continuous fit's b and c regressions, both on the outcome model's
    design, are solved by ``solve`` for a batch of replicates and a block
    of etas at once, with the R factors of the rank check (``_tilted_wls``),
    and evaluated on every row by ``on_every_row``; ``values`` solves its
    replicate alone.  Every item passes the normal-equation check of
    ``_wls_coefficients``; an item that does not, or whose tilt weights
    spread more than ``_LOG_SPREAD`` allows on the rows its replicate
    draws, is solved alone by ``_wls_coefficients`` (``_source_fit``).

    A moment-fitted offset is fitted at every eta of a column at once
    (``offset_fit``, by ``_offset_theta``) and evaluated on given rows
    (``offset_values``); ``offset`` does both and returns each eta's
    ConvergenceError, ``a`` raises the first.

    ``source_key[r]`` (continuous fits) is the first replicate with
    replicate r's source-row counts, which ``solve`` shares b and c by.
    ``point_rows`` holds what ``estimators.estimate`` derives from replicate
    0 of a fitted set (``estimators._point_rows``); b, c and a keep nothing.
    """

    def __init__(self, table, counts, errors, lacks_stratum, p, fits, g, losses, designs,
                 a_designs, q, source_key):
        self.table = table
        self.counts = counts
        self.errors = errors
        self.lacks_stratum = lacks_stratum
        self.p = p
        self.g = g
        self.q = q
        self._fits = fits
        self.losses = losses
        self._designs = designs
        self._a_designs = a_designs
        self.source_key = source_key
        self.point_rows: dict = {}

    def rows_drawn(self, r: int, rows: np.ndarray) -> np.ndarray:
        """The entries of ``rows`` that replicate r draws at least once."""
        return rows[self.counts[r, rows] > 0]

    @property
    def derived_a(self) -> bool:
        """Whether the selection offset a is implied by p and c (else it is
        moment-fitted on an ``a_design``)."""
        return self._a_designs is None

    def _source_fit(self, dT, r, eta, response=None) -> np.ndarray:
        """(K, k) or (k,) coefficients of replicate r's least-squares fit on
        its source rows by ``_wls_coefficients``: the tilt-weighted losses
        (b) or, without a response, the tilt weights themselves (c)."""
        t = self.table
        rows = self.rows_drawn(r, t.source_rows)
        tilt = np.asarray(tilt_weight(t.y[rows], TiltSpec(eta, self.q)), dtype=np.float64)
        cnt = self.counts[r, rows]
        if response is None:
            return _wls_coefficients(dT[:, rows], tilt, cnt)
        return _wls_coefficients(dT[:, rows], response[rows], cnt * tilt)

    def solve(self, eta: np.ndarray, reps, parts=("b", "c"), solved: Optional[dict] = None
              ) -> tuple:
        """Coefficients of a continuous fit's b and c (those named in
        ``parts``) for the replicates ``reps`` at a (K, 1) eta column, solved
        together (``_solve``): per part a (G, K, k) array, None for a part
        not asked for, and the (G, K) failures, None where an item solved
        (b's failure before c's).

        b and c are fitted on the source rows alone, so items are solved
        once per ``source_key`` and kept in ``solved`` by parts, eta block
        and key: a replicate whose source-row counts were solved at this
        block takes those values, its own bit for bit.  ``solved`` is a dict
        the caller keeps for one fit chunk, else this call's own."""
        reps, solved = list(reps), {} if solved is None else solved
        keys = [(parts, eta.tobytes(), int(self.source_key[r])) for r in reps]
        new = {}
        for r, key in zip(reps, keys):
            if key not in solved:
                new.setdefault(key, r)
        if new:
            out = self._solve(eta, list(new.values()), parts)
            solved.update((key, [None if v is None else v[i] for v in out])
                          for i, key in enumerate(new))
        return tuple(None if v[0] is None else np.stack(v) for v in zip(*map(solved.get, keys)))

    def _solve(self, eta: np.ndarray, reps: list, parts) -> tuple:
        """``solve`` for the replicates ``reps``, together (``_tilted_wls``).

        The replicates share the tilt weights on the source rows; a row a
        replicate does not draw weighs zero in its fit.  An item that fails
        the normal-equation check, whose drawn rows overflow the tilt or,
        for b, whose tilt weights on its drawn rows spread wider than
        e^_LOG_SPREAD, is solved again alone by ``_source_fit``, and what
        that raises is the item's failure.  Every item's products have the
        same shapes in any batch, so its value does not depend on the batch
        or the eta block.
        """
        t = self.table
        src = t.source_rows
        spec = TiltSpec(eta, self.q)
        qy = spec.apply_q(t.y[src])
        z = spec.eta * qy
        cnt = self.counts[reps].take(src, axis=-1)  # C-ordered: strided, it slows every product
        drawn = cnt > 0
        bad = ~(z <= _LOG_MAX)  # overflowing or not a number
        if bad.any():  # weighs zero here; where a replicate draws it, _source_fit raises
            z = np.where(bad, -np.inf, z)
        tilt = np.exp(z)
        w = cnt[:, None] * tilt
        failed = np.full((len(reps), eta.shape[0]), None, dtype=object)
        dTs = [self._designs[r][0] for r in reps]
        dT = (dTs[0].take(src, axis=-1) if all(d is dTs[0] for d in dTs)
              else np.stack([d.take(src, axis=-1) for d in dTs]))
        r_inv = np.linalg.inv(np.stack([self._designs[r][1] for r in reps]))
        pT = (np.swapaxes(r_inv, -1, -2) @ dT)[:, None]
        out = {}
        for part in parts:
            response = t.loss if part == "b" else None
            beta, ok = _tilted_wls(dT, r_inv, pT, cnt, tilt, w,
                                   None if response is None else response[src])
            if bad.any():
                ok &= ~(bad[None] & drawn[:, None]).any(axis=-1)
            if part == "b":  # the tilt's spread on the drawn rows bounds the solve's condition
                qy_g = np.broadcast_to(qy, drawn.shape)
                span = (np.max(qy_g, axis=-1, where=drawn, initial=-np.inf)
                        - np.min(qy_g, axis=-1, where=drawn, initial=np.inf))
                ok &= np.abs(eta[:, 0]) * span[:, None] <= _LOG_SPREAD
            for g in np.flatnonzero(~ok.all(axis=1)):
                self._solve_alone(beta[g], failed[g], np.flatnonzero(~ok[g]), dTs[g], reps[g],
                                  eta, response)
            out[part] = beta
        return out.get("b"), out.get("c"), failed

    def _solve_alone(self, beta, failed, items, dT, r, eta, response) -> None:
        """Solve the ``items`` of replicate r's eta column by ``_source_fit``
        into their rows of ``beta``, together and, if that fails, one at a
        time; an item that still fails gets NaN and its exception in
        ``failed`` (unless it holds one already)."""
        try:
            beta[items] = self._source_fit(dT, r, eta[items], response)
            return
        except NUMERIC_FAILURES:
            pass
        for j in items:
            try:
                beta[j] = self._source_fit(dT, r, eta[j:j + 1], response)[0]
            except NUMERIC_FAILURES as exc:
                beta[j] = np.nan
                failed[j] = failed[j] or exc

    def values(self, part: str, eta, r: int, rows) -> np.ndarray:
        """Replicate r's b or c (``part``) at eta on ``rows``: the closed
        form of binary fits, the regression of continuous ones, solved
        alone (raising its failure)."""
        if self.g is not None:
            if part == "c":
                return np.asarray(binary_c(self.g[r, rows], eta))
            l1, l0 = self.losses
            return np.asarray(binary_b(l1[rows], l0[rows], self.g[r, rows], eta))
        b, c, failed = self.solve(np.reshape(eta, (-1, 1)), [r], (part,))
        exc = next((e for e in failed[0] if e is not None), None)
        if exc is not None:
            raise exc
        beta = (b if part == "b" else c).reshape((1,) + np.shape(eta)[:-1] + (-1,))
        values = self.on_every_row([r], beta)[0].take(rows, axis=-1)
        return values if part == "b" else np.maximum(values, C_FLOOR)

    def a(self, eta, r: int, rows) -> np.ndarray:
        """Selection offset of replicate r on ``rows``: the offset implied by
        p and c, or the moment fits of ``offset``, raising the first
        failure."""
        if self._a_designs is None:
            return np.asarray(selection_a(self.p[r, rows], self.values("c", eta, r, rows)))
        values, failures = self.offset(eta, r, rows)
        exc = next((e for e in failures if e is not None), None)
        if exc is not None:
            raise exc
        return values

    def offset(self, eta, r: int, rows) -> tuple:
        """Replicate r's moment-fitted selection offset on ``rows``, fitted at
        every eta of the column at once (``offset_fit``): its values and
        (K,) failures per eta."""
        theta, failures = self.offset_fit(eta, r)
        return self.offset_values(theta.reshape(np.shape(eta)[:-1] + (-1,)), r, rows), failures

    def offset_fit(self, eta, r: int) -> tuple:
        """Replicate r's moment fits of the selection offset at every eta of
        the column at once, on the rows it draws (``_offset_theta``): (K, k)
        coefficients and (K,) failures."""
        dT, _ = self._a_designs[r]
        t = self.table
        drawn = self.rows_drawn(r, np.arange(t.n))
        return _offset_theta(dT[:, drawn], t.s[drawn] == 1, t.y[drawn], self.counts[r, drawn],
                             TiltSpec(np.reshape(eta, (-1, 1)), self.q))

    def offset_values(self, theta: np.ndarray, r: int, rows,
                      window: slice = slice(None)) -> np.ndarray:
        """Replicate r's moment-fitted offset d theta on ``rows``, which lie
        in the table rows ``window`` (a slice, every row by default): the
        design is evaluated on the window's rows."""
        return _values(self._a_designs[r][0][:, window], theta).take(
            rows - (window.start or 0), axis=-1)

    def on_every_row(self, reps, beta: np.ndarray) -> np.ndarray:
        """A continuous fit's b or c (unfloored) of replicates ``reps`` on
        every row, (G, K, n) from (G, K, k) coefficients."""
        dTs = [self._designs[r][0] for r in reps]
        dT = dTs[0] if all(d is dTs[0] for d in dTs) else np.stack(dTs)[:, None]
        return _values(dT, np.ascontiguousarray(beta))  # C-ordered values

    def meta(self, r: int) -> dict:
        fits = self._fits
        meta = {"g_ridge": fits["g"][r].ridge} if "g" in fits else {}
        meta["p_ridge"] = fits["p"][r].ridge
        if "g" in fits:
            meta["g_converged"] = fits["g"][r].converged
        meta["p_converged"] = fits["p"][r].converged
        meta["p_clip"] = P_CLIP
        meta["a_source"] = "gmm" if self._a_designs is not None else "derived"
        return meta

    def nuisance_set(self, recipe: Optional[NuisanceRecipe] = None) -> NuisanceSet:
        """Replicate 0 (the full table, from ``NuisanceRecipe.fit``) as a
        NuisanceSet on every row that carries these fits, which the
        estimators evaluate; raises its failure.  Its b, c and a serve
        copies made by ``dataclasses.replace``, which carry no fits."""
        if self.errors[0] is not None:
            raise self.errors[0]
        every = lambda: np.arange(self.table.n)  # made per call, not held by the set
        nuis = NuisanceSet(
            p=self.p[0],
            b=lambda eta: self.values("b", eta, 0, every()),
            c=lambda eta: self.values("c", eta, 0, every()),
            g=None if self.g is None else self.g[0],
            a=lambda eta: self.a(eta, 0, every()),
            q=self.q,
            meta=self.meta(0),
            recipe=recipe,
        )
        object.__setattr__(nuis, "_fits", self)
        return nuis


def _whole_counts(counts: np.ndarray) -> bool:
    """Whether every count is a finite non-negative integer."""
    return bool(np.all(np.isfinite(counts)) and not np.any(counts < 0)
                and not np.any(counts != np.floor(counts)))


def _check_replicates(table: ObservationTable, counts: np.ndarray) -> list:
    """One entry per replicate: the DataError of a replicate whose source or
    target stratum is empty where the design needs it, else None.  The
    stratum sizes are sums of integers, exact in any order: by row block."""
    errors = []
    n1 = n = 0.0
    for s in _row_blocks(table.n):
        c = counts[:, s]
        n1, n = n1 + np.add.reduce(c, axis=1, where=table.s[s] == 1), n + c.sum(axis=1)
    n0 = n - n1
    for k1, k0 in zip(n1, n0):
        try:
            check_strata(k1, k0, table.design)
            errors.append(None)
        except DataError as exc:
            errors.append(exc)
    return errors


def _check_q(table, counts, q, errors) -> None:
    """Fail each live replicate whose tilt map q is not nondecreasing over
    the range of the source outcomes it draws (``TiltSpec.validate_q``)."""
    src = table.source_rows
    checked: dict = {}
    for r in range(counts.shape[0]):
        if errors[r] is None:
            y_r = table.y[src[counts[r, src] > 0]]
            span = (float(y_r.min()), float(y_r.max()))
            if span not in checked:
                try:
                    TiltSpec(0.0, q).validate_q(*span)
                    checked[span] = None
                except NUMERIC_FAILURES as exc:
                    checked[span] = exc
            errors[r] = checked[span]


@dataclass(frozen=True)
class NuisanceRecipe:
    """How to fit nuisances from any table; reused across resamples.

    ``outcome`` selects the closed-form binary path or the regression path
    for continuous outcomes.  ``g_design`` is the outcome model's design:
    g's for binary outcomes, b's and c's for continuous ones; ``p_design``
    is the selection model's, whose fitted p is clipped to ``P_CLIP``.  With
    an ``a_design`` the selection offset is moment-fitted on it, else it is
    implied by p and c.  ``loss`` must give the observed losses of the
    tables it fits.  Binary analyses require the identity tilt map; a
    custom q is rejected here.
    """

    outcome: str
    loss: LossFunction
    p_design: DesignSpec
    g_design: DesignSpec
    a_design: Optional[DesignSpec] = None
    q: Optional[Callable] = None

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise DomainError("outcome must be 'binary' or 'continuous'")
        if self.outcome == "binary" and self.q is not None:
            raise DomainError(
                "binary analyses use the closed-form tilt and require the "
                "identity q; drop the custom q or switch to continuous"
            )

    def fit(self, table: ObservationTable) -> NuisanceSet:
        """Nuisance values on the rows of ``table``: the one replicate that
        holds every row once."""
        return self.fit_counts(table, np.broadcast_to(1.0, (1, table.n))).nuisance_set(self)

    def fit_counts(self, table: ObservationTable, counts) -> NuisanceRows:
        """Fit every replicate of the (R, n) row counts ``counts``
        (non-negative integers) at once.

        Replicate r is the table holding row i ``counts[r, i]`` times; a
        numerical failure of one replicate is recorded in ``errors`` and
        the others go on.  Any other exception propagates.  Binary g and
        the continuous design of b and c, fitted on the source rows alone,
        are fitted once per distinct vector of source-row counts
        (``_by_source_counts``).  A recipe whose
        loss does not give the table's observed losses on its source rows,
        bit for bit, is a ConfigError.  Binary fits take L(1, h) and L(0, h)
        from the table's ``loss1`` and ``loss0`` under the Brier loss, which
        ``build_table`` evaluated on the same predictions; any other loss
        evaluates its own.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if (counts.ndim != 2 or counts.shape[1] != table.n
                or not all(_whole_counts(counts[:, s]) for s in _row_blocks(table.n))):
            raise DomainError("counts must be an (R, n) array of non-negative integers")
        src = table.source_rows
        try:
            same = all(np.array_equal(eval_loss(self.loss, table.y[rows], table.pred[rows]),
                                      table.loss[rows], equal_nan=True)
                       for rows in (src[s] for s in _row_blocks(src.size)))
        except DomainError:  # the loss is not defined on the table's source rows
            same = False
        if not same:
            raise ConfigError(f"the recipe's {self.loss.kind} loss does not give the table's "
                              "observed losses on its source rows")
        errors = _check_replicates(table, counts)
        lacks_stratum = [e is not None for e in errors]
        fits, g, losses, designs, a_designs, key = {}, None, None, None, None, None
        if self.outcome == "binary":
            not_binary = src[~np.isin(table.y[src], (0.0, 1.0))]  # fails the replicates drawing it
            for r in np.flatnonzero((counts[:, not_binary] > 0).any(axis=1)):
                errors[r] = errors[r] or DomainError(
                    "binary nuisances require 0/1 source outcomes")
            _, (g, fits["g"]) = _by_source_counts(
                lambda: _fit_logistic_rows(self.g_design, table.x, src, table.y, counts, errors),
                counts, src, errors)
        elif self.q is not None:
            _check_q(table, counts, self.q, errors)
        p, fits["p"] = _fit_logistic_rows(self.p_design, table.x, slice(None), table.s, counts,
                                          errors)
        if self.outcome != "binary":
            key, (designs,) = _by_source_counts(
                lambda: (_design_by_replicate(self.g_design, table.x, src, counts, errors),),
                counts, src, errors)
        elif self.loss.is_binary_outcome and table.has_binary_losses:
            losses = (table.loss1, table.loss0)  # build_table's eval_loss on the same pred
        else:  # after the p fit, whose peak memory they would add to
            losses = (eval_loss(self.loss, np.ones_like(table.pred), table.pred),
                      eval_loss(self.loss, np.zeros_like(table.pred), table.pred))
        if self.a_design is not None:
            a_designs = _design_by_replicate(self.a_design, table.x, slice(None), counts, errors)
        np.clip(p, *P_CLIP, out=p)
        return NuisanceRows(table, counts, errors, lacks_stratum, p, fits,
                            g=g, losses=losses, designs=designs, a_designs=a_designs, q=self.q,
                            source_key=key)
