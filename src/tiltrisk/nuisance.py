"""Nuisance-function estimation.

``NuisanceRecipe`` holds the design choices of every conditional model the
risk estimators consume, and is the one fitting entry point:
``recipe.fit(table)`` gives a ``NuisanceSet`` of nuisance values on the
table's rows, and ``recipe.fit_counts(table, counts)`` gives
``NuisanceRows`` for R count-weighted replicates of it at once.  The fits:

* g(X) = Pr[Y=1 | X, S=1] and p(X) = Pr[S=1 | X] by iteratively
  reweighted least squares with a ridge fallback under separation (also
  ``fit_logistic`` for one logistic model on given rows);
* for binary outcomes, b and c in closed form from g; for continuous ones,
  the tilted conditional risk b and the tilted normalizer c by (weighted)
  least squares on the source rows, solved per eta;
* the selection offset a(X, theta; eta), implied by p and c, or fitted by
  a just-identified method of moments on an ``a_design``.

A replicate is a vector of row counts over the table (a bootstrap draw or a
leave-one-out table); every fit weights row i by its count, which equals a
fit on the table holding row i that many times.  The full-table fit is the
replicate with every count one.

Design matrices (``DesignSpec``) support linear main effects or per-column
B-spline expansions with knots at empirical quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .data import ObservationTable, check_strata
from .errors import (
    NUMERIC_FAILURES,
    ConvergenceError,
    DataError,
    DomainError,
    RankDeficientError,
)
from .tilt import (
    BinaryTilt,
    LossFunction,
    TiltSpec,
    binary_b,
    binary_c,
    eval_loss,
    expit,
    selection_a,
    tilt_weight,
)

P_CLIP = (0.01, 0.99)     # positivity clip applied to p(X) before weighting
C_FLOOR = 1e-6            # lower clip keeping fitted normalizers positive
GLM_PROB_CLIP = (1e-8, 1.0 - 1e-8)
_TINY = np.finfo(np.float64).tiny


# ---------------------------------------------------------------------------
# Design matrices
# ---------------------------------------------------------------------------


def spline_knots(column: np.ndarray, degree: int, interior_knots: int) -> np.ndarray:
    """Clamped knot vector: boundary knots at min/max (multiplicity
    degree+1), interior knots at empirical quantiles."""
    col = np.asarray(column, dtype=np.float64)
    n_distinct = np.unique(col).size
    if n_distinct < interior_knots + degree + 1:
        raise DomainError(
            f"column has {n_distinct} distinct values; B-spline basis of "
            f"degree {degree} with {interior_knots} interior knots needs at "
            f"least {interior_knots + degree + 1}"
        )
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
    """Which covariate columns enter a nuisance model and on what basis.

    ``basis="linear"`` uses the raw columns.  ``basis="spline"`` expands
    each column with enough distinct values into a B-spline block; columns
    with exactly two distinct values (binary indicators) stay linear.  When
    an intercept is present the first basis function of each spline block
    is dropped, since the block sums to one and would be collinear with it.
    """

    columns: Sequence[int]
    basis: str = "linear"
    degree: int = 3
    interior_knots: int = 0
    intercept: bool = True

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
        terms = []
        names = []
        if self.intercept:
            terms.append(("const",))
            names.append("intercept")
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
            drop_first = self.intercept
            terms.append(("bs", j, knots, self.degree, drop_first))
            n_basis = self.degree + self.interior_knots + 1
            start = 1 if drop_first else 0
            names.extend(f"bs(x{j})[{i}]" for i in range(start, n_basis))
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
        blocks = []
        for term in self.terms:
            if term[0] == "const":
                blocks.append(np.ones((1, x.shape[0])))
            elif term[0] == "lin":
                blocks.append(x[:, term[1]][None])
            else:
                _, j, knots, degree, drop_first = term
                basis = _spline_basis(x[:, j], np.asarray(knots), degree)
                blocks.append((basis[:, 1:] if drop_first else basis).T)
        return np.vstack(blocks).T


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


def _rank_errors(d_fit: np.ndarray, counts: np.ndarray, names: list) -> list:
    """The exact rank check of G replicates' fit rows, each row taken
    ``counts`` times: per replicate None, or a RankDeficientError naming
    the columns past its rank.

    ``d_fit`` is the (k, m) transposed design on the fit rows, shared, or a
    (G, k, m) stack; ``counts`` the (G, m) row counts; ``names`` each
    replicate's column names.

    The rank is that of a column-pivoted QR of the rows repeated by count,
    at tolerance max(rows, k) * eps * max |diag| (rows counted with
    repetition).  sqrt(counts) * d has the same R'R as the repeated rows, so
    one unpivoted numpy QR of it gives their R factor; a pivoted pass on
    that (k, k) R then picks the pivots and |diag| a pivoted QR of the rows
    would, since the norms of the trailing columns do not change under Q.
    """
    k = d_fit.shape[-2]
    r = np.linalg.qr(np.swapaxes(d_fit * np.sqrt(counts)[:, None, :], -1, -2), mode="r")
    if r.shape[-2] < k:  # fewer fit rows than columns
        r = np.concatenate([r, np.zeros((len(r), k - r.shape[-2], k))], axis=-2)
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


def _group_matrix(builts: list, x: np.ndarray) -> np.ndarray:
    """The C-ordered (k, m) transposed design of a group of replicates on
    the rows ``x``, shared by the group, or a (G, k, m) stack when their
    built designs differ."""
    if all(b.terms == builts[0].terms for b in builts):
        return np.ascontiguousarray(builts[0].matrix(x).T)
    return np.ascontiguousarray(np.stack([b.matrix(x).T for b in builts]))


def _every_row(builts: list, x: np.ndarray, fit, d_fit: np.ndarray) -> np.ndarray:
    """A group's design on every row of ``x``: ``d_fit`` itself when the fit
    rows ``fit`` are every row (``slice(None)``), else evaluated anew."""
    return d_fit if isinstance(fit, slice) else _group_matrix(builts, x)


def _replicate_designs(design: DesignSpec, x: np.ndarray, fit, counts: np.ndarray,
                       errors: list, min_rows: bool = False) -> list:
    """Freeze ``design`` on each live replicate's fit rows ``x[fit]`` (a
    spline's knots are quantiles of the rows repeated by count), evaluate it
    on those rows and rank-check it on the replicate's count-weighted fit
    rows (``_rank_errors``, one call per group).  ``fit`` is ``slice(None)``
    (every row) or an index array.

    Returns groups (replicates, one built design per replicate, d_fit),
    d_fit the group's ``_group_matrix`` on the fit rows.  The callers that
    need the design on every row get it from ``_every_row`` after their
    fit, so a fit on the source rows never holds both.  A replicate that
    fails records its exception in ``errors``; with ``min_rows`` a
    replicate needs more fit rows (counted with repetition) than
    coefficients.
    """
    x_fit = x[fit]
    cnt_fit = counts[:, fit]
    live = [r for r in range(counts.shape[0]) if errors[r] is None]
    keyed: dict = {}
    if design.basis == "linear":  # the terms do not depend on the rows
        if live:
            keyed[None] = ([design.build(x_fit)] * len(live), live)
    else:
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
        d_fit = _group_matrix(builts, x_fit)
        k = d_fit.shape[-2]
        failed = _rank_errors(d_fit, cnt_fit[reps], [b.names for b in builts])
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
                           _per_replicate(d_fit, keep)))
    return groups


def _design_by_replicate(design: DesignSpec, x: np.ndarray, fit, counts: np.ndarray,
                         errors: list) -> list:
    """Each replicate's (built design, (k, n) transposed matrix on every
    row of ``x``) from ``_replicate_designs``, None where it failed."""
    out = [None] * counts.shape[0]
    for reps, builts, d_fit in _replicate_designs(design, x, fit, counts, errors):
        dT = _every_row(builts, x, fit, d_fit)
        for i, r in enumerate(reps):
            out[r] = (builts[i], _per_replicate(dT, i))
    return out


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


def _irls(dT, y, w_case, tol=1e-8, max_iter=100, ridge=0.0):
    """Newton/IRLS iterations for G count-weighted Bernoulli likelihoods at
    once (optionally ridge-penalized); ``dT`` is the (k, m) or (G, k, m)
    transposed design, ``w_case`` the (G, m) case weights.  Each replicate
    stops at its own iteration.  Returns (beta, converged, iterations,
    separated), one entry per replicate; ``separated`` is only flagged on
    the unpenalized path."""
    n_reps, k = w_case.shape[0], dT.shape[-2]
    beta = np.zeros((n_reps, k))
    converged = np.zeros(n_reps, dtype=bool)
    separated = np.zeros(n_reps, dtype=bool)
    iters = np.full(n_reps, max_iter)
    norm_prev = np.zeros(n_reps)
    present = w_case > 0
    live = np.arange(n_reps)
    for it in range(1, max_iter + 1):
        some = slice(None) if live.size == n_reps else live  # a view while all are live
        d, wc, b = _per_replicate(dT, some), w_case[some], beta[some]
        p = expit(_values(d, b))
        w = p * (1.0 - p)
        np.maximum(w, 1e-12, out=w)
        w *= wc
        h = _gram(d, w)
        resid = np.subtract(y, p, out=w)  # w is spent once h is formed
        resid *= wc
        grad = _project(d, resid)
        if ridge > 0.0:
            h = h + ridge * np.eye(k)
            grad = grad - ridge * b
        delta, singular = _solve(h, grad)
        beta_new = b + delta
        beta[some] = np.where(singular[:, None], b, beta_new) if singular.any() else beta_new
        stop = done = ~singular & (np.maximum.reduce(np.abs(delta), axis=1) < tol)
        if ridge == 0.0:
            norm_new = np.sqrt(np.add.reduce(beta_new**2, axis=1))
            if it >= 3:
                diverged = ~done & ~singular & (norm_new > norm_prev[some])
                if diverged.any():
                    # fitted probabilities of the replicate's own rows pinned at a bound
                    drawn = np.where(present[some], p, 0.5)
                    diverged &= ((np.minimum.reduce(drawn, axis=1) < 1e-10)
                                 | (np.maximum.reduce(drawn, axis=1) > 1.0 - 1e-10))
                    del drawn
                stop = done | diverged
            norm_prev[some] = norm_new
            separated[live[singular | stop & ~done]] = True
        # the (G, m) arrays of this iteration go before the next one makes its own
        del d, wc, p, w, resid
        stop = stop | singular
        if not stop.any():
            continue
        converged[live[done]] = True
        iters[live[stop]] = it
        live = live[~stop]
        if live.size == 0:
            break
    return beta, converged, iters, separated


def _fit_logistic_rows(design: DesignSpec, x: np.ndarray, fit, targets: np.ndarray,
                       counts: np.ndarray, errors: list, case_weights=None) -> tuple:
    """Logistic fits of ``targets[fit]`` on ``design`` for every live
    replicate, each fit row taken ``counts`` times (and weighted by
    ``case_weights[fit]`` when given).

    Convergence is declared when the coefficient max-change drops below
    1e-8, with a cap of 100 iterations.  Detected separation (fitted
    probabilities pinned at the boundary with a diverging coefficient
    norm) triggers a ridge refit (lambda = 1e-4) flagged on the result.
    Intercept-only designs are solved in closed form, logit of the
    weighted sample mean.  Returns the (R, n) fitted probabilities on every
    row of ``x`` (NaN for failed replicates) and one GlmFit per replicate.
    """
    n_reps = counts.shape[0]
    y = np.asarray(targets, dtype=np.float64)[fit]
    cnt = counts[:, fit]
    w_case = cnt if case_weights is None else cnt * case_weights[fit]
    bad = ~np.isin(y, (0.0, 1.0))
    if bad.any():
        for r in np.flatnonzero((cnt[:, bad] > 0).any(axis=1)):
            errors[r] = errors[r] or DomainError("logistic targets must be binary 0/1")
    fitted = []   # (replicates, probabilities): the (R, n) array is not held through IRLS
    fits = [None] * n_reps
    for reps, builts, d_fit in _replicate_designs(design, x, fit, counts, errors,
                                                  min_rows=True):
        w = w_case[reps]
        n_grp, k = len(reps), d_fit.shape[-2]
        if k == 1 and builts[0].terms[0][0] == "const":
            m = (w * y).sum(axis=1) / w.sum(axis=1)
            ridge = (m <= 0.0) | (m >= 1.0)  # all-0 or all-1 targets: the MLE diverges
            with np.errstate(divide="ignore"):
                beta = np.where(ridge, 0.0, np.log(m / (1.0 - m)))[:, None]
            converged, iters = ~ridge, np.zeros(n_grp, dtype=int)
        else:
            beta, converged, iters, ridge = _irls(d_fit, y, w)
        if ridge.any():
            sub = np.flatnonzero(ridge)
            beta[sub], _, iters[sub], _ = _irls(_per_replicate(d_fit, sub), y, w[sub],
                                                 ridge=1e-4)
            converged[sub] = False
        fitted.append((reps, expit(_values(_every_row(builts, x, fit, d_fit), beta))))
        for i, r in enumerate(reps):
            fits[r] = GlmFit(beta[i], bool(converged[i]), int(iters[i]),
                             builts[i], ridge=bool(ridge[i]))
    prob = np.full((n_reps, x.shape[0]), np.nan)
    for reps, values in fitted:
        prob[reps] = np.clip(values, *GLM_PROB_CLIP, out=values)
    return prob, fits


def fit_logistic(
    design: DesignSpec,
    rows: np.ndarray,
    targets: np.ndarray,
    case_weights: Optional[np.ndarray] = None,
) -> GlmFit:
    """Maximum-likelihood logistic fit via IRLS (see ``_fit_logistic_rows``,
    of which this is the one-replicate case)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if case_weights is None:
        w_case = np.ones_like(y)
    else:
        w_case = np.asarray(case_weights, dtype=np.float64)
        if np.any(w_case <= 0) or w_case.shape != y.shape:
            raise DomainError("case_weights must be positive and align with targets")
    errors = [None]
    _, fits = _fit_logistic_rows(design, rows, slice(None), y, np.ones((1, y.size)), errors,
                                 w_case)
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
    is shared by every response).  The normal equations are verified for
    every row."""
    dT = np.ascontiguousarray(dT)
    response = np.asarray(response, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    root = np.sqrt(w)
    q, r = np.linalg.qr(np.swapaxes(dT * root[..., None, :], -1, -2))
    beta = np.linalg.solve(r, _project(np.swapaxes(q, -1, -2), response * root)[..., None])
    beta = beta[..., 0]
    grad = np.max(np.abs(_project(dT, w * (response - _values(dT, beta)))), axis=-1)
    bad = grad > 1e-8 * np.maximum(1.0, np.max(np.abs(_project(dT, w * response)), axis=-1))
    if np.any(bad):
        raise ConvergenceError(
            f"weighted normal equations not solved: gradient norm "
            f"{np.max(grad, where=bad, initial=0.0):.3g}"
        )
    return beta


# ---------------------------------------------------------------------------
# Parametric selection offset by method of moments
# ---------------------------------------------------------------------------


def _offset_theta(built: BuiltDesign, dT: np.ndarray, src: np.ndarray, y: np.ndarray,
                  counts: np.ndarray, tilt: TiltSpec, tol: float = 1e-10,
                  max_iter: int = 200) -> np.ndarray:
    """Just-identified moment fit of the selection offset a(X, theta; eta)
    = d(X) theta for the design ``built``, evaluated as the (k, m)
    transposed matrix ``dT`` on rows with source flags ``src``, outcomes
    ``y`` and row counts ``counts``.

    For every design column d_j the count-weighted sample moment

        (1/n) sum_i [ I(s_i=1) e^{a(x_i, theta) + eta q(y_i)} - I(s_i=0) ] d_j(x_i)

    is driven to zero by damped Newton with a numeric Jacobian.  With an
    intercept-only design the root is ln(n0 / sum_{s=1} e^{eta q(y)}).
    Matching the tilt-weighted source rows to the target stratum column by
    column keeps every moment centered at the true offset.
    """
    n = counts.sum()
    n0 = counts[~src].sum()
    if n0 == 0 or n0 == n:
        raise DataError("selection-offset fit needs both source and target rows")
    log_w = tilt.eta * tilt.apply_q(y[src])
    d_src = dT[:, src].T
    c_src = counts[src]
    target_side = (dT[:, ~src] * counts[~src]).sum(axis=-1) / n

    def moments(theta: np.ndarray) -> np.ndarray:
        # an overflowing trial step gives non-finite moments, which the
        # line search below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return d_src.T @ (c_src * np.exp(d_src @ theta + log_w)) / n - target_side

    k = dT.shape[0]
    theta = np.zeros(k)
    for t, term in enumerate(built.terms):
        if term[0] == "const":
            theta[t] = np.log(n0 / (c_src * np.exp(log_w)).sum())
            break

    m = moments(theta)
    norm = float(np.max(np.abs(m)))
    it = 0
    while norm >= tol and it < max_iter:
        it += 1
        jac = np.empty((k, k))
        for j in range(k):
            h = 1e-6 * max(1.0, abs(theta[j]))
            e = np.zeros(k)
            e[j] = h
            # overflowing moments give a non-finite column, and the line
            # search below then stalls
            with np.errstate(invalid="ignore"):
                jac[:, j] = (moments(theta + e) - moments(theta - e)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -m)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -m, rcond=None)[0]
        scale = 1.0
        while scale > 1e-8:
            m_new = moments(theta + scale * step)
            norm_new = float(np.max(np.abs(m_new)))
            if np.isfinite(norm_new) and norm_new < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"selection-offset fit stalled at moment norm {norm:.3g}"
            )
        theta = theta + scale * step
        m = m_new
        norm = norm_new
    if norm >= tol:
        raise ConvergenceError(
            f"selection-offset fit did not reach tolerance after {max_iter} "
            f"iterations; final moment norm {norm:.3g}"
        )
    return theta


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
    resampling uses to refit it; hand-built sets leave it None.  A fitted
    binary set's ``b`` and ``c`` are the methods of its ``closed_forms``;
    while they are, the estimators evaluate b, c and the source weights
    through its ``BinaryTilt`` evaluators instead (``ClosedForms.on``).
    """

    p: np.ndarray
    b: Callable[[float], np.ndarray]
    c: Callable[[float], np.ndarray]
    g: Optional[np.ndarray] = None
    a: Optional[Callable[[float], np.ndarray]] = None
    q: Optional[Callable[[np.ndarray], np.ndarray]] = None
    meta: dict = field(default_factory=dict)
    recipe: Optional[NuisanceRecipe] = None
    closed_forms: Optional[ClosedForms] = None


@dataclass(frozen=True)
class ClosedForms:
    """The binary closed forms of replicate r of the fits ``rows``: b and c
    on every row of their table, and evaluators on chosen rows."""

    rows: NuisanceRows
    r: int

    def b(self, eta) -> np.ndarray:
        l1, l0 = self.rows.losses
        return np.asarray(binary_b(l1, l0, self.rows.g[self.r], eta))

    def c(self, eta) -> np.ndarray:
        return self.rows.c(eta, self.r, slice(None))

    def on(self, tgt: np.ndarray, src: np.ndarray, p: np.ndarray, y: np.ndarray) -> tuple:
        """Two ``BinaryTilt``, each holding its rows' eta-free terms: on
        target rows ``tgt``, and on source rows ``src`` with their outcomes
        ``y`` and the odds of ``p`` behind the source weights (``p`` and
        ``y`` on every row)."""
        l1, l0 = self.rows.losses
        g = self.rows.g[self.r]
        return (BinaryTilt(g[tgt], l1[tgt], l0[tgt]),
                BinaryTilt(g[src], l1[src], l0[src], y[src], p[src]))


class NuisanceRows:
    """Nuisance values of R count-weighted fits on the rows of one table.

    Replicate r weights row i by ``counts[r, i]``.  ``errors[r]`` holds the
    numerical failure of a replicate whose fit failed (its values are then
    undefined); ``lacks_stratum[r]`` marks the failures of replicates that
    draw no source rows, or no target rows of a non-nested table, which
    could not be built as tables.  ``p`` and ``g`` are (R, n) arrays and,
    for binary fits, ``losses`` the (n,) L(1, h) and L(0, h), from which
    ``ClosedForms`` gives b; ``b`` (continuous fits), ``c`` and ``a`` give
    one replicate's values at eta (a scalar or a (K, 1) column) on the
    given rows, each solved from that replicate's rows alone.
    """

    def __init__(self, table, counts, errors, lacks_stratum, p, fits, g=None, losses=None,
                 b_designs=None, c_designs=None, a_designs=None, q=None, p_clip=P_CLIP):
        self.table = table
        self.counts = counts
        self.errors = errors
        self.lacks_stratum = lacks_stratum
        self.p = p
        self.g = g
        self.q = q
        self._fits = fits
        self.losses = losses
        self._b_designs = b_designs
        self._c_designs = c_designs
        self._a_designs = a_designs
        self._p_clip = p_clip

    def rows_drawn(self, r: int, rows: np.ndarray) -> np.ndarray:
        """The entries of ``rows`` that replicate r draws at least once."""
        return rows[self.counts[r, rows] > 0]

    def _source_fit(self, dT, r, eta, response=None) -> np.ndarray:
        """(K, k) or (k,) coefficients of replicate r's least-squares fit on
        its source rows: the tilt-weighted losses (b) or, without a
        response, the tilt weights themselves (c)."""
        t = self.table
        rows = self.rows_drawn(r, t.source_rows)
        tilt = np.asarray(tilt_weight(t.y[rows], TiltSpec(eta, self.q)), dtype=np.float64)
        cnt = self.counts[r, rows]
        if response is None:
            return _wls_coefficients(dT[:, rows], tilt, cnt)
        return _wls_coefficients(dT[:, rows], response[rows], cnt * tilt)

    def b(self, eta, r: int, *rows) -> list:
        """Tilted conditional risk of replicate r on each of ``rows``, from
        the regression of continuous fits (binary fits: ``ClosedForms``)."""
        dT = self._b_designs[r][1]
        beta = self._source_fit(dT, r, eta, self.table.loss)
        return [_values(dT[:, i], beta) for i in rows]

    def c(self, eta, r: int, rows) -> np.ndarray:
        """Tilted normalizer of replicate r on ``rows``."""
        if self.g is not None:
            return np.asarray(binary_c(self.g[r, rows], eta))
        dT = self._c_designs[r][1]
        return np.maximum(_values(dT[:, rows], self._source_fit(dT, r, eta)), C_FLOOR)

    def a(self, eta, r: int, rows) -> np.ndarray:
        """Selection offset of replicate r on ``rows``: a moment fit per eta on
        the rows it draws, or the offset implied by p and c."""
        if self._a_designs is None:
            return np.asarray(selection_a(self.p[r, rows], self.c(eta, r, rows)))
        built, dT = self._a_designs[r]
        t = self.table
        drawn = self.rows_drawn(r, np.arange(t.n))
        d_drawn, src, y, cnt = dT[:, drawn], t.s[drawn] == 1, t.y[drawn], self.counts[r, drawn]
        theta = [_offset_theta(built, d_drawn, src, y, cnt, TiltSpec(e, self.q))
                 for e in np.ravel(eta)]
        return _values(dT[:, rows], np.reshape(theta, np.shape(eta)[:-1] + (dT.shape[0],)))

    def meta(self, r: int) -> dict:
        fits = self._fits
        meta = {"g_ridge": fits["g"][r].ridge} if "g" in fits else {}
        meta["p_ridge"] = fits["p"][r].ridge
        if "g" in fits:
            meta["g_converged"] = fits["g"][r].converged
        meta["p_converged"] = fits["p"][r].converged
        meta["p_clip"] = self._p_clip
        meta["a_source"] = "gmm" if self._a_designs is not None else "derived"
        return meta

    def nuisance_set(self, r: int = 0, recipe: Optional[NuisanceRecipe] = None) -> NuisanceSet:
        """Replicate r as a NuisanceSet on every row; raises its failure."""
        if self.errors[r] is not None:
            raise self.errors[r]
        every = slice(None)
        forms = None if self.g is None else ClosedForms(self, r)
        return NuisanceSet(
            p=self.p[r],
            b=(lambda eta: self.b(eta, r, every)[0]) if forms is None else forms.b,
            c=(lambda eta: self.c(eta, r, every)) if forms is None else forms.c,
            g=None if self.g is None else self.g[r],
            a=lambda eta: self.a(eta, r, every),
            q=self.q,
            meta=self.meta(r),
            recipe=recipe,
            closed_forms=forms,
        )


def _check_replicates(table: ObservationTable, counts: np.ndarray) -> list:
    """One entry per replicate: the DataError of a replicate whose source or
    target stratum is empty where the design needs it, else None."""
    errors = []
    n1 = counts[:, table.source_rows].sum(axis=1)
    n0 = counts[:, table.target_rows].sum(axis=1)
    for k1, k0 in zip(n1, n0):
        try:
            check_strata(k1, k0, table.design)
            errors.append(None)
        except DataError as exc:
            errors.append(exc)
    return errors


def _fail_where(errors: list, counts: np.ndarray, bad_rows: np.ndarray, exc) -> None:
    """Record ``exc`` for every live replicate that draws one of ``bad_rows``."""
    if bad_rows.size:
        for r in np.flatnonzero((counts[:, bad_rows] > 0).any(axis=1)):
            errors[r] = errors[r] or exc


def _a_designs(table, counts, a_design, errors) -> Optional[list]:
    if a_design is None:
        return None
    return _design_by_replicate(a_design, table.x, slice(None), counts, errors)


def _fit_p(table, counts, p_design, p_clip, errors) -> tuple:
    prob, fits = _fit_logistic_rows(p_design, table.x, slice(None),
                                    (table.s == 1).astype(float), counts, errors)
    return np.clip(prob, *p_clip), fits


def _binary_rows(table, counts, g_design, p_design, loss, a_design, p_clip) -> NuisanceRows:
    errors = _check_replicates(table, counts)
    lacks_stratum = [e is not None for e in errors]
    src = table.source_rows
    y_src = table.y[src]
    _fail_where(errors, counts, src[~np.isin(y_src, (0.0, 1.0))],
                DomainError("binary nuisances require 0/1 source outcomes"))
    g, g_fits = _fit_logistic_rows(g_design, table.x, src, table.y, counts, errors)
    p, p_fits = _fit_p(table, counts, p_design, p_clip, errors)
    losses = (eval_loss(loss, np.ones_like(table.pred), table.pred),
              eval_loss(loss, np.zeros_like(table.pred), table.pred))
    return NuisanceRows(table, counts, errors, lacks_stratum, p, {"g": g_fits, "p": p_fits},
                        g=g, losses=losses,
                        a_designs=_a_designs(table, counts, a_design, errors), p_clip=p_clip)


def _continuous_rows(table, counts, p_design, b_design, c_design, q, a_design,
                     p_clip) -> NuisanceRows:
    errors = _check_replicates(table, counts)
    lacks_stratum = [e is not None for e in errors]
    src = table.source_rows
    if q is not None:  # q is probed over each replicate's outcome range
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
    p, p_fits = _fit_p(table, counts, p_design, p_clip, errors)
    b_designs = _design_by_replicate(b_design, table.x, src, counts, errors)
    c_designs = b_designs if c_design == b_design else _design_by_replicate(
        c_design, table.x, src, counts, errors)
    return NuisanceRows(table, counts, errors, lacks_stratum, p, {"p": p_fits},
                        b_designs=b_designs, c_designs=c_designs,
                        a_designs=_a_designs(table, counts, a_design, errors), q=q,
                        p_clip=p_clip)


@dataclass(frozen=True)
class NuisanceRecipe:
    """How to fit nuisances from any table; reused across resamples.

    ``outcome`` selects the closed-form binary path or the regression path
    for continuous outcomes.  Binary analyses require the identity tilt
    map; a custom q is rejected here.
    """

    outcome: str
    loss: LossFunction
    p_design: DesignSpec
    g_design: Optional[DesignSpec] = None
    b_design: Optional[DesignSpec] = None
    c_design: Optional[DesignSpec] = None
    a_design: Optional[DesignSpec] = None
    q: Optional[Callable] = None
    p_clip: tuple = P_CLIP

    def __post_init__(self):
        if self.outcome not in ("binary", "continuous"):
            raise DomainError("outcome must be 'binary' or 'continuous'")
        if self.outcome == "binary":
            if self.q is not None:
                raise DomainError(
                    "binary analyses use the closed-form tilt and require the "
                    "identity q; drop the custom q or switch to continuous"
                )
            if self.g_design is None:
                raise DomainError("binary recipe needs g_design")
        else:
            if self.b_design is None or self.c_design is None:
                raise DomainError("continuous recipe needs b_design and c_design")

    def fit(self, table: ObservationTable) -> NuisanceSet:
        """Nuisance values on the rows of ``table``: the one replicate that
        holds every row once."""
        return self.fit_counts(table, np.broadcast_to(1.0, (1, table.n))).nuisance_set(0, self)

    def fit_counts(self, table: ObservationTable, counts) -> NuisanceRows:
        """Fit every replicate of the (R, n) row counts ``counts``
        (non-negative integers) at once.

        Replicate r is the table holding row i ``counts[r, i]`` times; a
        numerical failure of one replicate is recorded in ``errors`` and
        the others go on.  Any other exception propagates.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if (counts.ndim != 2 or counts.shape[1] != table.n or not np.all(np.isfinite(counts))
                or np.any(counts < 0) or np.any(counts != np.floor(counts))):
            raise DomainError("counts must be an (R, n) array of non-negative integers")
        if self.outcome == "binary":
            return _binary_rows(table, counts, self.g_design, self.p_design, self.loss,
                                self.a_design, self.p_clip)
        return _continuous_rows(table, counts, self.p_design, self.b_design, self.c_design,
                                self.q, self.a_design, self.p_clip)
