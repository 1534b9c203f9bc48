"""Nuisance-function estimation.

Fits every conditional model the risk estimators consume:

* ``fit_logistic``   -- g(X) = Pr[Y=1 | X, S=1] and p(X) = Pr[S=1 | X],
  by iteratively reweighted least squares with a ridge fallback under
  separation;
* ``fit_b_continuous`` / ``fit_c_continuous`` -- tilted conditional risk
  and tilted normalizer for continuous outcomes, by (weighted) least
  squares;
* ``fit_a_gmm``      -- parametric selection offset a(X, theta; eta) by a
  just-identified method-of-moments fit;
* ``NuisanceRecipe`` -- bundles design choices and produces a
  ``NuisanceSet`` of nuisance values on the rows of a given table.

Design matrices support linear main effects or per-column B-spline
expansions with knots at empirical quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.interpolate import BSpline
from scipy.special import expit

from .data import ObservationTable
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    RankDeficientError,
)
from .tilt import (
    LossFunction,
    TiltSpec,
    binary_b,
    binary_c,
    eval_loss,
    selection_a,
    tilt_weight,
)

P_CLIP = (0.01, 0.99)     # positivity clip applied to p(X) before weighting
C_FLOOR = 1e-6            # lower clip keeping fitted normalizers positive
GLM_PROB_CLIP = (1e-8, 1.0 - 1e-8)


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
    # evaluation points are clipped to the boundary knots so resampled or
    # held-out rows at the range edges stay inside the basis support
    xc = np.clip(np.asarray(column, dtype=np.float64), knots[0], knots[-1])
    return BSpline.design_matrix(xc, knots, degree, extrapolate=False).toarray()


def spline_expand(column, degree: int, interior_knots: int) -> np.ndarray:
    """B-spline basis for one column: degree + interior_knots + 1 columns,
    rows summing to one (partition of unity)."""
    if degree not in (1, 2, 3):
        raise DomainError(f"spline degree must be 1, 2 or 3, got {degree}")
    if interior_knots < 0:
        raise DomainError("interior_knots must be >= 0")
    col = np.asarray(column, dtype=np.float64)
    knots = spline_knots(col, degree, interior_knots)
    return _spline_basis(col, knots, degree)


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
            n_distinct = np.unique(col).size
            if self.basis == "linear" or n_distinct == 2:
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
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        blocks = []
        for term in self.terms:
            if term[0] == "const":
                blocks.append(np.ones((x.shape[0], 1)))
            elif term[0] == "lin":
                blocks.append(x[:, [term[1]]])
            else:
                _, j, knots, degree, drop_first = term
                basis = _spline_basis(x[:, j], np.asarray(knots), degree)
                blocks.append(basis[:, 1:] if drop_first else basis)
        return np.hstack(blocks)


def _check_rank(matrix: np.ndarray, names: Sequence[str]) -> None:
    _, r, piv = scipy.linalg.qr(matrix, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(matrix.shape) * np.finfo(np.float64).eps * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < matrix.shape[1]:
        raise RankDeficientError([names[k] for k in piv[rank:]])


def _design_rows(design: DesignSpec, x: np.ndarray, fit=slice(None)) -> tuple:
    """Freeze ``design`` on the rows ``x[fit]``, evaluate it once on every
    row of ``x`` and rank-check the fit rows; returns (built, matrix)."""
    built = design.build(x[fit])
    d = built.matrix(x)
    _check_rank(d[fit], built.names)
    return built, d


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

    def linear_predictor(self, x: np.ndarray) -> np.ndarray:
        return self.design.matrix(x) @ self.coefficients

    def predict(self, x: np.ndarray) -> np.ndarray:
        p = expit(self.linear_predictor(x))
        return np.clip(p, *GLM_PROB_CLIP)


def _irls(d, y, w_case, tol=1e-8, max_iter=100, ridge=0.0):
    """Newton/IRLS iterations for the (optionally ridge-penalized)
    weighted Bernoulli likelihood.  Returns (beta, converged, iters,
    separated); ``separated`` is only flagged on the unpenalized path."""
    k = d.shape[1]
    beta = np.zeros(k)
    norm_prev = 0.0
    for it in range(1, max_iter + 1):
        p = expit(d @ beta)
        w = w_case * np.clip(p * (1.0 - p), 1e-12, None)
        h = d.T @ (w[:, None] * d)
        grad = d.T @ (w_case * (y - p))
        if ridge > 0.0:
            h = h + ridge * np.eye(k)
            grad = grad - ridge * beta
        try:
            delta = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError:
            return beta, False, it, True
        beta_new = beta + delta
        if np.max(np.abs(delta)) < tol:
            return beta_new, True, it, False
        if ridge == 0.0:
            pinned = p.min() < 1e-10 or p.max() > 1.0 - 1e-10
            norm_new = float(np.linalg.norm(beta_new))
            if pinned and it >= 3 and norm_new > norm_prev:
                return beta_new, False, it, True
            norm_prev = norm_new
        beta = beta_new
    return beta, False, max_iter, False


def fit_logistic(
    design: DesignSpec,
    rows: np.ndarray,
    targets: np.ndarray,
    case_weights: Optional[np.ndarray] = None,
) -> GlmFit:
    """Maximum-likelihood logistic fit via IRLS.

    Convergence is declared when the coefficient max-change drops below
    1e-8, with a cap of 100 iterations.  Detected separation (fitted
    probabilities pinned at the boundary with a diverging coefficient
    norm) triggers a ridge refit (lambda = 1e-4) flagged on the result.
    Intercept-only designs are solved in closed form, logit of the
    weighted sample mean.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DomainError("logistic targets must be binary 0/1")
    if case_weights is None:
        w_case = np.ones_like(y)
    else:
        w_case = np.asarray(case_weights, dtype=np.float64)
        if np.any(w_case <= 0) or w_case.shape != y.shape:
            raise DomainError("case_weights must be positive and align with targets")

    built = design.build(rows)
    d = built.matrix(rows)
    if d.shape[0] < d.shape[1] + 1:
        raise DataError(
            f"need at least {d.shape[1] + 1} rows to fit {d.shape[1]} coefficients"
        )
    _check_rank(d, built.names)

    if built.ncols == 1 and built.terms[0][0] == "const":
        m = float(w_case @ y / w_case.sum())
        if 0.0 < m < 1.0:
            beta = np.array([np.log(m / (1.0 - m))])
            return GlmFit(beta, True, 0, built)
        # all-0 or all-1 targets: the MLE diverges, take the ridge path
        beta, conv, iters, _ = _irls(d, y, w_case, ridge=1e-4)
        return GlmFit(beta, False, iters, built, ridge=True)

    beta, converged, iters, separated = _irls(d, y, w_case)
    if separated:
        beta, _, iters, _ = _irls(d, y, w_case, ridge=1e-4)
        return GlmFit(beta, False, iters, built, ridge=True)
    return GlmFit(beta, converged, iters, built)


# ---------------------------------------------------------------------------
# Continuous-outcome nuisances by (weighted) least squares
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WlsFit:
    """Weighted least-squares fit with a prediction method."""

    coefficients: np.ndarray
    weights: np.ndarray
    design: BuiltDesign
    floor: Optional[float] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = self.design.matrix(x) @ self.coefficients
        if self.floor is not None:
            out = np.clip(out, self.floor, None)
        return out


def _wls_coefficients(d: np.ndarray, response, weights) -> np.ndarray:
    """Weighted least-squares coefficients on a rank-checked design matrix,
    with the normal equations verified."""
    response = np.asarray(response, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    sw = np.sqrt(weights)
    beta, *_ = np.linalg.lstsq(sw[:, None] * d, sw * response, rcond=None)
    grad = d.T @ (weights * (response - d @ beta))
    scale = max(1.0, float(np.max(np.abs(d.T @ (weights * response)))))
    if np.max(np.abs(grad)) > 1e-8 * scale:
        raise ConvergenceError(
            f"weighted normal equations not solved: gradient norm {np.max(np.abs(grad)):.3g}"
        )
    return beta


def _wls(design: DesignSpec, rows, response, weights, floor=None) -> WlsFit:
    built, d = _design_rows(design, np.atleast_2d(np.asarray(rows, dtype=np.float64)))
    weights = np.asarray(weights, dtype=np.float64)
    return WlsFit(_wls_coefficients(d, response, weights), weights, built, floor=floor)


def fit_b_continuous(
    design: DesignSpec,
    source_rows: np.ndarray,
    losses: np.ndarray,
    tilt: TiltSpec,
    outcomes: np.ndarray,
) -> WlsFit:
    """Tilted conditional risk for continuous outcomes: weighted linear
    regression of the losses on the design, weights e^{eta*q(y)}."""
    w = np.asarray(tilt_weight(outcomes, tilt), dtype=np.float64)
    return _wls(design, source_rows, losses, w)


def fit_c_continuous(
    design: DesignSpec,
    source_rows: np.ndarray,
    tilt: TiltSpec,
    outcomes: np.ndarray,
) -> WlsFit:
    """Tilted normalizer for continuous outcomes: least-squares regression
    of e^{eta*q(y)} on the design; predictions are floored at 1e-6."""
    w = np.asarray(tilt_weight(outcomes, tilt), dtype=np.float64)
    return _wls(design, source_rows, w, np.ones_like(w), floor=C_FLOOR)


# ---------------------------------------------------------------------------
# Parametric selection offset by method of moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParametricA:
    """Selection offset a(X, theta; eta) = design(X) @ theta."""

    theta: np.ndarray
    design: BuiltDesign
    eta: float
    moment_norm: float
    iterations: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.design.matrix(x) @ self.theta


def fit_a_gmm(
    design: DesignSpec,
    table: ObservationTable,
    tilt: TiltSpec,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> ParametricA:
    """Just-identified moment fit of the selection offset.

    For every design column d_j the sample moment

        (1/n) sum_i [ I(s_i=1) e^{a(x_i, theta) + eta q(y_i)} - I(s_i=0) ] d_j(x_i)

    is driven to zero by damped Newton with a numeric Jacobian.  With an
    intercept-only design the root is ln(n0 / sum_{s=1} e^{eta q(y)}).
    Matching the tilt-weighted source rows to the target stratum column by
    column keeps every moment centered at the true offset.
    """
    built, d = _design_rows(design, table.x)
    theta, norm, it = _offset_theta(built, d, table, tilt, tol, max_iter)
    return ParametricA(theta, built, tilt.eta, norm, it)


def _offset_theta(built: BuiltDesign, d: np.ndarray, table: ObservationTable,
                  tilt: TiltSpec, tol: float = 1e-10, max_iter: int = 200) -> tuple:
    """Moment root theta for the design matrix ``d`` on every table row;
    returns (theta, moment norm, iterations)."""
    if table.n0 == 0 or table.n1 == 0:
        raise DataError("selection-offset fit needs both source and target rows")
    src = table.s == 1
    n = table.n
    log_w = tilt.eta * tilt.apply_q(table.y[src])
    d_src = d[src]
    target_side = d[~src].sum(axis=0) / n

    def moments(theta: np.ndarray) -> np.ndarray:
        # an overflowing trial step gives non-finite moments, which the
        # line search below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return d_src.T @ np.exp(d_src @ theta + log_w) / n - target_side

    k = built.ncols
    theta = np.zeros(k)
    for t, term in enumerate(built.terms):
        if term[0] == "const":
            theta[t] = np.log(table.n0 / np.exp(log_w).sum())
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
    return theta, norm, it


# ---------------------------------------------------------------------------
# Nuisance bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuisanceSet:
    """Nuisance values on the rows of the table they were fitted to.

    ``p`` and ``g`` are eta-free (n,) arrays; ``b``, ``c`` and ``a`` map
    eta to (n,) arrays.  ``q`` is the tilt map (None = identity) applied
    to source outcomes.  ``recipe`` is the recipe that fitted the set, which
    resampling uses to refit it; hand-built sets (exact nuisances in tests)
    leave it None.
    """

    p: np.ndarray
    b: Callable[[float], np.ndarray]
    c: Callable[[float], np.ndarray]
    g: Optional[np.ndarray] = None
    a: Optional[Callable[[float], np.ndarray]] = None
    q: Optional[Callable[[np.ndarray], np.ndarray]] = None
    meta: dict = field(default_factory=dict)
    recipe: Optional[NuisanceRecipe] = None


def _offset(table: ObservationTable, p: np.ndarray, c: Callable,
            a_design: Optional[DesignSpec], q: Optional[Callable]) -> Callable:
    """eta -> selection offset on every row: a moment fit on ``a_design``,
    or the offset implied by p and c."""
    if a_design is None:
        return lambda eta: np.asarray(selection_a(p, c(eta)))
    built, d = _design_rows(a_design, table.x)
    return lambda eta: d @ _offset_theta(built, d, table, TiltSpec(eta, q))[0]


def _fit_p(table: ObservationTable, p_design: DesignSpec, p_clip: tuple) -> tuple:
    p_fit = fit_logistic(p_design, table.x, (table.s == 1).astype(float))
    return p_fit, np.clip(p_fit.predict(table.x), *p_clip)


def fit_binary_nuisances(
    table: ObservationTable,
    g_design: DesignSpec,
    p_design: DesignSpec,
    loss: LossFunction,
    a_design: Optional[DesignSpec] = None,
    p_clip: tuple = P_CLIP,
) -> NuisanceSet:
    """Closed-form nuisance values for binary outcomes.

    g and p come from logistic fits; b and c derive from g and the losses
    L(1, h) and L(0, h) at the table's predictions through the binary tilt
    formulas; a is the offset implied by p and c, or a moment fit on
    ``a_design`` when given.
    """
    src = table.s == 1
    y_src = table.y[src]
    if not np.all(np.isin(y_src, (0.0, 1.0))):
        raise DomainError("binary nuisances require 0/1 source outcomes")
    g_fit = fit_logistic(g_design, table.x[src], y_src)
    p_fit, p = _fit_p(table, p_design, p_clip)
    g = g_fit.predict(table.x)
    l1 = eval_loss(loss, np.ones_like(table.pred), table.pred)
    l0 = eval_loss(loss, np.zeros_like(table.pred), table.pred)

    def b(eta):
        return np.asarray(binary_b(l1, l0, g, eta))

    def c(eta):
        return np.asarray(binary_c(g, eta))

    meta = {
        "g_ridge": g_fit.ridge,
        "p_ridge": p_fit.ridge,
        "g_converged": g_fit.converged,
        "p_converged": p_fit.converged,
        "p_clip": p_clip,
        "a_source": "gmm" if a_design is not None else "derived",
    }
    return NuisanceSet(p=p, b=b, c=c, g=g, a=_offset(table, p, c, a_design, None), meta=meta)


def fit_continuous_nuisances(
    table: ObservationTable,
    p_design: DesignSpec,
    b_design: DesignSpec,
    c_design: DesignSpec,
    q: Optional[Callable] = None,
    a_design: Optional[DesignSpec] = None,
    p_clip: tuple = P_CLIP,
) -> NuisanceSet:
    """Regression nuisance values for continuous outcomes.

    b(eta) solves the tilt-weighted regression of the source losses and
    c(eta) the regression of the tilt weights, each on a design built and
    evaluated once on the table's rows.
    """
    src = table.s == 1
    y_src = table.y[src]
    loss_src = table.loss[src]
    if q is not None:
        TiltSpec(0.0, q).validate_q(float(y_src.min()), float(y_src.max()))
    p_fit, p = _fit_p(table, p_design, p_clip)
    _, d_b = _design_rows(b_design, table.x, src)
    _, d_c = _design_rows(c_design, table.x, src)

    def weights(eta):
        return np.asarray(tilt_weight(y_src, TiltSpec(eta, q)), dtype=np.float64)

    def b(eta):
        return d_b @ _wls_coefficients(d_b[src], loss_src, weights(eta))

    def c(eta):
        w = weights(eta)
        return np.clip(d_c @ _wls_coefficients(d_c[src], w, np.ones_like(w)), C_FLOOR, None)

    meta = {
        "p_ridge": p_fit.ridge,
        "p_converged": p_fit.converged,
        "p_clip": p_clip,
        "a_source": "gmm" if a_design is not None else "derived",
    }
    return NuisanceSet(p=p, b=b, c=c, a=_offset(table, p, c, a_design, q), q=q, meta=meta)


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
        if self.outcome == "binary":
            nuis = fit_binary_nuisances(
                table, self.g_design, self.p_design, self.loss,
                a_design=self.a_design, p_clip=self.p_clip,
            )
        else:
            nuis = fit_continuous_nuisances(
                table, self.p_design, self.b_design, self.c_design,
                q=self.q, a_design=self.a_design, p_clip=self.p_clip,
            )
        return replace(nuis, recipe=self)
