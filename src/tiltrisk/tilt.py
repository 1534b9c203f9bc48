"""Exponential tilt kernel.

Functions for the logistic function, the tilt weight e^{eta*q(y)}, the
equivalent selection-model offset a and loss evaluation, and the binary
closed forms: the tilted Bernoulli probability, the normalizer c and the
conditional risk b (``tilted_bernoulli``, ``binary_c``, ``binary_b``).
The sweeps do not evaluate these per row: ``estimators`` sums every
binary estimate, and its source weights, from eta-free rows and the
scales of ``binary_scales``; the anchor solves hold g's eta-free rows
(``_rows``) and evaluate ``_tilted`` on them.  Nothing here changes after
it is built, so everything is safe to call concurrently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PositivityError, TiltOverflowError, require_list

# Largest exponent representable in float64 (log of float64 max).
_LOG_MAX = float(np.log(np.finfo(np.float64).max))

# Beyond this |exponent| the naive ratio forms lose accuracy; switch to the
# rearranged (normalized) forms.
_STABLE_EXP = 30.0

# The named losses and the prediction model's links.
LOSSES = ("brier", "squared-error", "absolute-deviation")
LINKS = ("logit", "identity")


def _as_array(v) -> np.ndarray:
    return np.asarray(v, dtype=np.float64)


def expit(z) -> np.ndarray:
    """The logistic function 1 / (1 + e^{-z}), elementwise, computed as
    scipy.special.expit computes it: below z = -708.4 the value is
    subnormal, and it is 0 where e^{-z} overflows (z < -709.78)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-_as_array(z)))


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TiltSpec:
    """Sensitivity parameter eta plus the fixed nondecreasing map q.

    ``q=None`` means the identity, which is the only q admitted by the
    binary closed forms.  A custom q is probed for monotonicity on a grid
    spanning the observed outcome range before first use.
    """

    eta: float
    q: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not np.isfinite(self.eta).all():
            raise DomainError(f"eta must be finite, got {self.eta}")

    def apply_q(self, y) -> np.ndarray:
        y = _as_array(y)
        if self.q is None:
            return y
        return _as_array(self.q(y))

    def validate_q(self, y_lo: float, y_hi: float) -> None:
        """Check q is nondecreasing on a 101-point probe grid over
        [y_lo, y_hi]."""
        if self.q is None:
            return
        grid = np.linspace(y_lo, y_hi, 101)
        vals = self.apply_q(grid)
        if not np.all(np.isfinite(vals)):
            raise DomainError("q produced non-finite values on the probe grid")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, np.abs(vals).max())):
            raise DomainError("q must be nondecreasing over the outcome range")


@dataclass(frozen=True)
class LossFunction:
    """Loss L(y, pred) >= 0.

    ``kind`` is one of ``brier``, ``squared-error``, ``absolute-deviation``
    or ``custom``.  Brier is squared error restricted to binary y and
    predictions in [0, 1].  A custom hook supplies any (y, pred) -> loss.
    """

    kind: str
    fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    _KINDS = LOSSES + ("custom",)

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(
                f"unknown loss kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind == "custom" and self.fn is None:
            raise DomainError("custom loss requires fn")

    @property
    def is_binary_outcome(self) -> bool:
        return self.kind == "brier"

    def __call__(self, y, pred) -> np.ndarray:
        return eval_loss(self, y, pred)


@dataclass(frozen=True)
class PredictionModel:
    """Fixed prediction model h(x*, coefficients).

    ``coefficients`` holds the intercept first, then one slope per selected
    covariate column.  ``xstar_columns`` indexes the columns of the full
    covariate matrix that form x*; when given, the coefficient count is
    checked against it here, else on the matrix ``predict`` is given.  The
    model is an input to the analysis; it is never refit here.
    """

    coefficients: tuple
    link: str = "logit"
    xstar_columns: Sequence[int] = field(default=None)

    def __post_init__(self):
        if self.link not in LINKS:
            raise DomainError(f"link must be one of {LINKS}, got {self.link!r}")
        coefficients = require_list(self.coefficients, "coefficients")
        object.__setattr__(self, "coefficients", tuple(map(float, coefficients)))
        if not np.all(np.isfinite(self.coefficients)):
            raise DomainError(f"coefficients must be finite, got {self.coefficients}")
        if self.xstar_columns is not None:
            cols = require_list(self.xstar_columns, "xstar_columns", numbers.Integral, "integers")
            object.__setattr__(self, "xstar_columns", tuple(map(int, cols)))
            self._check_width(len(self.xstar_columns))

    def _check_width(self, n_selected: int) -> None:
        if len(self.coefficients) != n_selected + 1:
            raise DomainError(
                f"coefficient length {len(self.coefficients)} does not match "
                f"{n_selected} selected columns plus intercept"
            )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate h(x*) row-wise on the full covariate matrix x."""
        x = np.atleast_2d(_as_array(x))
        cols = self.xstar_columns
        xs = x if cols is None else x[:, list(cols)]
        self._check_width(xs.shape[1])
        beta = np.asarray(self.coefficients)
        lp = beta[0] + xs @ beta[1:]
        if self.link == "identity":
            return lp
        # keep logit-link predictions strictly inside (0, 1)
        p = 1.0 / (1.0 + np.exp(-np.clip(lp, -36.0, 36.0)))
        return np.clip(p, 1e-15, 1.0 - 1e-15)


# ---------------------------------------------------------------------------
# Tilt operations
# ---------------------------------------------------------------------------


def tilt_weight(y, tilt: TiltSpec):
    """Tilt weight e^{eta * q(y)}; equals 1 at eta = 0.

    A (K, 1) eta gives (K, n) weights.  Raises TiltOverflowError when an
    exponent exceeds the float64 range, reporting the largest exponent
    instead of returning inf.
    """
    z = tilt.eta * tilt.apply_q(y)
    zmax = np.max(z) if np.ndim(z) else z
    if zmax > _LOG_MAX:
        raise _exponent_overflow(zmax)
    out = np.exp(z)
    return out if np.ndim(z) else float(out)


def _exponent_overflow(zmax) -> TiltOverflowError:
    return TiltOverflowError(f"tilt exponent {float(zmax):.3g} exceeds float64 log-max "
                             f"{_LOG_MAX:.5g}; the weight would saturate to inf")


def _normalizer_overflow(eta) -> TiltOverflowError:
    return TiltOverflowError(f"exp({eta:.3g}) overflows float64 in the tilted normalizer")


def binary_scales(eta: np.ndarray) -> tuple:
    """(x, y) at a (K, 1) eta column, with x g + y (1 - g) = y (e^eta g + 1 - g):
    (e^eta, 1) up to eta = 30, else (1, e^-eta); y is None if no |eta| > 30."""
    if np.abs(eta).max() <= _STABLE_EXP:
        return np.exp(eta), None
    up = eta > _STABLE_EXP
    return np.exp(np.where(up, 0.0, eta)), np.exp(np.where(up, -eta, 0.0))


def _rows(g, l1=None, l0=None) -> tuple:
    """The eta-free terms of rows: g (checked to lie in [0, 1], so NaN
    fails) and 1 - g, and with the losses l1 = L(1, h) and l0 = L(0, h)
    also l1, l0 and l0 (1 - g)."""
    g = np.asarray(g, dtype=np.float64)
    # the ufunc reductions skip the array-method wrappers on this per-call path;
    # a NaN propagates through them and fails both comparisons
    if not (np.minimum.reduce(g, axis=None, initial=0.0) >= 0
            and np.maximum.reduce(g, axis=None, initial=1.0) <= 1):
        raise DomainError("g must lie in [0, 1]")
    if l1 is None:
        return g, 1.0 - g
    l1, l0 = np.asarray(l1, dtype=np.float64), np.asarray(l0, dtype=np.float64)
    if not l1.shape == l0.shape == g.shape:
        g, l1, l0 = np.broadcast_arrays(g, l1, l0)
    h = 1.0 - g
    return g, h, l1, l0, l0 * h


def _tilted(g, h, eta):
    """The tilted probability x g / (x g + y h) at ``binary_scales``' (x, y)
    for eta: g where that denominator underflows to 0 (g = 0 far above,
    g = 1 far below) and exactly g at eta = 0."""
    eta = np.asarray(eta, dtype=np.float64)
    x, y = binary_scales(eta)
    out = x * g
    den = out + (h if y is None else y * h)
    with np.errstate(invalid="ignore"):  # 0/0 where den underflows
        out /= den
    if y is not None:
        out = np.where(den == 0.0, g, out)
    if 0.0 in eta:
        out = np.where(eta == 0.0, g, out)
    return out if out.ndim else float(out)


def _b(g, h, l1, l0, l0h, eta):
    """b at eta: (l1 w g + l0 (1 - g)) / (w g + 1 - g) with w = e^eta up to
    |eta| = 30, the denominator exactly 1 at eta = 0 (zero tilt is untilted
    whatever g holds), and t l1 + (1 - t) l0 beyond, t the tilted
    probability; a float for a scalar eta on scalar rows."""
    eta = np.asarray(eta, dtype=np.float64)
    etas = eta.ravel().tolist()
    mid = -_STABLE_EXP <= min(etas) and max(etas) <= _STABLE_EXP
    if not any(etas):
        w, den = np.ones(eta.shape) if eta.ndim else 1.0, 1.0
    else:
        w = np.exp(eta if mid else np.where(np.abs(eta) <= _STABLE_EXP, eta, 0.0))
        den = w * g
        den += h
        if 0.0 in etas:
            np.copyto(den, 1.0, where=eta == 0.0)
    out = l1 * w
    out *= g
    out += l0h
    out /= den
    if not mid:
        # express through the tilted probability, which is already stable
        t = _tilted(g, h, eta)
        out = np.where(np.abs(eta) <= _STABLE_EXP, out, t * l1 + (1.0 - t) * l0)
    return out if out.ndim else float(out)


def _normalizer(g, h, eta):
    eta = _as_array(eta)
    etas = eta.ravel().tolist()
    if max(etas) > _LOG_MAX:
        raise _normalizer_overflow(max(etas))
    out = np.exp(eta) * g
    out += h
    if 0.0 in etas:
        out = np.where(eta == 0.0, 1.0, out)  # exact: an untilted density's normalizer
    return out if out.ndim else float(out)


def tilted_bernoulli(g, eta):
    """Tilted success probability e^eta*g / (e^eta*g + 1 - g).

    Identity q is assumed (binary closed form).  Strictly increasing in eta
    for g in (0, 1); fixed points at g = 0 and g = 1.  Each eta of a column
    is exact at 0, a ratio for |eta| <= 30 and rearranged beyond.
    """
    return _tilted(*_rows(g), eta)


def binary_c(g, eta):
    """Binary tilted normalizer c = e^eta * g + 1 - g (identity q), per eta."""
    return _normalizer(*_rows(g), eta)


def binary_b(l1, l0, g, eta):
    """Binary tilted conditional risk.

    Weighted mean of the two per-row losses under the tilted probability:
    (l1*e^eta*g + l0*(1-g)) / (e^eta*g + 1-g).  Always lies between l0 and
    l1; tends to l1 as eta -> +inf and to l0 as eta -> -inf.  Per eta.
    """
    return _b(*_rows(g, l1, l0), eta)


def selection_a(p_source, c):
    """Selection-model offset a = logit(1 - p) - ln c.

    Satisfies e^a = ((1 - p)/p) / c, linking the inverse-odds weights to the
    offset-parameterized weights e^{a + eta*q(y)}.
    """
    p = _as_array(p_source)
    c = _as_array(c)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise PositivityError("p_source must lie strictly inside (0, 1)")
    if np.any(c <= 0.0):
        raise DomainError("normalizer c must be positive")
    out = np.log((1.0 - p) / p) - np.log(c)
    return out if out.ndim else float(out)


def eval_loss(loss: LossFunction, y, pred):
    """Evaluate the loss row-wise; scalar in, scalar out."""
    y = _as_array(y)
    pred = _as_array(pred)
    if loss.kind == "brier":
        if np.any((y != 0) & (y != 1)):
            raise DomainError("Brier loss requires binary y in {0, 1}")
        if np.any((pred < 0) | (pred > 1)):
            raise DomainError("Brier loss requires predictions in [0, 1]")
        out = (y - pred) ** 2
    elif loss.kind == "squared-error":
        out = (y - pred) ** 2
    elif loss.kind == "absolute-deviation":
        out = np.abs(y - pred)
    else:
        out = _as_array(loss.fn(y, pred))
        if np.any(out < 0):
            raise DomainError("custom loss returned a negative value")
    return out if out.ndim else float(out)
