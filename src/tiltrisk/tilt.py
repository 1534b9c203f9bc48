"""Exponential tilt kernel.

Functions for the logistic function, the tilt weight e^{eta*q(y)}, the
equivalent selection-model offset a and loss evaluation, and the binary
closed forms: the tilted Bernoulli probability, the normalizer c, the
conditional risk b and the augmented source weight.  ``BinaryTilt`` holds
the eta-free terms of these forms on fixed rows, so that a fit computes
them once and each eta costs only the passes that depend on eta;
``tilted_bernoulli``, ``binary_c`` and ``binary_b`` evaluate the same
forms on the rows they are given, without building the class.  Nothing
here changes after it is built, so everything is safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PositivityError, TiltOverflowError

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
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if not np.all(np.isfinite(self.coefficients)):
            raise DomainError(f"coefficients must be finite, got {self.coefficients}")
        if self.xstar_columns is not None:
            object.__setattr__(self, "xstar_columns", tuple(int(j) for j in self.xstar_columns))
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
    return TiltOverflowError(
        f"tilt exponent {float(zmax):.3g} exceeds float64 log-max {_LOG_MAX:.5g}; "
        "the weight would saturate to inf"
    )


def _rows(g, l1=None, l0=None) -> tuple:
    """The eta-free terms of rows: g (checked to lie in [0, 1]) and 1 - g,
    and with the losses l1 = L(1, h) and l0 = L(0, h) also l1, l0 and
    l0 (1 - g)."""
    g = np.asarray(g, dtype=np.float64)
    # the ufunc reductions skip the array-method wrappers on this per-call path
    if (np.minimum.reduce(g, axis=None, initial=0.0) < 0
            or np.maximum.reduce(g, axis=None, initial=1.0) > 1):
        raise DomainError("g must lie in [0, 1]")
    if l1 is None:
        return g, 1.0 - g
    l1, l0 = np.asarray(l1, dtype=np.float64), np.asarray(l0, dtype=np.float64)
    if not l1.shape == l0.shape == g.shape:
        g, l1, l0 = np.broadcast_arrays(g, l1, l0)
    h = 1.0 - g
    return g, h, l1, l0, l0 * h


def _ratio(g, h, eta) -> tuple:
    """(eta, w, den, mid): eta as an array, w = e^eta where |eta| <= 30,
    else 1, the denominator w g + 1 - g and whether every |eta| <= 30.
    The denominator is set to exactly 1 at eta = 0, so zero tilt is
    untilted whatever g holds."""
    eta = np.asarray(eta, dtype=np.float64)
    etas = eta.ravel().tolist()
    if not any(etas):
        return eta, np.ones(eta.shape) if eta.ndim else 1.0, 1.0, True
    mid = -_STABLE_EXP <= min(etas) and max(etas) <= _STABLE_EXP
    w = np.exp(eta if mid else np.where(np.abs(eta) <= _STABLE_EXP, eta, 0.0))
    den = w * g
    den += h
    if 0.0 in etas:
        np.copyto(den, 1.0, where=eta == 0.0)
    return eta, w, den, mid


def _far(g, h, eta) -> np.ndarray:
    """The tilted probability in its rearranged forms for |eta| > 30."""
    # above: divide through by e^eta; 0/0 at g = 0 once e^-eta underflows
    denom = g + np.exp(-np.maximum(eta, _STABLE_EXP)) * h
    up = g / np.where(denom == 0.0, 1.0, denom)
    # below: e^eta underflows harmlessly toward 0
    w = np.exp(np.minimum(eta, -_STABLE_EXP))
    denom = w * g + h
    down = np.where(g >= 1.0, 1.0, (w * g) / np.where(denom == 0.0, 1.0, denom))
    return np.where(eta > 0, up, down)


def _tilted(g, h, eta):
    eta, w, den, mid = _ratio(g, h, eta)
    out = w * g
    out /= den
    if not mid:
        out = np.where(np.abs(eta) <= _STABLE_EXP, out, _far(g, h, eta))
    return out if out.ndim else float(out)


def _b(g, h, l1, l0, l0h, eta) -> tuple:
    """(b, ``_ratio``'s terms) at eta."""
    eta, w, den, mid = ratio = _ratio(g, h, eta)
    out = l1 * w
    out *= g
    out += l0h
    out /= den
    if not mid:
        # express through the tilted probability, which is already stable
        t = _far(g, h, eta)
        out = np.where(np.abs(eta) <= _STABLE_EXP, out, t * l1 + (1.0 - t) * l0)
    return out, ratio


def _normalizer(g, h, eta):
    eta = _as_array(eta)
    etas = eta.ravel().tolist()
    if max(etas) > _LOG_MAX:
        raise TiltOverflowError(f"exp({max(etas):.3g}) overflows float64 in the tilted normalizer")
    out = np.exp(eta) * g
    out += h
    if 0.0 in etas:
        out = np.where(eta == 0.0, 1.0, out)  # exact: an untilted density's normalizer
    return out if out.ndim else float(out)


class BinaryTilt:
    """The binary closed forms (identity q) at any eta on fixed rows.

    Holds the eta-free terms of the rows, computed once: g (checked to lie
    in [0, 1]) and 1 - g; with the losses l1 = L(1, h) and l0 = L(0, h),
    also l0 (1 - g); with source outcomes y, which rows have y = 1; with p,
    the inverse odds (1 - p)/p.  Each method takes a scalar eta, giving
    values shaped like the rows, or a (K, 1) column, giving (K, m) values.
    Per eta, a value is exact at eta = 0, a ratio for |eta| <= 30 and
    rearranged beyond, where the ratio loses accuracy.  The functions
    ``tilted_bernoulli``, ``binary_c`` and ``binary_b`` evaluate the same
    forms on the rows they are given, without building the class.
    """

    __slots__ = ("g", "h", "l1", "l0", "l0h", "y1", "odds")

    def __init__(self, g, l1=None, l0=None, y=None, p=None):
        if l1 is None:
            self.g, self.h = _rows(g)
            self.l1 = self.l0 = self.l0h = None
        else:
            self.g, self.h, self.l1, self.l0, self.l0h = _rows(g, l1, l0)
        self.y1 = None if y is None else np.asarray(y) == 1.0
        self.odds = None if p is None else (1.0 - np.asarray(p, dtype=np.float64)) / p

    def tilted(self, eta):
        """Tilted success probability e^eta g / (e^eta g + 1 - g)."""
        return _tilted(self.g, self.h, eta)

    def b(self, eta):
        """Tilted conditional risk (l1 e^eta g + l0 (1 - g)) / (e^eta g + 1 - g)."""
        out = _b(self.g, self.h, self.l1, self.l0, self.l0h, eta)[0]
        return out if out.ndim else float(out)

    def c(self, eta):
        """Tilted normalizer e^eta g + 1 - g."""
        return _normalizer(self.g, self.h, eta)

    def tilt(self, eta) -> np.ndarray:
        """The tilt weight e^{eta y} of the source rows: e^eta where y = 1,
        else 1.  Raises as ``tilt_weight`` does for a non-finite eta or an
        exponent past the float64 range."""
        eta = TiltSpec(_as_array(eta)).eta
        zmax = max(eta.ravel().tolist())
        if zmax > _LOG_MAX and self.y1.any():
            raise _exponent_overflow(zmax)
        with np.errstate(over="ignore"):  # e^eta overflows only where no y = 1 takes it
            return np.where(self.y1, np.exp(eta), 1.0)

    def b_weight(self, eta) -> tuple:
        """b and the augmented source weight (1 - p)/p e^{eta y} / c at
        eta; c equals b's denominator wherever |eta| <= 30."""
        b, (eta, _, den, mid) = _b(self.g, self.h, self.l1, self.l0, self.l0h, eta)
        weight = self.tilt(eta)
        weight *= self.odds
        weight /= den if mid else np.where(np.abs(eta) <= _STABLE_EXP, den, self.c(eta))
        return b, weight


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
    out = _b(*_rows(g, l1, l0), eta)[0]
    return out if out.ndim else float(out)


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
