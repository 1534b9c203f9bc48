"""Prevalence-anchored selection of the sensitivity parameter.

Given a hypothesized outcome prevalence in the target population (mu for
non-nested designs, cohort-wide alpha for nested ones), solve for the eta
whose implied tilted prevalence matches it.  The implied prevalence is
strictly increasing in eta whenever any fitted g lies inside (0, 1), so
the root is unique; Illinois (regula falsi) steps after geometric bracket
expansion find it.  The fitted g and p enter as values on the table's
rows, checked once per anchored grid to be finite (and p to lie in
[0, 1]); each step of both endpoint solves sums the tilted probability
(``tilt._tilted``) over row blocks, forming each block's eta-free terms
(g's ``tilt._rows``) as it goes.  Binary outcomes with the identity tilt
map only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import ObservationTable
from .errors import ConvergenceError, DomainError, require_number
from .nuisance import _row_blocks
from .tilt import _rows, _tilted, tilted_bernoulli

BRACKET_CAP = 50.0
FTOL = 1e-10


@dataclass(frozen=True)
class PrevalenceAnchor:
    """Hypothesized prevalence, the range multipliers to sweep and the grid step.

    Exactly one of ``mu`` (non-nested: E[Y | S=0]) or ``alpha`` (nested:
    E[Y]) is set, inside (0, 1).  The default multipliers scan from half to
    double the anchor, intersected with (0, 1); the grid is laid on the
    lattice of multiples of ``step``.
    """

    mu: Optional[float] = None
    alpha: Optional[float] = None
    multipliers: tuple = (0.5, 2.0)
    step: float = 0.05

    def __post_init__(self):
        if (self.mu is None) == (self.alpha is None):
            raise DomainError("set exactly one of mu (non-nested) or alpha (nested)")
        name = "mu" if self.mu is not None else "alpha"
        if not 0.0 < require_number(self.value, name) < 1.0:
            raise DomainError(f"the prevalence anchor {name} must lie in (0, 1)")
        multipliers = tuple(self.multipliers) if isinstance(self.multipliers, Iterable) else ()
        if len(multipliers) != 2:
            raise DomainError(f"multipliers must be two numbers, got {self.multipliers!r}")
        lo, hi = (require_number(m, "a multiplier") for m in multipliers)
        if not (0.0 < lo <= hi):
            raise DomainError("multipliers must be positive and ordered")
        if not 0.0 < require_number(self.step, "step") < math.inf:
            raise DomainError("step must be positive and finite")
        object.__setattr__(self, "multipliers", multipliers)
        object.__setattr__(self, "step", float(self.step))

    @property
    def value(self) -> float:
        return self.mu if self.mu is not None else self.alpha

    def endpoints(self) -> tuple:
        eps = 1e-12
        lo = max(self.value * self.multipliers[0], eps)
        hi = min(self.value * self.multipliers[1], 1.0 - eps)
        return lo, hi


def _row_values(values, table: ObservationTable, name: str) -> np.ndarray:
    """``values`` as float64 (not copied if they are), checked to hold one
    finite value per table row, by row blocks."""
    v = np.asarray(values)
    if v.shape != (table.n,):
        raise DomainError(f"{name} must hold one value per table row, shape ({table.n},)")
    v = v.astype(np.float64, copy=False)
    if not all(np.isfinite(v[s]).all() for s in _row_blocks(table.n)):
        raise DomainError(f"{name} must be finite on every row")
    return v


def _check_p(p) -> None:
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
        raise DomainError("p must lie in [0, 1]")


def solve_monotone_root(f: Callable) -> float:
    """Root of an increasing function by bracket doubling plus Illinois steps.

    The bracket expands geometrically from [-1, 1] up to +-BRACKET_CAP.
    The first step is the bracket's midpoint; each later one is the
    regula falsi point of the bracket, with the value kept at an end that
    has held for two steps in a row halved (Illinois), or the midpoint
    again whenever the last two steps did not halve the bracket.  Steps run
    to function tolerance 1e-10, or until the bracket collapses to
    floating-point width.
    """
    lo, hi = -1.0, 1.0
    f_lo, f_hi = f(lo), f(hi)
    while f_lo > 0.0 and lo > -BRACKET_CAP:
        lo = max(lo * 2.0, -BRACKET_CAP)
        f_lo = f(lo)
    while f_hi < 0.0 and hi < BRACKET_CAP:
        hi = min(hi * 2.0, BRACKET_CAP)
        f_hi = f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise ConvergenceError(
            f"no sign change within |eta| <= {BRACKET_CAP}; the requested "
            "prevalence may need a more extreme tilt than supported"
        )
    width = [hi - lo] * 2    # the bracket's width before each of the last two steps
    held = 0                 # the end the last step kept: -1 lo, 1 hi
    step = 0.5 * (lo + hi)
    for _ in range(200):
        f_step = f(step)
        if abs(f_step) < FTOL:
            return step
        if f_step < 0.0:
            if held == 1:
                f_hi *= 0.5
            lo, f_lo, held = step, f_step, 1
        else:
            if held == -1:
                f_lo *= 0.5
            hi, f_hi, held = step, f_step, -1
        if hi - lo < 1e-14 * max(1.0, abs(step)):
            return 0.5 * (lo + hi)
        halved = hi - lo <= 0.5 * width[0]
        width = [width[1], hi - lo]
        step = 0.5 * (lo + hi)
        if halved:
            falsi = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            step = falsi if lo < falsi < hi else step
    return 0.5 * (lo + hi)


def _check_attainable(target: float, inf_att: float, sup_att: float, label: str) -> None:
    if not inf_att < target < sup_att:
        raise DomainError(
            f"{label}={target:.6g} is outside the attainable open interval "
            f"({inf_att:.6g}, {sup_att:.6g})"
        )


def _binary_source_check(table: ObservationTable) -> None:
    for s in _row_blocks(table.n):
        if not np.all(np.isin(table.y[s][table.s[s] == 1], (0.0, 1.0))):
            raise DomainError("prevalence anchoring requires a binary outcome")


def implied_prevalence_nonnested(g_values: np.ndarray, eta: float) -> float:
    """Mean tilted success probability over target rows."""
    return float(np.mean(tilted_bernoulli(g_values, eta)))


def implied_prevalence_nested(
    g_values: np.ndarray, p_values: np.ndarray, eta: float
) -> float:
    """Cohort mixture: p*g on the source side, tilted g on the target side;
    a DomainError unless every p lies in [0, 1] and every g in [0, 1]."""
    _check_p(p_values)
    return _mixture_prevalence(p_values * g_values, 1.0 - p_values, _rows(g_values), eta)


def _mixture_prevalence(
    source_part: np.ndarray, target_share: np.ndarray, rows: tuple, eta: float
) -> float:
    """``implied_prevalence_nested`` from its eta-free terms ``p*g``,
    ``1 - p`` and g's rows ``rows`` (``tilt._rows``)."""
    return float(np.mean(_mixture_terms(source_part, target_share, rows, eta)))


def _mixture_terms(source_part, target_share, rows: tuple, eta: float) -> np.ndarray:
    t = _tilted(*rows, eta)
    t *= target_share
    t += source_part
    return t


class _AnchorRows:
    """The prevalence solves on one table's rows, checked once for every
    solve: g on the target rows (non-nested) or g and p on every row
    (nested, ``p`` given), and the attainable range.  The prevalence at an
    eta is summed over the ``_row_blocks`` of those rows in block order,
    each block's eta-free terms (g's ``tilt._rows``, and p*g and 1 - p)
    formed as the sum reaches it, so a solve holds no temporaries of the
    rows' size; a table of one block gives the mean over its rows.  g's
    range [0, 1] is checked (``tilt._rows``) at the first evaluation,
    after the attainability check."""

    def __init__(self, table: ObservationTable, g, p=None):
        if p is not None and table.design != "nested":
            raise DomainError("eta_from_prevalence_nested requires a nested table")
        _binary_source_check(table)
        self.g = _row_values(g, table, "g")
        if p is None:
            if table.n0 == 0:
                raise DomainError("prevalence anchoring needs target rows")
            self.label, self.p, self.rows = "mu", None, table.target_rows
            if not any(((gv > 0.0) & (gv < 1.0)).any() for gv, _ in self._blocks()):
                raise DomainError(
                    "every fitted g is 0 or 1; the prevalence does not move with eta")
            self.attainable = (self._mean(lambda gv, _: gv >= 1.0),
                               self._mean(lambda gv, _: gv > 0.0))
            return
        self.p = _row_values(p, table, "p")
        self.label, self.rows = "alpha", None
        for _, pv in self._blocks():
            _check_p(pv)
        if not any(((pv < 1.0) & (gv > 0.0) & (gv < 1.0)).any() for gv, pv in self._blocks()):
            raise DomainError("the implied prevalence does not depend on eta for this table")
        self.attainable = (self._mean(lambda gv, pv: pv * gv + (1.0 - pv) * (gv >= 1.0)),
                           self._mean(lambda gv, pv: pv * gv + (1.0 - pv) * (gv > 0.0)))

    def _blocks(self):
        """(g, p) on each row block (p None for a non-nested solve)."""
        n = self.g.size if self.rows is None else self.rows.size
        for s in _row_blocks(n):
            if self.rows is None:
                yield self.g[s], self.p[s]
            else:
                yield self.g.take(self.rows[s]), None

    def _mean(self, terms: Callable) -> float:
        """The mean of ``terms(g, p)`` over the rows, summed by blocks."""
        total, n = 0.0, 0
        for gv, pv in self._blocks():
            total, n = total + np.add.reduce(terms(gv, pv), axis=None), n + gv.size
        return float(total) / n

    def prevalence(self, eta: float) -> float:
        if self.p is None:
            return self._mean(lambda gv, _: _tilted(*_rows(gv), eta))
        return self._mean(lambda gv, pv: _mixture_terms(pv * gv, 1.0 - pv, _rows(gv), eta))

    def eta(self, target: float) -> float:
        """The eta whose implied prevalence equals ``target``."""
        _check_attainable(target, *self.attainable, self.label)
        return solve_monotone_root(lambda e: self.prevalence(e) - target)


def eta_from_prevalence_nonnested(
    table: ObservationTable, g, mu: float
) -> float:
    """Eta whose tilted target prevalence equals mu; ``g`` holds the
    fitted Pr[Y=1 | X, S=1] on every table row."""
    return _AnchorRows(table, g).eta(mu)


def eta_from_prevalence_nested(
    table: ObservationTable, g, p, alpha: float
) -> float:
    """Eta whose implied cohort-wide prevalence equals alpha; ``g`` and
    ``p`` hold the fitted values on every table row."""
    return _AnchorRows(table, g, p).eta(alpha)


def eta_grid_from_prevalence_range(
    table: ObservationTable,
    g,
    anchor: PrevalenceAnchor,
    *,
    p=None,
) -> np.ndarray:
    """Inclusive eta grid between the anchored endpoints.

    Solves for eta at both prevalence endpoints, from the row values ``g``
    (and ``p`` for a nested alpha anchor) whose eta-free terms are built
    once for both solves, and rounds them outward to the
    lattice of multiples of ``anchor.step``.  A degenerate anchor range
    yields a single point.
    """
    step = anchor.step
    lo_prev, hi_prev = anchor.endpoints()
    if anchor.mu is None and p is None:
        raise DomainError("nested anchoring needs the fitted p")
    rows = _AnchorRows(table, g, None if anchor.mu is not None else p)
    eta_lo = rows.eta(lo_prev)
    eta_hi = rows.eta(hi_prev) if hi_prev != lo_prev else eta_lo
    if eta_lo == eta_hi:
        return np.array([eta_lo])
    # snap endpoints within 1e-6 steps of the lattice before rounding outward,
    # absorbing root-solver error
    k_lo = int(np.floor(eta_lo / step + 1e-6))
    k_hi = int(np.ceil(eta_hi / step - 1e-6))
    return np.round(np.arange(k_lo, k_hi + 1) * step, 12)
