"""Prevalence-anchored selection of the sensitivity parameter.

Given a hypothesized outcome prevalence in the target population (mu for
non-nested designs, cohort-wide alpha for nested ones), solve for the eta
whose implied tilted prevalence matches it.  The implied prevalence is
strictly increasing in eta whenever any fitted g lies inside (0, 1), so
the root is unique; bisection after geometric bracket expansion finds it.
The fitted g and p enter as values on the table's rows; each root solve
builds g's closed forms (``tilt.BinaryTilt``) once for all its steps.
Binary outcomes with the identity tilt map only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import ObservationTable
from .errors import ConvergenceError, DomainError
from .tilt import BinaryTilt, tilted_bernoulli

BRACKET_CAP = 50.0
FTOL = 1e-10


@dataclass(frozen=True)
class PrevalenceAnchor:
    """Hypothesized prevalence plus the range multipliers to sweep.

    Exactly one of ``mu`` (non-nested: E[Y | S=0]) or ``alpha`` (nested:
    E[Y]) is set.  The default multipliers scan from half to double the
    anchor, intersected with (0, 1).
    """

    mu: Optional[float] = None
    alpha: Optional[float] = None
    multipliers: tuple = (0.5, 2.0)

    def __post_init__(self):
        if (self.mu is None) == (self.alpha is None):
            raise DomainError("set exactly one of mu (non-nested) or alpha (nested)")
        val = self.mu if self.mu is not None else self.alpha
        if not 0.0 < val < 1.0:
            raise DomainError("the prevalence anchor must lie in (0, 1)")
        lo, hi = self.multipliers
        if not (0.0 < lo <= hi):
            raise DomainError("multipliers must be positive and ordered")

    @property
    def value(self) -> float:
        return self.mu if self.mu is not None else self.alpha

    def endpoints(self) -> tuple:
        eps = 1e-12
        lo = max(self.value * self.multipliers[0], eps)
        hi = min(self.value * self.multipliers[1], 1.0 - eps)
        return lo, hi


def _row_values(values, table: ObservationTable, name: str) -> np.ndarray:
    v = np.asarray(values)
    if v.shape != (table.n,):
        raise DomainError(f"{name} must hold one value per table row, shape ({table.n},)")
    return v.astype(np.float64)


def solve_monotone_root(f: Callable, lo: float = -1.0, hi: float = 1.0) -> float:
    """Root of an increasing function by bracket doubling plus bisection.

    The bracket expands geometrically from [-1, 1] up to +-BRACKET_CAP;
    bisection then runs to function tolerance 1e-10 (or until the bracket
    collapses to floating-point width).
    """
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
    if f_lo > f_hi:
        raise DomainError("objective is not increasing over the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < FTOL:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _check_attainable(target: float, inf_att: float, sup_att: float, label: str) -> None:
    if not inf_att < target < sup_att:
        raise DomainError(
            f"{label}={target:.6g} is outside the attainable open interval "
            f"({inf_att:.6g}, {sup_att:.6g})"
        )


def _binary_source_check(table: ObservationTable) -> None:
    y_src = table.y[table.s == 1]
    if not np.all(np.isin(y_src, (0.0, 1.0))):
        raise DomainError("prevalence anchoring requires a binary outcome")


def implied_prevalence_nonnested(g_values: np.ndarray, eta: float) -> float:
    """Mean tilted success probability over target rows."""
    return float(np.mean(tilted_bernoulli(g_values, eta)))


def implied_prevalence_nested(
    g_values: np.ndarray, p_values: np.ndarray, eta: float
) -> float:
    """Cohort mixture: p*g on the source side, tilted g on the target side."""
    return _mixture_prevalence(p_values * g_values, 1.0 - p_values, BinaryTilt(g_values), eta)


def _mixture_prevalence(
    source_part: np.ndarray, target_share: np.ndarray, tilt: BinaryTilt, eta: float
) -> float:
    """``implied_prevalence_nested`` from its eta-free terms ``p*g``,
    ``1 - p`` and g's closed forms ``tilt``, which the root solve builds
    once for all its calls."""
    t = tilt.tilted(eta)
    t *= target_share
    t += source_part
    return float(np.mean(t))


def eta_from_prevalence_nonnested(
    table: ObservationTable, g, mu: float
) -> float:
    """Eta whose tilted target prevalence equals mu; ``g`` holds the
    fitted Pr[Y=1 | X, S=1] on every table row."""
    _binary_source_check(table)
    if table.n0 == 0:
        raise DomainError("prevalence anchoring needs target rows")
    gv = _row_values(g, table, "g")[table.s == 0]
    interior = (gv > 0.0) & (gv < 1.0)
    if not interior.any():
        raise DomainError("every fitted g is 0 or 1; the prevalence does not move with eta")
    _check_attainable(mu, float(np.mean(gv >= 1.0)), float(np.mean(gv > 0.0)), "mu")
    tilt = BinaryTilt(gv)
    return solve_monotone_root(lambda e: float(np.mean(tilt.tilted(e))) - mu)


def eta_from_prevalence_nested(
    table: ObservationTable, g, p, alpha: float
) -> float:
    """Eta whose implied cohort-wide prevalence equals alpha; ``g`` and
    ``p`` hold the fitted values on every table row."""
    if table.design != "nested":
        raise DomainError("eta_from_prevalence_nested requires a nested table")
    _binary_source_check(table)
    gv = _row_values(g, table, "g")
    pv = _row_values(p, table, "p")
    movable = (pv < 1.0) & (gv > 0.0) & (gv < 1.0)
    if not movable.any():
        raise DomainError("the implied prevalence does not depend on eta for this table")
    source_part, target_share = pv * gv, 1.0 - pv
    inf_att = float(np.mean(source_part + target_share * (gv >= 1.0)))
    sup_att = float(np.mean(source_part + target_share * (gv > 0.0)))
    _check_attainable(alpha, inf_att, sup_att, "alpha")
    tilt = BinaryTilt(gv)
    return solve_monotone_root(
        lambda e: _mixture_prevalence(source_part, target_share, tilt, e) - alpha)


def eta_grid_from_prevalence_range(
    table: ObservationTable,
    g,
    anchor: PrevalenceAnchor,
    step: float,
    p=None,
) -> np.ndarray:
    """Inclusive eta grid between the anchored endpoints.

    Solves for eta at both prevalence endpoints, from the row values ``g``
    (and ``p`` for a nested alpha anchor), and rounds them outward to the
    step lattice.  A degenerate anchor range yields a single point.
    """
    if step <= 0.0:
        raise DomainError("step must be positive")
    lo_prev, hi_prev = anchor.endpoints()
    if anchor.mu is not None:
        solve = lambda m: eta_from_prevalence_nonnested(table, g, m)
    else:
        if p is None:
            raise DomainError("nested anchoring needs the fitted p")
        solve = lambda m: eta_from_prevalence_nested(table, g, p, m)
    eta_lo = solve(lo_prev)
    eta_hi = solve(hi_prev) if hi_prev != lo_prev else eta_lo
    if eta_lo == eta_hi:
        return np.array([eta_lo])
    # snap endpoints within 1e-6 steps of the lattice before rounding outward,
    # absorbing root-solver error
    k_lo = int(np.floor(eta_lo / step + 1e-6))
    k_hi = int(np.ceil(eta_hi / step - 1e-6))
    return np.round(np.arange(k_lo, k_hi + 1) * step, 12)
