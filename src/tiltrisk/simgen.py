"""Synthetic data with known ground truth, plus test oracles.

The generator realizes the tilt model exactly: source outcomes come from
the source conditional, hidden target outcomes from its tilted version.
Hidden outcomes travel in a sealed side object (never inside the
ObservationTable) so estimators cannot touch them.  Monte Carlo oracles
evaluate the true risk functionals, and tiny-table brute-force
enumerations check the estimators at machine precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .config import _echo, _library_object
from .data import DESIGNS, ObservationTable, build_table
from .errors import DataError, DomainError, require_list, require_number
from .nuisance import OUTCOMES, DesignSpec, NuisanceRecipe
from .tilt import LossFunction, PredictionModel, binary_b, expit, tilted_bernoulli

# positivity by construction: |linear predictor| <= logit(0.95)
_LP_BOUND = math.log(0.95 / 0.05)

_COVARIATE_KINDS = ("uniform", "normal", "binary")
_COVARIATE_RANGE = {"uniform": 1.0, "normal": 3.0, "binary": 1.0}


@dataclass(frozen=True)
class DgpSpec:
    """A complete data-generating process for one synthetic study.

    Covariates are independent draws (uniform on [-1, 1], standard normal
    truncated to [-3, 3], or Bernoulli(1/2)).  Source membership and, for
    binary outcomes, the source outcome are logistic in the covariates;
    continuous outcomes are linear-Gaussian.  Target outcomes follow the
    exponentially tilted source conditional with parameter ``eta_true``
    (identity tilt map).  Selection coefficients are validated so that
    Pr[S=1|X] stays inside [0.05, 0.95].  As a DGP spec file holds them,
    ``model`` may be a mapping of the PredictionModel fields (built through
    the config block check) and ``loss`` a loss kind.
    """

    design: str
    covariate_kind: str
    dim: int
    selection_coefs: tuple
    outcome_coefs: tuple
    eta_true: float
    model: PredictionModel
    loss: LossFunction = LossFunction("brier")
    outcome: str = "binary"
    sigma: Optional[float] = None
    outcome_quad: Optional[tuple] = None   # per-dim x_j^2 terms in the outcome lp
    n_cohort: Optional[int] = None      # nested designs
    n_source: Optional[int] = None      # non-nested designs
    n_target: Optional[int] = None

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise DomainError("design must be 'nested' or 'non-nested'")
        if self.covariate_kind not in _COVARIATE_KINDS:
            raise DomainError(f"covariate_kind must be one of {_COVARIATE_KINDS}")
        if self.outcome not in OUTCOMES:
            raise DomainError("outcome must be 'binary' or 'continuous'")
        if not isinstance(self.model, PredictionModel):
            object.__setattr__(self, "model", _library_object(PredictionModel, "model", self.model))
        if not isinstance(self.loss, LossFunction):
            object.__setattr__(self, "loss", LossFunction(self.loss))
        if require_number(self.dim, "dim", numbers.Integral) < 1:
            raise DomainError("dim must be at least 1")
        if not math.isfinite(require_number(self.eta_true, "eta_true")):
            raise DomainError("eta_true must be finite")
        object.__setattr__(self, "eta_true", float(self.eta_true))
        if self.sigma is not None and not math.isfinite(require_number(self.sigma, "sigma")):
            raise DomainError("sigma must be finite")
        if self.outcome == "continuous" and (self.sigma is None or self.sigma <= 0):
            raise DomainError("continuous outcomes need sigma > 0")
        # the intercept, then one coefficient per dim (outcome_quad, if given, has no intercept)
        for key, intercept in (("selection_coefs", 1), ("outcome_coefs", 1), ("outcome_quad", 0)):
            value = getattr(self, key)
            if value is None and not intercept:
                continue
            coefs = tuple(map(float, require_list(value, key)))
            if len(coefs) != self.dim + intercept:
                raise DomainError(f"{key} must have length dim" + " + 1" * intercept)
            object.__setattr__(self, key, coefs)
        sizes = ("n_cohort",) if self.design == "nested" else ("n_source", "n_target")
        for key in ("n_cohort", "n_source", "n_target"):
            value = getattr(self, key)
            if value is None and key in sizes:
                raise DomainError(f"{self.design} designs need {' and '.join(sizes)}")
            if value is not None and require_number(value, key, numbers.Integral) < 1:
                raise DomainError(f"{key} must be positive")
        r = _COVARIATE_RANGE[self.covariate_kind]
        b = self.selection_coefs
        if abs(b[0]) + r * sum(abs(v) for v in b[1:]) > _LP_BOUND:
            raise DomainError(
                "selection coefficients violate the positivity construction: "
                f"|b0| + {r:g} * sum|bj| must be <= {_LP_BOUND:.4f}"
            )

    def p(self, x: np.ndarray) -> np.ndarray:
        b = np.asarray(self.selection_coefs)
        return expit(b[0] + np.atleast_2d(x) @ b[1:])

    def g(self, x: np.ndarray) -> np.ndarray:
        """Binary: Pr[Y=1|X,S=1].  Continuous: the conditional mean."""
        b = np.asarray(self.outcome_coefs)
        x2 = np.atleast_2d(x)
        lp = b[0] + x2 @ b[1:]
        if self.outcome_quad is not None:
            lp = lp + x2**2 @ np.asarray(self.outcome_quad)
        return expit(lp) if self.outcome == "binary" else lp

    def draw_covariates(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.covariate_kind == "uniform":
            return rng.uniform(-1.0, 1.0, (n, self.dim))
        if self.covariate_kind == "binary":
            return rng.integers(0, 2, (n, self.dim)).astype(np.float64)
        from scipy.special import ndtr, ndtri  # off the package's import path

        lo, hi = ndtr(-3.0), ndtr(3.0)
        return ndtri(lo + rng.random((n, self.dim)) * (hi - lo))


@dataclass(frozen=True)
class SimulatedData:
    """Generated table plus the hidden target outcomes.

    ``target_y`` aligns with the table's s == 0 rows in order.  It exists
    for oracle checks only; the table itself carries no target outcomes.
    """

    table: ObservationTable
    target_y: np.ndarray


@dataclass(frozen=True)
class OracleValue:
    value: float
    mc_se: float


def _draw_source_outcomes(spec: DgpSpec, x, rng) -> np.ndarray:
    m = spec.g(x)
    if spec.outcome == "binary":
        return (rng.random(x.shape[0]) < m).astype(np.float64)
    return rng.normal(m, spec.sigma)


def _draw_target_outcomes(spec: DgpSpec, x, rng) -> np.ndarray:
    if spec.outcome == "binary":
        t = tilted_bernoulli(spec.g(x), spec.eta_true)
        return (rng.random(x.shape[0]) < t).astype(np.float64)
    # exponential tilt of a Gaussian with identity q shifts the mean
    return rng.normal(spec.g(x) + spec.eta_true * spec.sigma**2, spec.sigma)


def _rejection_draw(spec: DgpSpec, n: int, stratum: int, rng) -> np.ndarray:
    """Draw n covariate rows from the conditional X | S = stratum."""
    out = []
    have = 0
    while have < n:
        batch = max(2 * (n - have), 1000)
        x = spec.draw_covariates(batch, rng)
        prob = spec.p(x)
        if stratum == 0:
            prob = 1.0 - prob
        keep = rng.random(batch) < prob
        x = x[keep]
        out.append(x)
        have += x.shape[0]
    return np.vstack(out)[:n]


def generate(spec: DgpSpec, seed: int) -> SimulatedData:
    """Draw one synthetic study; target outcomes are masked in the table."""
    rng = np.random.default_rng(seed)
    if spec.design == "nested":
        x = spec.draw_covariates(spec.n_cohort, rng)
        s = (rng.random(spec.n_cohort) < spec.p(x)).astype(np.int64)
    else:
        x_src = _rejection_draw(spec, spec.n_source, 1, rng)
        x_tgt = _rejection_draw(spec, spec.n_target, 0, rng)
        x = np.vstack([x_src, x_tgt])
        s = np.r_[np.ones(spec.n_source, dtype=np.int64), np.zeros(spec.n_target, dtype=np.int64)]
    y = np.full(s.shape, np.nan)
    src = s == 1
    y[src] = _draw_source_outcomes(spec, x[src], rng)
    target_y = _draw_target_outcomes(spec, x[~src], rng)
    table = build_table(s, x, y, spec.model, spec.loss, spec.design)
    return SimulatedData(table=table, target_y=target_y)


def _tilted_conditional_loss(spec: DgpSpec, x: np.ndarray, eta: float) -> np.ndarray:
    """Exact E[L | X, tilted conditional] per covariate row."""
    pred = spec.model.predict(x)
    if spec.outcome == "binary":
        from .tilt import eval_loss

        l1 = eval_loss(spec.loss, np.ones_like(pred), pred)
        l0 = eval_loss(spec.loss, np.zeros_like(pred), pred)
        return np.asarray(binary_b(l1, l0, spec.g(x), eta))
    m = spec.g(x) + eta * spec.sigma**2
    return _gaussian_expected_loss(spec.loss, m, spec.sigma, pred)


def _untilted_conditional_loss(spec: DgpSpec, x: np.ndarray) -> np.ndarray:
    return _tilted_conditional_loss(spec, x, 0.0)


def _gaussian_expected_loss(loss, m, sigma, pred):
    delta = m - pred
    if loss.kind in ("squared-error", "brier"):
        return delta**2 + sigma**2
    if loss.kind == "absolute-deviation":
        from scipy.special import ndtr  # off the package's import path

        # folded-normal mean
        z = delta / sigma
        return sigma * np.sqrt(2.0 / np.pi) * np.exp(-0.5 * z**2) + delta * (
            1.0 - 2.0 * ndtr(-z)
        )
    raise DomainError(f"no closed-form Gaussian risk for loss kind {loss.kind!r}")


def true_phi_oracle(spec: DgpSpec, eta: float, n_mc: int, seed: int) -> OracleValue:
    """Monte Carlo value of the true non-nested risk at eta.

    Draws covariates from the target conditional and averages the exact
    tilted conditional loss.
    """
    if n_mc < 100_000:
        raise DomainError("oracle needs n_mc >= 1e5")
    rng = np.random.default_rng(seed)
    x = _rejection_draw(spec, n_mc, 0, rng)
    vals = _tilted_conditional_loss(spec, x, eta)
    return OracleValue(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_mc)))


def true_psi_oracle(spec: DgpSpec, eta: float, n_mc: int, seed: int) -> OracleValue:
    """Monte Carlo value of the true nested (cohort-wide) risk at eta."""
    if n_mc < 100_000:
        raise DomainError("oracle needs n_mc >= 1e5")
    rng = np.random.default_rng(seed)
    x = spec.draw_covariates(n_mc, rng)
    p = spec.p(x)
    vals = p * _untilted_conditional_loss(spec, x) + (1.0 - p) * _tilted_conditional_loss(
        spec, x, eta
    )
    return OracleValue(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_mc)))


def _enumerated_b(table: ObservationTable, g_row: float, eta: float, i: int) -> float:
    # direct enumeration over y in {0, 1}; deliberately does not reuse the
    # closed-form binary_b it is meant to check
    num = 0.0
    den = 0.0
    for y, prob, lo in ((1.0, g_row, table.loss1[i]), (0.0, 1.0 - g_row, table.loss0[i])):
        w = math.exp(eta * y)
        num += lo * w * prob
        den += w * prob
    return num / den


def brute_force_phi(table: ObservationTable, g_rows: np.ndarray, eta: float) -> float:
    """Enumerate the non-nested risk on a tiny binary table with exact
    per-row g; tables beyond 8 rows are refused."""
    if table.n > 8:
        raise DataError("brute-force enumeration is limited to 8 rows")
    if not table.has_binary_losses:
        raise DomainError("brute-force enumeration needs a binary-outcome loss")
    g_rows = np.asarray(g_rows, dtype=np.float64)
    targets = np.flatnonzero(table.s == 0)
    if targets.size == 0:
        raise DataError("no target rows to average over")
    return sum(_enumerated_b(table, g_rows[i], eta, i) for i in targets) / targets.size


def brute_force_psi(table: ObservationTable, g_rows: np.ndarray, eta: float) -> float:
    """Nested analog of brute_force_phi: observed losses on source rows,
    enumerated tilted losses on target rows."""
    if table.n > 8:
        raise DataError("brute-force enumeration is limited to 8 rows")
    if not table.has_binary_losses:
        raise DomainError("brute-force enumeration needs a binary-outcome loss")
    g_rows = np.asarray(g_rows, dtype=np.float64)
    total = 0.0
    for i in range(table.n):
        if table.s[i] == 1:
            total += float(table.loss[i])
        else:
            total += _enumerated_b(table, g_rows[i], eta, i)
    return total / table.n


def recipe_for(
    spec: DgpSpec,
    wrong_p: bool = False,
    wrong_g: bool = False,
    basis: str = "linear",
    a_design: Optional[DesignSpec] = None,
    **spline_kw,
) -> NuisanceRecipe:
    """Nuisance recipe matched to a DGP, with misspecification switches.

    The correctly specified designs use linear main effects of every
    covariate (the DGP truth is logistic-linear).  ``wrong_p`` replaces the
    selection design, ``wrong_g`` the outcome model's (g, or b and c), by
    intercept-only, instantiating the double-robustness hypotheses.
    """
    all_cols = tuple(range(spec.dim))
    full = DesignSpec(all_cols, basis=basis, **spline_kw)
    none = DesignSpec(())
    return NuisanceRecipe(
        outcome=spec.outcome,
        loss=spec.loss,
        p_design=none if wrong_p else full,
        g_design=none if wrong_g else full,
        a_design=a_design,
    )


# ---------------------------------------------------------------------------
# Config-format serialization (scriptable acceptance runs)
# ---------------------------------------------------------------------------


def dgp_to_dict(spec: DgpSpec) -> dict:
    """``spec`` in the form ``dgp_from_dict`` reads: one key per field, the
    model as a mapping and the loss by its kind."""
    return {f.name: _echo(getattr(spec, f.name)) for f in fields(spec)}


def dgp_from_dict(d) -> DgpSpec:
    """The DgpSpec that mapping ``d`` declares, through the checks of a
    config block; any fault in it is a ConfigError."""
    return _library_object(DgpSpec, "DGP spec", d)
