"""The estimator kernel against a scalar reference written from the formulas.

The reference works on row arrays, one eta at a time, and shares no code
with the kernel.  Per row i,

    r_i = b_i                          on target rows,
    r_i = w_i (L_i - b_i)              on source rows (non-nested),
    r_i = L_i + w_i (L_i - b_i)        on source rows (nested),

with w = 0 (cl), (1 - p)/p * e^{eta q(y)} / c (aug) or e^{a + eta q(y)}
(aug-alt).  The estimate is sum(r)/n0 (non-nested) or sum(r)/n (nested);
the influence values, at the aug weights, are (r_i - est * [s_i = 0]) n/n0
(non-nested) or r_i - est (nested).

Two values agree when they differ by at most 1e-12 times the larger of one
and the magnitude of the terms summed, the scale of the rounding error of
any summation order.  A point that fails must fail in both with the same
exception class.  The grid path of ``sensitivity_curve``, which evaluates
blocks of eta at once, must agree point by point with the same reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltrisk import estimators
from tiltrisk.data import build_table
from tiltrisk.estimators import estimate, influence_values, sensitivity_curve
from tiltrisk.nuisance import DesignSpec, NuisanceRecipe, NuisanceSet
from tiltrisk.tilt import LossFunction, PredictionModel

ETAS = (-40.0, -31.0, -30.0, -1.0, 0.0, 0.7, 30.0, 31.0, 40.0)
ESTIMATORS = ("cl", "aug", "aug-alt")
TOL = 1e-12


def reference_terms(s, loss, qy, p, b, c, a, nested, estimator, eta):
    """Per-row terms r and the estimate, by scalar loops over plain floats."""
    r = []
    for i in range(len(s)):
        if s[i] == 0:
            r.append(b[i])
            continue
        if estimator == "cl":
            w = 0.0
        elif estimator == "aug":
            w = (1.0 - p[i]) / p[i] * math.exp(eta * qy[i]) / c[i]
        else:
            w = math.exp(a[i] + eta * qy[i])
        term = w * (loss[i] - b[i])
        r.append(loss[i] + term if nested else term)
    n0 = sum(1 for v in s if v == 0)
    return r, math.fsum(r) / (len(s) if nested else n0)


def table_rows(table, nuis):
    """(s, L, q(y), nested) as plain Python values."""
    s = [int(v) for v in table.s]
    q = nuis.q or (lambda v: v)
    qy = [float(q(np.array([v]))[0]) if si == 1 else math.nan for si, v in zip(s, table.y)]
    return s, [float(v) for v in table.loss], qy, table.design == "nested"


def floats(values):
    return None if values is None else [float(v) for v in values]


def reference(table, nuis, eta, estimator):
    """(estimate, magnitude of the summed terms) from the nuisance values."""
    s, loss, qy, nested = table_rows(table, nuis)
    c = nuis.c(eta) if estimator == "aug" else None
    a = nuis.a(eta) if estimator == "aug-alt" else None
    r, est = reference_terms(s, loss, qy, floats(nuis.p), floats(nuis.b(eta)),
                             floats(c), floats(a), nested, estimator, eta)
    return est, max(1.0, math.fsum(abs(v) for v in r) / (len(s) if nested else s.count(0)))


def reference_influence(table, nuis, eta, plugged):
    """Influence values at the aug weights around ``plugged``."""
    s, loss, qy, nested = table_rows(table, nuis)
    r, _ = reference_terms(s, loss, qy, floats(nuis.p), floats(nuis.b(eta)),
                           floats(nuis.c(eta)), None, nested, "aug", eta)
    if nested:
        return [ri - plugged for ri in r]
    ratio = len(s) / s.count(0)
    return [(ri - (plugged if si == 0 else 0.0)) * ratio for ri, si in zip(r, s)]


def outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # compared by class below
        return None, type(exc)


def check_point(table, nuis, eta, estimator):
    got, got_err = outcome(lambda: estimate(table, nuis, eta, estimator).estimate)
    ref, ref_err = outcome(lambda: reference(table, nuis, eta, estimator))
    assert got_err == ref_err, (estimator, eta, got_err, ref_err)
    if ref_err is None:
        est, scale = ref
        assert abs(got - est) <= TOL * scale, (estimator, eta, got, est)


def check_influence(table, nuis, eta):
    plugged, err = outcome(lambda: estimate(table, nuis, eta, "aug").estimate)
    if err is not None:
        return
    got, got_err = outcome(lambda: influence_values(table, nuis, eta, plugged).values)
    ref, ref_err = outcome(lambda: reference_influence(table, nuis, eta, plugged))
    assert got_err == ref_err, (eta, got_err, ref_err)
    if ref_err is None:
        ref = np.array(ref)
        assert np.all(np.abs(got - ref) <= TOL * np.maximum(1.0, np.abs(ref))), eta


def check_all(table, nuis):
    for eta in ETAS:
        for estimator in ESTIMATORS:
            check_point(table, nuis, eta, estimator)
        check_influence(table, nuis, eta)


def check_curve(table, nuis):
    """The grid path against the reference at every eta and estimator; its
    diagnostics against those of the one-eta kernel."""
    for estimator in ESTIMATORS:
        curve = sensitivity_curve(table, nuis, ETAS, estimator)
        for point in curve:
            ref, ref_err = outcome(lambda: reference(table, nuis, point.eta, estimator))
            assert point.ok == (ref_err is None), (estimator, point.eta, point.status)
            if point.ok:
                est, scale = ref
                got = point.result.estimate
                assert abs(got - est) <= TOL * scale, (estimator, point.eta, got, est)
                one = estimate(table, nuis, point.eta, estimator).diagnostics
                assert point.result.diagnostics == pytest.approx(one, rel=TOL), point.eta


def random_table(rng, design, outcome_kind, n=60):
    x = rng.uniform(-1.0, 1.0, (n, 2))
    if design == "nested":
        s = (rng.random(n) < 0.6).astype(int)
        s[:3] = 1
        s[3:6] = 0
    else:
        s = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
    if outcome_kind == "binary":
        y = (rng.random(n) < 0.45).astype(float)
        model = PredictionModel(coefficients=(-0.4, 0.7, -0.3), xstar_columns=(0, 1))
        loss = LossFunction("brier")
    else:
        y = 0.5 + x[:, 0] - 0.5 * x[:, 1] + 0.3 * rng.normal(size=n)
        model = PredictionModel(coefficients=(0.4, 0.9, -0.4), link="identity",
                                xstar_columns=(0, 1))
        loss = LossFunction("squared-error")
    y = np.where(s == 1, y, np.nan)
    return build_table(s, x, y, model, loss, design)


def fitted_set(table, outcome_kind):
    cols = DesignSpec((0, 1))
    if outcome_kind == "binary":
        recipe = NuisanceRecipe(outcome="binary", loss=LossFunction("brier"),
                                p_design=cols, g_design=cols, a_design=cols)
    else:
        recipe = NuisanceRecipe(outcome="continuous", loss=LossFunction("squared-error"),
                                p_design=cols, g_design=cols, a_design=cols)
    return recipe.fit(table)


def hand_built_set(rng, table, outcome_kind):
    """Row values with no fitted model behind them; continuous sets carry a
    custom tilt map q."""
    n = table.n
    p = rng.uniform(0.05, 0.95, n)
    b0 = rng.uniform(0.0, 1.0, n)
    slope = rng.uniform(-0.5, 0.5, n)
    g = rng.uniform(0.05, 0.95, n)
    a0 = rng.normal(0.0, 0.5, n)
    q = None if outcome_kind == "binary" else np.tanh
    return NuisanceSet(
        p=p,
        b=lambda eta: b0 + slope * np.tanh(eta),
        c=lambda eta: 1.0 + g * (1.0 + np.tanh(eta)),
        g=g,
        a=lambda eta: a0 - 0.1 * eta,
        q=q,
    )


@pytest.mark.parametrize("outcome_kind", ("binary", "continuous"))
@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("source", ("fitted", "hand-built"))
def test_kernel_matches_scalar_reference(source, design, outcome_kind):
    rng = np.random.default_rng(2306_08084)
    for _ in range(2):
        table = random_table(rng, design, outcome_kind)
        if source == "fitted":
            nuis = fitted_set(table, outcome_kind)
        else:
            nuis = hand_built_set(rng, table, outcome_kind)
        check_all(table, nuis)


# None keeps the module's block size, which holds the whole grid at n = 60;
# 2 cells give one eta per block, 130 cells two per block (9 = 2+2+2+2+1)
@pytest.mark.parametrize("block_cells", (None, 2, 130))
@pytest.mark.parametrize("outcome_kind", ("binary", "continuous"))
@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("source", ("fitted", "hand-built"))
def test_grid_path_matches_scalar_reference(source, design, outcome_kind, block_cells,
                                            monkeypatch):
    rng = np.random.default_rng(2306_08084)
    table = random_table(rng, design, outcome_kind)
    if block_cells is None:
        assert estimators._BLOCK_CELLS // table.n >= len(ETAS)
    else:
        monkeypatch.setattr(estimators, "_BLOCK_CELLS", block_cells)
    if source == "fitted":
        nuis = fitted_set(table, outcome_kind)
    else:
        nuis = hand_built_set(rng, table, outcome_kind)
    check_curve(table, nuis)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 30),
    design=st.sampled_from(("non-nested", "nested")),
    outcome_kind=st.sampled_from(("binary", "continuous")),
)
def test_kernel_matches_scalar_reference_random_tables(seed, n, design, outcome_kind):
    rng = np.random.default_rng(seed)
    table = random_table(rng, design, outcome_kind, n=n)
    check_all(table, hand_built_set(rng, table, outcome_kind))
