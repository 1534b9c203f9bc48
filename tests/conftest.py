"""Shared constructors for the test suite."""

import numpy as np
import pytest
from scipy.special import expit

from tiltrisk.data import build_table
from tiltrisk.nuisance import NuisanceSet
from tiltrisk.tilt import (
    LossFunction,
    PredictionModel,
    binary_b,
    binary_c,
    selection_a,
)

BRIER = LossFunction("brier")


def logistic_fn(coefs):
    """Callable x -> expit(b0 + x @ b) over full covariate rows."""
    coefs = np.asarray(coefs, dtype=np.float64)

    def fn(x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return expit(coefs[0] + x @ coefs[1:])

    return fn


def random_binary_table(rng, n=200, d=2, design="non-nested", model=None):
    """Random table with binary source outcomes and Brier losses."""
    x = rng.uniform(-1.0, 1.0, (n, d))
    n1 = n // 2
    s = np.zeros(n, dtype=int)
    s[rng.permutation(n)[:n1]] = 1
    y = np.where(s == 1, (rng.random(n) < expit(0.4 * x[:, 0])).astype(float), np.nan)
    if model is None:
        model = PredictionModel(
            coefficients=(0.1,) + tuple(rng.normal(0, 0.5, d)), xstar_columns=tuple(range(d))
        )
    return build_table(s, x, y, model, BRIER, design)


def manual_binary_nuisances(table, model, g_coefs, p_coefs, loss=BRIER):
    """Exact closed-form nuisance values on the table's rows from known
    logistic g and p, with losses at the predictions of ``model``."""
    g = logistic_fn(g_coefs)(table.x)
    p = logistic_fn(p_coefs)(table.x)
    pred = model.predict(table.x)
    l1 = loss(np.ones_like(pred), pred)
    l0 = loss(np.zeros_like(pred), pred)

    def c(eta):
        return np.asarray(binary_c(g, eta))

    return NuisanceSet(
        p=p,
        b=lambda eta: np.asarray(binary_b(l1, l0, g, eta)),
        c=c,
        g=g,
        a=lambda eta: np.asarray(selection_a(p, c(eta))),
    )


def constant_nuisances(n, b_val=None, c_val=1.0, p_val=0.5, b_rows=None):
    """Row-constant nuisance values for an n-row table (handy for tiny
    tables); ``b_rows`` gives b row by row instead."""
    b = np.full(n, b_val, dtype=float) if b_rows is None else np.asarray(b_rows, dtype=float)
    c = np.full(n, float(c_val))
    p = np.full(n, float(p_val))
    return NuisanceSet(
        p=p,
        b=lambda eta: b,
        c=lambda eta: c,
        a=lambda eta: np.asarray(selection_a(p, c)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
