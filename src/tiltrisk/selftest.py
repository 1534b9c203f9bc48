"""Quick internal consistency checks behind ``tiltrisk selftest``."""

from __future__ import annotations

import numpy as np

from .data import build_table
from .estimators import _replicate_rows, estimate, influence_values
from .etaselect import eta_from_prevalence_nonnested, implied_prevalence_nonnested
from .nuisance import DesignSpec, NuisanceRecipe, NuisanceSet
from .resampling import ResampleConfig, replicate_counts, resample_indices
from .tilt import (
    LossFunction,
    PredictionModel,
    binary_b,
    binary_c,
    selection_a,
    tilted_bernoulli,
)


def _random_setup(seed: int):
    rng = np.random.default_rng(seed)
    n = 120
    x = rng.uniform(-1, 1, (n, 2))
    s = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
    y = np.where(s == 1, (rng.random(n) < 0.4).astype(float), np.nan)
    model = PredictionModel(coefficients=(0.1, 0.5, -0.3), xstar_columns=(0, 1))
    table = build_table(s, x, y, model, LossFunction("brier"), "non-nested")
    g = 1.0 / (1.0 + np.exp(-(-0.2 + x @ np.array([0.7, 0.4]))))
    p = 1.0 / (1.0 + np.exp(-(0.3 + x @ np.array([-0.5, 0.6]))))
    pred = table.pred

    def c(eta):
        return np.asarray(binary_c(g, eta))

    nuis = NuisanceSet(
        p=p,
        b=lambda eta: np.asarray(binary_b((1 - pred) ** 2, pred**2, g, eta)),
        c=c,
        g=g,
        a=lambda eta: np.asarray(selection_a(p, c(eta))),
    )
    return table, nuis


def _continuous_table(seed: int):
    rng = np.random.default_rng(seed + 1)
    n = 120
    x = rng.uniform(-1, 1, (n, 2))
    s = np.r_[np.ones(n // 2, dtype=int), np.zeros(n - n // 2, dtype=int)]
    y = np.where(s == 1, 0.5 + x @ np.array([1.0, -0.5]) + 0.3 * rng.normal(size=n), np.nan)
    model = PredictionModel(coefficients=(0.4, 0.9, -0.4), link="identity",
                            xstar_columns=(0, 1))
    return build_table(s, x, y, model, LossFunction("squared-error"), "non-nested")


def _replicates_match_take(table, recipe: NuisanceRecipe, seed: int) -> float:
    """Largest |difference| between the count-weighted fit and sweep of a
    bootstrap replicate and of a leave-one-out replicate and the refit of
    the same replicate built with ``take`` (NaN if a point fails).  Both
    replicates are swept together (``_replicate_rows``)."""
    boot = ResampleConfig(replicates=2, seed=seed)
    counts = np.vstack([replicate_counts(table, boot, [1]),
                        replicate_counts(table, ResampleConfig(method="jackknife"), [5])])
    fits = recipe.fit_counts(table, counts)
    etas = np.array([-0.7, 0.0, 0.9])
    weighted, _, _ = _replicate_rows(table, fits, [0, 1], etas, "aug")
    diffs = []
    for r, idx in enumerate((resample_indices(table, 1, seed, boot.resolve_stratified(table)),
                             np.delete(np.arange(table.n), 5))):
        t = table.take(idx)
        taken = recipe.fit(t)
        diffs += [abs(value - estimate(t, taken, float(eta), "aug").estimate)
                  for eta, value in zip(etas, weighted[r])]
    return float(np.max(diffs))


def run_selftest(seed: int = 0) -> bool:
    checks = []

    def record(name, ok):
        checks.append(ok)
        print(f"[{'pass' if ok else 'FAIL'}] {name}")

    g = np.linspace(0.05, 0.95, 19)
    record("zero tilt preserves probabilities", np.allclose(tilted_bernoulli(g, 0.0), g, atol=0))
    record("zero tilt normalizer is one", np.allclose(binary_c(g, 0.0), 1.0, atol=0))

    table, nuis = _random_setup(seed)
    eta = 0.6
    ones = NuisanceSet(p=np.ones(table.n), b=nuis.b, c=nuis.c, g=nuis.g)
    record(
        "augmented estimator reduces to plug-in at p=1",
        abs(estimate(table, ones, eta, "aug").estimate
            - estimate(table, nuis, eta, "cl").estimate) < 1e-12,
    )
    plugged = estimate(table, nuis, eta, "aug").estimate
    record(
        "offset parameterization matches inverse-odds form",
        abs(estimate(table, nuis, eta, "aug-alt").estimate - plugged) < 1e-12,
    )
    record(
        "influence values center at the augmented estimate",
        abs(influence_values(table, nuis, eta, plugged).mean) < 1e-10,
    )

    mu = implied_prevalence_nonnested(nuis.g[table.s == 0], 0.8)
    record(
        "prevalence round trip recovers eta",
        abs(eta_from_prevalence_nonnested(table, nuis.g, mu) - 0.8) < 1e-8,
    )

    cols = DesignSpec((0, 1))
    binary = NuisanceRecipe(outcome="binary", loss=LossFunction("brier"), p_design=cols,
                            g_design=cols)
    record(
        "weighted bootstrap and jackknife replicates match take() refits (binary)",
        _replicates_match_take(table, binary, seed) < 1e-10,
    )
    continuous = NuisanceRecipe(outcome="continuous", loss=LossFunction("squared-error"),
                                p_design=cols, g_design=cols)
    record(
        "weighted bootstrap and jackknife replicates match take() refits (continuous)",
        _replicates_match_take(_continuous_table(seed), continuous, seed) < 1e-10,
    )

    ok = all(checks)
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return ok
