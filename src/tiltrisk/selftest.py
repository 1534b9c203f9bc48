"""Quick internal consistency checks behind ``tiltrisk selftest``."""

from __future__ import annotations

import numpy as np

from .data import build_table
from .estimators import _replicate_rows, estimate, influence_values, sensitivity_curve
from .etaselect import eta_from_prevalence_nonnested, implied_prevalence_nonnested
from .nuisance import _BLOCK_ROWS, DesignSpec, NuisanceRecipe, NuisanceSet, _r_factors
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
    bootstrap replicate and of leave-one-out replicates dropping a source
    row and two target rows, and the refit of the same replicate built with
    ``take`` (NaN if a point fails).  The replicates are fitted and swept
    together (``_replicate_rows``), so the two target drops share their
    source-side fits."""
    boot = ResampleConfig(replicates=2, seed=seed)
    drops = [5, *table.target_rows[[0, -1]]]
    counts = np.vstack([replicate_counts(table, boot, [1]),
                        replicate_counts(table, ResampleConfig(method="jackknife"), drops)])
    fits = recipe.fit_counts(table, counts)
    etas = np.array([-0.7, 0.0, 0.9])
    weighted, _, _ = _replicate_rows(table, fits, [0, 1, 2, 3], etas, "aug", solved={})
    diffs = []
    boot_rows = resample_indices(table, 1, seed, boot.resolve_stratified(table))
    for r, idx in enumerate([boot_rows] + [np.delete(np.arange(table.n), i) for i in drops]):
        t = table.take(idx)
        taken = recipe.fit(t)
        diffs += [abs(value - estimate(t, taken, float(eta), "aug").estimate)
                  for eta, value in zip(etas, weighted[r])]
    return float(np.max(diffs))


def _group_equals_alone(table, recipe: NuisanceRecipe, seed: int) -> bool:
    """Whether two bootstrap replicates swept together (``_replicate_rows``)
    give each one's estimates swept alone, bit for bit."""
    boot = ResampleConfig(replicates=2, seed=seed)
    fits = recipe.fit_counts(table, replicate_counts(table, boot, [0, 1]))
    etas = np.array([-31.0, -0.7, 0.0, 0.9, 31.0])
    sweep = lambda group: _replicate_rows(table, fits, group, etas, "aug")[0]
    return all(np.array_equal(sweep([0, 1])[r], sweep([r])[0]) for r in (0, 1))


def _blocked_r_error(seed: int) -> float:
    """Largest |entry| of R'R - R0'R0 over ||sqrt(c) d||_F^2, R the blocked
    ``_r_factors`` of count-weighted rows spanning three and a half row
    blocks and R0 numpy's QR of the same rows in one piece."""
    rng = np.random.default_rng(seed)
    n = 7 * _BLOCK_ROWS // 2
    d = rng.normal(size=(n, 4)) * np.array([1.0, 1e-3, 1e2, 1.0])
    counts = rng.poisson(1.0, (1, n)).astype(np.float64)
    r = _r_factors(np.ascontiguousarray(d.T), counts)[0]
    r0 = np.linalg.qr(d * np.sqrt(counts[0])[:, None], mode="r")
    return float(np.max(np.abs(r.T @ r - r0.T @ r0)) / np.sum(counts[0][:, None] * d**2))


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
    fitted = binary.fit(table)
    curve = {est: sensitivity_curve(table, fitted, [eta], est).points[0].result.estimate
             for est in ("cl", "aug", "aug-alt")}
    record(
        "a fitted set's estimate is its curve point, and derived aug-alt is aug (exactly)",
        all(estimate(table, fitted, eta, est).estimate == v for est, v in curve.items())
        and curve["aug-alt"] == curve["aug"],
    )
    record(
        "weighted bootstrap and jackknife replicates, source-side fits shared, match "
        "take() refits (binary)",
        _replicates_match_take(table, binary, seed) < 1e-10,
    )
    record(
        "a bootstrap group swept together equals each replicate swept alone (exactly)",
        _group_equals_alone(table, binary, seed),
    )
    continuous = NuisanceRecipe(outcome="continuous", loss=LossFunction("squared-error"),
                                p_design=cols, g_design=cols)
    record(
        "weighted bootstrap and jackknife replicates, source-side fits shared, match "
        "take() refits (continuous)",
        _replicates_match_take(_continuous_table(seed), continuous, seed) < 1e-10,
    )

    record("the rank check's R factor by row blocks has the one-piece QR's R'R",
           _blocked_r_error(seed) < 1e-12)

    ok = all(checks)
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return ok
