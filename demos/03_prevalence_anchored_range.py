"""Choosing the tilt range from a hypothesized outcome prevalence.

The tilt parameter is not identified from the observed data, so the
analysis sweeps a range.  This demo shows how external knowledge about
the outcome prevalence in the target population pins that range down:
each hypothesized prevalence maps to exactly one eta.
"""

import numpy as np

from tiltrisk import (
    DgpSpec,
    LossFunction,
    PredictionModel,
    PrevalenceAnchor,
    eta_from_prevalence_nonnested,
    eta_grid_from_prevalence_range,
    generate,
    recipe_for,
)
from tiltrisk.etaselect import implied_prevalence_nonnested

spec = DgpSpec(
    design="non-nested",
    covariate_kind="uniform",
    dim=2,
    selection_coefs=(0.2, 0.85, 0.85),
    outcome_coefs=(-0.4, 1.2, 0.8),
    eta_true=0.5,
    model=PredictionModel(coefficients=(-1.2, 0.25, 0.1), xstar_columns=(0, 1)),
    loss=LossFunction("brier"),
    n_source=1200,
    n_target=1200,
)
sim = generate(spec, seed=11)
table = sim.table

# fitted outcome model, evaluated on every row of the table
nuis = recipe_for(spec).fit(table)
g_target = nuis.g[table.s == 0]

# ---------------------------------------------------------------------------
# 1. The prevalence-to-eta map is strictly increasing
# ---------------------------------------------------------------------------
print("implied target prevalence as the tilt varies:")
for eta in (-2.0, -1.0, 0.0, 1.0, 2.0):
    print(f"  eta={eta:+.1f} -> prevalence {implied_prevalence_nonnested(g_target, eta):.4f}")

# ---------------------------------------------------------------------------
# 2. Inverting the map
# ---------------------------------------------------------------------------
mu0 = implied_prevalence_nonnested(g_target, 0.0)
print(f"\nuntilted (fitted) prevalence: {mu0:.4f}")
for mu in (0.5 * mu0, mu0, min(2 * mu0, 0.95)):
    eta = eta_from_prevalence_nonnested(table, nuis.g, mu)
    print(f"  hypothesized prevalence {mu:.4f} -> eta = {eta:+.4f}")

# ---------------------------------------------------------------------------
# 3. A full grid from half to double the anchor, step 0.05
# ---------------------------------------------------------------------------
# the anchor carries the grid step; it is checked when it is made
anchor = PrevalenceAnchor(mu=mu0, multipliers=(0.5, 2.0), step=0.05)
grid = eta_grid_from_prevalence_range(table, nuis.g, anchor)
print(f"\nanchored grid: {grid.size} points from {grid[0]:+.2f} to {grid[-1]:+.2f}")
print("endpoints are rounded outward to the 0.05 lattice")
