"""Nested designs: the source sample sits inside a target-population cohort.

Here the parameter of interest is the cohort-wide risk.  Source rows
contribute their observed losses directly (no assumption is in doubt for
them), so only the target-side term moves with the tilt.  The demo also
contrasts bootstrap and jackknife intervals at a single tilt value.
"""

import numpy as np

from tiltrisk import (
    DgpSpec,
    LossFunction,
    PredictionModel,
    ResampleConfig,
    estimate,
    generate,
    recipe_for,
    sensitivity_curve,
    true_psi_oracle,
)

spec = DgpSpec(
    design="nested",
    covariate_kind="uniform",
    dim=2,
    selection_coefs=(0.2, 0.85, 0.85),
    outcome_coefs=(-0.4, 1.2, 0.8),
    eta_true=0.5,
    model=PredictionModel(coefficients=(-1.2, 0.25, 0.1), xstar_columns=(0, 1)),
    loss=LossFunction("brier"),
    n_cohort=1500,
)
sim = generate(spec, seed=21)
table = sim.table
print(f"cohort of {table.n}: {table.n1} with outcomes, {table.n0} covariates only")

recipe = recipe_for(spec)
nuis = recipe.fit(table)

# ---------------------------------------------------------------------------
# 1. The source-side term never moves with eta
# ---------------------------------------------------------------------------
print("\n  eta   plug-in   augmented")
for eta in (-1.0, -0.5, 0.0, 0.5, 1.0):
    cl = estimate(table, nuis, eta, "cl").estimate
    aug = estimate(table, nuis, eta, "aug").estimate
    print(f"{eta:+.1f}   {cl:.4f}    {aug:.4f}")

oracle = true_psi_oracle(spec, spec.eta_true, n_mc=500_000, seed=2)
print(f"\ntrue cohort risk at eta_true: {oracle.value:.4f}")

# ---------------------------------------------------------------------------
# 2. Bootstrap vs jackknife at eta = eta_true
# ---------------------------------------------------------------------------
eta = spec.eta_true

# the sweep gives the package's estimators their intervals: each replicate
# is a vector of row counts over the cohort, refitted with the recipe and
# swept without building a replicate table
def interval(resample):
    return sensitivity_curve(table, nuis, [eta], "aug", resample=resample).points[0].result

boot = interval(ResampleConfig(replicates=300, seed=3))
jack = interval(ResampleConfig(method="jackknife"))
print(f"bootstrap: se={boot.se:.4f} ci=[{boot.ci[0]:.4f}, {boot.ci[1]:.4f}]")
print(f"jackknife: se={jack.se:.4f} ci=[{jack.ci[0]:.4f}, {jack.ci[1]:.4f}]")
# nested cohorts resample simply (the strata sizes were not fixed by design)
