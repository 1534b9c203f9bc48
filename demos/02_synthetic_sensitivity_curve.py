"""End-to-end sensitivity curve on synthetic data.

Simulates a non-nested study where the target population's outcomes are
genuinely tilted (eta_true = 0.5), then estimates the Brier risk curve
over a grid of tilt values with bootstrap confidence intervals.  The
curve should pass near the true target risk at eta = eta_true.
"""

import numpy as np

from tiltrisk import (
    DgpSpec,
    LossFunction,
    PredictionModel,
    ResampleConfig,
    generate,
    recipe_for,
    sensitivity_curve,
    true_phi_oracle,
)

# ---------------------------------------------------------------------------
# 1. A synthetic study with a known violation of transportability
# ---------------------------------------------------------------------------
spec = DgpSpec(
    design="non-nested",
    covariate_kind="uniform",
    dim=2,
    selection_coefs=(0.2, 0.85, 0.85),   # who ends up in the source sample
    outcome_coefs=(-0.4, 1.2, 0.8),      # Pr[Y=1 | X] in the source
    eta_true=0.5,                        # the target is tilted upward
    model=PredictionModel(coefficients=(-1.2, 0.25, 0.1), xstar_columns=(0, 1)),
    loss=LossFunction("brier"),
    n_source=1500,
    n_target=1500,
)
sim = generate(spec, seed=42)
table = sim.table
print(f"simulated table: n={table.n} (source {table.n1}, target {table.n0})")
print("target outcomes are hidden from the estimators:",
      bool(np.all(np.isnan(table.y[table.s == 0]))))

# ---------------------------------------------------------------------------
# 2. Fit nuisances and sweep the curve
# ---------------------------------------------------------------------------
nuis = recipe_for(spec).fit(table)     # logistic g and p, closed-form b and c, on the rows
grid = np.round(np.arange(-10, 21) * 0.05, 10)  # eta in [-0.5, 1.0]
curve = sensitivity_curve(
    table, nuis, grid,
    estimator="aug",
    resample=ResampleConfig(method="bootstrap", replicates=300, seed=7),
)

# ---------------------------------------------------------------------------
# 3. Compare with the truth at eta_true
# ---------------------------------------------------------------------------
oracle = true_phi_oracle(spec, spec.eta_true, n_mc=500_000, seed=1)
print(f"\ntrue target risk at eta_true={spec.eta_true}: {oracle.value:.4f}\n")
print("  eta   estimate     95% CI")
for pt in curve:
    r = pt.result
    flag = " <- eta_true" if abs(pt.eta - spec.eta_true) < 1e-9 else ""
    print(f"{pt.eta:+.2f}   {r.estimate:.4f}   [{r.ci[0]:.4f}, {r.ci[1]:.4f}]{flag}")

at_true = [pt for pt in curve if abs(pt.eta - spec.eta_true) < 1e-9][0]
inside = at_true.result.ci[0] <= oracle.value <= at_true.result.ci[1]
print(f"\ninterval at eta_true covers the oracle: {inside}")
