"""The benchmark's workloads: synthetic studies analysed end to end.

Each workload draws a study with ``tiltrisk.simgen`` from the run's seed,
writes it as a CSV plus an analysis config, and is then analysed by
``tiltrisk.io.run_analysis`` in a separate process.  The analysed program
sees only those two files.  ``size="mini"`` gives a small instance of the
same shape; the stored reference curves in ``bench/reference`` are mini
instances, so the reference check costs little in every run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from tiltrisk.simgen import dgp_from_dict, generate, true_phi_oracle, true_psi_oracle

# the DGP shapes of the acceptance suite: selection and outcome both rise
# in x0 and x1, and a deliberately weak prediction model
SELECTION = [0.2, 0.85, 0.85]
BINARY_OUTCOME = [-0.4, 1.2, 0.8]
BINARY_MODEL = {"coefficients": [-1.2, 0.25, 0.1], "link": "logit", "xstar_columns": [0, 1]}
CONTINUOUS_OUTCOME = [0.5, 1.0, -0.5]
CONTINUOUS_MODEL = {"coefficients": [0.4, 0.9, -0.4], "link": "identity", "xstar_columns": [0, 1]}

X_COLUMNS = ["x0", "x1"]
ORACLE_DRAWS = 400_000
ORACLE_SEED = 230608084
STEP = 0.05


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``dgp`` is in ``simgen.dgp_from_dict`` form and ``analysis`` holds the
    config keys that do not depend on the drawn data.  ``anchor`` names
    the prevalence anchor ("mu" or "alpha") whose grid spans ``eta_range``,
    or is None for the explicit grid in ``analysis``.  ``mini`` overrides
    sizes for the reference instance.  The estimate at ``eta_true`` must lie within
    ``oracle_floor`` or five of its standard errors, whichever is larger,
    of the Monte Carlo truth.
    """

    name: str
    dgp: dict
    analysis: dict
    anchor: str | None
    eta_range: tuple
    mini: dict
    oracle_floor: float


WORKLOADS = {
    w.name: w
    for w in (
        # the criterion-10 shape (its grid at seed 1010): nearly all time is in
        # the replicate loop, where n = 800 makes per-call overhead dominate
        Workload(
            name="boot-anchored",
            dgp=dict(
                design="non-nested", covariate_kind="uniform", dim=2,
                selection_coefs=SELECTION, outcome_coefs=BINARY_OUTCOME,
                outcome_quad=[-0.5, 0.3], eta_true=0.4, model=BINARY_MODEL,
                loss="brier", n_source=400, n_target=400,
            ),
            analysis=dict(
                design="non-nested", loss="brier", estimator="aug",
                resample={"method": "bootstrap", "replicates": 100},
            ),
            anchor="mu",
            eta_range=(-1.1, 1.75),
            mini=dict(n_source=100, n_target=100, replicates=20),
            oracle_floor=0.02,
        ),
        # a large-registry quick look: CSV read and a vector-bound sweep, no
        # replicate loop, so resampling changes should leave it unchanged
        Workload(
            name="cohort-point",
            dgp=dict(
                design="nested", covariate_kind="uniform", dim=2,
                selection_coefs=SELECTION, outcome_coefs=BINARY_OUTCOME,
                eta_true=0.5, model=BINARY_MODEL, loss="brier", n_cohort=200_000,
            ),
            analysis=dict(design="nested", loss="brier", estimator="aug"),
            anchor="alpha",
            eta_range=(-1.15, 1.1),
            mini=dict(n_cohort=2000),
            oracle_floor=0.01,
        ),
        # the continuous path: weighted least-squares refits of b and c inside
        # the sweep, and n leave-one-out tables instead of B random draws
        Workload(
            name="jackknife-continuous",
            dgp=dict(
                design="non-nested", covariate_kind="uniform", dim=2,
                selection_coefs=SELECTION, outcome_coefs=CONTINUOUS_OUTCOME,
                outcome="continuous", sigma=1.0, eta_true=0.3, model=CONTINUOUS_MODEL,
                loss="squared-error", n_source=150, n_target=150,
            ),
            analysis=dict(
                design="non-nested", loss="squared-error", model_link="identity",
                estimator="aug", resample={"method": "jackknife"},
                eta_grid=[round(-0.5 + 0.05 * k, 10) for k in range(21)],
            ),
            anchor=None,
            eta_range=(),
            mini=dict(n_source=40, n_target=40),
            oracle_floor=0.1,
        ),
    )
}


def _spec(workload: Workload, size: str):
    dgp = dict(workload.dgp)
    if size == "mini":
        dgp.update({k: v for k, v in workload.mini.items() if k.startswith("n_")})
    return dgp_from_dict(dgp)


def _logistic(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Maximum-likelihood logistic coefficients by Newton's method."""
    beta = np.zeros(d.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(d @ beta)))
        step = np.linalg.solve(d.T @ (d * (p * (1.0 - p))[:, None]), d.T @ (y - p))
        beta += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return beta


def _anchor(workload: Workload, s, y, x) -> dict:
    """The analyst's prevalence anchor: the fitted prevalence, with a range
    that main-effects logistic fits of g (and p, for alpha) map to half a
    step inside ``eta_range``.  The program rounds the solved ends outward
    to the lattice, so every seed sweeps the same grid and the work per
    analysis does not depend on the seed."""
    d = np.column_stack([np.ones(s.size), x])
    src = s == 1
    g = 1.0 / (1.0 + np.exp(-(d @ _logistic(d[src], y[src]))))

    def tilted(eta):
        return np.exp(eta) * g / (np.exp(eta) * g + 1.0 - g)

    if workload.anchor == "mu":
        def prevalence(eta):
            return float(np.mean(tilted(eta)[s == 0]))
    else:
        p = 1.0 / (1.0 + np.exp(-(d @ _logistic(d, s.astype(np.float64)))))

        def prevalence(eta):
            return float(np.mean(p * g + (1.0 - p) * tilted(eta)))

    value = prevalence(0.0)
    lo, hi = workload.eta_range
    return {
        workload.anchor: value,
        "multipliers": [prevalence(lo + STEP / 2) / value, prevalence(hi - STEP / 2) / value],
        "step": STEP,
    }


def write_csv(table, path: Path) -> None:
    s = table.s.tolist()
    y = table.y.tolist()
    x = table.x.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "y", *X_COLUMNS])
        writer.writerows(
            [si, repr(yi) if si == 1 else "", *map(repr, xi)]
            for si, yi, xi in zip(s, y, x)
        )


def prepare(workload: Workload, seed: int, work_dir: Path, size: str = "full") -> Path:
    """Draw the study for ``seed``, write ``data.csv`` and ``config.json``
    into ``work_dir`` and return the config path.  Outputs go to
    ``work_dir / "out"``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    spec = _spec(workload, size)
    table = generate(spec, seed).table
    data = work_dir / "data.csv"
    write_csv(table, data)
    config = dict(workload.analysis)
    config.update(
        data_path=str(data.resolve()),
        out_dir=str((work_dir / "out").resolve()),
        x_columns=X_COLUMNS,
        model_coefficients=workload.dgp["model"]["coefficients"],
        seed=seed,
    )
    if size == "mini" and "replicates" in workload.mini:
        config["resample"] = dict(config["resample"], replicates=workload.mini["replicates"])
    if workload.anchor is not None:
        config["anchor"] = _anchor(workload, table.s, table.y, table.x)
    path = work_dir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def oracle(workload: Workload) -> tuple:
    """(eta_true, true risk at eta_true, its Monte Carlo standard error)."""
    spec = _spec(workload, "full")
    fn = true_psi_oracle if spec.design == "nested" else true_phi_oracle
    value = fn(spec, spec.eta_true, n_mc=ORACLE_DRAWS, seed=ORACLE_SEED)
    return spec.eta_true, value.value, value.mc_se
