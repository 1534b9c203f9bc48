"""Driving the command-line pipeline.

Scripts the same workflow the `tiltrisk` executable offers: simulate a
dataset, solve the prevalence-anchored tilt range, run the full analysis
with bootstrap intervals, and read back the machine-readable outputs.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# the directory and everything in it are removed when the demo exits
scratch = tempfile.TemporaryDirectory(prefix="tiltrisk-demo-")
work = Path(scratch.name)
print("working in", work)


def run(*args):
    cmd = [sys.executable, "-m", "tiltrisk.cli", *args]
    print("\n$ tiltrisk " + " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(proc.stdout.strip())
    if proc.returncode != 0:
        print(proc.stderr.strip())
        raise SystemExit(proc.returncode)
    return proc.stdout


# ---------------------------------------------------------------------------
# 1. Simulate a dataset from a declarative DGP spec
# ---------------------------------------------------------------------------
dgp = {
    "design": "non-nested",
    "covariate_kind": "uniform",
    "dim": 2,
    "selection_coefs": [0.2, 0.85, 0.85],
    "outcome_coefs": [-0.4, 1.2, 0.8],
    "eta_true": 0.5,
    "loss": "brier",
    "model": {"coefficients": [-1.2, 0.25, 0.1], "xstar_columns": [0, 1]},
    "n_source": 800,
    "n_target": 800,
}
(work / "dgp.json").write_text(json.dumps(dgp, indent=2))
run("simulate", "--dgp", str(work / "dgp.json"), "--seed", "5",
    "--out", str(work / "study.csv"))

# ---------------------------------------------------------------------------
# 2. What tilt range does a hypothesized prevalence imply?
# ---------------------------------------------------------------------------
out = run("eta-range", "--data", str(work / "study.csv"),
          "--x-cols", "x0,x1", "--anchor-mu", "0.45",
          "--multipliers", "0.5,2", "--step", "0.05")
rng = json.loads(out)
print(f"anchored range: [{rng['eta_lo']}, {rng['eta_hi']}] ({rng['n_points']} points)")

# ---------------------------------------------------------------------------
# 3. Full analysis: anchored grid, augmented estimator, bootstrap CIs
# ---------------------------------------------------------------------------
config = {
    "data_path": str(work / "study.csv"),
    "design": "non-nested",
    "loss": "brier",
    "x_columns": ["x0", "x1"],
    "model_coefficients": [-1.2, 0.25, 0.1],
    "anchor": {"mu": 0.45, "multipliers": [0.5, 2.0], "step": 0.05},
    "estimator": "aug",
    "resample": {"method": "bootstrap", "replicates": 200},
    "seed": 9,
    "out_dir": str(work / "out"),
}
(work / "config.json").write_text(json.dumps(config, indent=2))
run("analyze", "--config", str(work / "config.json"))

report = json.loads((work / "out" / "report.json").read_text())
print("\nreport format_version:", report["format_version"])
print("grid points:", len(report["eta_grid"]),
      "failed:", report["diagnostics"]["n_failed_points"])
print("curve csv:", report["outputs"]["curve_csv"])
for line in (work / "out" / "curve.csv").read_text().splitlines()[:4]:
    print(" ", line)
print("  ...")
