"""Benchmark for the tiltrisk analysis pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the package is imported from ``src``.
``prepare.py`` draws the study from ``--seed`` (any seed works, so a
held-out seed can check a claim) and writes it, with its config, before
timing starts.  Each sample is then a fresh interpreter (``worker.py``)
that imports the package, parses the config and runs one
``tiltrisk.io.run_analysis``; samples run one after another for
``--seconds`` seconds, at least three.  This parent imports neither
numpy nor the package, so it stays small (see ``prepare.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the
run's samples: ``wall_s`` (one analysis, CSV in to curve.csv and
report.json written), ``setup_s`` (interpreter start to package imported
and config parsed) and ``peak_rss_mb`` (peak resident memory of the
process that ran the analysis).  ``--trace 1`` runs one worker that
alternates untraced and traced analyses and reports per-layer self times
and counts from the traced ones (see ``tracing.py``).

Every run applies the correctness gate: all curve points ``ok``, the
report valid against the shipped schema, byte-identical curve.csv across
the run's analyses, the estimate at the true eta within tolerance of the
Monte Carlo oracle, and a small stored reference instance reproduced
(``reference/``).  A failed gate prints ``"correct": false`` without
metrics and exits 1.  ``attempted``/``failed`` count grid points plus
resampling replicates; their ratio is printed as ``ops_failed_frac``.

The last stdout line is the JSON result; earlier lines give each sample,
the reference-kernel timing next to it (host drift) and the machine.
Work files go to ``bench/.work``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"

WORKLOADS = ("boot-anchored", "cohort-point", "jackknife-continuous")   # see workloads.py
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0          # every run ends well inside three minutes
ORACLE_SES = 5.0             # oracle tolerance in standard errors of the run
REFERENCE_RTOL = 1e-8        # absorbs last-ulp changes, not a changed result
REFERENCE_ATOL = 1e-12
SELF_TIME_TOL = 0.05

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "io.read_s": "s", "io.rows_read": "count", "io.write_s": "s", "io.pipeline_s": "s",
    "data.build_s": "s", "data.resample_tables": "count", "data.take_s": "s",
    "nuisance.fit_s": "s", "nuisance.fits": "count", "nuisance.logistic_fits": "count",
    "nuisance.irls_iters": "count", "nuisance.ridge_fallbacks": "count",
    "nuisance.wls_fits": "count", "nuisance.design_evals": "count", "nuisance.design_s": "s",
    "estimators.sweep_s": "s", "estimators.point_evals": "count",
    "estimators.rows_per_s": "1/s", "tilt.kernel_calls": "count",
    "etaselect.grid_s": "s", "etaselect.grid_points": "count",
    "resampling.replicates": "count", "resampling.failed": "count",
    "resampling.replicate_ms.p50": "ms", "resampling.replicate_ms.p90": "ms",
    "resampling.draw_s": "s", "resampling.loop_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
# self-time layers of tracing.PROBES and the metric each one feeds
LAYER_METRICS = {
    "io.read": "io.read_s", "io.write": "io.write_s", "io.pipeline": "io.pipeline_s",
    "data.build": "data.build_s", "data.take": "data.take_s",
    "nuisance.fit": "nuisance.fit_s", "nuisance.design": "nuisance.design_s",
    "estimators.sweep": "estimators.sweep_s", "etaselect.grid": "etaselect.grid_s",
    "resampling.draw": "resampling.draw_s", "resampling.loop": "resampling.loop_s",
}
COUNTS = ("io.rows_read", "nuisance.fits", "nuisance.logistic_fits", "nuisance.irls_iters",
          "nuisance.ridge_fallbacks", "nuisance.wls_fits", "nuisance.design_evals",
          "estimators.point_evals", "tilt.kernel_calls", "etaselect.grid_points",
          "resampling.replicates", "resampling.failed")


class GateFailure(Exception):
    """The run's outputs are wrong; it reports a failure, not a time."""


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(config: Path, result: Path, deadline: float, trace: Path | None = None) -> dict:
    """Run worker.py once and return its result."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(time.monotonic_ns()), str(config),
           str(result)] + ([str(trace)] if trace else [])
    try:
        subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL, cwd=ROOT,
                       timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "analysis exceeded the run's time limit"}
    if not result.exists():
        return {"error": "worker exited without a result"}
    return json.loads(result.read_text())


def plain_samples(config: Path, work: Path, seconds: float, deadline: float) -> list:
    """Samples one after another until the next would end past ``seconds``
    (after at least MIN_SAMPLES) or past the run's deadline."""
    start = time.monotonic()
    samples = []
    while True:
        samples.append(spawn(config, work / "sample.json", deadline))
        if "error" in samples[-1]:
            break
        now = time.monotonic()
        per_sample = (now - start) / len(samples)
        if now + per_sample > deadline:
            break
        if len(samples) >= MIN_SAMPLES and now - start + per_sample > seconds:
            break
    return samples


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def read_curve(path: Path) -> list:
    with open(path, newline="") as fh:
        return [
            {k: (row[k] if k == "status" else float(row[k]) if row[k] else None)
             for k in ("eta", "estimate", "se", "status")}
            for row in csv.DictReader(fh)
        ]


def check_outputs(out_dir: Path, digests: list, schema_path: str) -> tuple:
    """Statuses, schema and byte-identical reruns; returns (curve, report)."""
    import jsonschema

    if len(set(digests)) != 1:
        raise GateFailure(f"curve.csv differs between reruns ({len(set(digests))} versions)")
    curve = read_curve(out_dir / "curve.csv")
    bad = [row for row in curve if row["status"] != "ok"]
    if bad:
        raise GateFailure(f"{len(bad)} curve points not ok, first: {bad[0]['status']}")
    report = json.loads((out_dir / "report.json").read_text())
    try:
        jsonschema.validate(report, json.loads(Path(schema_path).read_text()))
    except jsonschema.ValidationError as exc:
        raise GateFailure(f"report.json fails the schema: {exc.message}") from exc
    return curve, report


def check_oracle(oracle: dict, curve: list) -> str:
    """The estimate at eta_true lies within the workload's floor or
    ORACLE_SES standard errors, whichever is larger, of the Monte Carlo
    truth (widened by three Monte Carlo errors)."""
    eta = oracle["eta"]
    row = min(curve, key=lambda r: abs(r["eta"] - eta))
    if abs(row["eta"] - eta) > 1e-9:
        raise GateFailure(f"the grid does not contain eta_true={eta}")
    tol = max(oracle["floor"], ORACLE_SES * (row["se"] or 0.0)) + 3.0 * oracle["mc_se"]
    error = row["estimate"] - oracle["value"]
    if not abs(error) <= tol:
        raise GateFailure(f"estimate at eta={eta} is {error:+.4g} from the oracle (tol {tol:.3g})")
    return f"oracle at eta={eta}: error {error:+.4g}, tolerance {tol:.3g}"


def check_reference(name: str, work: Path) -> str:
    """The stored mini instance, reanalysed by prepare.py, matches its
    stored curve within REFERENCE_RTOL."""
    got = read_curve(work / "reference" / "curve.csv")
    want = read_curve(REFERENCE / name / "curve.csv")
    if len(got) != len(want):
        raise GateFailure(f"reference curve has {len(got)} points, stored {len(want)}")
    worst = 0.0
    for g, w in zip(got, want):
        for key in ("eta", "estimate", "se"):
            if (g[key] is None) != (w[key] is None) or g["status"] != w["status"]:
                raise GateFailure(f"reference point at eta={w['eta']} changed {key} or status")
            if w[key] is not None:
                diff = abs(g[key] - w[key])
                if diff > REFERENCE_ATOL + REFERENCE_RTOL * abs(w[key]):
                    raise GateFailure(f"reference {key} at eta={w['eta']} off by {diff:.3g}")
                worst = max(worst, diff)
    return f"reference: {len(want)} points reproduced, max |diff| {worst:.3g}"


def failure_counts(curve: list, report: dict, notes: list) -> tuple:
    """(attempted, failed): grid points plus replicates; a replicate counts
    as failed when any resampling note names it failed or skipped."""
    resampling = report["diagnostics"].get("resampling") or {}
    replicates = int(resampling.get("replicates") or 0)
    failed_points = max(int(report["diagnostics"]["n_failed_points"]),
                        sum(row["status"] != "ok" for row in curve))
    failed_reps = 0
    for note in notes:
        found = re.search(r"(\d+)(?: of \d+)? replicates (?:failed|skipped)", note)
        failed_reps = max(failed_reps, int(found.group(1)) if found else 1)
    return len(curve) + replicates, failed_points + failed_reps


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def layer_metrics(trace: dict, traced: list, untraced: list) -> dict:
    """Per-layer metrics from the traced analyses; counts must repeat
    exactly and the self times must account for each traced wall time."""
    runs = trace["runs"]
    counts = [{k: run["counts"].get(k, 0) for k in COUNTS} for run in runs]
    if any(c != counts[0] for c in counts):
        raise GateFailure(f"trace counts differ between traced runs: {counts}")
    metrics = dict(counts[0])
    selfs = [tracing.self_times(run["spans"]) for run in runs]
    for run_self, wall in zip(selfs, traced):
        if abs(sum(run_self.values()) - wall) > SELF_TIME_TOL * wall:
            raise GateFailure(f"layer self times sum to {sum(run_self.values()):.4g} s, "
                              f"traced wall {wall:.4g} s")
    for layer, name in LAYER_METRICS.items():
        metrics[name] = statistics.mean(s.get(layer, 0.0) for s in selfs)
    spans = runs[0]["spans"]
    layer_of = {s["id"]: s["layer"] for s in spans}
    # drop_row may build its table through take: count outermost calls only
    metrics["data.resample_tables"] = sum(
        s["layer"] == "data.take" and layer_of.get(s["parent"]) != "data.take" for s in spans)
    rows = runs[0]["counts"].get("estimators.rows", 0)
    metrics["estimators.rows_per_s"] = rows / metrics["estimators.sweep_s"] if rows else 0.0
    replicate_ms = [d * 1e3 for d in tracing.durations(spans, "replicate")]
    metrics["resampling.replicate_ms.p50"] = nearest_rank(replicate_ms, 0.5)
    metrics["resampling.replicate_ms.p90"] = nearest_rank(replicate_ms, 0.9)
    metrics["trace.wall_s"] = statistics.mean(traced)
    # the second untraced analysis runs warm, like the traced ones
    metrics["trace.overhead_s"] = statistics.mean(traced) - untraced[-1]
    return metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(BENCH / "prepare.py"), name, str(seed), str(work)],
                       env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"FAILED: set-up or reference analysis: {exc}")
        return result
    prepared = json.loads((work / "prepare.json").read_text())
    print(f"machine: {json.dumps(prepared['machine'])}")
    config = work / "config.json"
    if trace:
        samples = [spawn(config, work / "sample.json", deadline, trace=work / "trace.json")]
    else:
        samples = plain_samples(config, work, seconds, deadline)
    for i, s in enumerate(samples, 1):
        timings = {k: s[k] for k in ("setup_s", "wall_s", "untraced_s", "traced_s",
                                     "peak_rss_kb") if k in s}
        print(f"sample {i}: {timings}, reference kernel {s.get('kernel_s')} s")
    errors = [s["error"] for s in samples if "error" in s]
    if errors:
        print(f"FAILED: analysis raised: {errors[0]}")
        return result
    try:
        curve, report = check_outputs(work / "out", [d for s in samples for d in s["digests"]],
                                      prepared["schema"])
        print(check_oracle(prepared["oracle"], curve))
        print(check_reference(name, work))
        if trace:
            trace_data = json.loads((work / "trace.json").read_text())
            metrics = layer_metrics(trace_data, samples[0]["traced_s"], samples[0]["untraced_s"])
            hook_errors = sorted({n for run in trace_data["runs"] for n in run["hook_errors"]})
            print(f"trace: missing names {trace_data['missing']}, "
                  f"absent layers {tracing.absent_layers(trace_data['missing'])}, "
                  f"count hooks that no longer fit {hook_errors}; spans in {work / 'trace.json'}")
            # the traced run takes replicate failures as bootstrap_matrix returns them
            attempted = len(curve) + metrics["resampling.replicates"]
            failed = metrics["resampling.failed"]
            units = PER_LAYER_UNITS
        else:
            attempted, failed = failure_counts(curve, report, samples[-1]["notes"])
            metrics = {
                "wall_s": statistics.median(s["wall_s"] for s in samples),
                "setup_s": statistics.median(s["setup_s"] for s in samples),
                "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in samples) / 1024.0,
            }
            units = END_TO_END_UNITS
    except GateFailure as exc:
        print(f"FAILED: {exc}")
        return result
    print(f"{name} seed {seed}: {len(samples)} sample(s), "
          f"ops_failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for metric, unit in units.items():
        print(f"  {metric:30s} {metrics[metric]:.6g} {unit}")
    return {
        "correct": True,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tiltrisk" / "__init__.py").is_file():
        print(f"error: no tiltrisk package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    results = []
    for name in names:
        for trace in (0, 1) if args.workload == "all" else (args.trace,):
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(run_workload(name, args.seed, args.seconds, bool(trace), deadline))
            if len(names) > 1:
                print(f"{name} trace={trace}: {json.dumps(results[-1])}")
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
