"""One benchmark sample in a fresh interpreter.

    python worker.py SPAWN_NS CONFIG RESULT [TRACE]

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this process.  The set-up time runs from there until the package is
imported and the config parsed, which every CLI call pays; nothing else
is imported before that mark.  The worker then runs one ``run_analysis``
and writes RESULT (JSON).  With TRACE it instead runs untraced, traced,
untraced, traced, and writes the spans of both traced analyses to TRACE.
"""

import contextlib
import hashlib
import json
import resource
import sys
import time


def resampling_notes(curve) -> list:
    notes = []
    for point in getattr(curve, "points", ()):
        diagnostics = getattr(getattr(point, "result", None), "diagnostics", None) or {}
        if diagnostics.get("resampling_note"):
            notes.append(str(diagnostics["resampling_note"]))
    return notes


def reference_kernel_s() -> float:
    """Median of three timings of a fixed NumPy kernel (vector math plus
    many tiny solves), recorded next to each sample to show host drift."""
    import numpy as np

    rng = np.random.default_rng(12345)
    v = rng.random(200_000)
    m = rng.random((3, 3)) + 3.0 * np.eye(3)
    b = rng.random(3)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np.sort(np.exp(v) * np.log1p(v))
        for _ in range(2000):
            np.linalg.solve(m, b)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def main(spawn_ns: int, config_path: str, result_path: str, trace_path=None) -> int:
    import tiltrisk  # noqa: F401
    import tiltrisk.cli  # noqa: F401
    import tiltrisk.io
    from tiltrisk.config import AnalysisConfig

    with open(config_path) as fh:
        config = AnalysisConfig.from_dict(json.load(fh))
    result = {"setup_s": (time.monotonic_ns() - spawn_ns) / 1e9}

    def analyse(tracer=None):
        """Wall seconds of one analysis, the curve CSV digest, the output."""
        span = tracer.span("run_analysis", "io.pipeline") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            output = tiltrisk.io.run_analysis(config)
        wall = time.perf_counter() - start
        with open(output.curve_csv, "rb") as fh:
            return wall, hashlib.sha256(fh.read()).hexdigest(), output

    try:
        if trace_path is None:
            wall, digest, output = analyse()
            result.update(
                wall_s=wall,
                peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                digests=[digest],
                notes=resampling_notes(output.curve),
            )
        else:
            import tracing

            untraced, traced, digests, dumps, missing = [], [], [], [], []
            for run in range(4):
                if run % 2 == 0:
                    wall, digest, output = analyse()
                    untraced.append(wall)
                else:
                    tracer = tracing.Tracer()
                    with tracing.instrument(tracer) as missing:
                        wall, digest, output = analyse(tracer)
                    traced.append(wall)
                    dumps.append(tracer.dump())
                digests.append(digest)
            result.update(untraced_s=untraced, traced_s=traced, digests=digests,
                          notes=resampling_notes(output.curve), missing=missing)
            with open(trace_path, "w") as fh:
                json.dump({"runs": dumps, "missing": missing}, fh)
    except Exception as exc:  # the parent reports the failed analysis
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["kernel_s"] = reference_kernel_s()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), *sys.argv[2:]))
