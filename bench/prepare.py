"""Set up one benchmark run in its own process.

    python prepare.py WORKLOAD SEED WORK_DIR

Writes the study and config for SEED into WORK_DIR (see
``workloads.prepare``), analyses the stored reference instance into
WORK_DIR/reference, and writes WORK_DIR/prepare.json with the oracle
value, the oracle tolerance floor, the path of the shipped report schema
and a record of the machine.

This runs apart from the benchmark's parent to keep the parent small:
on Linux a process's peak RSS (``ru_maxrss``) keeps the peak of the image
it replaced at exec, so workers started from a large parent would report
the parent's memory as their own.
"""

import ctypes
import importlib.resources
import json
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy
import workloads
from tiltrisk.config import AnalysisConfig
from tiltrisk.io import run_analysis

REFERENCE = Path(__file__).resolve().parent / "reference"


def blas_record() -> list:
    """BLAS libraries bundled with numpy and scipy, with their thread counts."""
    out = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*blas*")):
            entry = {"package": package.__name__, "library": path.name, "threads": None}
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                out.append(entry)
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = fn()
                    break
            out.append(entry)
    return out


def main(name: str, seed: int, work: Path) -> None:
    workload = workloads.WORKLOADS[name]
    workloads.prepare(workload, seed, work)
    eta, truth, mc_se = workloads.oracle(workload)
    config = json.loads((REFERENCE / name / "config.json").read_text())
    config.update(data_path=str(REFERENCE / name / "data.csv"), out_dir=str(work / "reference"))
    run_analysis(AnalysisConfig.from_dict(config))
    record = {
        "schema": str(importlib.resources.files("tiltrisk").joinpath("report_schema.json")),
        "oracle": {"eta": eta, "value": truth, "mc_se": mc_se, "floor": workload.oracle_floor},
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_record(),
        },
    }
    (work / "prepare.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
