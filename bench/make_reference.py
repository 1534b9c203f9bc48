"""Write the stored reference instances in ``bench/reference``.

    python3 bench/make_reference.py

For each workload this draws the small (``mini``) instance with a fixed
seed and stores its CSV, its config and the curve the current code gives.
Every benchmark run reanalyses the stored CSV and compares the curve, so
run this only on the commit whose results are the reference.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from tiltrisk.config import AnalysisConfig  # noqa: E402
from tiltrisk.io import run_analysis  # noqa: E402

REFERENCE_SEED = 20230614


def main() -> None:
    for name, workload in workloads.WORKLOADS.items():
        dest = BENCH / "reference" / name
        dest.mkdir(parents=True, exist_ok=True)
        work = BENCH / ".work" / "make_reference" / name
        shutil.rmtree(work, ignore_errors=True)
        config_path = workloads.prepare(workload, REFERENCE_SEED, work, size="mini")
        config = json.loads(config_path.read_text())
        output = run_analysis(AnalysisConfig.from_dict(config))
        shutil.copyfile(config["data_path"], dest / "data.csv")
        shutil.copyfile(output.curve_csv, dest / "curve.csv")
        del config["data_path"], config["out_dir"]
        (dest / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        print(f"{name}: {len(output.curve)} points")


if __name__ == "__main__":
    main()
