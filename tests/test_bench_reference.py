"""The benchmark's stored mini references, reanalysed.

Each workload of ``bench/run.py`` reanalyses a stored small instance
(``bench/reference/<name>``: its config, data and curve) and fails its
run unless the curve comes back within 1e-12 + 1e-8 |stored| with the
same statuses.  This runs the same analysis, as ``bench/prepare.py`` does,
and applies the same comparison as ``bench/run.py``'s ``check_reference``,
so a change that moves a stored estimate fails here too.  Only reads
``bench/``.
"""

import json
from pathlib import Path

import pytest

from tiltrisk import io as tio
from tiltrisk.config import AnalysisConfig

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"
ATOL, RTOL = 1e-12, 1e-8


@pytest.mark.parametrize("name", ("boot-anchored", "cohort-point", "jackknife-continuous"))
def test_stored_reference_reproduced(tmp_path, name):
    ref = REFERENCE / name
    config = {**json.loads((ref / "config.json").read_text()),
              "data_path": str(ref / "data.csv"), "out_dir": str(tmp_path)}
    tio.run_analysis(AnalysisConfig.from_dict(config))
    got = tio.read_curve_csv(tmp_path / "curve.csv")
    want = tio.read_curve_csv(ref / "curve.csv")
    assert len(got) == len(want)
    assert [row["status"] for row in got] == [row["status"] for row in want]
    for g, w in zip(got, want):
        for key in ("eta", "estimate", "se"):
            assert (g[key] is None) == (w[key] is None), (w["eta"], key)
            if w[key] is not None:
                assert abs(g[key] - w[key]) <= ATOL + RTOL * abs(w[key]), (w["eta"], key)
