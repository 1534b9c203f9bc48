"""Passes over a large table's rows in row blocks after the fit: the
sweep's layout and sums and the prevalence solves.

``nuisance._BLOCK_ROWS`` is set here to a few rows, so the small tables
of these tests span several blocks; the same nuisances swept with the
default block size, which holds each table in one block, are the
reference.  The memory tests check that what a sweep or an anchored grid
allocates does not grow with the table.
"""

import tracemalloc

import numpy as np
import pytest

import test_replicates
from conftest import random_binary_table
from test_replicates import make_recipe
from tiltrisk import nuisance
from tiltrisk.data import build_table
from tiltrisk.estimators import estimate, sensitivity_curve
from tiltrisk.etaselect import PrevalenceAnchor, eta_grid_from_prevalence_range
from tiltrisk.tilt import LossFunction, PredictionModel

GRID = np.array([-40.0, -31.0, -1.0, 0.0, 0.5, 2.0, 31.0, 40.0])
ESTIMATORS = (("cl", None), ("aug", None), ("aug-alt", None), ("aug-alt", "linear"))
IDS = ("cl", "aug", "aug-alt-derived", "aug-alt-moment-fitted")


def curve_values(curve):
    return ([p.status for p in curve], curve.estimates,
            [p.result.diagnostics.get("max_weight") if p.ok else None for p in curve])


@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("estimator, a_basis", ESTIMATORS, ids=IDS)
def test_curve_matches_one_block(design, estimator, a_basis, monkeypatch):
    table = random_binary_table(np.random.default_rng(7), n=150, design=design)
    nuis = make_recipe("binary", a_basis=a_basis).fit(table)
    one = curve_values(sensitivity_curve(table, nuis, GRID, estimator))
    monkeypatch.setattr(nuisance, "_BLOCK_ROWS", 16)  # ten blocks, of both strata
    status, values, tops = curve_values(sensitivity_curve(table, nuis, GRID, estimator))
    assert status == one[0] and status.count("ok") >= 4
    ok = np.isfinite(one[1])
    assert np.array_equal(ok, np.isfinite(values))
    assert np.all(np.abs(values[ok] - one[1][ok]) <= 1e-12 * np.abs(one[1][ok]))
    assert tops == one[2]  # a segment's largest weight, of the same per-row weights
    for eta, value in zip(GRID, values):
        if np.isfinite(value):
            assert estimate(table, nuis, float(eta), estimator).estimate == value


@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("estimator, a_basis", ESTIMATORS, ids=IDS)
def test_replicate_segments_longer_than_a_block(design, estimator, a_basis, monkeypatch):
    # 40 rows in blocks of 8: every replicate's rows span several blocks
    monkeypatch.setattr(nuisance, "_BLOCK_ROWS", 8)
    test_replicates.test_binary_replicate_values_do_not_depend_on_their_group(
        design, estimator, a_basis)


@pytest.mark.parametrize("design, anchor", (
    ("nested", PrevalenceAnchor(alpha=0.45, multipliers=(0.8, 1.25))),
    ("non-nested", PrevalenceAnchor(mu=0.45, multipliers=(0.8, 1.25)))))
def test_anchored_grid_matches_one_block(design, anchor, monkeypatch):
    table = random_binary_table(np.random.default_rng(8), n=150, design=design)
    nuis = make_recipe("binary").fit(table)
    one = eta_grid_from_prevalence_range(table, nuis.g, anchor, p=nuis.p)
    monkeypatch.setattr(nuisance, "_BLOCK_ROWS", 16)
    assert np.array_equal(eta_grid_from_prevalence_range(table, nuis.g, anchor, p=nuis.p), one)


def peak_over_entry(call) -> int:
    """tracemalloc's peak during ``call()`` over what was held before it."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


BLOCK = 512


def nested_case(blocks: int):
    """A nested table of ``blocks`` blocks of ``BLOCK`` rows, source and
    target rows taking turns (so every block lays out as many rows), its
    fitted nuisances and an anchor; the table's row indices are built
    beforehand."""
    rng = np.random.default_rng(9)
    n = blocks * BLOCK
    x = rng.uniform(-1.0, 1.0, (n, 2))
    s = np.arange(n) % 2
    y = np.where(s == 1, (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float), np.nan)
    model = PredictionModel(coefficients=(0.1, 0.3, -0.2), xstar_columns=(0, 1))
    table = build_table(s, x, y, model, LossFunction("brier"), "nested")
    nuis = make_recipe("binary").fit(table)
    table.source_rows, table.target_rows, table.source_losses  # noqa: B018
    alpha = float(np.mean(nuis.g))
    return table, nuis, PrevalenceAnchor(alpha=alpha, multipliers=(0.9, 1.1))


# Between tables of 8 and 32 blocks, a temporary (n,) array of bools would
# add 12 KiB to the peak and one of float64 96 KiB; the lists of the
# blocks' slices held at the peak add 3-4.5 KiB.
SIZES, GROWTH = (8, 32), 8 * 1024


@pytest.mark.parametrize("estimator", ("cl", "aug", "aug-alt"))
def test_sweep_memory_does_not_grow_with_the_table(estimator, monkeypatch):
    monkeypatch.setattr(nuisance, "_BLOCK_ROWS", BLOCK)
    peaks = []
    for blocks in SIZES:
        table, nuis, _ = nested_case(blocks)
        sweep = lambda: sensitivity_curve(table, nuis, GRID, estimator)  # noqa: E731
        sweep()
        peaks.append(peak_over_entry(sweep))
    assert peaks[1] - peaks[0] < GROWTH, peaks


def test_anchored_grid_memory_does_not_grow_with_the_table(monkeypatch):
    monkeypatch.setattr(nuisance, "_BLOCK_ROWS", BLOCK)
    peaks = []
    for blocks in SIZES:
        table, nuis, anchor = nested_case(blocks)
        grid = lambda: eta_grid_from_prevalence_range(table, nuis.g, anchor, p=nuis.p)  # noqa
        assert grid().size > 1
        peaks.append(peak_over_entry(grid))
    assert peaks[1] - peaks[0] < GROWTH, peaks
