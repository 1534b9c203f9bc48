"""Prevalence-anchoring checks: closed-form roots, round trips, grids."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, logit

from tiltrisk import io as tio
from tiltrisk.config import AnalysisConfig
from tiltrisk.errors import ConvergenceError, DomainError
from tiltrisk.etaselect import (
    BRACKET_CAP,
    FTOL,
    PrevalenceAnchor,
    _mixture_prevalence,
    eta_from_prevalence_nested,
    eta_from_prevalence_nonnested,
    eta_grid_from_prevalence_range,
    implied_prevalence_nested,
    implied_prevalence_nonnested,
    solve_monotone_root,
)
from tiltrisk.tilt import BinaryTilt, tilted_bernoulli

from conftest import logistic_fn, random_binary_table
from test_closed_form_reference import G_EDGES

LN4 = math.log(4.0)
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def const_rows(table, v):
    return np.full(table.n, float(v))


class TestNonNested:
    def test_untilted_mean_gives_zero(self, rng):
        table = random_binary_table(rng, n=100)
        g = logistic_fn((0.2, 0.4, -0.3))(table.x)
        mu = float(np.mean(g[table.s == 0]))
        assert eta_from_prevalence_nonnested(table, g, mu) == pytest.approx(0.0, abs=1e-8)

    def test_constant_g_closed_form(self, rng):
        table = random_binary_table(rng, n=60)
        eta = eta_from_prevalence_nonnested(table, const_rows(table, 0.2), 0.5)
        assert eta == pytest.approx(LN4, abs=1e-8)

    def test_round_trip(self, rng):
        table = random_binary_table(rng, n=150)
        g = logistic_fn((0.1, 0.6, -0.4))(table.x)
        gv = g[table.s == 0]
        for eta_star in (-3.0, -1.2, 0.0, 0.7, 3.0):
            mu = implied_prevalence_nonnested(gv, eta_star)
            eta = eta_from_prevalence_nonnested(table, g, mu)
            assert eta == pytest.approx(eta_star, abs=1e-8)

    def test_attainable_range_edges(self, rng):
        table = random_binary_table(rng, n=80)
        g = logistic_fn((0.0, 0.5, 0.5))(table.x)
        sup = float(np.mean(g[table.s == 0] > 0))  # == 1.0 here
        with pytest.raises(DomainError, match="attainable"):
            eta_from_prevalence_nonnested(table, g, sup + 1e-3)
        eta = eta_from_prevalence_nonnested(table, g, sup - 1e-3)
        assert np.isfinite(eta)

    def test_degenerate_g_rejected(self, rng):
        table = random_binary_table(rng, n=40)
        with pytest.raises(DomainError):
            eta_from_prevalence_nonnested(table, const_rows(table, 1.0), 0.5)

    def test_monotone_objective(self, rng):
        table = random_binary_table(rng, n=80)
        gv = logistic_fn((0.0, 0.4, 0.2))(table.x[table.s == 0])
        etas = np.linspace(-4, 4, 41)
        prev = [implied_prevalence_nonnested(gv, e) for e in etas]
        assert np.all(np.diff(prev) > 0)


class TestNested:
    def test_untilted_mixture_gives_zero(self, rng):
        table = random_binary_table(rng, n=100, design="nested")
        g = logistic_fn((0.2, 0.4, -0.3))(table.x)
        p = logistic_fn((0.1, -0.2, 0.5))(table.x)
        alpha = implied_prevalence_nested(g, p, 0.0)
        assert eta_from_prevalence_nested(table, g, p, alpha) == pytest.approx(0.0, abs=1e-8)

    def test_closed_form_chain(self, rng):
        # 0.1 + 0.5 * tilted(0.2, eta) = 0.35  =>  tilted = 0.5  =>  eta = ln 4
        table = random_binary_table(rng, n=60, design="nested")
        eta = eta_from_prevalence_nested(
            table, const_rows(table, 0.2), const_rows(table, 0.5), 0.35
        )
        assert eta == pytest.approx(LN4, abs=1e-8)

    def test_p_zero_reduces_to_nonnested_equation(self, rng):
        table = random_binary_table(rng, n=90, design="nested")
        g = logistic_fn((0.3, 0.5, -0.2))(table.x)
        alpha = 0.45
        eta_nested = eta_from_prevalence_nested(table, g, const_rows(table, 0.0), alpha)
        # with p = 0 the nested equation averages tilted(g) over all rows
        assert implied_prevalence_nonnested(g, eta_nested) == pytest.approx(alpha, abs=1e-9)

    def test_round_trip(self, rng):
        table = random_binary_table(rng, n=120, design="nested")
        gv = logistic_fn((0.1, 0.6, -0.4))(table.x)
        pv = logistic_fn((0.2, 0.3, 0.3))(table.x)
        for eta_star in (-2.0, -0.5, 0.0, 0.5, 2.0):
            alpha = implied_prevalence_nested(gv, pv, eta_star)
            eta = eta_from_prevalence_nested(table, gv, pv, alpha)
            assert eta == pytest.approx(eta_star, abs=1e-8)

    def test_alpha_out_of_range(self, rng):
        table = random_binary_table(rng, n=60, design="nested")
        with pytest.raises(DomainError, match="attainable"):
            eta_from_prevalence_nested(
                table, const_rows(table, 0.2), const_rows(table, 0.5), 0.95
            )

    def test_hoisted_objective_is_bit_identical(self, rng):
        # the root solver's objective computes the eta-free p*g and 1 - p
        # once per solve; every value equals the unhoisted formula exactly
        table = random_binary_table(rng, n=304, design="nested")
        g = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1.0, 1e-300, 1.0 - 1e-16]])
        p = np.concatenate([rng.uniform(0.0, 1.0, 300), [0.0, 1.0, 0.5, 1.0]])

        def formula(eta):
            return float(np.mean(p * g + (1.0 - p) * tilted_bernoulli(g, eta)))

        source_part, target_share, tilt = p * g, 1.0 - p, BinaryTilt(g)
        extremes = (0.0, -0.0, 30.0, 30.5, 45.0, 50.0)
        for eta in (*np.linspace(-3.0, 3.0, 101), *extremes, *(-e for e in extremes)):
            assert _mixture_prevalence(source_part, target_share, tilt, eta) == formula(eta)
            assert implied_prevalence_nested(g, p, eta) == formula(eta)
        for alpha in (formula(-2.5) + 1e-3, formula(0.0), formula(1.7) - 1e-3):
            assert eta_from_prevalence_nested(table, g, p, alpha) == solve_monotone_root(
                lambda e: formula(e) - alpha)


class TestGrid:
    def test_cass_shaped_grid(self, rng):
        # constant g = 0.2; pick the anchor so the endpoints solve to
        # exactly eta = -0.95 and eta = 1.25
        table = random_binary_table(rng, n=60)
        mu_lo = float(expit(-0.95 + logit(0.2)))
        mu_hi = float(expit(1.25 + logit(0.2)))
        anchor = PrevalenceAnchor(mu=mu_lo, multipliers=(1.0, mu_hi / mu_lo), step=0.05)
        grid = eta_grid_from_prevalence_range(table, const_rows(table, 0.2), anchor)
        assert grid.size == 45
        assert grid[0] == pytest.approx(-0.95, abs=1e-9)
        assert grid[-1] == pytest.approx(1.25, abs=1e-9)

    def test_degenerate_range_single_point(self, rng):
        table = random_binary_table(rng, n=60)
        anchor = PrevalenceAnchor(mu=0.4, multipliers=(1.0, 1.0))
        grid = eta_grid_from_prevalence_range(table, const_rows(table, 0.2), anchor)
        assert grid.size == 1

    def test_step_larger_than_range_two_points(self, rng):
        table = random_binary_table(rng, n=60)
        mu_lo = float(expit(0.30 + logit(0.2)))
        mu_hi = float(expit(0.40 + logit(0.2)))
        anchor = PrevalenceAnchor(mu=mu_lo, multipliers=(1.0, mu_hi / mu_lo), step=1.0)
        grid = eta_grid_from_prevalence_range(table, const_rows(table, 0.2), anchor)
        np.testing.assert_allclose(grid, [0.0, 1.0], atol=1e-12)

    def test_bad_step(self):
        for step in (0.0, -0.05, math.inf, math.nan, "0.05"):
            with pytest.raises(DomainError, match="step"):
                PrevalenceAnchor(mu=0.3, step=step)


class TestAnchorValidation:
    def test_exactly_one_anchor(self):
        with pytest.raises(DomainError):
            PrevalenceAnchor(mu=0.2, alpha=0.3)
        with pytest.raises(DomainError):
            PrevalenceAnchor()

    def test_anchor_in_unit_interval(self):
        with pytest.raises(DomainError):
            PrevalenceAnchor(mu=1.2)
        with pytest.raises(DomainError, match="number"):
            PrevalenceAnchor(alpha="x")

    @pytest.mark.parametrize("multipliers", [(2.0, 0.5), (0.0, 2.0), (0.5,), (0.5, 2.0, 3.0),
                                             0.5, ("a", 2.0), (True, 2.0)])
    def test_bad_multipliers(self, multipliers):
        with pytest.raises(DomainError, match="multiplier"):
            PrevalenceAnchor(mu=0.3, multipliers=multipliers)

    def test_endpoints_clipped_into_unit_interval(self):
        a = PrevalenceAnchor(mu=0.6, multipliers=(0.5, 2.0))
        lo, hi = a.endpoints()
        assert lo == pytest.approx(0.3)
        assert hi < 1.0


class TestTiltedBernoulliLink:
    def test_logistic_shift_identity(self):
        # tilting a logistic success probability shifts its logit by eta
        z = np.linspace(-2, 2, 9)
        for eta in (-1.0, 0.5, 2.0):
            np.testing.assert_allclose(
                tilted_bernoulli(expit(z), eta), expit(z + eta), atol=1e-12
            )


def bisection(f, lo=-1.0, hi=1.0):
    """The root solver's former steps, for counting evaluations: the same
    bracket doubling, then bisection."""
    f_lo, f_hi = f(lo), f(hi)
    while f_lo > 0.0 and lo > -BRACKET_CAP:
        lo = max(lo * 2.0, -BRACKET_CAP)
        f_lo = f(lo)
    while f_hi < 0.0 and hi < BRACKET_CAP:
        hi = min(hi * 2.0, BRACKET_CAP)
        f_hi = f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < FTOL:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def evaluations(solver, f):
    """(root, the points ``solver`` evaluated ``f`` at)."""
    points = []
    root = solver(lambda e: points.append(e) or f(e))
    return root, points


def anchor_objective(case, root):
    """The objective of an anchor solve whose root is ``root``: the rows of
    the closed-form reference's anchor solves, or of the round trips above."""
    if case.startswith("edges"):
        rng = np.random.default_rng(11)
        table = random_binary_table(rng, n=200, design="nested")
        g = rng.uniform(0.0, 0.02, table.n)
        g[:8] = G_EDGES * 2
        p = rng.uniform(0.01, 0.99, table.n)
    else:
        rng = np.random.default_rng(20260810)
        table = random_binary_table(rng, n=150, design="nested")
        g = logistic_fn((0.1, 0.6, -0.4))(table.x)
        p = logistic_fn((0.2, 0.3, 0.3))(table.x)
    if case.endswith("nested") and not case.endswith("non-nested"):
        prevalence = lambda e: implied_prevalence_nested(g, p, e)
    else:
        prevalence = lambda e: implied_prevalence_nonnested(g[table.s == 0], e)
    target = prevalence(root)
    return lambda e: prevalence(e) - target


# the nested round trip's roots -0.5 and 0.5 are left out: bisection
# evaluates them exactly at its fourth step (test_midpoint_roots)
ANCHOR_ROOTS = [
    *((f"edges {d}", r) for d in ("non-nested", "nested") for r in (0.0, 3.0, -12.0, 33.0, -33.0)),
    *(("round trip non-nested", r) for r in (-3.0, -1.2, 0.0, 0.7, 3.0)),
    *(("round trip nested", r) for r in (-2.0, 0.0, 2.0)),
]


class TestRootSolver:
    @pytest.mark.parametrize("case, root", ANCHOR_ROOTS)
    def test_no_more_evaluations_than_bisection(self, case, root):
        f = anchor_objective(case, root)
        eta, points = evaluations(solve_monotone_root, f)
        assert abs(f(eta)) < FTOL
        assert len(points) <= len(evaluations(bisection, f)[1])

    @pytest.mark.parametrize("root", [-0.5, 0.5])
    def test_midpoint_roots(self, root):
        f = anchor_objective("round trip nested", root)
        eta, points = evaluations(solve_monotone_root, f)
        assert evaluations(bisection, f) == (root, [-1.0, 1.0, 0.0, root])
        assert abs(f(eta)) < FTOL and len(points) <= 11

    def test_fewer_evaluations_on_the_anchor_roots(self):
        new = old = 0
        for case, root in ANCHOR_ROOTS:
            f = anchor_objective(case, root)
            new += len(evaluations(solve_monotone_root, f)[1])
            old += len(evaluations(bisection, f)[1])
        assert new < 0.75 * old

    def test_root_at_zero_is_zero(self):
        root, points = evaluations(solve_monotone_root, math.tanh)
        assert root == 0.0 and points == [-1.0, 1.0, 0.0]

    @pytest.mark.parametrize("shift", [60.0, -60.0])
    def test_no_sign_change_text(self, shift):
        message = (f"no sign change within |eta| <= {BRACKET_CAP}; the requested prevalence "
                   "may need a more extreme tilt than supported")
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            solve_monotone_root(lambda e: e - shift)

    @pytest.mark.parametrize("root", [-49.0, -1.0, 0.3, 1.0, 7.5, 49.0])
    def test_linear_and_steep_roots(self, root):
        for f in (lambda e: e - root, lambda e: math.tanh(4.0 * (e - root))):
            eta, points = evaluations(solve_monotone_root, f)
            assert abs(f(eta)) < FTOL and len(points) <= len(evaluations(bisection, f)[1])


@pytest.mark.parametrize("name, points", [("boot-anchored", 58), ("cohort-point", 46)])
def test_grid_reproduces_stored_reference(tmp_path, name, points):
    ref = REFERENCE / name
    config = AnalysisConfig.from_dict({**json.loads((ref / "config.json").read_text()),
                                       "data_path": str(ref / "data.csv"),
                                       "out_dir": str(tmp_path)})
    table = tio.load_table(config.data_path, config)
    nuis = tio._recipe_from_config(config).fit(table)
    grid = eta_grid_from_prevalence_range(table, nuis.g, config.anchor, p=nuis.p)
    stored = [row["eta"] for row in tio.read_curve_csv(ref / "curve.csv")]
    assert len(stored) == points and grid.tolist() == stored
