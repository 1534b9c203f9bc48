"""The binary closed forms against a frozen copy of the per-call formulas
they replaced.

The closed forms compute their eta-free terms once per call; before, every
eta point rechecked g and recomputed 1 - g, l0 (1 - g), the p odds, b and c
on every row and the (K, n1) tilt e^{eta y}.  The functions below are that
code, kept verbatim as the reference.  The closed forms, the influence
values of a fitted set (which read its b and c) and the anchor solves keep
each operation and its order, so they must be equal bit for bit, and every
error must carry the same text.  The one difference in shape: an eta
column of zeros now gives (K, m) values where the old forms gave the (m,)
row that broadcasts to them.

Every estimate of a fitted set, from ``estimate`` (the curve's one-point
grid), ``sensitivity_curve`` or the replicates of ``_replicate_rows``, is
not a sum of these per-row terms: it comes from a few count-weighted sums
of eta-free coefficient rows, laid out for a group of replicates by
``estimators._chunk_rows`` and summed per replicate by
``estimators._chunk_sums``, which orders the arithmetic differently, and
so does its ``max_weight``.  They are held
to the bound of ``test_kernel_reference``, 1e-12 times the larger of one
and the magnitude of the terms summed (of the weight, for ``max_weight``);
a value that is not finite must stay not finite, and statuses, error
classes and texts stay exact.  The one declared exception: ``aug-alt``
with the offset derived from p and c is summed as ``aug`` (e^a =
((1 - p)/p)/c), so where the old offset raised on a normalizer of exactly
0 (g = 1 at eta = -800) it is non-finite, as ``aug`` is.

The etas cover the exact zero (both signs), the ratio forms up to
|eta| = 30, the rearranged forms beyond and the float64 exponent limit;
the g values include 0, 1, 1e-300 and 1 - 2^-53.
"""

from dataclasses import replace

import numpy as np
import pytest

from tiltrisk import estimators
from tiltrisk.data import build_table
from tiltrisk.errors import DomainError, TiltOverflowError, TiltriskError
from tiltrisk.estimators import (
    _replicate_rows,
    estimate,
    influence_values,
    sensitivity_curve,
)
from tiltrisk.etaselect import (
    eta_from_prevalence_nested,
    eta_from_prevalence_nonnested,
    solve_monotone_root,
)
from tiltrisk.nuisance import DesignSpec, NuisanceRecipe, NuisanceSet
from tiltrisk.resampling import ResampleConfig, replicate_counts
from tiltrisk.tilt import (
    LossFunction,
    PredictionModel,
    TiltSpec,
    binary_b,
    binary_c,
    selection_a,
    tilt_weight,
    tilted_bernoulli,
)

from conftest import BRIER, random_binary_table

ETAS = (0.0, -0.0, 0.5, -0.5, 29.999, -29.999, 30.0, -30.0, 30.5, -30.5,
        45.0, -45.0, 700.0, -700.0)
# past log(float64 max) = 709.78: e^eta overflows above and is 0 below
EXTREME = (710.0, 800.0, -800.0)
G_EDGES = (0.0, 1.0, 1e-300, 1.0 - 2.0**-53)
ESTIMATORS = ("cl", "aug", "aug-alt")

# ---------------------------------------------------------------------------
# The replaced code, frozen
# ---------------------------------------------------------------------------

_LOG_MAX = float(np.log(np.finfo(np.float64).max))
_STABLE_EXP = 30.0


def old_check_g(g):
    g = np.asarray(g, dtype=np.float64)
    if (np.minimum.reduce(g, axis=None, initial=0.0) < 0
            or np.maximum.reduce(g, axis=None, initial=1.0) > 1):
        raise DomainError("g must lie in [0, 1]")
    return g


def old_tilt_ratio(g, eta):
    eta = np.asarray(eta, dtype=np.float64)
    etas = eta.ravel().tolist()
    if not any(etas):
        return 1.0, 1.0 - g, 1.0, True
    mid = -_STABLE_EXP <= min(etas) and max(etas) <= _STABLE_EXP
    w = np.exp(eta if mid else np.where(np.abs(eta) <= _STABLE_EXP, eta, 0.0))
    h = 1.0 - g
    den = w * g + h
    return w, h, np.where(eta == 0.0, 1.0, den) if 0.0 in etas else den, mid


def old_tilted_bernoulli(g, eta):
    g = old_check_g(g)
    w, _, den, mid = old_tilt_ratio(g, eta)
    out = (w * g) / den
    if not mid:
        denom = g + np.exp(-np.maximum(eta, _STABLE_EXP)) * (1.0 - g)
        up = g / np.where(denom == 0.0, 1.0, denom)
        w = np.exp(np.minimum(eta, -_STABLE_EXP))
        denom = w * g + (1.0 - g)
        down = np.where(g >= 1.0, 1.0, (w * g) / np.where(denom == 0.0, 1.0, denom))
        out = np.where(np.abs(eta) <= _STABLE_EXP, out, np.where(eta > 0, up, down))
    return out if out.ndim else float(out)


def old_binary_c(g, eta):
    g = old_check_g(g)
    eta = np.asarray(eta, dtype=np.float64)
    etas = eta.ravel().tolist()
    if max(etas) > _LOG_MAX:
        raise TiltOverflowError(f"exp({max(etas):.3g}) overflows float64 in the tilted normalizer")
    out = np.exp(eta) * g + (1.0 - g)
    if 0.0 in etas:
        out = np.where(eta == 0.0, 1.0, out)
    return out if out.ndim else float(out)


def old_binary_b(l1, l0, g, eta):
    l1 = np.asarray(l1, dtype=np.float64)
    l0 = np.asarray(l0, dtype=np.float64)
    g = old_check_g(g)
    w, h, den, mid = old_tilt_ratio(g, eta)
    out = (l1 * w * g + l0 * h) / den
    if not mid:
        t = old_tilted_bernoulli(g, eta)
        out = np.where(np.abs(eta) <= _STABLE_EXP, out, t * l1 + (1.0 - t) * l0)
    return out if out.ndim else float(out)


def old_source_weight(estimator, y_src, eta, q, p_src, c_src, a_src):
    tilt = tilt_weight(y_src, TiltSpec(eta, q))
    if estimator == "aug-alt":
        return np.exp(a_src()) * tilt
    return (1.0 - p_src) / p_src * tilt / c_src()


def old_kernel(nested, b_t, b_s, weight, loss_s):
    if weight is None:
        return b_t, loss_s if nested else None
    r_s = weight * (loss_s - b_s)
    return b_t, loss_s + r_s if nested else r_s


def old_terms(table, nuis, eta, estimator):
    """The estimator's terms from the frozen formulas at the row values of
    a fitted set: (r_t, r_s, estimates, weights)."""
    g, p, (l1, l0) = nuis.g, nuis.p, (table.loss1, table.loss0)
    eta = np.asarray(eta, dtype=np.float64)
    eta = eta.reshape(-1, 1) if eta.ndim else eta
    tgt, src = table.target_rows, table.source_rows
    b = np.asarray(old_binary_b(l1, l0, g, eta), dtype=np.float64)
    if b.ndim < eta.ndim:
        b = np.broadcast_to(b, (eta.size, table.n))
    weight = b_s = None
    if estimator != "cl":
        weight = old_source_weight(
            estimator, table.y[src], eta, None, p[src],
            lambda: np.asarray(old_binary_c(g, eta)).take(src, axis=-1),
            lambda: np.asarray(selection_a(p, old_binary_c(g, eta))).take(src, axis=-1))
        b_s = b.take(src, axis=-1)
    nested = table.design == "nested"
    loss_s = table.loss[src] if nested or weight is not None else None
    r_t, r_s = old_kernel(nested, b.take(tgt, axis=-1), b_s, weight, loss_s)
    s_sum = 0.0 if r_s is None else np.add.reduce(r_s, axis=-1)
    est = (np.add.reduce(r_t, axis=-1) + s_sum) / (table.n if nested else table.n0)
    return r_t, r_s, est, weight


def old_point(table, nuis, eta, estimator):
    """The old estimates of a fitted set at eta (a scalar or a (K, 1)
    column), their largest source weights (None for cl) and the magnitudes
    of the terms summed."""
    r_t, r_s, est, weight = old_terms(table, nuis, eta, estimator)
    scale = np.abs(r_t).sum(axis=-1) + (0.0 if r_s is None else np.abs(r_s).sum(axis=-1))
    return (est, None if weight is None else np.max(weight, axis=-1),
            scale / (table.n if table.design == "nested" else table.n0))


def old_replicate_terms(table, fits, r, eta, estimator):
    cnt = fits.counts[r]
    tgt = fits.rows_drawn(r, table.target_rows)
    src = fits.rows_drawn(r, table.source_rows)
    l1, l0 = fits.losses
    g, p = fits.g[r], fits.p[r]
    b_t = np.asarray(old_binary_b(l1[tgt], l0[tgt], g[tgt], eta))
    weight = b_s = None
    if estimator != "cl":
        b_s = np.asarray(old_binary_b(l1[src], l0[src], g[src], eta))
        c_src = lambda: np.asarray(old_binary_c(g[src], eta))
        weight = old_source_weight(estimator, table.y[src], eta, None, p[src], c_src,
                                   lambda: np.asarray(selection_a(p[src], c_src())))
    nested = table.design == "nested"
    r_t, r_s = old_kernel(nested, b_t, b_s, weight, table.loss[src])
    c_t, c_s = cnt[tgt], cnt[src]
    s_sum = 0.0 if r_s is None else np.add.reduce(r_s * c_s, axis=-1)
    s_abs = 0.0 if r_s is None else np.add.reduce(np.abs(r_s) * c_s, axis=-1)
    den = c_t.sum() + c_s.sum() if nested else c_t.sum()
    return (((r_t * c_t).sum(axis=-1) + s_sum) / den,
            ((np.abs(r_t) * c_t).sum(axis=-1) + s_abs) / den)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def assert_bits(new, old):
    """Equal bit for bit (so NaN matches NaN and -0.0 differs from 0.0)."""
    new = np.array(new, dtype=np.float64)
    old = np.array(np.broadcast_to(np.asarray(old, dtype=np.float64), new.shape))
    assert np.array_equal(new.view(np.int64), old.view(np.int64)), \
        f"max |diff| {np.nanmax(np.abs(new - old), initial=0.0)}"


# The bound of ``test_kernel_reference`` on a sum of terms of this magnitude
TOL = 1e-12


def assert_close(new, old, scale):
    """Within TOL * max(1, scale), where a value that is not finite
    matches one that is not finite."""
    new, old = np.broadcast_arrays(np.asarray(new, dtype=np.float64), old)
    assert np.array_equal(np.isfinite(new), np.isfinite(old)), (new, old)
    ok = np.isfinite(old)
    bound = TOL * np.maximum(1.0, np.broadcast_to(scale, old.shape)[ok])
    assert np.all(np.abs(new[ok] - old[ok]) <= bound), np.abs(new[ok] - old[ok]).max()


def outcome(fn):
    """('ok', value) or (exception class, message)."""
    try:
        with np.errstate(all="ignore"):
            return "ok", fn()
    except TiltriskError as exc:
        return type(exc), str(exc)


def assert_same_outcome(new_fn, old_fn):
    """Both raise the same error with the same text, or both return equal
    values (a value or a tuple of values)."""
    new, old = outcome(new_fn), outcome(old_fn)
    assert new[0] == old[0], (new, old)
    if new[0] != "ok":
        assert new[1] == old[1]
    elif isinstance(new[1], tuple):
        for new_value, old_value in zip(new[1], old[1], strict=True):
            assert_bits(new_value, old_value)
    else:
        assert_bits(new[1], old[1])


def recipe(a_design=None):
    return NuisanceRecipe(outcome="binary", loss=BRIER, p_design=DesignSpec((0, 1)),
                          g_design=DesignSpec((0, 1)), a_design=a_design)


def fitted(design, seed=3, n=120, a_design=None):
    """A table and its fitted set, with g set to each edge value on one
    target and one source row; ``a_design`` moment-fits the offset."""
    rng = np.random.default_rng(seed)
    table = random_binary_table(rng, n=n, design=design)
    nuis = recipe(a_design).fit(table)
    # in place: the set's fits and its b, c and a read the same g
    nuis.g[table.target_rows[:4]] = nuis.g[table.source_rows[:4]] = G_EDGES
    return table, nuis


def fitted_continuous(design, seed=3, n=120):
    """A table with a continuous outcome and its fitted set."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    s = np.zeros(n, dtype=int)
    s[rng.permutation(n)[:n // 2]] = 1
    y = np.where(s == 1, 0.5 + x[:, 0] - 0.5 * x[:, 1] + 0.3 * rng.normal(size=n), np.nan)
    model = PredictionModel(coefficients=(0.4, 0.9, -0.4), link="identity",
                            xstar_columns=(0, 1))
    loss = LossFunction("squared-error")
    table = build_table(s, x, y, model, loss, design)
    cols = DesignSpec((0, 1))
    return table, NuisanceRecipe(outcome="continuous", loss=loss, p_design=cols,
                                 g_design=cols).fit(table)


def column(etas):
    return np.asarray(etas, dtype=np.float64)[:, None]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestClosedForms:
    # a NaN g fails the range check now (tests/test_tilt.py), and e^0 g + 1 - g
    # rounds to 1 for every g in [0, 1], so the exact zero-tilt denominator
    # agrees with the old one on every g admitted
    G = np.r_[G_EDGES, 0.5, np.random.default_rng(1).uniform(0.0, 1.0, 11)]
    L1, L0 = np.random.default_rng(2).uniform(0.0, 1.0, (2, 16))

    @pytest.mark.parametrize("eta", ETAS + EXTREME)
    def test_scalar_eta(self, eta):
        g, l1, l0 = self.G, self.L1, self.L0
        assert_same_outcome(lambda: tilted_bernoulli(g, eta), lambda: old_tilted_bernoulli(g, eta))
        assert_same_outcome(lambda: binary_b(l1, l0, g, eta), lambda: old_binary_b(l1, l0, g, eta))
        assert_same_outcome(lambda: binary_c(g, eta), lambda: old_binary_c(g, eta))
        for gi, l1i, l0i in zip(g, l1, l0):  # scalar rows give floats
            assert_same_outcome(lambda: binary_b(l1i, l0i, gi, eta),
                                lambda: old_binary_b(l1i, l0i, gi, eta))

    @pytest.mark.parametrize("etas", (ETAS, (0.0, -0.0), (0.5, -29.999, 30.0), (45.0, 700.0),
                                      ETAS + EXTREME))
    def test_eta_column(self, etas):
        g, l1, l0, eta = self.G, self.L1, self.L0, column(etas)
        assert_same_outcome(lambda: tilted_bernoulli(g, eta), lambda: old_tilted_bernoulli(g, eta))
        assert_same_outcome(lambda: binary_b(l1, l0, g, eta), lambda: old_binary_b(l1, l0, g, eta))
        assert_same_outcome(lambda: binary_c(g, eta), lambda: old_binary_c(g, eta))


@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("estimator", ESTIMATORS)
class TestEstimators:
    def test_estimate(self, design, estimator):
        """A fitted set's estimate and max_weight within the bound of the
        old per-row terms, with the old error class and text; derived
        aug-alt is aug's non-finite value where its old offset raised."""
        table, nuis = fitted(design)
        for eta in ETAS + EXTREME:
            new = outcome(lambda: estimate(table, nuis, eta, estimator))
            old = outcome(lambda: old_point(table, nuis, eta, estimator))
            if estimator == "aug-alt" and old == (DomainError, "normalizer c must be positive"):
                assert eta == -800.0 and new[0] == "ok" and np.isnan(new[1].estimate)
                continue
            assert new[0] == old[0], (eta, new, old)
            if new[0] != "ok":
                assert new[1] == old[1]
                continue
            est, top, scale = old[1]
            assert_close(new[1].estimate, est, scale)
            if top is not None:
                assert_close(new[1].diagnostics["max_weight"], top, np.abs(top))

    def test_sensitivity_curve(self, design, estimator):
        """The grid runs as one block, fails (at least at 710 and 800 with
        weights) and reruns one point at a time; every point matches the
        old block evaluation within the bound, where a non-finite estimate
        is a failed point (so is derived aug-alt where its old offset
        raised, as in ``test_estimate``)."""
        table, nuis = fitted(design)
        grid = np.sort(np.array(ETAS + EXTREME))

        def evaluate(block):
            est, top, scale = old_point(table, nuis, block[:, None], estimator)
            return list(zip(est, [None] * est.size if top is None else top, scale))

        with np.errstate(all="ignore"):
            curve = sensitivity_curve(table, nuis, grid, estimator)
            old = estimators._blocks(evaluate, grid, estimators._block_step(table))
        assert sum(isinstance(o, Exception) for o in old) >= (0 if estimator == "cl" else 2)
        for point, ref in zip(curve, old):
            if (estimator == "aug-alt" and isinstance(ref, DomainError)
                    and str(ref) == "normalizer c must be positive"):
                assert point.eta == -800.0
                ref = (np.nan,)
            if isinstance(ref, Exception):
                assert point.status == f"failed: {ref}"
                continue
            if not np.isfinite(ref[0]):  # aug at eta = -800 gives NaN
                assert point.status == "failed: non-finite estimate" and not point.ok
                continue
            assert point.status == "ok"
            assert_close(point.result.estimate, ref[0], ref[2])
            if ref[1] is not None:
                assert_close(point.result.diagnostics["max_weight"], ref[1], np.abs(ref[1]))

    def test_replaced_b_or_c_is_called(self, design, estimator):
        """A fitted set copied by ``replace`` is a hand-built set, binary or
        continuous: whichever of p, b, c, g and a is replaced, the copy
        gives bit for bit the estimates and influence values of the set
        built from its fields.  The replacement changes the estimate where
        the estimator's formula reads the field, and nothing else: a, which
        the fit derived from p and c, is not recomputed."""
        reads = {"cl": {"b"}, "aug": {"p", "b", "c"}, "aug-alt": {"b", "a"}}[estimator]
        for (table, nuis), etas in ((fitted(design), (0.0, 0.5, -31.0)),
                                    (fitted_continuous(design), (0.0, 0.5, -3.0))):
            for name, value in (("p", np.full(table.n, 0.5)),
                                ("b", lambda eta: np.zeros(table.n)),
                                ("c", lambda eta: 2.0 * np.asarray(nuis.c(eta))),
                                ("g", np.full(table.n, 0.5)),
                                ("a", lambda eta: np.asarray(nuis.a(eta)) + 0.1)):
                replaced = replace(nuis, **{name: value})
                explicit = NuisanceSet(p=replaced.p, b=replaced.b, c=replaced.c, g=replaced.g,
                                       a=replaced.a, q=replaced.q)
                for eta in etas:
                    with np.errstate(all="ignore"):
                        assert_bits(estimate(table, replaced, eta, estimator).estimate,
                                    estimate(table, explicit, eta, estimator).estimate)
                        assert_bits(influence_values(table, replaced, eta, 0.3).values,
                                    influence_values(table, explicit, eta, 0.3).values)
                # against the unreplaced fields read the same way: a fitted
                # set's own estimate is summed, so it may differ in the last bits
                unreplaced = NuisanceSet(p=nuis.p, b=nuis.b, c=nuis.c, g=nuis.g, a=nuis.a,
                                         q=nuis.q)
                changed = (estimate(table, replaced, 0.5, estimator).estimate
                           != estimate(table, unreplaced, 0.5, estimator).estimate)
                assert changed == (name in reads), name

    def test_replicate_terms(self, design, estimator):
        """Each replicate's estimates at an eta column within the bound, its
        cells failing with the old column's error.  The fifth replicate draws
        no source row with y = 1, so past the float64 exponent the
        normalizer, not the tilt, overflows first."""
        table = random_binary_table(np.random.default_rng(5), n=80, design=design)
        counts = replicate_counts(table, ResampleConfig(replicates=4, seed=9), range(4))
        counts = np.vstack([counts, np.where(table.y == 1.0, 0.0, 1.0)])
        fits = recipe().fit_counts(table, counts)
        assert all(e is None for e in fits.errors)
        for r in range(5):
            fits.g[r, table.target_rows[:4]] = G_EDGES
            for etas in (ETAS, (0.0, -0.0), (800.0,), (-800.0,)):
                est, failed, _ = _replicate_rows(table, fits, [r], np.array(etas), estimator)
                kind, old = outcome(lambda: old_replicate_terms(table, fits, r, column(etas),
                                                                estimator))
                if kind != "ok":
                    assert [(type(e), str(e)) for e in failed[0]] == [(kind, old)] * len(etas)
                    continue
                assert all(e is None for e in failed[0])
                assert_close(est[0], old[0], old[1])


@pytest.mark.parametrize("design", ("non-nested", "nested"))
@pytest.mark.parametrize("estimator, a_design", (("cl", None), ("aug", None), ("aug-alt", None),
                                                 ("aug-alt", DesignSpec((0, 1)))),
                         ids=("cl", "aug", "aug-alt-derived", "aug-alt-moment-fitted"))
def test_estimate_is_its_curve_point(design, estimator, a_design):
    """A fitted set's estimate is the one-point grid of its curve: the same
    estimate, max_weight and diagnostics bit for bit, and the same failure
    (a failed status raises it, a non-finite one returns it)."""
    table, nuis = fitted(design, a_design=a_design)
    with np.errstate(all="ignore"):
        curve = sensitivity_curve(table, nuis, np.sort(np.array(ETAS + EXTREME)), estimator)
    assert any(point.ok for point in curve)
    assert all(point.ok for point in curve) == (estimator == "cl")  # weights fail at 710, 800
    for point in curve:
        kind, res = outcome(lambda: estimate(table, nuis, point.eta, estimator))
        if point.status.startswith("failed: ") and point.status != "failed: non-finite estimate":
            assert point.status == f"failed: {res}", (point.eta, kind)
            continue
        assert kind == "ok"
        if not point.ok:
            assert not np.isfinite(res.estimate)
            continue
        assert_bits(res.estimate, point.result.estimate)
        assert res.diagnostics.keys() == point.result.diagnostics.keys()
        for key, value in point.result.diagnostics.items():
            assert_bits(res.diagnostics[key], value)


@pytest.mark.parametrize("estimator", ("aug", "aug-alt"))
def test_non_finite_eta_text(estimator):
    """A fitted set's weighted estimate at a non-finite eta fails with the
    text of its weights' tilt."""
    table, nuis = fitted("non-nested")
    for eta in (np.nan, np.inf):
        with pytest.raises(DomainError) as new:
            estimate(table, nuis, eta, estimator)
        with pytest.raises(DomainError) as old:
            tilt_weight(table.y[table.source_rows], TiltSpec(eta))
        assert str(new.value) == str(old.value) == f"eta must be finite, got {eta}"


@pytest.mark.parametrize("kind", ("binary", "continuous"))
def test_repeated_estimate_equals_its_curve_point(kind):
    """A fitted set's estimate, called again and for another estimator in
    between, equals its curve point bit for bit."""
    table, nuis = fitted("non-nested") if kind == "binary" else fitted_continuous("non-nested")
    points = {estimator: next(iter(sensitivity_curve(table, nuis, np.array([0.5]), estimator)))
              for estimator in ("aug", "aug-alt")}
    for estimator in ("aug", "aug-alt", "aug"):
        assert_bits(estimate(table, nuis, 0.5, estimator).estimate,
                    points[estimator].result.estimate)


@pytest.mark.parametrize("design", ("non-nested", "nested"))
def test_derived_aug_alt_is_aug(design):
    """With the offset derived from p and c, e^a = ((1 - p)/p)/c, so
    ``aug-alt`` is summed as ``aug``: its curve, statuses and max_weight, and
    its replicate matrix, equal aug's bit for bit."""
    table, nuis = fitted(design)
    grid = np.sort(np.array(ETAS + EXTREME))
    with np.errstate(all="ignore"):
        alt, aug = (sensitivity_curve(table, nuis, grid, e) for e in ("aug-alt", "aug"))
    assert [p.status for p in alt] == [p.status for p in aug]
    assert_bits(alt.estimates, aug.estimates)
    assert_bits([p.result.diagnostics["max_weight"] for p in alt if p.ok],
                [p.result.diagnostics["max_weight"] for p in aug if p.ok])
    table = random_binary_table(np.random.default_rng(5), n=80, design=design)
    resample = ResampleConfig(replicates=6, seed=9)
    with np.errstate(all="ignore"):
        (alt, alt_why), (aug, aug_why) = (
            estimators._replicate_matrix(table, recipe(), grid, e, resample)
            for e in ("aug-alt", "aug"))
    assert np.array_equal(alt_why, aug_why) and (aug_why != None).any()  # noqa: E711
    assert_bits(alt, aug)


@pytest.mark.parametrize("design", ("non-nested", "nested"))
def test_influence_values(design):
    table, nuis = fitted(design)
    for eta in (0.0, 0.5, -30.5, 45.0):
        with np.errstate(all="ignore"):
            r_t, r_s, est, _ = old_terms(table, nuis, eta, "aug")
            values = influence_values(table, nuis, eta, float(est)).values
        old = np.empty(table.n)
        old[table.target_rows], old[table.source_rows] = r_t, r_s
        if design == "nested":
            old = old - float(est)
        else:
            old = (old - float(est) * (table.s == 0)) * (table.n / table.n0)
        assert_bits(values, old)


class TestAnchorSolves:
    """Both root solves reach the old root exactly, from anchors whose
    roots lie near 0, in the ratio range and past |eta| = 30."""

    def rows(self, design):
        rng = np.random.default_rng(11)
        table = random_binary_table(rng, n=200, design=design)
        g = rng.uniform(0.0, 0.02, table.n)
        g[:8] = G_EDGES * 2
        return table, g, rng.uniform(0.01, 0.99, table.n)

    @pytest.mark.parametrize("root", (0.0, 3.0, -12.0, 33.0, -33.0))
    def test_nonnested(self, root):
        table, g, _ = self.rows("non-nested")
        gv = g[table.s == 0]
        old = lambda e: float(np.mean(old_tilted_bernoulli(gv, e)))
        mu = old(root)
        assert eta_from_prevalence_nonnested(table, g, mu) == solve_monotone_root(
            lambda e: old(e) - mu)

    @pytest.mark.parametrize("root", (0.0, 3.0, -12.0, 33.0, -33.0))
    def test_nested(self, root):
        table, g, p = self.rows("nested")
        part, share = p * g, 1.0 - p
        old = lambda e: float(np.mean(part + share * old_tilted_bernoulli(g, e)))
        alpha = old(root)
        assert eta_from_prevalence_nested(table, g, p, alpha) == solve_monotone_root(
            lambda e: old(e) - alpha)
