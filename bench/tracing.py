"""Layer spans for the traced benchmark run, recorded from outside the program.

``instrument`` binds timing wrappers around module attributes of the
imported ``tiltrisk`` package: a wrapped name is replaced in every
``tiltrisk`` module that binds the same object, so call-time imports
(``binary_b`` inside ``nuisance``) and import-time bindings
(``tilted_bernoulli`` in ``etaselect``) are both caught.  A probed name
that no longer exists is recorded as missing, never an error, and a layer
whose names are all missing is reported absent.

Spans stay in memory, each with its parent's id, until ``Tracer.dump``.
A layer's self time is the summed duration of its spans minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "tiltrisk"


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # [id, parent, name, layer, start_ns, end_ns]
    counts: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)
    hook_errors: set = field(default_factory=set)

    def add(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, layer: str):
        record = [len(self.spans), self.stack[-1] if self.stack else None, name, layer,
                  time.perf_counter_ns(), None]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            yield
        finally:
            self.stack.pop()
            record[5] = time.perf_counter_ns()

    def dump(self) -> dict:
        keys = ("id", "parent", "name", "layer", "start_ns", "end_ns")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "counts": dict(self.counts),
            "hook_errors": sorted(self.hook_errors),
        }


# ---------------------------------------------------------------------------
# Hooks: counts taken from a probed call's arguments or result
# ---------------------------------------------------------------------------


def _rows_read(tracer, args, kwargs, result):
    tracer.add("io.rows_read", len(getattr(result, "s", ())))


def _glm(tracer, args, kwargs, result):
    tracer.add("nuisance.logistic_fits")
    tracer.add("nuisance.irls_iters", int(getattr(result, "iterations", 0)))
    tracer.add("nuisance.ridge_fallbacks", int(bool(getattr(result, "ridge", False))))


def _point(tracer, args, kwargs, result):
    tracer.add("estimators.point_evals")
    table = args[0] if args else kwargs.get("table")
    tracer.add("estimators.rows", int(getattr(table, "n", 0)))


def _grid(tracer, args, kwargs, result):
    tracer.add("etaselect.grid_points", len(result))


def _bootstrap_failed(tracer, args, kwargs, result):
    tracer.add("resampling.failed", int(result[1]))


def _counter(name):
    def hook(tracer, args, kwargs, result):
        tracer.add(name)
    return hook


def _replicate_spans(tracer, args, kwargs):
    """Time every call of the replicate closure passed to a resampler."""
    fn_pos = 1
    fn = kwargs["fn"] if "fn" in kwargs else args[fn_pos]

    @functools.wraps(fn)
    def replicate(*a, **k):
        tracer.add("resampling.replicates")
        with tracer.span("replicate", "estimators.sweep"):
            return fn(*a, **k)

    if "fn" in kwargs:
        return args, dict(kwargs, fn=replicate)
    return args[:fn_pos] + (replicate,) + args[fn_pos + 1:], kwargs


# (layer, "module.attr" or "module.Class.method", after-call hook, argument rewrite).
# A layer of None counts calls without a span, leaving their time in the caller;
# absence is then reported under the module name.
PROBES = (
    ("io.read", "io._read_raw", _rows_read, None),
    ("io.write", "io.write_curve_csv", None, None),
    ("io.write", "io.build_report", None, None),
    ("io.write", "io.write_report", None, None),
    ("data.build", "data.build_table", None, None),
    ("data.take", "data.ObservationTable.take", None, None),
    ("data.take", "data.ObservationTable.drop_row", None, None),
    ("nuisance.fit", "nuisance.NuisanceRecipe.fit", _counter("nuisance.fits"), None),
    ("nuisance.fit", "nuisance.fit_binary_nuisances", None, None),
    ("nuisance.fit", "nuisance.fit_continuous_nuisances", None, None),
    ("nuisance.fit", "nuisance.fit_logistic", _glm, None),
    ("nuisance.fit", "nuisance.fit_b_continuous", _counter("nuisance.wls_fits"), None),
    ("nuisance.fit", "nuisance.fit_c_continuous", _counter("nuisance.wls_fits"), None),
    ("nuisance.fit", "nuisance.fit_a_gmm", None, None),
    ("nuisance.design", "nuisance.BuiltDesign.matrix", _counter("nuisance.design_evals"), None),
    ("estimators.sweep", "estimators.sensitivity_curve", None, None),
    ("estimators.sweep", "estimators.phi_cl", _point, None),
    ("estimators.sweep", "estimators.phi_aug", _point, None),
    ("estimators.sweep", "estimators.phi_aug_alt", _point, None),
    ("estimators.sweep", "estimators.psi_cl", _point, None),
    ("estimators.sweep", "estimators.psi_aug", _point, None),
    ("etaselect.grid", "etaselect.eta_grid_from_prevalence_range", _grid, None),
    ("etaselect.grid", "etaselect.eta_from_prevalence_nonnested", None, None),
    ("etaselect.grid", "etaselect.eta_from_prevalence_nested", None, None),
    ("resampling.loop", "resampling.bootstrap_matrix", _bootstrap_failed, _replicate_spans),
    ("resampling.loop", "resampling.jackknife_matrix", None, _replicate_spans),
    ("resampling.draw", "resampling.resample_indices", None, None),
    (None, "tilt.binary_b", _counter("tilt.kernel_calls"), None),
    (None, "tilt.binary_c", _counter("tilt.kernel_calls"), None),
    (None, "tilt.tilted_bernoulli", _counter("tilt.kernel_calls"), None),
    (None, "tilt.tilt_weight", _counter("tilt.kernel_calls"), None),
)


def _wrap(tracer, fn, name, layer, hook, rewrite):
    # a hook that no longer fits the call (a refactor changed its arguments
    # or result) is recorded and skipped; it never fails the analysis
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        if rewrite is not None:
            try:
                args, kwargs = rewrite(tracer, args, kwargs)
            except Exception:
                tracer.hook_errors.add(name)
        if layer is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name, layer):
                result = fn(*args, **kwargs)
        if hook is not None:
            try:
                hook(tracer, args, kwargs, result)
            except Exception:
                tracer.hook_errors.add(name)
        return result

    return probe


def _resolve(dotted: str):
    """(owner, attribute, original) for ``module.attr`` or
    ``module.Class.attr``; None when any part is missing."""
    parts = dotted.split(".")
    owner = sys.modules.get(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


@contextmanager
def instrument(tracer: Tracer):
    """Install every probe for the duration of the block; yields the
    list of probed names that were missing."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    patched = []     # (owner, attribute, original) in install order
    missing = []
    try:
        for layer, dotted, hook, rewrite in PROBES:
            found = _resolve(dotted)
            if found is None or not callable(found[2]):
                missing.append(dotted)
                continue
            owner, attr, original = found
            if isinstance(owner, type) and not isinstance(
                    owner.__dict__.get(attr), types.FunctionType):
                missing.append(dotted)     # inherited, static or class method
                continue
            probe = _wrap(tracer, original, dotted, layer, hook, rewrite)
            if isinstance(owner, type):
                patched.append((owner, attr, original))
                setattr(owner, attr, probe)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, probe)
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def absent_layers(missing) -> list:
    """Layers none of whose probes could be installed."""
    by_layer: dict = {}
    for layer, dotted, _, _ in PROBES:
        by_layer.setdefault(layer or dotted.split(".")[0], []).append(dotted)
    return sorted(layer for layer, names in by_layer.items() if set(names) <= set(missing))


def self_times(spans) -> dict:
    """Seconds of self time per layer: each span's duration minus the
    duration of its direct children."""
    child_ns: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out: dict = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own / 1e9
    return out


def durations(spans, name: str) -> list:
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == name]
