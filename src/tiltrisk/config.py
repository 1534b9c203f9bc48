"""Declarative analysis configuration.

An AnalysisConfig captures one full run: data location, design, loss,
the fixed prediction model (or a fit-split fraction), the nuisance bases
(``DesignSpec``s), the eta grid (explicit, or a ``PrevalenceAnchor``), the
estimator, and the resampling choices (a ``ResampleConfig`` carrying the
config's seed).  It builds these library objects, and its model, when it
loads, checks its names against the library's lists and turns any
DomainError into a ConfigError, so a bad config fails before any data is
read; ``to_dict`` echoes it into the report in the form ``from_dict`` reads.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

from .data import DESIGNS
from .errors import ConfigError, DomainError, require_number
from .estimators import ESTIMATOR_NAMES, check_eta_grid
from .etaselect import PrevalenceAnchor
from .nuisance import OUTCOMES, DesignSpec
from .resampling import ResampleConfig
from .tilt import LINKS, LOSSES, PredictionModel

FORMAT_VERSION = 1

# the config's spline sizes when a basis spec leaves them out
_SPLINE_DEFAULTS = {"degree": 3, "interior_knots": 2}


def _basis(value, n_columns: int) -> DesignSpec:
    """The DesignSpec over all ``n_columns`` covariate columns that
    ``value`` declares: 'linear', 'spline[:degree[:knots]]', a mapping of
    kind, degree and interior_knots, or such a DesignSpec."""
    columns = tuple(range(n_columns))
    if isinstance(value, DesignSpec) and value.columns == columns:
        return value
    try:
        if isinstance(value, str):
            kind, *sizes = value.split(":")
            if len(sizes) > (2 if kind == "spline" else 0):
                raise DomainError("expected 'linear' or 'spline[:degree[:knots]]'")
            spec = dict(zip(_SPLINE_DEFAULTS, map(int, sizes)), kind=kind)
        elif isinstance(value, dict):
            unknown = set(value) - {"kind", *_SPLINE_DEFAULTS}
            if unknown:
                raise DomainError(f"unknown keys {sorted(unknown)}")
            spec = dict(value)
        else:
            raise DomainError("not a string, a mapping or a DesignSpec over every column")
        sizes = {key: require_number(spec.get(key, default), key, numbers.Integral)
                 for key, default in _SPLINE_DEFAULTS.items()}
        return DesignSpec(columns, basis=spec.get("kind", "linear"), **sizes)
    except ValueError as exc:  # a DomainError is one
        raise ConfigError(f"cannot parse basis spec {value!r}: {exc}") from exc


def _entries(value, key: str, fits, what: str) -> tuple:
    """The list ``value`` as a tuple, each entry checked by ``fits``."""
    if (isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable)
            or not all(fits(v) for v in value)):
        raise ConfigError(f"{key} must be a list of {what}, got {value!r}")
    return tuple(value)


def _names(value, key: str) -> tuple:
    return _entries(value, key, lambda v: isinstance(v, str), "column names")


def _numbers(value, key: str) -> tuple:
    numbers_only = lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
    return tuple(float(v) for v in _entries(value, key, numbers_only, "numbers"))


def _library_object(cls, key: str, value, **given):
    """``cls`` built from the config mapping ``value`` under ``key``, which
    may set any of its fields but those ``given``; any fault in it is a
    ConfigError."""
    keys = [f.name for f in fields(cls) if f.name not in given]
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping with keys {keys}, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
    try:
        return cls(**value, **given)
    except DomainError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class AnalysisConfig:
    data_path: str
    design: str
    loss: str
    x_columns: Sequence[str]
    out_dir: str
    xstar_columns: Optional[Sequence[str]] = None
    outcome: Optional[str] = None          # binary | continuous; default by loss
    model_coefficients: Optional[Sequence[float]] = None
    model_link: str = "logit"
    fit_split: Optional[float] = None
    g_basis: DesignSpec = "linear"         # outcome model: binary g, continuous b and c
    p_basis: DesignSpec = "linear"         # selection model; both in any form ``_basis`` reads
    eta_grid: Optional[Sequence[float]] = None
    anchor: Optional[PrevalenceAnchor] = None
    estimator: str = "aug"
    resample: Optional[ResampleConfig] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ConfigError(f"design must be one of {DESIGNS}")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}")
        if self.estimator not in ESTIMATOR_NAMES:
            raise ConfigError(f"estimator must be one of {ESTIMATOR_NAMES}")
        if self.estimator == "aug-alt" and self.design == "nested":
            raise ConfigError("estimator 'aug-alt' applies to non-nested designs only")
        if not self.x_columns:
            raise ConfigError("x_columns must be nonempty")
        object.__setattr__(self, "x_columns", _names(self.x_columns, "x_columns"))
        repeated = sorted({c for c in self.x_columns if self.x_columns.count(c) > 1})
        if repeated:
            raise ConfigError(f"x_columns name a column more than once: {repeated}")
        for key in ("g_basis", "p_basis"):
            object.__setattr__(self, key, _basis(getattr(self, key), len(self.x_columns)))
        xstar = (self.x_columns if self.xstar_columns is None
                 else _names(self.xstar_columns, "xstar_columns"))
        missing = [c for c in xstar if c not in self.x_columns]
        if missing:
            raise ConfigError(f"xstar_columns not contained in x_columns: {missing}")
        object.__setattr__(self, "xstar_columns", xstar)
        if (self.model_coefficients is None) == (self.fit_split is None):
            raise ConfigError("provide exactly one of model_coefficients or fit_split")
        if self.fit_split is not None and (isinstance(self.fit_split, bool)
                                           or not isinstance(self.fit_split, numbers.Real)
                                           or not 0.0 < self.fit_split < 1.0):
            raise ConfigError(f"fit_split must be a fraction in (0, 1), got {self.fit_split!r}")
        if self.model_link not in LINKS:
            raise ConfigError(f"model_link must be one of {LINKS}, got {self.model_link!r}")
        if (self.eta_grid is None) == (self.anchor is None):
            raise ConfigError("provide exactly one of eta_grid or anchor")
        if self.eta_grid is not None:
            grid = _numbers(self.eta_grid, "eta_grid")
            check_eta_grid(grid)
            object.__setattr__(self, "eta_grid", grid)
        outcome = self.outcome or ("binary" if self.loss == "brier" else "continuous")
        if outcome not in OUTCOMES:
            raise ConfigError("outcome must be 'binary' or 'continuous'")
        object.__setattr__(self, "outcome", outcome)
        if self.anchor is not None and outcome != "binary":
            raise ConfigError("prevalence anchoring is supported for binary outcomes only")
        if self.seed is not None and (isinstance(self.seed, bool)
                                      or not isinstance(self.seed, numbers.Integral)):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.fit_split is not None and self.seed is None:
            raise ConfigError("seed is required for fit-split")
        if self.resample is not None and self.resample.seed != self.seed:
            raise ConfigError(f"resample seed {self.resample.seed!r} differs from the "
                              f"config seed {self.seed!r}")
        if self.model_coefficients is not None:
            object.__setattr__(self, "model_coefficients",
                               _numbers(self.model_coefficients, "model_coefficients"))
            try:
                _model_from_config(self)
            except DomainError as exc:
                raise ConfigError(f"model: {exc}") from exc

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ConfigError(f"missing required config key: {f.name}")
        if d.get("anchor") is not None:
            d["anchor"] = _library_object(PrevalenceAnchor, "anchor", d["anchor"])
        if d.get("resample") is not None:
            d["resample"] = _library_object(ResampleConfig, "resample", d["resample"],
                                            seed=d.get("seed"))
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {f.name: _echo(getattr(self, f.name)) for f in fields(self)}


def _echo(value):
    """``value`` as a config mapping holds it; the resampling seed is the
    config's own."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, DesignSpec):
        return {"kind": value.basis, "degree": value.degree, "interior_knots": value.interior_knots}
    if isinstance(value, (PrevalenceAnchor, ResampleConfig)):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value) if f.name != "seed"}
    return value


def _xstar_indices(config: AnalysisConfig) -> tuple:
    return tuple(config.x_columns.index(c) for c in config.xstar_columns)


def _model_from_config(config: AnalysisConfig) -> PredictionModel:
    return PredictionModel(
        coefficients=config.model_coefficients,
        link=config.model_link,
        xstar_columns=_xstar_indices(config),
    )
