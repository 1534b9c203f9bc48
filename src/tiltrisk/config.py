"""Declarative analysis configuration.

An AnalysisConfig captures one full run: data location, design, loss,
the fixed prediction model (or a fit-split fraction), nuisance bases,
the eta grid (explicit, or a ``PrevalenceAnchor``), the estimator, and the
resampling choices (a ``ResampleConfig`` carrying the config's seed).
Configs load from a JSON file or from CLI flags through ``from_dict``,
which builds the anchor and resampling objects and turns their
DomainError into a ConfigError, so a bad config fails before any data is
read; ``to_dict`` echoes them into the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from .errors import ConfigError, DomainError
from .etaselect import PrevalenceAnchor
from .resampling import ResampleConfig

FORMAT_VERSION = 1

_LOSSES = ("brier", "squared-error", "absolute-deviation")
_ESTIMATORS = ("cl", "aug", "aug-alt")
_DESIGNS = ("nested", "non-nested")


@dataclass(frozen=True)
class BasisConfig:
    kind: str = "linear"
    degree: int = 3
    interior_knots: int = 2

    def __post_init__(self):
        if self.kind not in ("linear", "spline"):
            raise ConfigError(f"basis kind must be 'linear' or 'spline', got {self.kind!r}")

    @classmethod
    def from_value(cls, v) -> "BasisConfig":
        """Accept 'linear', 'spline', 'spline:3:2' or a mapping."""
        if isinstance(v, BasisConfig):
            return v
        if isinstance(v, dict):
            return cls(
                kind=v.get("kind", "linear"),
                degree=int(v.get("degree", 3)),
                interior_knots=int(v.get("interior_knots", 2)),
            )
        if isinstance(v, str):
            parts = v.split(":")
            if parts[0] == "linear" and len(parts) == 1:
                return cls("linear")
            if parts[0] == "spline":
                degree = int(parts[1]) if len(parts) > 1 else 3
                knots = int(parts[2]) if len(parts) > 2 else 2
                return cls("spline", degree, knots)
        raise ConfigError(f"cannot parse basis spec {v!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "degree": self.degree, "interior_knots": self.interior_knots}


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
    g_basis: BasisConfig = field(default_factory=BasisConfig)
    p_basis: BasisConfig = field(default_factory=BasisConfig)
    eta_grid: Optional[Sequence[float]] = None
    anchor: Optional[PrevalenceAnchor] = None
    estimator: str = "aug"
    resample: Optional[ResampleConfig] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.design not in _DESIGNS:
            raise ConfigError(f"design must be one of {_DESIGNS}")
        if self.loss not in _LOSSES:
            raise ConfigError(f"loss must be one of {_LOSSES}")
        if self.estimator not in _ESTIMATORS:
            raise ConfigError(f"estimator must be one of {_ESTIMATORS}")
        if self.estimator == "aug-alt" and self.design == "nested":
            raise ConfigError("estimator 'aug-alt' applies to non-nested designs only")
        if not self.x_columns:
            raise ConfigError("x_columns must be nonempty")
        xstar = tuple(self.x_columns if self.xstar_columns is None else self.xstar_columns)
        missing = [c for c in xstar if c not in self.x_columns]
        if missing:
            raise ConfigError(f"xstar_columns not contained in x_columns: {missing}")
        object.__setattr__(self, "xstar_columns", xstar)
        if (self.model_coefficients is None) == (self.fit_split is None):
            raise ConfigError("provide exactly one of model_coefficients or fit_split")
        if self.fit_split is not None and not 0.0 < self.fit_split < 1.0:
            raise ConfigError("fit_split must be a fraction in (0, 1)")
        if (self.eta_grid is None) == (self.anchor is None):
            raise ConfigError("provide exactly one of eta_grid or anchor")
        if self.eta_grid is not None:
            grid = [float(e) for e in self.eta_grid]
            if sorted(grid) != grid or not grid:
                raise ConfigError("eta_grid must be a nonempty ascending list")
            object.__setattr__(self, "eta_grid", tuple(grid))
        outcome = self.outcome or ("binary" if self.loss == "brier" else "continuous")
        if outcome not in ("binary", "continuous"):
            raise ConfigError("outcome must be 'binary' or 'continuous'")
        object.__setattr__(self, "outcome", outcome)
        if self.anchor is not None and outcome != "binary":
            raise ConfigError("prevalence anchoring is supported for binary outcomes only")
        if self.fit_split is not None and self.seed is None:
            raise ConfigError("seed is required for fit-split")
        if self.resample is not None and self.resample.seed != self.seed:
            raise ConfigError(f"resample seed {self.resample.seed!r} differs from the "
                              f"config seed {self.seed!r}")
        object.__setattr__(self, "x_columns", tuple(self.x_columns))
        if self.model_coefficients is not None:
            object.__setattr__(
                self, "model_coefficients", tuple(float(c) for c in self.model_coefficients)
            )

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        d = dict(d)
        known = {
            "data_path", "design", "loss", "x_columns", "xstar_columns", "outcome",
            "model_coefficients", "model_link", "fit_split", "g_basis", "p_basis",
            "eta_grid", "anchor", "estimator", "resample", "seed", "out_dir",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("data_path", "design", "loss", "x_columns", "out_dir"):
            if key not in d:
                raise ConfigError(f"missing required config key: {key}")
        if "g_basis" in d:
            d["g_basis"] = BasisConfig.from_value(d["g_basis"])
        if "p_basis" in d:
            d["p_basis"] = BasisConfig.from_value(d["p_basis"])
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
        return {
            "data_path": self.data_path,
            "design": self.design,
            "loss": self.loss,
            "x_columns": list(self.x_columns),
            "xstar_columns": list(self.xstar_columns),
            "outcome": self.outcome,
            "model_coefficients": None
            if self.model_coefficients is None
            else list(self.model_coefficients),
            "model_link": self.model_link,
            "fit_split": self.fit_split,
            "g_basis": self.g_basis.to_dict(),
            "p_basis": self.p_basis.to_dict(),
            "eta_grid": None if self.eta_grid is None else list(self.eta_grid),
            "anchor": None if self.anchor is None else {
                "mu": self.anchor.mu,
                "alpha": self.anchor.alpha,
                "multipliers": list(self.anchor.multipliers),
                "step": self.anchor.step,
            },
            "estimator": self.estimator,
            "resample": None if self.resample is None else {
                "method": self.resample.method,
                "replicates": self.resample.replicates,
                "level": self.resample.level,
                "stratified": self.resample.stratified,
            },
            "seed": self.seed,
            "out_dir": self.out_dir,
        }
