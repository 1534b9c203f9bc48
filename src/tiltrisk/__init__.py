"""tiltrisk: sensitivity analysis for transported prediction-model risk.

Estimates loss-based model performance in a target population without
outcome data, under an exponential tilt model for departures from
conditional transportability.  Produces sensitivity curves over the tilt
parameter with bootstrap or jackknife confidence intervals, and anchors
the tilt range to hypothesized outcome prevalence.
"""

__version__ = "0.1.0"

from .config import AnalysisConfig
from .data import ObservationTable, build_table
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DomainError,
    NumericError,
    PositivityError,
    RankDeficientError,
    TiltOverflowError,
    TiltriskError,
)
from .estimators import (
    EstimateResult,
    InfluenceValues,
    SensitivityCurve,
    estimate,
    influence_values,
    sensitivity_curve,
)
from .etaselect import (
    PrevalenceAnchor,
    eta_from_prevalence_nested,
    eta_from_prevalence_nonnested,
    eta_grid_from_prevalence_range,
)
from .nuisance import DesignSpec, GlmFit, NuisanceRecipe, NuisanceSet, fit_logistic
from .resampling import ResampleConfig
from .tilt import (
    LossFunction,
    PredictionModel,
    TiltSpec,
    binary_b,
    binary_c,
    eval_loss,
    selection_a,
    tilt_weight,
    tilted_bernoulli,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "ObservationTable", "build_table",
    "TiltriskError", "ConfigError", "DataError", "DomainError",
    "PositivityError", "TiltOverflowError", "RankDeficientError",
    "ConvergenceError", "NumericError",
    "EstimateResult", "InfluenceValues", "SensitivityCurve",
    "estimate", "influence_values", "sensitivity_curve",
    "PrevalenceAnchor", "eta_from_prevalence_nonnested",
    "eta_from_prevalence_nested", "eta_grid_from_prevalence_range",
    "DesignSpec", "GlmFit", "NuisanceSet", "NuisanceRecipe", "fit_logistic",
    "ResampleConfig",
    "DgpSpec", "SimulatedData", "OracleValue", "generate", "recipe_for",
    "true_phi_oracle", "true_psi_oracle", "brute_force_phi", "brute_force_psi",
    "TiltSpec", "LossFunction", "PredictionModel",
    "tilt_weight", "tilted_bernoulli", "binary_b", "binary_c",
    "selection_a", "eval_loss",
]

# simgen (the synthetic-data generator and oracles) is imported on first use,
# so an analysis does not load it
_SIMGEN_NAMES = frozenset({
    "DgpSpec", "OracleValue", "SimulatedData", "brute_force_phi", "brute_force_psi",
    "generate", "recipe_for", "true_phi_oracle", "true_psi_oracle",
})


def __getattr__(name):
    if name in _SIMGEN_NAMES:
        from . import simgen
        return getattr(simgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
