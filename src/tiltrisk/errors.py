"""Exception hierarchy shared across the package."""

import numbers

import numpy as np


class TiltriskError(Exception):
    """Base class for all package errors."""


class ConfigError(TiltriskError):
    """Invalid analysis configuration (bad keys, inconsistent choices)."""


class DataError(TiltriskError):
    """Malformed input data (missing columns, bad cells, empty strata)."""


class DomainError(TiltriskError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PositivityError(DomainError):
    """A probability that must be strictly inside (0, 1) hit a boundary."""


class TiltOverflowError(TiltriskError, OverflowError):
    """A tilt exponent exceeds the representable range of float64."""


class RankDeficientError(TiltriskError):
    """Design matrix is rank deficient; carries the offending column names."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(self.columns)
        )


class ConvergenceError(TiltriskError):
    """An iterative solver failed to reach its tolerance."""


class NumericError(TiltriskError):
    """Numerical failure during estimation (propagates to exit code 4)."""


# A grid point or replicate failing with one of these is recorded; anything else is a bug.
NUMERIC_FAILURES = (TiltriskError, np.linalg.LinAlgError, FloatingPointError)


def require_number(value, name: str, kind=numbers.Real):
    """``value`` if it is a number of ``kind`` (a bool is not one), else a
    DomainError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return value
