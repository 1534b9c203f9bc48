"""Exception hierarchy shared across the package."""

import numbers
from collections.abc import Iterable, Mapping

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


def require_list(values, name: str, kind=numbers.Real, what="numbers", error=DomainError):
    """``values`` as a tuple if it is a list of ``kind`` (a bool is none),
    else ``error`` naming ``name`` and ``what`` the list should hold."""
    if (isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable)
            or not all(isinstance(v, kind) and not isinstance(v, bool) for v in values)):
        raise error(f"{name} must be a list of {what}, got {values!r}")
    return tuple(values)
