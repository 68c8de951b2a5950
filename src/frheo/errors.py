"""Error taxonomy shared by every module.

Each exception carries a short machine-greppable ``code`` so the CLI can
surface failures as one-line diagnostics without string matching.
"""

import math

import numpy as np


class FrheoError(Exception):
    """Base class for all package errors."""

    code = "E_FRHEO"


class PoleError(FrheoError):
    """Gamma evaluated at a non-positive integer."""

    code = "E_POLE"


class DomainError(FrheoError):
    """Argument outside the mathematical domain of the operation."""

    code = "E_DOMAIN"


class GridError(FrheoError):
    """Bad sampling grid (non-positive step, too few samples)."""

    code = "E_GRID"


class BranchError(FrheoError):
    """Complex argument on the branch cut of the principal power."""

    code = "E_BRANCH"


class StabilityError(FrheoError):
    """Marching update coefficient degenerate."""

    code = "E_STABILITY"


class QuadratureError(FrheoError):
    """Grid too coarse for a singular kernel."""

    code = "E_QUADRATURE"


class ConvergenceError(FrheoError):
    """Numerical inversion failed its self-certification."""

    code = "E_CONVERGENCE"


class DegenerateDataError(FrheoError):
    """Fit input underdetermined or rank-deficient."""

    code = "E_DEGENERATE"


class DivisionError(FrheoError):
    """Pointwise division by a non-positive denominator."""

    code = "E_DIVISION"


class FormatError(FrheoError):
    """Malformed input file."""

    code = "E_FORMAT"


def _positive(value, name: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a positive real, got {value}")


def _in_range(values, abscissae, name: str) -> None:
    """Refuse values that left double range with OverflowError, naming the
    abscissa of the first."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"{name} at {abscissae[i]:g} exceeds double range")
