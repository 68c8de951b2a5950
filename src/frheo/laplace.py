"""Numerical inverse Laplace transform on the positive time axis.

Fixed deformed-contour quadrature (Talbot's cotangent contour with the
node count picked from the requested accuracy). Serves double duty: a
verification oracle for models with closed-form responses, and the
runtime path for every response without one.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .errors import ConvergenceError, DomainError

TransformFn = Callable[[complex], complex]


def _talbot_sum(transform: TransformFn, t: float, nodes: int) -> complex:
    """One pass over the cotangent contour s(theta) = r*theta*(cot theta + i).

    The nodes are accumulated in one ordered sweep from -pi to pi rather
    than in conjugate pairs: pairing would cancel the imaginary parts
    exactly in floating point and silence the residual check below.
    """
    r = 2.0 * nodes / (5.0 * t)
    total = 0.0 + 0.0j
    for k in range(-(nodes - 1), nodes):
        if k == 0:
            total += 0.5 * math.exp(r * t) * transform(complex(r, 0.0))
            continue
        theta = k * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        total += 0.5 * cmath.exp(t * s) * transform(s) * complex(1.0, sigma)
    return total * (r / nodes)


def invert(transform: TransformFn, t: float, tol: float = 1e-8) -> float:
    """Evaluate the inverse transform at time t.

    Runs the contour at two node counts (N and 2N, N from the digit
    request) and certifies the answer only if the refinements agree to
    within 10*tol and the finer pass's imaginary residue is below
    tol*|value|. Raises ConvergenceError otherwise: a declined point,
    never a silently wrong one.
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise DomainError(f"inversion time must be positive, got {t}")
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise DomainError(f"tolerance must be at least 1e-12, got {tol}")
    digits = max(1, math.ceil(-math.log10(tol)))
    coarse_n = max(8, math.ceil(1.7 * digits))
    coarse = _talbot_sum(transform, t, coarse_n)
    fine = _talbot_sum(transform, t, 2 * coarse_n)
    value = fine.real
    scale = max(abs(value), 1e-300)
    drift = abs(coarse.real - value) / scale
    if drift > 10.0 * tol:
        raise ConvergenceError(
            f"contour refinements disagree at t={t}: "
            f"relative drift {drift:.2e} exceeds {10.0 * tol:.2e}")
    residue = abs(fine.imag) / scale
    if residue >= tol:
        raise ConvergenceError(
            f"imaginary residue {residue:.2e} at t={t} is not below {tol:.2e}")
    return value
