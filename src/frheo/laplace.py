"""Numerical inverse Laplace transform on the positive time axis.

Trapezoid rules for the Bromwich integral on the Weideman-Trefethen
parabola (Math. Comp. 76, 2007): frheo's one contour node table, read by
`invert`, by the models' responses without a closed form and by the
Mittag-Leffler contour route.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, _positive


def _parabola(n: int):
    """Trapezoid rule with n + 1 nodes u = 0, h, ..., n h on the
    Weideman-Trefethen parabola s(u) = mu (1 + iu)^2, h = 3/n,
    mu = pi n / 30, for t = 1. Returns mu, h, s at the nodes, and the
    weights h mu / pi * (1 + iu) * e^s, doubled for u > 0 because the
    nodes at -u are the complex conjugates."""
    h, mu = 3.0 / n, math.pi * n / 30.0
    w = 1.0 + 1j * h * np.arange(n + 1)
    s = mu * w * w
    weight = np.full(n + 1, 2.0 * h * mu / math.pi)
    weight[0] *= 0.5
    return mu, h, s, weight * w * np.exp(s)


# a coarse and a fine rule; their drift estimates the quadrature error
_COARSE, _FINE = _parabola(40), _parabola(48)
_SPLIT = _COARSE[2].size
_NODES = np.concatenate((_COARSE[2], _FINE[2]))
_NODE_LOG = np.log(_NODES)
_WEIGHTS = np.concatenate((_COARSE[3], _FINE[3]))


def _rule_sums(values, t: float):
    """The coarse and the fine rule's complex sums for f(t), and the fine
    sum's rounding bound 4 eps sum |term|. values(s) gives the transform
    at an array of nodes s; it is taken at each node and its conjugate, so
    a transform that is not real-symmetric leaves an imaginary part."""
    s = _NODES / t
    with np.errstate(all="ignore"):
        v = values(np.concatenate((s, s.conj()))).reshape(2, -1)
        g = 0.5 * (_WEIGHTS * v[0] + _WEIGHTS.conj() * v[1])
        coarse, fine = np.add.reduceat(g, (0, _SPLIT)) / t
        return complex(coarse), complex(fine), 4.0 * math.ulp(1.0) * float(
            np.abs(g[_SPLIT:]).sum()) / t


def _bromwich(values, t: float, tol: float) -> float:
    """invert for a transform that takes all nodes at once."""
    coarse, fine, rounding = _rule_sums(values, t)
    value = fine.real
    scale = max(abs(value), 1e-300)
    drift = (abs(coarse.real - value) + rounding) / scale
    residue = abs(fine.imag) / scale
    if not (math.isfinite(value) and drift <= 10.0 * tol and residue < tol):
        raise ConvergenceError(
            f"contour sum {value:.6e} at t={t} is not certified: relative drift "
            f"{drift:.2e} (limit {10.0 * tol:.2e}), imaginary residue {residue:.2e}")
    return value


def invert(transform, t: float, tol: float = 1e-8) -> float:
    """Evaluate the inverse transform at time t, calling transform(s) at
    180 complex s of the two rules, none of them on the negative real axis.

    Certifies the fine rule's value only if it is finite, its drift from
    the coarse rule plus its rounding bound is within 10*tol*|value| and
    its imaginary residue is below tol*|value|. Raises ConvergenceError
    otherwise: a declined point, never a silently wrong one.
    """
    _positive(t, "inversion time")
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise DomainError(f"tolerance must be at least 1e-12, got {tol}")
    return _bromwich(
        lambda s: np.fromiter((transform(complex(x)) for x in s), complex, s.size), t, tol)
