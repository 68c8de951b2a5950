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


# times per contour pass: (64 x 180) complex node arrays of 184 KB. That
# bounds memory on long grids and stays below numpy's 256 KiB threshold
# for reusing temporaries in place, whose swapped operands would move the
# last bit of a transform such as 1 / (s G(s)) away from the value that
# scalar invert and a one-time grid give.
_T_BLOCK = 64


def _rule_sums(values, t):
    """The coarse and the fine rule's complex sums for f at each time of
    t, and the fine sums' rounding bounds 4 eps sum |term|. Each time t
    keeps its own parabola, the nodes _NODES / t. values(s) gives the
    transform at an (n_t x nodes) array s; it is taken at each node and
    its conjugate, so a transform that is not real-symmetric leaves an
    imaginary part."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    s = _NODES / t
    with np.errstate(all="ignore"):
        v = values(np.concatenate((s, s.conj()), axis=1))
        g = 0.5 * (_WEIGHTS * v[:, :_NODES.size] + _WEIGHTS.conj() * v[:, _NODES.size:])
        coarse, fine = (np.add.reduceat(g, (0, _SPLIT), axis=1) / t).T
        return coarse, fine, 4.0 * math.ulp(1.0) * np.abs(g[:, _SPLIT:]).sum(axis=1) / t[:, 0]


def _bromwich(values, t, tol: float) -> np.ndarray:
    """invert at every time of the 1-D array t, for a transform that takes
    an (n_t x nodes) array of nodes at once. The times are summed in
    blocks of _T_BLOCK, so memory stays bounded on long grids; the first
    uncertified time in grid order raises ConvergenceError."""
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty(t.size)
    for i in range(0, out.size, _T_BLOCK):
        block = t[i:i + _T_BLOCK]
        coarse, fine, rounding = _rule_sums(values, block)
        value = fine.real
        scale = np.maximum(np.abs(value), 1e-300)
        with np.errstate(all="ignore"):  # a non-finite sum is refused below
            drift = (np.abs(coarse.real - value) + rounding) / scale
            residue = np.abs(fine.imag) / scale
        bad = ~(np.isfinite(value) & (drift <= 10.0 * tol) & (residue < tol))
        if bad.any():
            k = int(bad.argmax())
            raise ConvergenceError(
                f"contour sum {value[k]:.6e} at t={block[k]} is not certified: "
                f"relative drift {drift[k]:.2e} (limit {10.0 * tol:.2e}), "
                f"imaginary residue {residue[k]:.2e}")
        out[i:i + _T_BLOCK] = value
    return out


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

    def values(s):
        v = np.fromiter((transform(complex(x)) for x in s.flat), complex, s.size)
        return v.reshape(s.shape)

    return float(_bromwich(values, [t], tol)[0])
