"""Numerical inverse Laplace transform on the positive time axis.

Trapezoid rules for the Bromwich integral on the Weideman-Trefethen
parabola (Math. Comp. 76, 2007): frheo's one contour node table, read by
`invert`, by the models' responses without a closed form and by the
Mittag-Leffler contour route. The table holds the upper-half nodes only:
a real-symmetric transform, f(conj s) = conj f(s), is taken there and
the rule sums the real part of each term, which is the sum of the term
and its conjugate at the mirrored node.
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


# times per contour pass: (128 x 90) complex node arrays of 184 KB, which
# bound memory on long grids. _bromwich allocates its block arrays once
# per call and writes every block into them, so the C allocator does not
# hand them back to the kernel and fault them in again block by block.
_T_BLOCK = 128


def _block_work(n: int):
    """The block arrays of _rule_sums for up to n times: the nodes s and
    the sizes of the fine rule's terms."""
    return np.empty((n, _NODES.size), complex), np.empty((n, _NODES.size - _SPLIT))


def _rule_sums(values, t, work):
    """The coarse and the fine rule's sums for a real-symmetric f at each
    time of t, and the fine sums' rounding bounds 4 eps sum |term|. Each
    time t keeps its own parabola, the nodes _NODES / t. values(s, t)
    gives the transform at an (n_t x nodes) array s of upper-half nodes,
    t the (n_t x 1) column of their times, as a complex array of the shape
    of s that the terms then overwrite; each term is the real part of
    weight * f(s). work holds the block arrays (from _block_work, with at
    least n_t rows)."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    s, size = (w[:t.size] for w in work)
    with np.errstate(all="ignore"):
        np.multiply(_NODES, 1.0 / t, out=s)  # _NODES / t bit for bit, at half the cost
        g = values(s, t)
        np.multiply(_WEIGHTS, g, out=g)
        # the real parts of complex sums and quotients, which round as the
        # sums over each node and its conjugate did: numpy sums the real
        # parts of a complex row in another order than a real row, and
        # divides a complex by t as a product with 1 / t
        coarse, fine = (np.add.reduceat(g, (0, _SPLIT), axis=1) / t).real.T
        np.abs(g.real[:, _SPLIT:], out=size)
        return coarse, fine, 4.0 * math.ulp(1.0) * size.sum(axis=1) / t[:, 0]


def _bromwich(values, t, tol: float) -> np.ndarray:
    """invert at every time of the 1-D array t, for a real-symmetric
    transform values(s, t) that takes an (n_t x nodes) array of
    upper-half nodes and the column of their times at once (see
    _rule_sums). The times are summed in blocks of _T_BLOCK, so memory
    stays bounded on long grids; the first uncertified time in grid
    order raises ConvergenceError."""
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty(t.size)
    work = _block_work(min(t.size, _T_BLOCK))
    for i in range(0, out.size, _T_BLOCK):
        block = t[i:i + _T_BLOCK]
        coarse, value, rounding = _rule_sums(values, block, work)
        with np.errstate(all="ignore"):  # a non-finite sum is refused below
            drift = (np.abs(coarse - value) + rounding) / np.maximum(np.abs(value), 1e-300)
        bad = ~(np.isfinite(value) & (drift <= 10.0 * tol))
        if bad.any():
            k = int(bad.argmax())
            raise ConvergenceError(
                f"contour sum {value[k]:.6e} at t={block[k]} is not certified: "
                f"relative drift {drift[k]:.2e} (limit {10.0 * tol:.2e})")
        out[i:i + _T_BLOCK] = value
    return out


def invert(transform, t: float, tol: float = 1e-8) -> float:
    """Evaluate the inverse transform at time t, calling transform(s) at
    the 180 complex s of the two rules, each node and its conjugate, none
    of them on the negative real axis.

    The value is the rules' sum for the real-symmetric part of the
    transform, 0.5 (f(s) + conj f(conj s)). Certifies the fine rule's
    value only if it is finite, its drift from the coarse rule plus its
    rounding bound is within 10*tol*|value| and its imaginary residue,
    the fine sum of the antisymmetric part 0.5 (f(s) - conj f(conj s)),
    is below tol*|value|. Raises ConvergenceError otherwise, and also when
    the transform raises an ArithmeticError at a node (a complex division
    by zero once it underflows at a large t): a declined point, never a
    silently wrong one.
    """
    _positive(t, "inversion time")
    if not (math.isfinite(tol) and tol >= 1e-12):
        raise DomainError(f"tolerance must be at least 1e-12, got {tol}")
    with np.errstate(all="ignore"):  # a non-finite residue is refused below
        s = _NODES / t  # past double range at a subnormal t
        try:
            v = np.fromiter((transform(complex(x)) for x in np.concatenate((s, s.conj()))),
                            complex, 2 * s.size)
        except ArithmeticError as e:
            raise ConvergenceError(f"contour sum at t={t} is not certified: the transform "
                                   f"raised {type(e).__name__} ({e}) at a node") from None
        f, g = v[:s.size], v[s.size:].conj()
        value = float(_bromwich(lambda s, _: 0.5 * (f + g).reshape(s.shape), [t], tol)[0])
        anti = (_WEIGHTS * (0.5 * (f - g)))[_SPLIT:].imag.sum() / t
        residue = abs(anti) / max(abs(value), 1e-300)
    if not residue < tol:
        raise ConvergenceError(
            f"contour sum {value:.6e} at t={t} is not certified: "
            f"imaginary residue {residue:.2e} (limit {tol:.2e})")
    return value
