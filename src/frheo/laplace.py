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


# rows per contour block. A block's node terms fill a (256 x 90) complex
# array, 0.37 MB, above the C allocator's mmap and trim thresholds: fresh
# arrays per block would be handed back to the kernel after each block and
# page-faulted in again by the next, so _rule_sums allocates its block
# arrays once per call and writes every block into them.
_BLOCK = 256


def _rule_sums(terms, n: int) -> np.ndarray:
    """The one contour sum, of the inversion (_bromwich) and of the
    Mittag-Leffler route (special._ml_contour): the coarse and the fine
    rule's sums of n rows of node terms, walked in blocks of _BLOCK rows.
    terms(rows, g, size) writes the weighted node terms of the slice rows
    into the (rows x nodes) complex block g, and into size the sizes that
    bound their rounding at the fine rule's nodes. Returns a (3, n) array:
    the real parts of the coarse and the fine complex sums, then the fine
    sums' rounding bounds 4 eps sum size."""
    out = np.empty((3, n))
    g_buf = np.empty((min(_BLOCK, n), _NODES.size), complex)
    size_buf = np.empty((g_buf.shape[0], _NODES.size - _SPLIT))
    for i in range(0, n, _BLOCK):
        rows = slice(i, i + _BLOCK)
        g, size = g_buf[:n - i], size_buf[:n - i]
        terms(rows, g, size)
        # the real parts of complex sums: numpy adds a complex row's real
        # parts in another order than a real row's, and the inverted grids'
        # bits are those of the complex order
        out[:2, rows] = np.add.reduceat(g, (0, _SPLIT), axis=1).real.T
        out[2, rows] = 4.0 * math.ulp(1.0) * size.sum(axis=1)
    return out


def _bromwich(values, t, tol: float) -> np.ndarray:
    """invert at every time of the 1-D array t, for a real-symmetric
    transform values(s, t). Each time keeps its own parabola, the nodes
    _NODES / t: values takes a (rows x nodes) array s of upper-half nodes
    and the column t of their times and returns the transform at s as a
    complex array of the shape of s; each term is weight * f(s), bounded
    in rounding by |term|. The times are summed in blocks (_rule_sums), so
    memory stays bounded on long grids; once all are summed, the first
    uncertified time in grid order raises ConvergenceError."""
    t = np.asarray(t, dtype=float).reshape(-1)

    def terms(rows, g, size):
        col = t[rows, None]
        np.multiply(_NODES, 1.0 / col, out=g)  # _NODES / t bit for bit, at half the cost
        np.multiply(_WEIGHTS, values(g, col), out=g)
        np.abs(g[:, _SPLIT:], out=size)

    with np.errstate(all="ignore"):  # a non-finite sum is refused below
        # a product with 1 / t: the bits numpy gives the complex quotient
        # of a sum by t
        coarse, value, rounding = _rule_sums(terms, t.size) * (1.0 / t)
        drift = (np.abs(coarse - value) + rounding) / np.maximum(np.abs(value), 1e-300)
    bad = ~(np.isfinite(value) & (drift <= 10.0 * tol))
    if bad.any():
        k = int(bad.argmax())
        raise ConvergenceError(
            f"contour sum {value[k]:.6e} at t={t[k]} is not certified: "
            f"relative drift {drift[k]:.2e} (limit {10.0 * tol:.2e})")
    return value


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
