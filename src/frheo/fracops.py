"""Fractional differentiation on the half line.

Two faces of the same operator: the analytic power rule for monomials,
and a Grunwald-Letnikov discretization for uniformly sampled signals
with the lower terminal at the series start. Signals are treated as
zero before their start time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, GridError, _in_range, _positive
from .special import gamma

_DIRECT = 1024  # leading kernel samples that _causal_convolve sums directly


@dataclass(frozen=True)
class FractionalOrder:
    """Differentiation order nu restricted to [0, 1]."""

    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and 0.0 <= self.nu <= 1.0):
            raise DomainError(f"fractional order must lie in [0, 1], got {self.nu}")


OrderLike = Union[FractionalOrder, float, int]


def _order(nu: OrderLike) -> float:
    if isinstance(nu, FractionalOrder):
        return nu.nu
    return FractionalOrder(float(nu)).nu


class SignalSeries:
    """A uniformly sampled signal: start time, grid step, samples.

    Immutable; the sample array is copied in and locked.
    """

    __slots__ = ("t0", "dt", "values")

    def __init__(self, t0: float, dt: float, values: Sequence[float]):
        vals = np.asarray(values, dtype=float).copy()
        if not (math.isfinite(dt) and dt > 0.0):
            raise GridError(f"grid step must be positive, got {dt}")
        if not (math.isfinite(t0) and t0 >= 0.0):
            raise GridError(f"start time must be non-negative, got {t0}")
        if vals.ndim != 1 or vals.size < 2:
            raise GridError("signal needs at least 2 samples")
        if not np.all(np.isfinite(vals)):
            raise GridError("signal samples must all be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "t0", float(t0))
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SignalSeries is immutable")

    def __len__(self) -> int:
        return self.values.size

    def times(self) -> np.ndarray:
        """Sample times t0, t0+dt, ..."""
        return self.t0 + self.dt * np.arange(self.values.size)

    def __repr__(self):
        return (f"SignalSeries(t0={self.t0}, dt={self.dt}, "
                f"n={self.values.size})")


def _grid_break(t) -> Optional[int]:
    """Index of the first sample of t (2 or more) that breaks a finite,
    increasing, uniform grid, or None: dt = t[1] - t[0] must be finite and
    positive and every step within 1e-9 * dt of dt; NaN and inf break it."""
    with np.errstate(all="ignore"):
        steps = np.diff(np.asarray(t, dtype=float))
        # steps > 0 refuses dt <= 0; a NaN or infinite step, dt's too, fails the comparison
        off = ~((steps > 0.0) & (np.abs(steps - steps[0]) <= 1e-9 * steps[0]))
    return int(np.argmax(off)) + 1 if off.any() else None


def frac_deriv_power(nu: OrderLike, k: float, t: float) -> float:
    """Riemann-Liouville derivative of t**k, analytically.

    Returns Gamma(k+1)/Gamma(k-nu+1) * t**(k-nu). Requires a finite
    t > 0, k > -1 and k - nu > -1 so both gamma arguments stay positive.
    """
    n = _order(nu)
    _positive(t, "time")
    if not (k > -1.0):
        raise DomainError(f"exponent must exceed -1, got {k}")
    if not (k - n > -1.0):
        raise DomainError(f"exponent {k} minus order {n} must exceed -1")
    return gamma(k + 1.0) / gamma(k - n + 1.0) * t ** (k - n)


def gl_weights(nu: OrderLike, n: int) -> np.ndarray:
    """First n Grunwald-Letnikov weights for order nu.

    w_0 = 1 and w_j = w_{j-1} * (1 - (nu+1)/j), which is
    (-1)**j * binomial(nu, j).
    """
    order = _order(nu)
    if n < 1:
        raise DomainError(f"need at least one weight, got n={n}")
    j = np.arange(1, n, dtype=float)
    return np.concatenate(([1.0], np.cumprod(1.0 - (order + 1.0) / j)))


def _causal_convolve(a: np.ndarray, b: np.ndarray, lo: int = 0,
                     n: Optional[int] = None) -> np.ndarray:
    """Samples lo..n-1 of the convolution a * b, with b taken as zero past
    its end; n defaults to len(b), and a must hold at least n samples.

    The leading _DIRECT samples of a are summed directly, so each output
    gets them as a plain direct sum, within a few
    eps * sum_j |a_j| |b_(i-j)| of exact. The rest of a reaches only the
    outputs past _DIRECT and goes through one real FFT, whose error of
    about eps * |a_tail| * |b| (2-norms) spreads evenly over them; where
    a decays, as Grunwald-Letnikov weights do (Lubich, SIAM J. Math.
    Anal. 17(3), 1986), that stays below the componentwise bound for a b
    that rises from rest. One FFT over all of a would instead swamp the
    small early outputs of a ramp or a creep curve.

    Only what reaches the outputs asked for is summed. Trailing zeros of
    a and b are dropped, so a kernel of support s <= _DIRECT costs
    O(s * n) and needs no FFT: the Grunwald-Letnikov weights of orders 0
    and 1 and the classical models' Toeplitz columns cost O(n). The
    direct part reads b from the first sample that an output from lo on
    needs, but from at least len(a[:_DIRECT]) samples before b's end, so
    numpy's correlate keeps its operand order and each output from lo on
    is the very dot product, and the FFT part the very transform, of the
    call with b zero-padded to n: asking for an output range changes no
    bit. Dropping a's zeros does shorten the dot products; where two or
    more inexact products meet in one output they may round in another
    order, within the same bound. Weights of orders 0 and 1 multiply
    exactly, and each output the Toeplitz solve keeps from a two-term
    column holds one product.
    """
    n = b.size if n is None else n
    end = b.size - int(np.argmax(b[::-1] != 0.0))
    support = a.size - int(np.argmax(a[::-1] != 0.0))
    direct = a[:min(support, _DIRECT)]
    skip = max(0, min(lo + 1, end) - direct.size)  # samples of b no kept output reads
    out = np.zeros(n - lo)
    near = np.convolve(b[skip:end], direct)[lo - skip:n - skip]
    out[:near.size] = near
    # b's leading zeros reach no output through the tail; skipping them
    # keeps the outputs before a step exact zeros
    start = int(np.argmax(b != 0.0))
    rest = n - _DIRECT - start
    if rest > 0 and support > _DIRECT:
        size = 1 << (2 * rest - 2).bit_length()
        spec = (np.fft.rfft(a[_DIRECT:_DIRECT + rest], size)
                * np.fft.rfft(b[start:start + rest], size))
        keep = min(rest, n - lo)
        out[n - lo - keep:] += np.fft.irfft(spec, size)[rest - keep:rest]
    return out


def gl_derivative(s: SignalSeries, nu: OrderLike) -> SignalSeries:
    """Discrete fractional derivative of order nu on the signal's grid.

    Sample n is dt**(-nu) * sum_j w_j * values[n-j] with the signal
    taken as zero before its start. Order 1 reduces to the backward
    difference quotient, order 0 to the identity. A sample that leaves
    double range raises OverflowError naming the first such time.

    Accuracy: first order in dt, with leading error
    -(nu/2) * dt * D^(nu+1) f (Lubich, SIAM J. Math. Anal. 17(3), 1986).
    For f = t**k with k = nu that term vanishes, since D^nu t**k is a
    constant, and the error at time t is, to leading order,
    zeta(-k)/Gamma(-nu) * dt**(k+1) * t**(-nu-1): order k+1, not 1.

    Rounding: sample n is within a few eps * dt**(-nu) *
    sum_j |w_j| |values[n-j]| of the exact sum over the same doubles.
    Up to 1024 samples the sums are direct, so this holds for any
    signal. Past that the far weights go through an FFT, which makes the
    cost O(n log n), and the bound holds for signals that rise from rest
    (ramps, creep curves, sines and steps from zero; checked to 16000
    samples); elsewhere the error is that bound plus a normwise
    eps * |w| * |values| spread over the samples. Orders 0 and 1, whose
    weights end after one and two samples, are plain O(n) direct sums.
    """
    order = _order(nu)
    m = len(s)
    conv = _causal_convolve(gl_weights(order, m), s.values)
    with np.errstate(all="ignore"):  # a sample out of double range is refused below
        d = np.float64(s.dt) ** -order * conv
    if not np.isfinite(d).all():  # the times are formed for the message alone
        _in_range(d, s.times(), "fractional derivative")
    return SignalSeries(s.t0, s.dt, d)


def caputo_derivative(s: SignalSeries, nu: OrderLike) -> SignalSeries:
    """Caputo form: the same operator applied to s - s(t0).

    Kills constants for every positive order; coincides with
    gl_derivative whenever the signal starts at zero.
    """
    shifted = SignalSeries(s.t0, s.dt, s.values - s.values[0])
    return gl_derivative(shifted, nu)
