"""Discrete fractional-derivative operators against the analytic power rule."""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from frheo.errors import DomainError, GridError
from frheo.fracops import (FractionalOrder, SignalSeries, _causal_convolve,
                           caputo_derivative, frac_deriv_power, gl_derivative, gl_weights)


EPS = np.finfo(float).eps


def ramp(dt, tmax=1.0):
    t = np.arange(0.0, tmax + dt / 2, dt)
    return SignalSeries(0.0, dt, t)


# --------------------------------------------------------------- weights

def test_weights_first_difference_stencil():
    assert_allclose(gl_weights(1, 3), [1.0, -1.0, 0.0], atol=0.0)


def test_weights_identity_operator():
    assert_allclose(gl_weights(0, 3), [1.0, 0.0, 0.0], atol=0.0)


def test_weights_half_order_hand_checked():
    # binomial recurrence gives exact dyadic rationals at nu = 1/2
    w = gl_weights(0.5, 4)
    assert list(w) == [1.0, -0.5, -0.125, -0.0625]
    assert gl_weights(FractionalOrder(0.5), 4).tobytes() == w.tobytes()  # an order instance


def test_weights_single():
    assert list(gl_weights(0.7, 1)) == [1.0]


def test_weight_partial_sums_decay():
    w = gl_weights(0.5, 10001)
    assert abs(w.sum()) < 0.05


def test_weights_bad_count():
    with pytest.raises(DomainError):
        gl_weights(0.5, 0)


# ------------------------------------------------------------ power rule

@pytest.mark.parametrize("t", [0.2, 1.0, 7.0])
def test_power_rule_first_derivative_of_t(t):
    assert frac_deriv_power(1, 1, t) == pytest.approx(1.0, rel=1e-14)


def test_power_rule_half_derivative_of_t():
    assert frac_deriv_power(0.5, 1, 1.0) == pytest.approx(
        2.0 / math.sqrt(math.pi), rel=1e-14)


def test_power_rule_zero_order_is_identity():
    for k in (0.5, 1.0, 2.0):
        assert frac_deriv_power(0, k, 3.0) == pytest.approx(3.0**k, rel=1e-14)


def test_power_rule_domain():
    with pytest.raises(DomainError):
        frac_deriv_power(0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        frac_deriv_power(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        frac_deriv_power(0.75, -0.5, 1.0)  # k - nu at the gamma pole edge
    with pytest.raises(DomainError):
        FractionalOrder(1.5)
    with pytest.raises(DomainError):
        FractionalOrder(-0.1)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_power_rule_refuses_non_finite_time(t):
    with pytest.raises(DomainError):
        frac_deriv_power(0.5, 1.0, t)


# ------------------------------------------------------------ gl operator

def test_gl_zero_order_returns_input():
    s = SignalSeries(0.0, 0.1, np.ones(20))
    out = gl_derivative(s, 0)
    assert_allclose(out.values, s.values, atol=0.0)
    assert out.t0 == s.t0 and out.dt == s.dt


def test_gl_half_order_of_ramp_matches_power_rule():
    s = ramp(1e-3)
    d = gl_derivative(s, 0.5)
    assert d.values[-1] == pytest.approx(frac_deriv_power(0.5, 1, 1.0), abs=5e-3)


def test_gl_order_one_is_backward_difference():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(50)
    s = SignalSeries(0.0, 0.25, vals)
    d = gl_derivative(s, 1)
    ref = np.empty(50)
    ref[0] = vals[0] / 0.25  # zero extension below the start
    ref[1:] = np.diff(vals) / 0.25
    assert_allclose(d.values, ref, rtol=1e-14)


def test_gl_linearity():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(80)
    y = rng.standard_normal(80)
    sx = SignalSeries(0.0, 0.1, x)
    sy = SignalSeries(0.0, 0.1, y)
    s_mix = SignalSeries(0.0, 0.1, 2.5 * x - 1.25 * y)
    mix = gl_derivative(s_mix, 0.6).values
    parts = 2.5 * gl_derivative(sx, 0.6).values - 1.25 * gl_derivative(sy, 0.6).values
    scale = np.max(np.abs(parts))
    assert np.max(np.abs(mix - parts)) < 1e-12 * scale


def _scaled_ints(x):
    """The doubles of x as integers over one common power of two."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    shift = max(d.bit_length() for _, d in ratios) - 1
    return [n << (shift - d.bit_length() + 1) for n, d in ratios], shift


GL_SIGNALS = {
    "ramp": lambda u: u,
    "creep": lambda u: u**0.3,
    "sine": lambda u: np.sin(6.0 * math.pi * u),
    "step": lambda u: np.where(u >= 0.4, 0.7, 0.0),  # zero well past 1024 samples
}


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.93])
@pytest.mark.parametrize("shape", sorted(GL_SIGNALS))
def test_gl_componentwise_error_against_exact_sum(shape, nu):
    # 4000 samples reach past the directly summed weights; on the unit
    # grid each sample is the bare convolution, checked against its
    # exact rational value at every early index and a spread of late ones
    n = 4000
    v = GL_SIGNALS[shape](np.arange(n) / n)
    w = gl_weights(nu, n)
    got = gl_derivative(SignalSeries(0.0, 1.0, v), nu).values
    wi, ws = _scaled_ints(w)
    vi, vs = _scaled_ints(v)
    for i in [*range(300), *range(300, n, 97), n - 1]:
        exact = Fraction(sum(map(operator.mul, wi[:i + 1], vi[i::-1])), 1 << (ws + vs))
        bound = 4.0 * EPS * float(np.dot(np.abs(w[:i + 1]), np.abs(v[i::-1])))
        assert abs(Fraction(got[i]) - exact) <= bound, f"sample {i}"


def test_gl_short_signals_are_direct_sums():
    # up to 1024 samples the operator is the plain direct convolution
    v = np.random.default_rng(2).standard_normal(1024)
    got = gl_derivative(SignalSeries(0.0, 1.0, v), 0.37).values
    assert np.array_equal(got, np.convolve(v, gl_weights(0.37, 1024))[:1024])


# kept clear of subnormal products, whose absolute rounding no relative
# bound covers
COEFFICIENT = st.floats(-4.0, 4.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-6)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(2, 3000), nu=st.floats(0.0, 1.0), a=COEFFICIENT, b=COEFFICIENT,
       seed=st.integers(0, 2**16))
def test_gl_linearity_across_the_direct_block(n, nu, a, b, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    mix = gl_derivative(SignalSeries(0.0, 1.0, a * x + b * y), nu).values
    parts = (a * gl_derivative(SignalSeries(0.0, 1.0, x), nu).values
             + b * gl_derivative(SignalSeries(0.0, 1.0, y), nu).values)
    w = np.abs(gl_weights(nu, n))
    bound = np.convolve(np.abs(a * x) + np.abs(b * y), w)[:n]
    assert np.all(np.abs(mix - parts) <= 16.0 * EPS * bound)



# ------------------------------------------------------- convolution helper

def _padded_convolve(a, b, lo, n):
    """Samples lo..n-1 of a * b as they were formed before the helper took
    an output range or dropped a's zeros: b zero-padded to n, every output
    summed with all of a's leading 1024 samples, the head sliced off."""
    head = np.zeros(n)
    head[:b.size] = b
    end = n - int(np.argmax(head[::-1] != 0.0))
    out = np.concatenate((np.convolve(head[:end], a[:1024]), np.zeros(n)))[:n]
    start = int(np.argmax(head != 0.0))
    rest = n - 1024 - start
    if rest > 0:
        size = 1 << (2 * rest - 2).bit_length()
        spec = np.fft.rfft(a[1024:1024 + rest], size) * np.fft.rfft(head[start:start + rest], size)
        out[n - rest:] += np.fft.irfft(spec, size)[:rest]
    return out[lo:]


# sizes on both sides of the 1024 directly summed samples and of the
# solve's 128-sample blocks, then seeded ones up to 5000
CONV_SIZES = [1, 2, 3, 127, 128, 129, 1023, 1024, 1025, 1151, 1152, 1153,
              2047, 2048, 2049, 4096, 4999, 5000]


def _conv_cases(seed, count):
    """(n, head length h, head) triples: heads with leading zeros, trailing
    zeros and -0 samples among finite values of mixed magnitude."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = CONV_SIZES[k] if k < len(CONV_SIZES) else int(rng.integers(1, 5001))
        h = int(rng.choice([1, 127, 128, 129, 1023, 1024, 1025, n // 2, n - 1,
                            int(rng.integers(1, n + 1))]))
        h = min(max(h, 1), n)
        b = rng.standard_normal(h) * 10.0 ** rng.integers(-3, 4, h)
        if k % 3 == 0:
            b[:int(rng.integers(0, h + 1))] = 0.0
        if k % 4 == 1:
            b[h - int(rng.integers(0, h + 1)):] = 0.0
        b[rng.random(h) < 0.05] = -0.0
        yield n, h, b


def _bits(x):
    return x.view(np.int64).tolist()


@pytest.mark.parametrize("nu", [0.0, 1.0, 0.37, 0.99])
def test_convolution_with_weights_is_the_padded_sum_bit_for_bit(nu):
    # both ways the callers ask: every output of a whole signal (the
    # derivatives) and the outputs past a solved head (the Toeplitz solve),
    # the latter for the weights and for the columns delta + c w built from them
    rng = np.random.default_rng([15, int(100 * nu)])
    for n, h, b in _conv_cases(int(100 * nu), 60):
        w = gl_weights(nu, n)
        col = float(10.0 ** rng.uniform(-3, 3)) * w
        col[0] += 1.0
        if h == n:
            assert _bits(_causal_convolve(w, b)) == _bits(_padded_convolve(w, b, 0, n)), n
        for a in (w, col):
            got = _causal_convolve(a, b, h, n)
            assert _bits(got) == _bits(_padded_convolve(a, b, h, n)), (n, h)


def test_convolution_with_finite_support_is_the_padded_sum_bit_for_bit():
    # kernels with trailing zeros, and sums that are exact in every order, so
    # the bits show which products are summed and nothing of how they are
    # grouped: small integers make every product and partial sum exact
    rng = np.random.default_rng(1515)
    for n, h, b in _conv_cases(15, 60):
        support = int(rng.choice([1, 2, 3, 11, 12, 1023, 1024, 1025, int(rng.integers(1, n + 1))]))
        a = rng.integers(-8, 9, n).astype(float)
        a[min(support, n):] = 0.0
        b = np.copysign(np.round(np.abs(b)) % 1000.0, b)  # keeps the sign of b's zeros
        for lo, head in ((h, b), (0, np.concatenate((b, np.zeros(n - h))))):
            got = _causal_convolve(a, head, lo, n)
            assert _bits(got) == _bits(_padded_convolve(a, head, lo, n)), (n, h, support, lo)


def test_convolution_with_finite_support_keeps_the_direct_sum_bound():
    # with inexact products the shorter sums may round in another order; each
    # output stays within a few eps * sum |a_j| |b_(i-j)| of the exact sum
    rng = np.random.default_rng(7)
    for n, support in [(40, 3), (1500, 17), (3000, 700), (2100, 1024)]:
        a = rng.standard_normal(n)
        a[support:] = 0.0
        b = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        got = _causal_convolve(a, b)
        ai, ashift = _scaled_ints(a)
        bi, bshift = _scaled_ints(b)
        for i in [*range(0, n, 37), n - 1]:
            exact = Fraction(sum(map(operator.mul, ai[:i + 1], bi[i::-1])), 1 << (ashift + bshift))
            bound = 4.0 * EPS * float(np.dot(np.abs(a[:i + 1]), np.abs(b[i::-1])))
            assert abs(Fraction(got[i]) - exact) <= bound, (n, support, i)


def test_convolution_outputs_past_a_head_are_the_whole_convolution_tail():
    # for any kernel, asking for samples lo..n-1 gives the bits of the
    # whole convolution's tail: the output range changes no sum
    rng = np.random.default_rng(3)
    for n, h, b in _conv_cases(3, 40):
        a = rng.standard_normal(n) * np.linspace(1.0, 1e-3, n)
        padded = np.concatenate((b, np.zeros(n - h)))
        whole = _causal_convolve(a, padded)
        lo = int(rng.integers(0, n + 1))
        assert _bits(_causal_convolve(a, padded, lo)) == _bits(whole[lo:]), (n, lo)
        assert _bits(_causal_convolve(a, b, h, n)) == _bits(whole[h:]), (n, h)

@pytest.mark.parametrize("k,nu", [(1.0, 0.25), (1.0, 0.75), (2.0, 0.5)])
def test_gl_convergence_order_spot_check(k, nu):
    errs = []
    for dt in (1e-2, 1e-3):
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        d = gl_derivative(SignalSeries(0.0, dt, t**k), nu)
        errs.append(abs(d.values[-1] - frac_deriv_power(nu, k, 1.0)))
    order = math.log(errs[0] / errs[1]) / math.log(10.0)
    assert 0.8 <= order <= 1.2, f"observed order {order:.3f}"


def _gl_error_at_one(k, nu, dt):
    t = np.arange(0.0, 1.0 + dt / 2, dt)
    d = gl_derivative(SignalSeries(0.0, dt, t**k), nu)
    return d.values[-1] - frac_deriv_power(nu, k, 1.0)


@pytest.mark.parametrize("k", [0.5, 0.3])
def test_gl_error_constant_when_power_equals_order(k):
    # With k = nu the first-order term -(nu/2)*dt*D^(nu+1)t^k carries
    # 1/Gamma(0) = 0, so the start-up term zeta(-k)/Gamma(-nu)*dt^(k+1)
    # leads: the scheme converges at order k+1 there, not 1.
    dt = 1e-4
    got = _gl_error_at_one(k, k, dt) / dt ** (k + 1)
    want = float(mpmath.zeta(-k) * mpmath.rgamma(-k))
    assert abs(got - want) < 1e-3 * abs(want), f"{got} vs {want}"


def test_gl_first_order_error_constant():
    k, nu, dt = 1.0, 0.5, 1e-4
    got = _gl_error_at_one(k, nu, dt) / dt
    want = float(-(nu / 2) * mpmath.gamma(k + 1) / mpmath.gamma(k - nu))
    assert abs(got - want) < 1e-4 * abs(want), f"{got} vs {want}"


# --------------------------------------------------------------- caputo

def test_caputo_kills_constants():
    s = SignalSeries(0.0, 0.1, np.full(30, 4.2))
    for nu in (0.3, 0.7, 1.0):
        assert_allclose(caputo_derivative(s, nu).values, np.zeros(30), atol=1e-14)


def test_caputo_of_ramp_matches_power_rule():
    d = caputo_derivative(ramp(1e-3), 0.5)
    assert d.values[-1] == pytest.approx(frac_deriv_power(0.5, 1, 1.0), abs=5e-3)


def test_caputo_definitional_identity():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(40) + 2.0
    s = SignalSeries(0.0, 0.05, vals)
    shifted = SignalSeries(0.0, 0.05, vals - vals[0])
    assert_allclose(caputo_derivative(s, 0.4).values,
                    gl_derivative(shifted, 0.4).values, atol=0.0)


# ------------------------------------------------------------- series type

def test_series_validation():
    with pytest.raises(GridError):
        SignalSeries(0.0, 0.0, [1.0, 2.0])
    with pytest.raises(GridError):
        SignalSeries(0.0, -0.1, [1.0, 2.0])
    with pytest.raises(GridError):
        SignalSeries(-1.0, 0.1, [1.0, 2.0])
    with pytest.raises(GridError):
        SignalSeries(0.0, 0.1, [1.0])
    with pytest.raises(GridError):
        SignalSeries(0.0, 0.1, [1.0, math.nan])


def test_series_immutability_and_times():
    s = SignalSeries(1.0, 0.5, [1.0, 2.0, 3.0])
    with pytest.raises(AttributeError):
        s.dt = 0.2
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    assert_allclose(s.times(), [1.0, 1.5, 2.0], atol=0.0)
    assert len(s) == 3
