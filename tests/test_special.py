"""Gamma, Mittag-Leffler and kernel tests against independent references.

Reference values marked "frozen" were produced by a 60-digit
direct-series evaluation (mpmath, mp.gamma) in a separate script; the
identities use only stdlib math as the oracle. The contour route is
checked against a power series summed in mpmath at run time.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frheo import laplace, special
from frheo.errors import ConvergenceError, DomainError, PoleError
from frheo.fracops import SignalSeries
from frheo.models import rabotnov_stress
from frheo.special import MLParams, RabotnovParams, gamma, ml_eval, rabotnov_kernel


def ml(a, b, z):
    return ml_eval(MLParams(a, b), z)


# ---------------------------------------------------------------- gamma

def test_gamma_small_integers_and_half():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_frozen_anchors():
    # frozen 60-digit values
    assert gamma(-0.5) == pytest.approx(-3.5449077018110321, rel=1e-13)
    assert gamma(170.25) == pytest.approx(1.540656022718819e+305, rel=1e-13)
    assert gamma(-170.25) == pytest.approx(-1.6938387496514191e-307, rel=1e-13)


def test_gamma_against_libm_across_contract_range():
    # math.gamma is an independent implementation (C library)
    xs = np.linspace(-170.0, 170.0, 4001) + 0.0437
    xs = xs[np.abs(xs) > 1e-6]
    worst = 0.0
    for x in xs:
        ref = math.gamma(float(x))
        worst = max(worst, abs(gamma(float(x)) - ref) / abs(ref))
    assert worst < 1e-13, f"worst relative error {worst:.3e}"


def test_gamma_recurrence():
    xs = np.linspace(0.1, 50.0, 500)
    for x in xs:
        x = float(x)
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -120.0])
def test_gamma_pole(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_gamma_overflow_and_domain():
    with pytest.raises(OverflowError):
        gamma(172.0)
    with pytest.raises(OverflowError):
        gamma(1000.0)
    with pytest.raises(DomainError):
        gamma(math.inf)
    with pytest.raises(DomainError):
        gamma(math.nan)


def test_gamma_against_mpmath_across_contract_range():
    # the libm test's grid, against 30-digit mpmath
    xs = np.linspace(-170.0, 170.0, 4001) + 0.0437
    xs = xs[np.abs(xs) > 1e-6]
    worst = 0.0
    with mpmath.workdps(30):
        for x in xs:
            ref = mpmath.gamma(mpmath.mpf(float(x)))
            worst = max(worst, float(abs((gamma(float(x)) - ref) / ref)))
    assert worst < 1e-14, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("x", [1e-310, -1e-310])
def test_gamma_overflows_next_to_the_origin(x):
    with pytest.raises(OverflowError):
        gamma(x)


# -------------------------------------------------------- mittag-leffler

# frozen from the 60-digit direct-series reference
ML_REFERENCE = [
    (0.5, 1.0, -1.0, 0.427583576155807),
    (0.3, 1.0, -4.0, 0.16650174431551665),
    (0.7, 1.2, -9.0, 0.064602260409878536),
    (1.5, 0.5, -20.0, 0.039853399472427008),
    (0.9, 1.8, -25.0, 0.03742416141574796),
    (1.2, 2.3, 17.0, 1556.1810000653986),
    (0.6, 0.8, 3.0, 1233.0472915922361),
    (0.7, 1.0, -0.6155722066724582, 0.54582672905990237),
    (0.7, 1.0, -1.0, 0.39961197811559939),
    (0.7, 1.0, -1.624504792712471, 0.26319000679909246),
]


@pytest.mark.parametrize("a,b,z,ref", ML_REFERENCE)
def test_ml_frozen_reference_values(a, b, z, ref):
    assert ml(a, b, z) == pytest.approx(ref, rel=1e-10)


def test_ml_reduces_to_exponential():
    for z in np.linspace(-30.0, 30.0, 121):
        z = float(z)
        assert ml(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)


def test_ml_value_at_zero_is_reciprocal_gamma():
    for a in np.linspace(0.2, 2.0, 10):
        for b in np.linspace(0.2, 2.0, 10):
            assert ml(float(a), float(b), 0.0) == pytest.approx(
                1.0 / gamma(float(b)), rel=1e-13, abs=1e-300)


def test_ml_erfc_identity_half_order():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x); stdlib erfc is the oracle
    for x in np.linspace(0.0, 20.0, 81):
        x = float(x)
        ref = math.exp(x * x) * math.erfc(x)
        assert ml(0.5, 1.0, -x) == pytest.approx(ref, rel=1e-11)


def test_ml_cosh_identity_positive_axis():
    for z in np.geomspace(0.01, 2500.0, 40):
        z = float(z)
        ref = math.cosh(math.sqrt(z))
        assert ml(2.0, 1.0, z) == pytest.approx(ref, rel=1e-10)


def test_ml_cos_identity_negative_axis():
    for z in np.linspace(-3600.0, -0.5, 400):
        z = float(z)
        ref = math.cos(math.sqrt(-z))
        if abs(ref) < 0.1:
            continue  # avoid relative comparison at the cosine zeros
        tol = 1e-10 if abs(z) <= 50.0 else 1e-6
        assert ml(2.0, 1.0, z) == pytest.approx(ref, rel=tol)


def test_ml_expm1_identity_beta_two():
    # E_{1,2}(z) = (e^z - 1)/z
    for z in np.linspace(-300.0, 300.0, 101):
        z = float(z)
        if z == 0.0:
            continue
        ref = math.expm1(z) / z
        tol = 1e-10 if abs(z) <= 50.0 else 1e-6
        assert ml(1.0, 2.0, z) == pytest.approx(ref, rel=tol)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
def test_ml_complete_monotonicity_spot_check(alpha):
    zs = -np.geomspace(1e-3, 80.0, 60)
    vals = [ml(alpha, 1.0, float(z)) for z in zs]
    arr = np.array(vals)
    assert np.all(arr > 0.0)
    assert np.all(arr <= 1.0)
    assert np.all(np.diff(arr) < 0.0)  # zs decreasing toward -80


def test_ml_positive_axis_overflow():
    with pytest.raises(OverflowError):
        ml(1.0, 1.0, 710.0)
    with pytest.raises(OverflowError):
        ml(0.5, 1.0, 27.0**2)
    with pytest.raises(OverflowError):  # 1.4e308: the guard refuses from e^709 on
        ml(0.7, 1.0, 98.98)
    with pytest.raises(OverflowError):
        ml(0.3, 1.0, 1e9)
    # just under the edge the value is still returned
    assert ml(1.0, 1.0, 709.0) == pytest.approx(math.exp(709.0), rel=1e-12)
    big = ml(2.0, 1.0, 500000.0)
    assert big == pytest.approx(math.cosh(math.sqrt(500000.0)), rel=1e-6)


@pytest.mark.parametrize("a,b,z", [(0.5, -300.0, -10.0), (0.5, -300.5, 0.0)])
def test_ml_out_of_double_range_raises(a, b, z):
    # 30-digit mpmath: about -4.2e613 and 1/Gamma(-300.5) = -1.7e615
    with pytest.raises(OverflowError):
        ml(a, b, z)


def ml_series_mp(a, b, z):
    """Power series in mpmath, with enough digits for its cancellation."""
    reach = abs(z)**(1.0 / a)  # the terms peak near k = reach / a, at about e^reach
    with mpmath.workdps(30 + int(reach / 2.3)):
        am, bm, zm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
        total, zk, k, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        while small < 3:
            term = zk * mpmath.rgamma(am * k + bm)
            total += term
            small = small + 1 if abs(term) <= mpmath.eps * abs(total) else 0
            zk *= zm
            k += 1
        return float(total)


def test_ml_positive_axis_tiny_alpha_has_no_growth():
    # z**(1/a) = 0.5**2000 lies far below 1, so the exponential growth the
    # overflow guard bounds is absent and E is about 2
    assert ml(0.0005, 2.0, 0.5) == pytest.approx(ml_series_mp(0.0005, 2.0, 0.5), rel=1e-10)
    with pytest.raises(OverflowError, match="exceeds double range"):
        ml(0.001, 1.0, 3.0)  # z**(1/a) = 3**1000


@pytest.mark.parametrize("a,b,z", [(2.5, 1.0, -1e300), (2.5, 1.0, -3e8), (3.0, 0.5, -1e12),
                                   (5.0, 2.0, -1e30)])
def test_ml_negative_axis_overflow_past_alpha_2(monkeypatch, a, b, z):
    # for a > 2 the pole pair |z|**(1/a) exp(+-i pi/a) lies right of the
    # imaginary axis, and past e^709 its growth is refused before mpmath,
    # which at z = -1e300 would ask for about 1e120 digits
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) reached the mpmath fallback")

    monkeypatch.setattr(special, "_series_mpf", refuse)
    with pytest.raises(OverflowError, match="exceeds double range"):
        ml(a, b, z)


def test_ml_negative_axis_below_the_guard_is_served():
    # envelope e^4.9 at a = 2.5, z = -1e3: the guard lets it through
    assert ml(2.5, 1.0, -1e3) == pytest.approx(ml_series_mp(2.5, 1.0, -1e3), rel=1e-10)


def test_ml_truncated_extended_series_declines(monkeypatch):
    # next to z = 1 at tiny a the terms z**k decay only past k ~ 1e10
    monkeypatch.setattr(special, "_MPF_TERMS", 3000)
    with pytest.raises(ConvergenceError):
        ml(1e-12, 1.0, 1.0 - 1e-9)


def test_ml_tiny_alpha_next_to_one_declines_at_once():
    # the geometric term count, about 7e10, is known before any term is
    # summed; the full 200,000-term budget took seconds to run out
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="needs over 200000 terms"):
        ml(1e-12, 1.0, 1.0 - 1e-9)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("a,z,message", [
    (0.01, -1e4, "extended-precision series out of reach for E_(0.01,1.0)(-10000.0)"),
    (1e-5, 0.99999,
     "extended-precision series for E_(1e-05,1.0)(0.99999) needs over 200000 terms"),
    (1e-8, 1.0, "extended-precision series for E_(1e-08,1.0)(1.0) needs over 200000 terms"),
    (1e-8, -1.0, "extended-precision series for E_(1e-08,1.0)(-1.0) needs over 200000 terms"),
], ids=["no term estimate", "geometric term count", "unit argument", "negative unit argument"])
def test_extended_series_refuses_before_summing(a, z, message, monkeypatch):
    # no term estimate fits a double (u = 1e4**100), or the terms fall
    # only as 0.99999**k, or not at all at |z| = 1 with a gamma argument
    # a*k + 1 that stays near 1: each is refused before a term is summed,
    # so no extended-precision context may be made
    def no_context():
        raise AssertionError("an MPContext was created")

    monkeypatch.setattr("mpmath.ctx_mp.MPContext", no_context)
    with pytest.raises(ConvergenceError) as refused:
        special._series_mpf(a, 1.0, z)
    assert str(refused.value) == message


def point_series(a, b, z):
    """The per-point power series at z: (value, relative bound), or None
    where it is skipped."""
    pairs = special._series_pairs(a, b, abs(z), special._POINT_TERMS)
    if pairs is None:
        return None
    (value,), (bound,) = special._ml_series(pairs, np.array([z]))
    return value, bound / abs(value) if value else math.inf


def contour_band(n, seed=4):
    """Seeded (alpha, beta, z) on the negative axis where neither the
    power series nor the asymptotic series certifies. Two fixed points
    lead: the slowest one of the mpmath fallback (197 ms), and one whose
    pole pair sits close to the parabola. The series oracle limits the
    draws to |z|^(1/alpha) <= 250."""
    rng = np.random.default_rng(seed)
    out = [(0.68, 1.0, -41.5), (1.95, 1.0, -1090.69)]
    while len(out) < n:
        a, b = rng.uniform(0.05, 1.99), rng.uniform(0.5, 2.0)
        z = -math.exp(rng.uniform(math.log(0.1), math.log(2000.0)))
        if abs(z)**(1.0 / a) > 250.0:
            continue
        tight = 3e-12 if abs(z) <= 50.0 else 1e-9
        rt, ra = point_series(a, b, z), special._alg_asym(a, b, z)
        if (rt is None or rt[1] > tight) and (ra is None or ra[1] > tight):
            out.append((a, b, z))
    return out


def test_ml_contour_route_against_mpmath_series():
    certified = 0
    for a, b, z in contour_band(60):
        ref = ml_series_mp(a, b, z)
        contract = 1e-10 if abs(z) <= 50.0 else 1e-6
        assert ml(a, b, z) == pytest.approx(ref, rel=contract), (a, b, z)
        value, est = special._ml_contour(a, b, z)
        if est <= (3e-12 if abs(z) <= 50.0 else 1e-9):
            certified += 1
            # the estimate bounds the error it certifies
            assert abs(value - ref) <= est * abs(ref), (a, b, z, est)
    assert special._ml_contour(0.68, 1.0, -41.5)[1] <= 3e-12
    assert certified >= 36


def positive_band(n, seed=12):
    """Seeded (alpha, beta, z) on the positive axis for alpha < 2, with
    the real pole z^(1/alpha) in [0.1, 250] (the series oracle's reach)."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 1.99, n), rng.uniform(0.2, 2.5, n)
    u = np.exp(rng.uniform(math.log(0.1), math.log(250.0), n))
    return [(float(ak), float(bk), float(uk**ak)) for ak, bk, uk in zip(a, b, u)]


def test_ml_positive_axis_contour_against_mpmath_series():
    # for z > 0 the contour adds the residue of the real pole z^(1/alpha)
    certified = 0
    for a, b, z in positive_band(40):
        ref = ml_series_mp(a, b, z)
        contract = 1e-10 if abs(z) <= 50.0 else 1e-6
        assert ml(a, b, z) == pytest.approx(ref, rel=contract), (a, b, z)
        (value,), (est,) = special._ml_contour(a, b, z)
        if est <= (3e-12 if abs(z) <= 50.0 else 1e-9):
            certified += 1
            # the estimate bounds the error it certifies
            assert abs(value - ref) <= est * abs(ref), (a, b, z, est)
    assert certified >= 30


@pytest.mark.parametrize("a,b,z", [(0.477, 0.967, 10.86), (0.3, 1.0, 4.0), (0.6, 0.8, 3.0),
                                   (0.9, 1.5, 200.0), (1.2, 2.3, 17.0), (1.7, 0.5, 900.0)])
def test_ml_positive_axis_needs_no_mpmath(monkeypatch, a, b, z):
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) reached the mpmath fallback")

    ref = ml_series_mp(a, b, z)
    monkeypatch.setattr(special, "_series_mpf", refuse)
    assert ml(a, b, z) == pytest.approx(ref, rel=1e-10 if z <= 50.0 else 1e-6)


# points with 1 < alpha < 2 and a pole pair next to the parabola (first
# five) or a coarse rule the pair spoils (the next two), which the plain
# contour pass refuses: sweep ml jobs of seeds 1 and 3 and the example
# of ROADMAP item 3
POLE_NEAR_CONTOUR = [(1.4085, 0.9739, -91.931), (1.6810, 1.7315, -126.0),
                     (1.7443, 1.1948, -74.747), (1.7816, 0.9806, -41.697),
                     (1.823, 1.342, -106.7), (1.4426, 1.8541, -31.774),
                     (1.6164, 1.1328, -22.098), (1.3803, 1.6570, -40.752)]


@pytest.mark.parametrize("a,b,z", POLE_NEAR_CONTOUR)
def test_ml_pole_near_the_contour_needs_no_mpmath(monkeypatch, a, b, z):
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) reached the mpmath fallback")

    assert special._ml_contour(a, b, [z])[1][0] > special._tight(z)  # the plain pass refuses
    ref = ml_series_mp(a, b, z)
    monkeypatch.setattr(special, "_series_mpf", refuse)
    assert ml(a, b, z) == pytest.approx(ref, rel=1e-10 if abs(z) <= 50.0 else 1e-6)
    (value,), (est,) = special._ml_contour(a, b, [z], True)
    assert abs(value - ref) <= est * abs(ref)


def test_ml_next_to_a_zero_takes_the_asymptotic_series(monkeypatch):
    # why _alg_asym stays: with |beta - alpha| < 0.1 next to a zero of E
    # the contour pass and the power series refuse, the asymptotic series
    # certifies (estimate 3.1e-14), and mpmath's series needs about two
    # minutes for the value frozen here
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) reached the mpmath fallback")

    a, b, z = 0.43433185764985605, 0.43765362298757393, -27.40127909207043
    assert special._ml_contour(a, b, [z])[1][0] > special._tight(z)
    assert point_series(a, b, z) is None
    monkeypatch.setattr(special, "_series_mpf", refuse)
    assert ml(a, b, z) == pytest.approx(4.8174462346137035e-4, rel=1e-10)


def test_ml_pole_subtraction_estimate_with_the_pole_on_a_node():
    # a pole pair placed on a parabola node, or up to 1e-3 off it: the
    # subtracted principal part cancels the integrand there, and every
    # value the estimate certifies lies within it
    rng = np.random.default_rng(21)
    certified = 0
    for s in special._NODES[::4]:
        angle = math.atan2(s.imag, s.real)
        if not math.pi / 2 < angle < 0.99 * math.pi:
            continue
        a = math.pi / angle
        for d in (0.0, 1e-12, 1e-6, 1e-3):
            b, z = float(rng.uniform(0.2, 2.5)), -(abs(s) * (1.0 + d))**a
            (value,), (est,) = special._ml_contour(a, b, [z], True)
            if est <= special._tight(z):
                certified += 1
                ref = ml_series_mp(a, b, z)
                assert abs(value - ref) <= est * abs(ref), (a, b, z, est)
    assert certified >= 10


def test_ml_tiny_argument_takes_the_power_series(monkeypatch):
    # |z|**k underflows harmlessly: the series' overflow guard must not
    # refuse it and leave alpha >= 2 to the mpmath fallback
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) reached the mpmath fallback")

    monkeypatch.setattr(special, "_series_mpf", refuse)
    assert ml(2.5, 1.0, -1e-80) == 1.0


@pytest.mark.parametrize("a,z", [(0.5, -2.2e-309), (0.5, -1e-80), (0.3, -1e-20),
                                 (0.3, -2.2e-309)])
def test_ml_never_exceeds_its_value_at_zero_next_to_zero(a, z):
    # the contour's rounding once put these at 1.0000000000000004
    assert ml(a, 1.0, z) == 1.0
    assert list(special._ml_grid(a, 1.0, [z, -1e-8, -1e-3])) == [
        1.0, ml(a, 1.0, -1e-8), ml(a, 1.0, -1e-3)]
    assert 1.0 - ml(a, 1.0, -1e-8) == pytest.approx(1e-8 / gamma(1.0 + a), rel=1e-6)


def test_ml_asymptotic_series_refuses_a_rounded_reflection_argument():
    # next to a = 1 every sine factor sin(pi (b - a k)) is tiny and the
    # rounded argument b - a k moves it by a relative 2e-5: the series
    # once certified this value with an estimate of 6.5e-14
    a, b, z = 0.9999999999999983, 1.0, -77.88748797137268
    assert special._alg_asym(a, b, z)[1] > 1e-9
    assert ml(a, b, z) == pytest.approx(special._series_mpf(a, b, z), rel=1e-6)
    assert ml(a, b, z) == pytest.approx(2.19526232e-17, rel=1e-8)


# kernel order, rate, horizon and sample count of step-strain sweeps that
# stay below, enter and run far past the band the contour route serves
HEREDITARY_KERNELS = (
    (-0.75, 2.0, 67.0, 1001),
    (-0.62, 2.0, 82.0, 501),
    (-0.50, 0.2, 67.0, 2001),
    (-0.38, 2.0, 100.0, 501),
    (-0.25, 0.4, 6.0, 2001),
    (-0.25, 0.233, 20.0, 1001),
    (-0.12, 0.233, 13.6, 2001),
)


def test_hereditary_kernels_need_no_mpmath(monkeypatch):
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) reached the mpmath fallback")

    monkeypatch.setattr(special, "_series_mpf", refuse)
    for alpha, beta, horizon, n in HEREDITARY_KERNELS:
        step = SignalSeries(0.0, horizon / (n - 1), np.ones(n))
        sigma = rabotnov_stress(RabotnovParams(alpha, beta), 1.0, step).values
        assert np.all(np.isfinite(sigma))
        assert np.all(np.diff(sigma) < 0.0)  # a step response relaxes monotonically


def test_hereditary_kernels_make_no_scalar_fallback(monkeypatch):
    # every point of the hereditary sweeps is certified by the grid's
    # contour pass, so none of them runs the per-point route chain
    def refuse(a, b, z):
        raise AssertionError(f"E_({a},{b})({z}) fell back to _ml_point")

    monkeypatch.setattr(special, "_ml_point", refuse)
    for alpha, beta, horizon, n in HEREDITARY_KERNELS:
        step = SignalSeries(0.0, horizon / (n - 1), np.ones(n))
        assert np.all(np.isfinite(rabotnov_stress(RabotnovParams(alpha, beta), 1.0, step).values))


def ml_reference_mp(a, b, z):
    """E_{a,b}(z), z < 0: the Hankel integral for b = 1 and a < 1, which
    reaches any |z|; the mpmath series otherwise."""
    return ml_hankel_mp(a, z) if b == 1.0 and a < 1.0 else ml_series_mp(a, b, z)


def grid_bands(seed=11):
    """Seeded (alpha, beta, z grid) of the bands frheo evaluates as grids:
    rabotnov_stress's order alpha + 1 in [0.25, 0.88] with beta = 1; the
    closed forms' alpha in (0, 1] with beta = 1, alpha + 1 and
    alpha - beta' + 1 (beta' in [alpha, 1]); and 1 < alpha < 2 around
    the point whose pole pair sits next to the parabola. Grids reach
    |z| = 2000 where the Hankel integral is the reference, and
    |z|^(1/alpha) = 100 where the series is."""
    rng = np.random.default_rng(seed)

    def grid(a, b, zmin, zmax, n=8):
        if not (b == 1.0 and a < 1.0):
            zmax = min(zmax, 100.0**a)
        return a, b, -np.sort(np.exp(rng.uniform(math.log(zmin), math.log(zmax), n)))

    bands = [grid(a, 1.0, 1e-3, 2000.0) for a in (0.25, rng.uniform(0.25, 0.88), 0.88)]
    for a in (rng.uniform(0.05, 1.0), 1.0):
        for b in (1.0, a + 1.0, a - rng.uniform(a, 1.0) + 1.0):
            if (a, b) != (1.0, 1.0):  # exp is its own route
                bands.append(grid(a, b, 1e-3, 2000.0))
    a, b, z = grid(1.95, 1.0, 900.0, 1300.0)
    bands += [(a, b, np.append(z, -1090.69)), grid(rng.uniform(1.0, 1.9), rng.uniform(0.5, 2.0),
                                                  1e-2, 2000.0)]
    return bands


def band_pairs(a, b):
    """The coefficient pairs of the band series, as _ml_grid forms them."""
    return special._series_pairs(a, b, special._BAND_U**a, special._NODES.size)


def band_series(a, b, z):
    """The band series' values and error bounds at every z, and where it
    certifies them; nothing where its band is skipped."""
    series, bound = np.full(z.size, math.nan), np.full(z.size, math.inf)
    pairs = band_pairs(a, b)
    band = np.abs(z) <= special._BAND_U**a
    if pairs is not None and band.any():
        series[band], bound[band] = special._ml_series(pairs, z[band])
    with np.errstate(invalid="ignore"):
        return series, bound, (np.abs(series) < 1e307) & (bound <= special._tight(z) * np.abs(series))


@pytest.mark.parametrize("a,b,z", grid_bands(), ids=lambda v: f"{v:.3g}" if
                         isinstance(v, float) else "z")
def test_ml_grid_against_mpmath(a, b, z):
    got = special._ml_grid(a, b, z)
    series, bound, in_band = band_series(a, b, z)
    value, est = special._ml_contour(a, b, z)
    tight = special._tight(z)
    contour = ~in_band & np.isfinite(value) & (est <= tight)
    for k, zk in enumerate(z):
        ref = ml_reference_mp(a, b, float(zk))
        contract = 1e-10 if abs(zk) <= 50.0 else 1e-6
        assert got[k] == pytest.approx(ref, rel=contract), (a, b, zk)
        # each route's estimate bounds the error it certifies: the band's
        # series first, then the contour
        if in_band[k]:
            assert got[k] == series[k]
            assert abs(series[k] - ref) <= bound[k], (a, b, zk, bound[k])
        elif contour[k]:
            assert got[k] == value[k]
            assert abs(value[k] - ref) <= est[k] * abs(ref), (a, b, zk, est[k])
        assert got[k] == ml(a, b, float(zk)), (a, b, zk)  # one evaluator
    if band_pairs(a, b) is not None and min(abs(z)) <= special._BAND_U**a / 2:
        assert in_band.any()  # the series serves the inner half of its band


def band_cap(b):
    """Both sides of the smallest alpha that has a band series at beta b:
    no series at the first, one of about 90 terms at the second."""
    lo, hi = 0.05, 1.0
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if band_pairs(mid, b) is None else (lo, mid)
    return lo, hi


# (alpha, k, pole, offset): alpha k + beta lies offset away from the pole
# of Gamma, on either side
NEXT_TO_A_POLE = [(0.5, 2, 0, 1e-15), (0.7071067811865476, 1, -1, -1e-15),
                  (0.6180339887498949, 3, 0, 1e-12), (1.4142135623730951, 1, -2, -1e-12),
                  (0.9, 2, -1, 1e-8), (1.3, 1, 0, -1e-8)]


def series_band(seed=23):
    """Seeded (alpha, beta, z grid) around the band |z| <= 4**alpha that
    the power series serves: beta != 1, beta at and next to 0, beta next
    to the poles -1 and -2 of Gamma, a gamma argument alpha k + beta
    next to a pole, alpha on both sides of the smallest alpha whose
    series fits in 90 terms, and alpha > 2. Each grid holds the band's
    edge and its neighbours on both half-axes, tiny |z| and draws inside
    the band."""
    rng = np.random.default_rng(seed)
    params = [(rng.uniform(0.35, 1.99), rng.uniform(0.2, 3.0)) for _ in range(5)]
    params += [(rng.uniform(0.35, 1.99), b) for b in (0.0, 1e-12, 1e-3, -1e-10, -1.0 + 1e-9,
                                                       -2.0 - 1e-7)]
    params += [(a, b) for b in (0.0, 1.7) for a in band_cap(b)]
    params += [(a, pole - a * k + d) for a, k, pole, d in NEXT_TO_A_POLE] + [(2.3, 1.1)]
    out = []
    for a, b in params:
        edge = special._BAND_U**a
        near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf), 1e-20, 1e-9]
        x = np.concatenate((near, edge * rng.uniform(0.0, 1.0, 4)))
        out.append((float(a), float(b), np.concatenate((-x, x))))
    return out


def test_ml_band_series_against_mpmath():
    served = 0
    for a, b, z in series_band():
        if a > 0.35:
            assert band_pairs(a, b) is not None
        got = special._ml_grid(a, b, z)
        series, bound, in_band = band_series(a, b, z)
        for k, zk in enumerate(z):
            ref = ml_series_mp(a, b, float(zk))
            assert got[k] == pytest.approx(ref, rel=1e-10, abs=1e-300), (a, b, zk)
            assert got[k] == ml(a, b, float(zk)), (a, b, zk)  # bit for bit
            if in_band[k]:
                served += 1
                assert got[k] == series[k]
                assert abs(series[k] - ref) <= bound[k], (a, b, zk, bound[k])
        assert not in_band[np.abs(z) > special._BAND_U**a].any()
        if b < 0.0:  # next to a pole too, the series certifies where its terms do not cancel
            assert in_band[(np.abs(z) <= special._BAND_U**a) & (z >= -1e-9)].all(), (a, b)
    assert served >= 120
    for b in (0.0, 1.7):
        below, above = band_cap(b)
        assert 0.3 < below and len(band_pairs(above, b)) - 1 > 80
    # 1/Gamma of the largest gamma argument, 160 + 1.9 (K + 1) > 171, would
    # no longer be a normal double
    assert band_pairs(1.9, 150.0) is not None
    assert band_pairs(1.9, 160.0) is None
    # 1/Gamma(b) saturates to infinity past lgamma(1 - b) = 700, and an
    # infinite coefficient made the numpy sum warn and give NaN at z = 0:
    # the series is skipped there, and just inside it sums finite values
    assert band_pairs(2.0, -170.99) is None
    z = np.linspace(-16.0, 16.0, 51)
    assert np.isfinite(band_pairs(2.0, -167.5)).all()
    assert special._ml_grid(2.0, -167.5, z)[25] == pytest.approx(6.198958372669902e+300, rel=1e-12)
    for z in (-3.0, 3.0):
        assert ml(1.9, 160.0, z) == pytest.approx(ml_series_mp(1.9, 160.0, z), rel=1e-10)


def test_ml_band_series_same_bits_in_numpy_and_python_sums():
    # a long band grid, and grids at the Python sums' size limit and just
    # past it, give each point the bits of its one-point value, for
    # alpha < 2 and alpha > 2
    for a, b in ((0.75, 1.3), (2.3, 1.1)):
        edge = special._BAND_U**a
        assert band_pairs(a, b) is not None
        z = np.linspace(-edge, edge, 1001)
        got = special._ml_grid(a, b, z)
        for k in range(0, z.size, 7):
            assert got[k] == ml(a, b, float(z[k])), (a, z[k])
        for n in (2, special._SERIES_PY, special._SERIES_PY + 1):
            z = np.linspace(-edge, 0.9 * edge, n)
            assert list(special._ml_grid(a, b, z)) == [ml(a, b, float(x)) for x in z], (a, n)


def certified_routes(a, b, z):
    """Each route that certifies E_{a,b}(z) at the tight level, with its
    value and absolute error bound: the band series, the point series,
    the contour and, where z has a pole, the pole-subtracted contour
    (alpha < 2), and the asymptotic series (z < 0, alpha < 2)."""
    tight, found = special._tight(z), {}
    if abs(z) <= special._BAND_U**a and (pairs := band_pairs(a, b)) is not None:
        (value,), (bound,) = special._ml_series(pairs, np.array([z]))
        if math.isfinite(value) and bound <= tight * abs(value):
            found["band series"] = value, bound
    tries = {"point series": point_series(a, b, z)}
    if a < 2.0:
        for subtract in (False, True) if z > 0.0 or a > 1.0 else (False,):
            (value,), (est,) = special._ml_contour(a, b, [z], subtract)
            tries["subtracted contour" if subtract else "contour"] = value, est
        if z < 0.0:
            tries["asymptotic series"] = special._alg_asym(a, b, z)
    for route, r in tries.items():
        if r is not None and math.isfinite(r[0]) and r[1] <= tight:
            found[route] = r[0], r[1] * abs(r[0])
    return found


def test_ml_routes_agree_where_two_certify():
    # no oracle: wherever two routes certify a draw, they agree within the
    # sum of their bounds
    rng = np.random.default_rng(29)
    n = 2000
    a, b = rng.uniform(0.05, 2.5, n), rng.uniform(-1.0, 3.0, n)
    z = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), n)) * rng.choice((-1.0, 1.0), n)
    compared = {}
    for ak, bk, zk in zip(a.tolist(), b.tolist(), z.tolist()):
        found = list(certified_routes(ak, bk, zk).items())
        for i, (r1, (v1, e1)) in enumerate(found):
            for r2, (v2, e2) in found[i + 1:]:
                assert abs(v1 - v2) <= e1 + e2, (ak, bk, zk, r1, v1, e1, r2, v2, e2)
                compared[r1, r2] = compared.get((r1, r2), 0) + 1
    assert sum(compared.values()) >= 1000, compared
    assert {r for pair in compared for r in pair} == {
        "band series", "point series", "contour", "subtracted contour", "asymptotic series"}


def test_ml_grid_sends_refused_points_to_the_scalar_chain(monkeypatch):
    # the route order: the band's series takes the finite z with
    # |z| <= 4**alpha, z = 0 among them; the first contour pass takes the
    # rest of the finite z with |z| >= 1e-8 and the points the series
    # refuses; only its refused points with a pole (z > 0 at alpha < 1)
    # reach the second pass; _ml_point takes what no pass keeps, in grid
    # order, with its values and its errors, and runs the series at each
    # of its points but z = 0
    a, b = 0.6, 1.0
    z = np.append(-np.linspace(0.05, 1.0, 10), [0.5, 0.7, -5.0, 3.0, -8.0, 0.0])
    band = np.flatnonzero(np.abs(z) <= special._BAND_U**a)
    assert list(band) == list(range(12)) + [15]
    real_series, real_contour, real_point = special._ml_series, special._ml_contour, special._ml_point
    seen, passes, calls = [], [], []

    def refuse_series(pairs, zs):
        seen.append(list(zs))
        v = real_series(pairs, zs)
        v[1, ::3] = math.inf  # every third band point
        return v

    def refuse_odd(a, b, zs, subtract=False):
        passes.append(list(zs))
        value, est = real_contour(a, b, zs, subtract)
        est[slice(None) if subtract else slice(1, None, 2)] = math.inf
        return value, est

    monkeypatch.setattr(special, "_ml_series", refuse_series)
    monkeypatch.setattr(special, "_ml_contour", refuse_odd)
    monkeypatch.setattr(special, "_ml_point", lambda a, b, x: calls.append(x) or real_point(a, b, x))
    got = special._ml_grid(a, b, z)
    assert seen == [list(z[band])] + [[x] for x in z[[3, 9, 13]]]
    refused = band[::3]  # z = 0 among them, which no contour pass takes
    first = [0, 3, 6, 9, 12, 13, 14]
    assert list(refused) == [0, 3, 6, 9, 15]
    assert passes == [list(z[first]), [3.0]]
    assert calls == list(z[[3, 9, 13, 15]])
    assert list(got[[3, 9, 13, 15]]) == [real_point(a, b, x) for x in calls]
    kept = np.setdiff1d(band, refused)
    assert list(got[kept]) == list(real_series(band_pairs(a, b), z[kept])[0])
    assert list(got[[0, 6, 12, 14]]) == list(real_contour(a, b, z[[0, 6, 12, 14]])[0])
    with pytest.raises(DomainError):
        special._ml_grid(0.6, 1.0, [-1.0, math.nan])
    with pytest.raises(DomainError):
        special._ml_grid(0.6, 1.0, [-math.inf])
    with pytest.raises(OverflowError):
        special._ml_grid(0.5, 1.0, [-1.0, 27.0**2])


def test_ml_grid_pass_through_values():
    assert list(special._ml_grid(0.7, 1.3, [0.0, -0.0])) == [ml(0.7, 1.3, 0.0)] * 2
    assert special._ml_grid(0.7, 1.3, [0.0])[0] == pytest.approx(1.0 / gamma(1.3), rel=1e-13)
    z = np.linspace(-30.0, 30.0, 121)
    assert list(special._ml_grid(1.0, 1.0, z)) == [math.exp(x) for x in z]
    empty = special._ml_grid(0.5, 1.0, [])
    assert empty.shape == (0,) and empty.dtype == float


# (alpha, beta, z range): no pole, so the plain pass alone; then a pole pair
# and a real pole, where the plain pass refuses points that the pass with
# the poles subtracted takes
BLOCK_EDGE_BANDS = [(0.6, 1.1, (-1e-3, -60.0)), (1.7443, 1.1948, (-1e-2, -120.0)),
                    (0.7, 1.2, (1e-3, 30.0))]


@pytest.mark.parametrize("n", [1, laplace._BLOCK - 1, laplace._BLOCK, laplace._BLOCK + 1,
                               2 * laplace._BLOCK + 37])
@pytest.mark.parametrize("a,b,ends", BLOCK_EDGE_BANDS, ids=lambda v: f"{v:g}" if
                         isinstance(v, float) else "z")
def test_ml_contour_blocks_match_one_point_calls(a, b, ends, n):
    # grids that end inside, on and past a contour block's edge: a value
    # and its estimate must not depend on where the block cuts the grid
    z = np.geomspace(*ends, n)
    assert special._ml_grid(a, b, z).tobytes() == np.array(
        [ml(a, b, float(x)) for x in z]).tobytes()
    for subtract in (False, True):
        whole = special._ml_contour(a, b, z, subtract)
        points = [special._ml_contour(a, b, z[k:k + 1], subtract) for k in range(n)]
        for got, one in zip(whole, zip(*points)):
            assert got.tobytes() == np.concatenate(one).tobytes(), subtract
    if n > laplace._BLOCK and (a > 1.0 or ends[0] > 0.0):  # a pole: the second pass runs
        assert np.any(special._ml_contour(a, b, z)[1] > special._tight(z))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(a=st.floats(0.01, 1.0), x0=st.floats(0.0, 20.0), h=st.floats(1e-3, 1.5))
def test_ml_complete_monotonicity_property(a, x0, h):
    # E_a(-x) is completely monotone for 0 < a <= 1 (Pollard, 1948): it
    # lies in (0, 1] and (-1)^n times its n-th forward difference on a
    # uniform grid is non-negative. Rounding allowance: every x here is at
    # most 48.5, where a value may be off by 1e-10 relative, so an n-th
    # difference may be off by 2^n * 1e-10; no value may exceed E(0) = 1.
    x = x0 + h * np.arange(20)
    for vals in (special._ml_grid(a, 1.0, -x), np.array([ml(a, 1.0, -v) for v in x])):
        assert np.all((vals > 0.0) & (vals <= 1.0))
        diff = vals
        for n in (1, 2, 3):
            diff = np.diff(diff)
            assert np.all((-1)**n * diff >= -2**n * 1e-10), (n, diff)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(a=st.floats(0.05, 2.0, exclude_max=True), b=st.floats(0.5, 2.0),
       x=st.floats(0.1, 50.0))
def test_ml_recurrence_property(a, b, x):
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z); each value carries 1e-10
    z = -x
    lhs = ml(a, b, z)
    shifted = z * ml(a, a + b, z)
    tol = 2e-10 * (abs(lhs) + abs(shifted))
    assert abs(lhs - (1.0 / gamma(b) + shifted)) <= tol


def ml_hankel_mp(a, z):
    """E_{a,1}(z) for 0 < a < 1 and z < 0 from the collapsed Hankel
    integral (Gorenflo, Loutchko and Luchko, Fract. Calc. Appl. Anal. 5,
    2002) in 30-digit mpmath; no power series involved."""
    with mpmath.workdps(30):
        am, zm = mpmath.mpf(a), mpmath.mpf(z)

        def kernel(r):
            e = mpmath.log(r) / am  # r**(1/a) = exp(e)
            if e > 10:
                return 0
            decay = 1 if e < -100 else mpmath.exp(-mpmath.exp(e))
            den = r * r - 2 * r * zm * mpmath.cospi(am) + zm * zm
            return -zm * mpmath.sinpi(am) * decay / den / (am * mpmath.pi)

        return float(mpmath.quad(kernel, [0, 0.5, 1, 2, mpmath.inf]))


@pytest.mark.parametrize("a,z", [(1e-3, -5.0), (5e-324, -1.0), (0.5, -1.0)])
def test_ml_tiny_alpha_against_hankel_integral(a, z):
    # a power series in 1/Gamma(a k + 1) that reaches |z|**(1/a) cannot be
    # summed for tiny a; the other routes still certify. a = 0.5 checks
    # the integral against a value the series also reaches.
    assert ml(a, 1.0, z) == pytest.approx(ml_hankel_mp(a, z), rel=1e-10)


def test_ml_params_validation():
    with pytest.raises(DomainError):
        MLParams(0.0, 1.0)
    with pytest.raises(DomainError):
        MLParams(-0.5, 1.0)
    with pytest.raises(DomainError):
        MLParams(1.0, math.inf)
    with pytest.raises(DomainError):
        ml_eval(MLParams(1.0, 1.0), math.nan)


# ----------------------------------------------------- rabotnov kernel

def kernel_series(alpha, beta, x, terms=400):
    """Direct truncated-series oracle for the kernel."""
    total = 0.0
    for n in range(terms):
        arg = (n + 1.0) * (alpha + 1.0)
        if arg > 170.0:  # term is below double resolution by here
            break
        term = beta**n * x**(n * (alpha + 1.0)) / math.gamma(arg)
        total += term
        if n > 60 and abs(term) < 1e-18 * abs(total):
            break
    return x**alpha * total


def test_kernel_exponential_endpoint():
    p = RabotnovParams(0.0, 0.8)
    for x in (0.1, 1.0, 3.0):
        assert rabotnov_kernel(p, x) == pytest.approx(math.exp(0.8 * x), rel=1e-13)


def test_kernel_unit_point_matches_series_and_frozen():
    v = rabotnov_kernel(RabotnovParams(-0.5, 1.0), 1.0)
    assert v == pytest.approx(kernel_series(-0.5, 1.0, 1.0), rel=1e-10)
    assert v == pytest.approx(5.5731696643100398, rel=1e-12)  # frozen


@pytest.mark.parametrize("beta", [0.7, -0.7])
def test_kernel_grid_matches_series(beta):
    alphas = np.linspace(-0.9, -0.05, 10)
    xs = np.geomspace(0.1, 3.0, 10)
    for a in alphas:
        p = RabotnovParams(float(a), beta)
        for x in xs:
            x = float(x)
            assert rabotnov_kernel(p, x) == pytest.approx(
                kernel_series(float(a), beta, x), rel=1e-10)


def test_kernel_domain_and_params():
    p = RabotnovParams(-0.5, 1.0)
    with pytest.raises(DomainError):
        rabotnov_kernel(p, 0.0)
    with pytest.raises(DomainError):
        rabotnov_kernel(p, -1.0)
    with pytest.raises(DomainError):
        RabotnovParams(0.5, 1.0)  # order must be in (-1, 0]
    with pytest.raises(DomainError):
        RabotnovParams(-1.0, 1.0)
    RabotnovParams(-0.5, 0.0)  # zero rate is allowed: memory term vanishes
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="^kernel rate must be finite$"):
            RabotnovParams(-0.5, beta)
