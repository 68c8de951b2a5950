"""Gamma, the two-parameter Mittag-Leffler function, and the
fractional-exponential relaxation kernel.

Everything here is real-in/real-out and pure. The Mittag-Leffler
evaluator tries its routes in a fixed order: the power series, then on
the negative axis the algebraic asymptotic series and a double-precision
Bromwich integral on frheo.laplace's parabola node table, and last an
extended-precision series in mpmath. It accepts a route only when its
internally estimated relative error clears the accuracy target: 1e-10
for |z| <= 50, 1e-6 beyond, with an order of magnitude of headroom
where affordable. A grid of arguments takes one vectorised pass of the
contour route first and sends only the points it cannot certify through
that chain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, _positive
from .laplace import _COARSE, _FINE, _NODE_LOG, _SPLIT, _WEIGHTS

_EPS = 2.220446049250313e-16
_LN_PI = math.log(math.pi)
_MPF_TERMS = 200000  # term budget of the extended-precision series


@dataclass(frozen=True)
class MLParams:
    """Index pair (alpha, beta) of the Mittag-Leffler function."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"ml alpha must be positive and finite, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise DomainError(f"ml beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class RabotnovParams:
    """Kernel order alpha in (-1, 0] and rate beta.

    beta = 0 is admitted (the memory term simply vanishes).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (-1.0 < self.alpha <= 0.0):
            raise DomainError(f"kernel order must lie in (-1, 0], got {self.alpha}")
        if not math.isfinite(self.beta):
            raise DomainError("kernel rate must be finite")


def _sinpi(x: float) -> float:
    # reduce by the nearest integer so the factor stays fully accurate
    # next to the zeros of sin(pi x)
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return s if n % 2 == 0 else -s


def gamma(x: float) -> float:
    """Gamma function on the real line.

    CPython's math.gamma behind frheo's error taxonomy: raises
    DomainError for a non-finite x, PoleError at 0, -1, -2, ... and
    OverflowError once the value exceeds double range (x above ~171.62,
    or |x| below ~5.6e-309).
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        sign = "+" if x > 0.0 else "-"
        raise OverflowError(f"gamma({x}) exceeds double range ({sign}inf)") from None


def _rgamma(x: float) -> float:
    """1/Gamma in double precision; exactly 0 at the poles."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x >= 0.5:
        lg = math.lgamma(x)
        return math.exp(-lg) if lg < 745.0 else 0.0
    sp = _sinpi(x)
    lg = math.lgamma(1.0 - x)
    if lg > 700.0:  # reflection magnitude saturates; callers guard first
        return math.copysign(math.inf, sp)
    return sp / math.pi * math.exp(lg)


def _series_predict(a: float, b: float, z: float):
    """Estimate the term count and peak log-magnitude of the power series,
    or None when either leaves double range: the series is then out of
    reach."""
    x = abs(z)
    if x <= 1e-300:
        return 8, 0.0
    lx = math.log(x)
    lu = lx / a
    if lu > 700.0:  # neither u below nor lgamma(u) would fit a double
        return None
    u = math.exp(lu)  # terms peak where a*k + b ~ u
    kpeak = max(0.0, (u - b) / a)
    peak = kpeak * lx - math.lgamma(max(a * kpeak + b, 1e-8)) if kpeak > 0 else 0.0
    count = 1.5 * kpeak + 0.8 * u / a + 40
    if not (math.isfinite(count) and math.isfinite(peak)):
        return None
    return int(count), max(0.0, peak)


def _taylor(a: float, b: float, z: float):
    """Compensated power series. Returns (sum, error estimate) or None
    when the series is out of reach for doubles."""
    pred = _series_predict(a, b, z)
    if pred is None or pred[0] > 500 or pred[1] > 690.0:
        return None
    count = pred[0]
    if count * abs(math.log(max(abs(z), 1e-300))) > 600.0:
        return None  # z**k would overflow before the tail is reached
    s = 0.0
    comp = 0.0
    tabs = 0.0
    zk = 1.0
    small = 0
    xmax = b
    term = 0.0
    k = 0
    while k <= 500:
        x = a * k + b
        term = zk * _rgamma(x)
        tabs += abs(term)
        if x > xmax:
            xmax = x
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(term) < 1e-16 * abs(s):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        zk *= z
        k += 1
    if s == 0.0:
        return None
    # per-term rounding, including the double rounding of a*k + b inside
    # the gamma argument
    term_err = _EPS * (4.0 + 1.5 * xmax * math.log(xmax + 2.0))
    return s, (term_err * tabs + 2.0 * abs(term)) / abs(s)


def _saddle_size(a: float, b: float, x: float) -> float:
    """Magnitude of the subdominant exponential the algebraic expansion
    cannot see on the negative axis; present for 2/3 < a < 2."""
    if a <= 2.0 / 3.0:
        return 0.0
    u = math.exp(math.log(x) / a)
    lsad = u * math.cos(math.pi / a) + (1.0 - b) * math.log(u) + math.log(6.0 / a)
    return math.exp(lsad) if lsad < 690.0 else math.inf


def _alg_asym(a: float, b: float, z: float):
    """Algebraic large-|z| expansion on the negative axis.

    Convergence control uses the sine-free envelope
    x^-k * exp(lgamma(1 + a k - b))/pi; the reflection sine zeros would
    otherwise fake convergence or divergence onset. Returns
    (sum, error estimate); the caller decides acceptance.
    """
    x = -z
    lx = math.log(x)
    s = 0.0
    prev_env = math.inf
    env = math.inf
    for k in range(1, 400):
        y = b - a * k
        if y >= 0.5:
            lenv = -math.lgamma(y) - k * lx
            sign = 1.0
            lterm = lenv
        else:
            lenv = math.lgamma(1.0 - y) - _LN_PI - k * lx
            sp = _sinpi(y)
            sign = math.copysign(1.0, sp)
            lterm = -math.inf if sp == 0.0 else lenv + math.log(abs(sp))
        if lenv > 690.0:
            return None
        env = math.exp(lenv)
        if env > prev_env:  # divergence onset: error ~ first omitted term
            break
        mag = 0.0 if lterm == -math.inf else math.exp(lterm)
        s += -sign * mag if k % 2 == 0 else sign * mag
        prev_env = env
        if abs(s) > 0.0 and env <= 1e-13 * abs(s):
            break
    return s, (env + _saddle_size(a, b, x)) / max(abs(s), 1e-300)


_TIGHT = np.array((1e-9, 3e-12))  # indexed by |z| <= 50


def _tight(z):
    """Error level a route's estimate must clear at z, elementwise:
    3e-12 for |z| <= 50, 1e-9 beyond. A lookup, not np.where, so that a
    scalar z costs next to nothing."""
    return _TIGHT[(abs(z) <= 50.0) * 1]


_BLOCK = 256  # z values per contour pass: a (256 x 98) complex array, 0.4 MB


def _ml_contour(a: float, b: float, z):
    """E_{a,b} at an array of z < 0 for 0 < a < 2 from the Bromwich
    integral of s^(a-b)/(s^a - z) at t = 1 on the coarse and the fine
    parabola. The node powers s^-b and s^-a are formed once for the
    whole array, which is then summed in blocks of _BLOCK values.

    Returns arrays of fine values and error estimates: the relative
    drift between the two rules plus 4 eps times the sum of the fine
    rule's node terms. For a > 1 the poles s^a = z lie at
    s* = |z|^(1/a) e^(+-i pi/a); a pair right of a parabola is outside
    its integral and adds its residue, and the estimate adds the error a
    pole near the contour leaves in the trapezoid sum.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    coarse, fine, err = np.empty((3, z.size))
    with np.errstate(all="ignore"):
        x = np.exp(np.multiply.outer((-b, -a), _NODE_LOG))
        numer = _WEIGHTS * x[0]
        for i in range(0, z.size, _BLOCK):
            g = numer / (1.0 - z[i:i + _BLOCK, None] * x[1])
            coarse[i:i + _BLOCK], fine[i:i + _BLOCK] = np.add.reduceat(
                g.real, (0, _SPLIT), axis=1).T
            err[i:i + _BLOCK] = 4.0 * _EPS * np.abs(g[:, _SPLIT:]).sum(axis=1)
        if a > 1.0:
            pole = np.exp(np.log(-z) / a) * cmath.exp(1j * math.pi / a)
            res = 2.0 / a * np.exp((1.0 - b) * np.log(pole) + pole)
            (mu_coarse, _, _, _), (mu_fine, h_fine, _, _) = _COARSE, _FINE
            # the pole's image u* on a parabola: Re sqrt(s*/mu) > 1 puts it
            # right of the contour, and |Re sqrt(s*/mu) - 1| = |Im u*|
            w_coarse = np.sqrt(pole / mu_coarse).real
            w_fine = np.sqrt(pole / mu_fine).real
            coarse += np.where(w_coarse > 1.0, res.real, 0.0)
            fine += np.where(w_fine > 1.0, res.real, 0.0)
            # a pole at distance d from the real u axis costs the trapezoid
            # sum about |res| q/(1 - q), q = exp(-2 pi d / h); the residue's
            # exponent carries a rounding error of about |s*| eps
            q = np.exp(-2.0 * math.pi * np.abs(w_fine - 1.0) / h_fine)
            # a residue out of double range leaves an infinite or NaN
            # estimate, which certifies nothing
            err += np.abs(res) * (4.0 * _EPS * np.abs(pole)
                                  + np.where(q < 1.0, q / (1.0 - q), math.inf))
        return fine, np.where(fine == 0.0, math.inf, (np.abs(fine - coarse) + err) / np.abs(fine))


def _series_mpf(a: float, b: float, z: float) -> float:
    """Extended-precision power series.

    A private MPContext keeps the routine thread-safe. The gamma
    argument a*k + b must be formed in working precision: pre-rounded
    double arguments leave per-term errors of order psi(x)*x*eps that
    the massive cancellation then amplifies. mpmath is imported here, on
    first use, so that the other routes and importing frheo do not pay
    for it.
    """
    from mpmath.ctx_mp import MPContext

    pred = _series_predict(a, b, z)
    if pred is None:
        raise ConvergenceError(f"extended-precision series out of reach for E_({a},{b})({z})")
    # the positive-axis series has no cancellation: 30 digits always suffice
    dps = 30 if z > 0.0 else max(30, int(pred[1] / math.log(10.0)) + 25)
    if abs(z) < 1.0:
        # terms fall like |z|**k / Gamma(a*k + b) against a sum of up to
        # 1/(1 - |z|): at tiny a next to |z| = 1 only the geometric factor
        # works, and it needs about -dps*ln(10)/ln|z| terms
        x = a * _MPF_TERMS + b
        fall = -_MPF_TERMS * math.log(abs(z)) + (math.lgamma(x) if x > 2.0 else 0.0)
        if fall < dps * math.log(10.0) + math.log1p(-abs(z)):
            raise ConvergenceError(
                f"extended-precision series for E_({a},{b})({z}) needs over "
                f"{_MPF_TERMS} terms")
    for _ in range(10):
        ctx = MPContext()
        ctx.dps = dps
        am = ctx.mpf(a)
        bm = ctx.mpf(b)
        zm = ctx.mpf(z)
        s = ctx.mpf(0)
        tmax = ctx.mpf(0)
        zk = ctx.mpf(1)
        small = 0
        k = 0
        while k < _MPF_TERMS:
            term = zk * ctx.rgamma(am * k + bm)
            s += term
            mag = abs(term)
            if mag > tmax:
                tmax = mag
            if mag < abs(s) * ctx.eps:
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
            zk *= zm
            k += 1
        else:  # the tail is still significant: the sum would be truncated
            raise ConvergenceError(
                f"extended-precision series for E_({a},{b})({z}) needs over {k} terms")
        if abs(s) == 0:
            return 0.0
        need = int(ctx.mag(tmax / abs(s)) * 0.30103) + 20
        if dps >= need:
            return float(s)
        dps = max(need + 10, dps * 2)  # prediction was short; grow geometrically
    raise ConvergenceError(f"extended-precision series failed for E_({a},{b})({z})")


def _ml_route(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) from the first route that certifies it; see ml_eval."""
    if z == 0.0:
        return _rgamma(b)
    if a == 1.0 and b == 1.0:
        return math.exp(z)  # exact route; raises OverflowError natively
    if z > 1.0:
        # past z = 1 the growth z**((1-b)/a) exp(z**(1/a))/a dominates
        lu = math.log(z) / a
        if lu > 700.0 or math.exp(lu) + (1.0 - b) * lu - math.log(a) > 709.0:
            raise OverflowError(f"E_({a},{b})({z}) exceeds double range")
    tight = float(_tight(z))
    contour = z < 0.0 and a < 2.0
    for route in (_taylor, _alg_asym) if contour else (_taylor,):
        r = route(a, b, z)
        if r is not None and r[1] <= tight:
            return r[0]
    if contour:
        (v,), (e,) = _ml_contour(a, b, [z])
        if e <= tight:
            return float(v)
    return _series_mpf(a, b, z)


def ml_eval(p: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Relative error <= 1e-10 for |z| <= 50 and <= 1e-6 elsewhere. Routes,
    in order: the power series; for z < 0 and alpha < 2 the algebraic
    asymptotic series, then the contour integral (each accepted only when
    its error estimate clears the tight level); last the
    extended-precision series. Raises
    OverflowError when the value leaves double range, as the
    exp(z**(1/alpha)) growth on the positive axis does.
    """
    if not math.isfinite(z):
        raise DomainError(f"ml argument must be finite, got {z}")
    a, b = p.alpha, p.beta
    v = _ml_route(a, b, z)
    if not math.isfinite(v):
        raise OverflowError(f"E_({a},{b})({z}) exceeds double range")
    return v


def _ml_grid(alpha: float, beta: float, args) -> np.ndarray:
    """E_{alpha,beta} at every z of a 1-D grid, each value within
    ml_eval's contract.

    For alpha < 2 the finite z < 0 go through one contour pass, and a
    point is kept when its value is finite and its estimate clears the
    tight level. Every other point, and every one the pass refuses, goes
    through ml_eval unchanged, errors included; so does the whole grid
    for (1, 1), which keeps its exact exp.
    """
    p = MLParams(alpha, beta)
    z = np.array(args, dtype=float)
    out = np.empty(z.shape)
    done = np.zeros(z.shape, dtype=bool)
    if alpha < 2.0 and (alpha, beta) != (1.0, 1.0):
        idx = np.flatnonzero((z < 0.0) & np.isfinite(z))
        value, est = _ml_contour(alpha, beta, z[idx])
        keep = np.isfinite(value) & (est <= _tight(z[idx]))
        out[idx[keep]] = value[keep]
        done[idx[keep]] = True
    for i in np.flatnonzero(~done):
        out[i] = ml_eval(p, float(z[i]))
    return out


def rabotnov_kernel(p: RabotnovParams, x: float) -> float:
    """Fractional-exponential kernel of order alpha at rate beta.

    Equals x**alpha * E_{alpha+1, alpha+1}(beta * x**(alpha+1)); the
    alpha = 0 endpoint collapses to exp(beta*x).
    """
    _positive(x, "kernel argument")
    if p.alpha == 0.0:
        return math.exp(p.beta * x)
    ap1 = p.alpha + 1.0
    return x**p.alpha * ml_eval(MLParams(ap1, ap1), p.beta * x**ap1)
