"""Gamma, the two-parameter Mittag-Leffler function, and the
fractional-exponential relaxation kernel.

Everything here is real-in/real-out and pure. The Mittag-Leffler
evaluator switches between four routes (power series, algebraic
asymptotics on the negative axis, the dominant-exponential form on the
positive axis, and an extended-precision series fallback) and accepts a
route only when its internally estimated relative error clears the
accuracy target: 1e-10 for |z| <= 50, 1e-6 beyond, with an order of
magnitude of headroom where affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath.ctx_mp import MPContext

from .errors import ConvergenceError, DomainError, PoleError

_EPS = 2.220446049250313e-16
_LN_PI = math.log(math.pi)
_SQRT_TWO_PI = 2.5066282746310002

# Lanczos rational approximation, g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# gamma overflows double just past this argument
_GAMMA_OVERFLOW_X = 171.624376956302725


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


def _gamma_positive(x: float) -> float:
    """Lanczos evaluation for x >= 0.5."""
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    # split the power so the intermediate stays representable near the
    # overflow edge
    p = math.pow(t, 0.5 * (z + 0.5))
    return _SQRT_TWO_PI * p * math.exp(-t) * p * acc


def gamma(x: float) -> float:
    """Gamma function on the real line.

    Raises PoleError at 0, -1, -2, ... and OverflowError once the value
    exceeds double range (x above ~171.62).
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x}")
    if x > _GAMMA_OVERFLOW_X:
        raise OverflowError(f"gamma({x}) exceeds double range (+inf)")
    if x >= 0.5:
        return _gamma_positive(x)
    sp = _sinpi(x)
    if 1.0 - x > _GAMMA_OVERFLOW_X:
        # deep negative tail: log-space reflection, value underflows
        lg = math.lgamma(1.0 - x)
        mag = math.exp(_LN_PI - math.log(abs(sp)) - lg) if lg < 745.0 else 0.0
        return math.copysign(mag, sp)
    return math.pi / (sp * _gamma_positive(1.0 - x))


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
    """Estimate the term count and peak log-magnitude of the power series."""
    x = abs(z)
    if x <= 1e-300:
        return 8, 0.0
    lx = math.log(x)
    u = math.exp(lx / a)  # terms peak where a*k + b ~ u
    kpeak = max(0.0, (u - b) / a)
    peak = kpeak * lx - math.lgamma(max(a * kpeak + b, 1e-8)) if kpeak > 0 else 0.0
    count = int(1.5 * kpeak + 0.8 * u / a + 40)
    return count, max(0.0, peak)


def _taylor(a: float, b: float, z: float):
    """Compensated power series. Returns (sum, error estimate) or None
    when the series is out of reach for doubles."""
    count, peak = _series_predict(a, b, z)
    if count > 500 or peak > 690.0:
        return None
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


def _mpf_work(a: float, b: float, z: float) -> float:
    """Predicted cost (terms x digits) of the extended-precision fallback."""
    count, peak = _series_predict(a, b, z)
    digits = 30.0 if z > 0.0 else max(30.0, peak / math.log(10.0) + 25.0)
    return count * digits

def _series_mpf(a: float, b: float, z: float) -> float:
    """Extended-precision power series.

    A private MPContext keeps the routine thread-safe. The gamma
    argument a*k + b must be formed in working precision: pre-rounded
    double arguments leave per-term errors of order psi(x)*x*eps that
    the massive cancellation then amplifies.
    """
    _, peak = _series_predict(a, b, z)
    dps = 30 if z > 0.0 else max(30, int(peak / math.log(10.0)) + 25)
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
        while k < 200000:
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
        if abs(s) == 0:
            return 0.0
        need = int(ctx.mag(tmax / abs(s)) * 0.30103) + 20
        if dps >= need:
            return float(s)
        dps = max(need + 10, dps * 2)  # prediction was short; grow geometrically
    raise ConvergenceError(f"extended-precision series failed for E_({a},{b})({z})")


def ml_eval(p: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Relative error <= 1e-10 for |z| <= 50 and <= 1e-6 elsewhere.
    Raises OverflowError when the exp(z**(1/alpha)) growth on the
    positive axis leaves double range.
    """
    if not math.isfinite(z):
        raise DomainError(f"ml argument must be finite, got {z}")
    a, b = p.alpha, p.beta
    if z == 0.0:
        return _rgamma(b)
    if a == 1.0 and b == 1.0:
        return math.exp(z)  # exact route; raises OverflowError natively
    tight = 3e-12 if abs(z) <= 50.0 else 1e-9
    loose = 3e-11 if abs(z) <= 50.0 else 3e-7
    if z > 0.0:
        # dominant growth is exp(z**(1/a))/a; refuse what double cannot hold
        plog = math.exp(math.log(z) / a) + (1.0 - b) / a * math.log(z) - math.log(a)
        if plog > 709.0:
            raise OverflowError(f"E_({a},{b})({z}) exceeds double range")
        r = _taylor(a, b, z)
        if r is not None and r[1] <= tight:
            return r[0]
        # positive-axis series has no cancellation: 30 digits always suffice
        return _series_mpf(a, b, z)
    r = _taylor(a, b, z)
    if r is not None and r[1] <= tight:
        return r[0]
    ra = _alg_asym(a, b, z) if a < 2.0 else None
    if ra is not None and ra[1] <= tight:
        return ra[0]
    if _mpf_work(a, b, z) <= 2e6:
        return _series_mpf(a, b, z)
    if ra is not None and ra[1] <= loose:
        return ra[0]
    return _series_mpf(a, b, z)


def rabotnov_kernel(p: RabotnovParams, x: float) -> float:
    """Fractional-exponential kernel of order alpha at rate beta.

    Equals x**alpha * E_{alpha+1, alpha+1}(beta * x**(alpha+1)); the
    alpha = 0 endpoint collapses to exp(beta*x).
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise DomainError(f"kernel argument must be positive, got {x}")
    if p.alpha == 0.0:
        return math.exp(p.beta * x)
    ap1 = p.alpha + 1.0
    return x**p.alpha * ml_eval(MLParams(ap1, ap1), p.beta * x**ap1)
