"""Reference solutions that do not go through the frheo route they check.

Everything here is written independently of frheo's own code paths:
the Mittag-Leffler reference is an extended-precision power series or
the collapsed Hankel-contour integral evaluated with mpmath; transfer
functions are rebuilt from each model's operator equation and inverted
on a parabolic contour, not frheo's cotangent one; closed forms use the
standard library's gamma function.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_MP = mpmath.MPContext()


def _ml_series(a, b, z, digits: int) -> mpmath.mpf:
    """Power series sum z^k / Gamma(a k + b) at `digits` working digits,
    retried with more digits until cancellation leaves 20 correct ones."""
    ctx = _MP
    while True:
        with ctx.workdps(digits):
            am, bm, zm = ctx.mpf(a), ctx.mpf(b), ctx.mpf(z)
            s, tmax, zk, k, small = ctx.mpf(0), ctx.mpf(0), ctx.mpf(1), 0, 0
            while small < 3:
                term = zk * ctx.rgamma(am * k + bm)
                s += term
                tmax = max(tmax, abs(term))
                small = small + 1 if abs(term) <= ctx.eps * abs(s) else 0
                zk *= zm
                k += 1
            lost = 0 if s == 0 else int(ctx.log10(tmax / abs(s))) + 1
            if digits - lost >= 20:
                return +s
            digits = lost + 30


def _ml_integral(a, b, x) -> mpmath.mpf:
    """E_{a,b}(-x) for x > 0 from the Hankel integral collapsed onto the
    negative real axis, plus the residues of the two poles that sit on
    the principal sheet when 1 < a < 2. Needs b < 1 + a; the substitution
    r = u**m with m = 1/(1 + a - b) removes the singularity at r = 0."""
    ctx = _MP
    with ctx.workdps(30):
        am, bm, xm = ctx.mpf(a), ctx.mpf(b), ctx.mpf(x)
        sb, sba, ca = ctx.sinpi(bm), ctx.sinpi(bm - am), ctx.cospi(am)
        m = 1 / (1 + am - bm)

        def f(u):
            r = u**m
            ra = r**am
            # r**(a - b) * dr/du = m * u**(m * (a - b) + m - 1) = m
            return (m * ctx.exp(-r) * (ra * sb + xm * sba)
                    / (ra * ra + 2 * xm * ra * ca + xm * xm))

        peak = (xm * abs(ca))**(1 / am)
        cuts = sorted({ctx.mpf(1), ctx.mpf(8), ctx.mpf(40), ctx.mpf(120),
                       *(p for p in (peak * 0.5, peak, peak * 2) if 0 < p < 120)})
        val = ctx.quad(f, [ctx.mpf(0)] + [c**(1 / m) for c in cuts] + [ctx.inf]) / ctx.pi
        if a > 1:
            pole = xm**(1 / am) * ctx.expjpi(1 / am)
            val += 2 / am * ctx.re(pole**(1 - bm) * ctx.exp(pole))
        return val


def ml_reference(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) for real z, 0 < a < 2, to far better than 1e-12."""
    ctx = _MP
    if z == 0.0:
        return float(ctx.rgamma(b))
    x = abs(z)
    reach = x**(1.0 / a)  # terms of the power series peak near k = reach / a
    if z > 0.0 or reach <= 60.0 or a == 1.0:
        return float(_ml_series(a, b, z, 30 + int(reach / math.log(10.0))))
    # lower b with E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z until the
    # collapsed integral converges at the origin
    shifts = []
    while b >= 1.0 + a:
        b -= a
        shifts.append(b)
    with ctx.workdps(30):
        val = _ml_integral(a, b, x)
        for bk in reversed(shifts):
            val = (val - ctx.rgamma(bk)) / ctx.mpf(z)
        return float(val)


# Each model's rate equation  sigma + sum c D^nu sigma = sum c D^nu strain,
# as (stress-side terms, strain-side terms) of (coefficient, order).
def operator_terms(m):
    name = type(m).__name__
    if name == "SpringPot":
        return [], [(m.kappa, m.alpha)]
    if name == "FracMaxwell":
        return [(m.lam**m.alpha, m.alpha)], [(m.E * m.lam**m.beta, m.beta)]
    if name == "ThreeParamMaxwell":
        return [(m.a1, m.alpha)], [(m.b0, 0.0)]
    if name == "FracKelvinVoigt":
        return [], [(m.b0, 0.0), (m.b1, m.alpha)]
    if name == "FracZener":
        return [(m.a1, m.alpha)], [(m.b0, 0.0), (m.b1, m.alpha)]
    if name == "PoyntingThomson":
        r = m.E / m.E0
        return ([(r * m.lam**(m.alpha - m.gamma), m.alpha - m.gamma),
                 (r * m.lam**(m.beta - m.gamma), m.beta - m.gamma)],
                [(m.E * m.lam**m.alpha, m.alpha), (m.E * m.lam**m.beta, m.beta)])
    if name == "ClassicalMaxwell":
        return [(m.tau, 1.0)], [(m.E * m.tau, 1.0)]
    if name == "ClassicalKelvin":
        return [], [(m.E, 0.0), (m.E * m.tau, 1.0)]
    raise ValueError(name)


def transfer(m, s):
    """Stress over strain transform from the operator equation; works on
    Python and numpy complex numbers and on mpmath numbers alike."""
    lhs, rhs = operator_terms(m)
    return (sum(c * s**nu for c, nu in rhs)
            / (1 + sum(c * s**nu for c, nu in lhs)))


# Trapezoid nodes on the parabola s = mu (1 + iu)^2 (Weideman & Trefethen,
# Math. Comp. 76, 2007): step 3/N and mu = pi N / (12 t) converge like
# exp(-2 pi N / 3) while roundoff grows like exp(pi N / 12). Against
# 20-digit mpmath Talbot inversion at 900 random points of the models
# and functions this is used for, N = 20 agreed to 1.2e-12 relative.
_PARABOLA_N = 20
_PARABOLA_U = 3.0 / _PARABOLA_N * np.arange(-_PARABOLA_N, _PARABOLA_N + 1)


def invert_reference(m, kind: str, t) -> np.ndarray:
    """Relaxation modulus or creep compliance at the times `t` by the
    Bromwich integral on a parabolic contour, all times at once. Valid
    where the transform is analytic off the negative real axis, as for
    every catalog model with fractional orders in (0, 1)."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    mu = np.pi * _PARABOLA_N / (12.0 * t)
    s = mu * (1.0 + 1j * _PARABOLA_U)**2
    ds = 2j * mu * (1.0 + 1j * _PARABOLA_U)
    h = transfer(m, s)
    f = h / s if kind == "relaxation" else 1.0 / (s * h)
    total = np.sum(np.exp(s * t) * f * ds, axis=1)
    return (3.0 / _PARABOLA_N) / (2.0 * np.pi) * total.imag


def closed_form(m, kind: str, t: np.ndarray):
    """Elementary closed forms (no Mittag-Leffler function), or None."""
    name = type(m).__name__
    g = math.gamma
    if kind == "relaxation":
        if name == "SpringPot":
            return m.kappa * t**-m.alpha / g(1.0 - m.alpha)
        if name == "FracKelvinVoigt":
            return m.b0 + m.b1 * t**-m.alpha / g(1.0 - m.alpha)
        if name == "ClassicalMaxwell":
            return m.E * np.exp(-t / m.tau)
        if name == "ClassicalKelvin":
            return np.full(t.shape, m.E)
    if kind == "creep":
        if name == "SpringPot":
            return t**m.alpha / (m.kappa * g(1.0 + m.alpha))
        if name == "FracMaxwell":
            return (t**m.beta / g(1.0 + m.beta) + m.lam**m.alpha
                    * t**(m.beta - m.alpha) / g(1.0 + m.beta - m.alpha)) / (m.E * m.lam**m.beta)
        if name == "ThreeParamMaxwell":
            return (1.0 + m.a1 * t**-m.alpha / g(1.0 - m.alpha)) / m.b0
        if name == "ClassicalMaxwell":
            return (1.0 + t / m.tau) / m.E
        if name == "ClassicalKelvin":
            return -np.expm1(-t / m.tau) / m.E
    return None
