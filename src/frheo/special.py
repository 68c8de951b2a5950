"""Gamma, the two-parameter Mittag-Leffler function, and the
fractional-exponential relaxation kernel.

Everything here is real-in/real-out and pure. Every Mittag-Leffler
value, at one argument or on a grid, takes one route order: first the
power series summed by Horner's rule over the band |z|**(1/alpha) <= 4
of the grid, with the terms its edge needs (at most 90), then for
alpha < 2 and the rest with |z| >= 1e-8 a vectorised double-precision
Bromwich integral on frheo.laplace's parabola node table, where z has a
pole that integral again with the pole subtracted, then per point the
same power series at the point's own |z| (at most 500 terms), on the
negative axis for alpha < 2 the algebraic asymptotic series, and last
an extended-precision series in mpmath. Both power series take any
alpha and beta whose terms fit in doubles; their bound counts the
rounding of each gamma argument next to a pole of Gamma when beta < 0.
A route is accepted only when its internally estimated relative error
clears the accuracy target: 1e-10 for |z| <= 50, 1e-6 beyond, with an
order of magnitude of headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, _positive
from .laplace import _COARSE, _FINE, _NODE_LOG, _NODES, _SPLIT, _WEIGHTS, _rule_sums

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
    arg_err = 0.0
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
        arg_err += env * (abs(a * k) + abs(y))
        prev_env = env
        if abs(s) > 0.0 and env <= 1e-13 * abs(s):
            break
    # a rounded y moves the sine factor by up to pi eps (|a k| + |y|),
    # which is not small against the factor next to its zeros (a ~ 1)
    err = env + _saddle_size(a, b, x) + math.pi * _EPS * arg_err
    return s, err / max(abs(s), 1e-300)


_TIGHT = np.array((1e-9, 3e-12))  # indexed by |z| <= 50


def _tight(z):
    """Error level a route's estimate must clear at z, elementwise:
    3e-12 for |z| <= 50, 1e-9 beyond. A lookup, not np.where, so that a
    scalar z costs next to nothing."""
    return _TIGHT[(abs(z) <= 50.0) * 1]


def _ml_contour(a: float, b: float, z, subtract: bool = False):
    """E_{a,b} at an array of z != 0 for 0 < a < 2 from the Bromwich
    integral of s^(a-b)/(s^a - z) at t = 1 on the coarse and the fine
    parabola. The node powers s^-b and s^-a are formed once for the
    whole array, whose node terms laplace._rule_sums then sums in blocks.

    Returns arrays of fine values and error estimates: the relative
    drift between the two rules plus 4 eps times the sum of the fine
    rule's node terms. The poles s^a = z on the principal sheet are the
    real s* = z^(1/a) for z > 0 and, for z < 0 and a > 1, the pair
    s* = |z|^(1/a) e^(+-i pi/a); a pole right of a parabola is outside
    its integral and adds its residue, and the estimate adds the error a
    pole near the contour leaves in the trapezoid sum.

    With subtract, the principal part c/(s - s*) of each pole, c =
    s*^(1-b)/a its residue, is taken out of the integrand and its exact
    transform c e^(s*) added back on whichever side of the parabolas the
    pole lies: a pole next to the contour then costs the trapezoid sums
    nothing, and the rounding term also counts the subtracted terms and
    the conditioning of 1 - z s^-a next to the pole. Far from the
    contour the subtracted terms only add rounding, so this is the
    second try for the points with a pole that the plain sums refuse.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    with np.errstate(all="ignore"):
        live = np.flatnonzero((z > 0.0) | (a > 1.0))
        # residues c and poles s* to subtract, the conjugates of a pair in
        # the second row; a zero residue subtracts nothing
        c, at = np.zeros((2, 2, z.size if subtract else 0), complex)
        if live.size:
            pair = z[live] < 0.0
            lu = np.log(np.abs(z[live])) / a  # log |s*|
            pole = np.exp(lu) * np.exp(1j * math.pi / a * pair)
            # s*^(1-b) e^(s*) / a, doubled for a pair: its real part is the
            # sum of the two conjugate residues
            res = (1.0 + pair) / a * np.exp((1.0 - b) * np.log(pole) + pole)
            if subtract:
                c[0, live] = np.exp((1.0 - b) * np.log(pole)) / a
                c[1, live] = c[0, live].conj() * pair
                at[0, live], at[1, live] = pole, pole.conj()
        x = np.exp(np.multiply.outer((-b, -a), _NODE_LOG))
        numer = _WEIGHTS * x[0]

        def terms(rows, g, size):
            np.multiply(z[rows, None], x[1], out=g)
            np.subtract(1.0, g, out=g)
            np.divide(numer, g, out=g)  # numer / (1 - z s^-a)
            np.abs(g[:, _SPLIT:], out=size)
            if subtract:
                part = _WEIGHTS * sum(ck[rows, None] / (_NODES - sk[rows, None])
                                      for ck, sk in zip(c, at))
                g -= part
                zx = z[rows, None] * x[1, _SPLIT:]
                size *= 1.0 + np.abs(zx / (1.0 - zx))
                size += np.abs(part[:, _SPLIT:])

        coarse, fine, err = _rule_sums(terms, z.size)
        if live.size:
            # s* = exp(log|z| / a) carries a relative rounding error of up to
            # about (4 + 2 |log s*|) eps, which moves the residue by |s*|
            # times as much through e^(s*); where the residue is added, it
            # also moves it by |1 - b| times as much through s*^(1-b), and
            # the residue's own log and exp add a few eps more
            rounding = _EPS * np.abs(pole) * (4.0 + 2.0 * np.abs(lu))
            added = _EPS * (abs(1.0 - b) + 1.0) * (4.0 + 2.0 * np.abs(lu))
            if subtract:
                coarse[live] += res.real
                fine[live] += res.real
                err[live] += np.abs(res) * (rounding + added)
            else:
                (mu_coarse, _, _, _), (mu_fine, h_fine, _, _) = _COARSE, _FINE
                # the pole's image u* on a parabola: Re sqrt(s*/mu) > 1 puts
                # it right of the contour, and |Re sqrt(s*/mu) - 1| = |Im u*|
                w_coarse = np.sqrt(pole / mu_coarse).real
                w_fine = np.sqrt(pole / mu_fine).real
                coarse[live] += np.where(w_coarse > 1.0, res.real, 0.0)
                fine[live] += np.where(w_fine > 1.0, res.real, 0.0)
                # a pole at distance d from the real u axis costs the
                # trapezoid sum about |res| q/(1 - q), q = exp(-2 pi d / h);
                # a residue out of double range leaves an infinite or NaN
                # estimate, which certifies nothing
                q = np.exp(-2.0 * math.pi * np.abs(w_fine - 1.0) / h_fine)
                err[live] += np.abs(res) * (rounding + np.where(w_fine > 1.0, added, 0.0)
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
            tmax = max(tmax, mag)
            small = small + 1 if mag < abs(s) * ctx.eps else 0
            if small >= 2:
                break
            zk *= zm
            k += 1
        else:  # the tail is still significant: the sum would be truncated
            raise ConvergenceError(
                f"extended-precision series for E_({a},{b})({z}) needs over {k} terms")
        need = int(ctx.mag(tmax / abs(s)) * 0.30103) + 20
        if dps >= need:
            return float(s)
        dps = max(need + 10, dps * 2)  # prediction was short; grow geometrically
    raise ConvergenceError(f"extended-precision series failed for E_({a},{b})({z})")


def _ml_point(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) where the grid's routes do not run or certify: the
    power series at the point's own |z| with up to _POINT_TERMS terms,
    then for z < 0 and a < 2 the algebraic asymptotic series, each if it
    clears the tight level; last mpmath's series."""
    if not math.isfinite(z):
        raise DomainError(f"ml argument must be finite, got {z}")
    if z == 0.0:
        v = _rgamma(b)
    elif a == 1.0 and b == 1.0:
        v = math.exp(z)  # exact route; raises OverflowError natively
    else:
        if z > 1.0 or z < -1.0 and a > 2.0:
            # the dominant poles grow like m/a |z|**((1-b)/a) exp(|z|**(1/a) c):
            # past z = 1 the pole s = z**(1/a) (c = 1, m = 1); for z < -1 and
            # a > 2 the pair s = |z|**(1/a) exp(+-i pi/a) right of the imaginary
            # axis, with residues 2/a Re(s**(1-b) exp(s)) (c = cos(pi/a), m = 2)
            c, m = (1.0, 1.0) if z > 0.0 else (math.cos(math.pi / a), 2.0)
            lu = math.log(abs(z)) / a  # at most 355 for z < -1
            if lu > 700.0 or math.exp(lu) * c + (1.0 - b) * lu - math.log(a / m) > 709.0:
                raise OverflowError(f"E_({a},{b})({z}) exceeds double range")
        pairs = _series_pairs(a, b, abs(z), _POINT_TERMS)
        v, bound = (math.nan, math.nan) if pairs is None else _ml_series(pairs, np.array([z]))[:, 0]
        # a finite sum met no overflow on its way, so its bound holds
        if not (math.isfinite(v) and bound <= _tight(z) * abs(v)):
            r = _alg_asym(a, b, z) if z < 0.0 and a < 2.0 else None
            v = r[0] if r is not None and r[1] <= _tight(z) else _series_mpf(a, b, z)
    if not math.isfinite(v):
        raise OverflowError(f"E_({a},{b})({z}) exceeds double range")
    return v


# The power series serves the band |z|**(1/alpha) <= _BAND_U of a grid,
# where its terms peak at a gamma argument of about _BAND_U and barely
# cancel, with at most as many terms as the contour has nodes; per point
# it runs at the point's own |z| with up to _POINT_TERMS. Its gamma
# arguments stay below _GAMMA_ARG_MAX, where 1/Gamma is still a normal
# double whose error its weights bound.
# _ml_series sums up to _SERIES_PY points in Python floats.
_BAND_U = 4.0
_POINT_TERMS = 500
_GAMMA_ARG_MAX = 171.0
_SERIES_PY = 20


def _series_pairs(a: float, b: float, edge: float, cap: int):
    """Horner's coefficient pairs, highest degree first, of the power
    series of E_{a,b} on |z| <= edge, or None where it is skipped.

    Pair k < K is c_k = 1/Gamma(a k + b) and the weight (g + e_k) |c_k|
    of the error bound: g = gamma_2K bounds the rounding of Horner's rule
    (Higham, Accuracy and Stability, 5.1) and e_k = eps (4 + 1.5 y
    log(y + 2)), y = a k + |b|, the coefficient's own error with the
    rounding of its gamma argument. For b < 0 that argument x = a k + b
    is formed with cancellation and may lie next to a pole of Gamma,
    where no relative error bounds it: a coefficient with k > 0 and
    x < 0.5 adds eps (a k + |x|) Gamma(1 - x), the most a rounded x moves
    1/Gamma(x) = sin(pi x) Gamma(1 - x) / pi, the rule _alg_asym applies
    to its reflection arguments. Pair K is 0 and 2 |c_K|.

    K is the first count at which the edge's first omitted term is below
    eps times the sum of the terms before it, the next term is at most
    half of it, and its gamma argument a K + b is positive: Gamma is
    log-convex there, so the term ratios fall with k and twice the first
    omitted term bounds the tail anywhere on |z| <= edge. K depends on
    (a, b, edge) alone, so at a fixed edge a point gets the same bits in
    any grid. K is at most cap: the series is skipped when a cap + b is
    not positive or the ratio at cap is above 1/2, and K = cap should the
    sum condition still be unmet there. It is also skipped when a gamma
    argument would pass _GAMMA_ARG_MAX, and when b is so far below 0 that
    _rgamma saturates there, as an infinite coefficient would leave the
    sums NaN at z = 0.
    """
    # the term ratio falls with k, so one above 1/2 at the cap rules the
    # series out before any coefficient is formed
    if b < 0.0 and math.lgamma(1.0 - b) > 700.0 or a * cap + b <= 0.0 or edge * math.exp(
            math.lgamma(a * cap + b) - math.lgamma(a * (cap + 1) + b)) > 0.5:
        return None
    # c_k and the edge terms' sum below k, and edge**k
    c, total, power = [_rgamma(b)], 0.0, 1.0
    for k in range(cap + 1):
        x = a * (k + 1) + b
        if x > _GAMMA_ARG_MAX:
            return None
        # math.gamma overflows next to 0 and has poles below it
        c.append(1.0 / math.gamma(x) if x >= _EPS else _rgamma(x))
        term = abs(c[k]) * power
        if term <= _EPS * total and edge * abs(c[k + 1]) <= 0.5 * abs(c[k]) and a * k + b > 0.0:
            break
        total += term
        power *= edge
    pairs = np.empty((k + 1, 2))
    pairs[:, 0] = c[k::-1]
    np.abs(pairs[:, 0], out=pairs[:, 1])
    pairs[0] = 0.0, 2.0 * pairs[0, 1]
    j = np.arange(k - 1, -1, -1)
    e = [_EPS * (4.0 + 1.5 * y * math.log(y + 2.0)) for y in (a * j + abs(b)).tolist()]
    pairs[1:, 1] *= k * _EPS / (1.0 - k * _EPS) + np.array(e)  # gamma_2K with unit roundoff eps / 2
    if b < 0.0:
        x = a * j + b  # as the loop forms it
        near = np.flatnonzero((x < 0.5) & (j > 0))
        pairs[1 + near, 1] += _EPS * (a * j[near] + np.abs(x[near])) * np.exp(
            [math.lgamma(1.0 - y) for y in x[near].tolist()])
    return pairs


def _ml_series(pairs, z) -> np.ndarray:
    """The band series' values and error bounds at a 1-D array z, as the
    rows of a (2, len(z)) array. One Horner recurrence carries both, the
    bound's row on |z|: in numpy over the array, or point by point in
    Python floats for up to _SERIES_PY points, where the 2K + 2 numpy
    calls cost more than the sums (a Python step takes about a twentieth
    of a numpy call's time). Both take the same operations in the same
    order, so they give the same bits."""
    if z.size > _SERIES_PY:
        zz = np.stack((z, np.abs(z)))
        v = np.zeros_like(zz)
        for cw in pairs[:, :, None]:
            v *= zz
            v += cw
        return v
    v = np.empty((2, z.size))
    pairs = pairs.tolist()
    for i, x in enumerate(z.tolist()):
        s = m = 0.0
        ax = abs(x)
        for c, w in pairs:
            s = s * x + c
            m = m * ax + w
        v[:, i] = s, m
    return v


# Below this |z| the power series converges in three terms, while the
# contour's relative rounding of about 4e-16 may exceed the distance
# |z| / Gamma(alpha + beta) of the value from E(0) = 1/Gamma(beta): it
# returned E_{0.5,1}(-1e-80) = 1.0000000000000004. From 1e-8 on that
# distance is far above the contour's tight level. The band's series
# serves such z where it runs; where it is skipped (alpha below about
# 0.34) or refuses them, this bound still keeps them off the contour, and
# the point series takes them.
_TINY_Z = 1e-8


def _ml_grid(alpha: float, beta: float, args) -> np.ndarray:
    """E_{alpha,beta} at every z of a 1-D grid, within ml_eval's contract.

    Unless (alpha, beta) = (1, 1), which keeps its exact exp, the finite
    z of the band |z|**(1/alpha) <= 4 go through one vectorised power
    series (_series_pairs at the band's edge, at most 90 terms), and for
    alpha < 2 every other finite z with |z| >= _TINY_Z through one
    contour pass. Each keeps a value whose error bound clears the tight
    level and which lies below 1e307, short of _ml_point's overflow
    guard; the points the series refuses join the contour pass, and the
    points it refuses with a pole get a second pass with the poles
    subtracted, under the same rule. _ml_point takes the rest in grid
    order.
    """
    MLParams(alpha, beta)
    z = np.array(args, dtype=float)
    out = np.full(z.shape, math.nan)
    if (alpha, beta) != (1.0, 1.0):
        mag = np.abs(z)
        # past alpha = 171 no two gamma arguments of the series fit below
        # 171, so it has no pairs; the edge only has to stay finite
        edge = _BAND_U**min(alpha, _GAMMA_ARG_MAX)
        band = np.flatnonzero(mag <= edge)
        pairs = _series_pairs(alpha, beta, edge, _NODES.size) if band.size else None
        idx = np.flatnonzero(np.isfinite(z) & (mag >= _TINY_Z))
        if pairs is not None:
            value, bound = _ml_series(pairs, z[band])
            size = np.abs(value)
            # the tight level of |z| <= 50, where the band lies for alpha < 2
            # (4**alpha < 16); past that the stricter one
            keep = (size < 1e307) & (bound <= _TIGHT[1] * size)
            out[band[keep]] = value[keep]
            idx = idx[np.isnan(out[idx])]
        for subtract in (False, True) if alpha < 2.0 else ():
            if not idx.size:
                break
            value, est = _ml_contour(alpha, beta, z[idx], subtract)
            keep = (np.abs(value) < 1e307) & (est <= _tight(z[idx]))
            out[idx[keep]] = value[keep]
            # the second try takes the refused points that have a pole
            idx = idx[~keep & ((z[idx] > 0.0) | (alpha > 1.0))]
    for i in np.flatnonzero(np.isnan(out)):
        out[i] = _ml_point(alpha, beta, float(z[i]))
    return out


def ml_eval(p: MLParams, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) for real z.

    Relative error <= 1e-10 for |z| <= 50 and <= 1e-6 elsewhere. A
    one-point grid, so equal bit for bit to any grid's value at z; its
    routes, in order: the power series at the band's edge where
    |z|**(1/alpha) <= 4, then for alpha < 2 and |z| >= 1e-8 the contour
    integral, where z has a pole that integral again with the pole
    subtracted, the power series at |z| itself, for z < 0 and alpha < 2
    the algebraic asymptotic series, and the extended-precision series.
    Raises DomainError for a non-finite z and OverflowError when the
    value leaves double range, as the exp(z**(1/alpha)) growth on the
    positive axis does.
    """
    return float(_ml_grid(p.alpha, p.beta, [z])[0])


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
