"""Constitutive-model catalog for linear viscoelasticity.

Each model is one rate equation sigma + sum a D^alpha sigma = sum b
D^beta strain, and its dataclass holds that equation's terms plus any
closed-form relaxation or creep. The rest is derived from the terms:
the transfer function, inversion for responses without a closed form,
the complex modulus and a time-domain marching solver. The
hereditary-integral formulation with a fractional-exponential kernel
sits alongside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (BranchError, DomainError, GridError, QuadratureError, StabilityError,
                     _in_range, _positive)
from .fracops import (SignalSeries, _causal_convolve, _grid_break, _order, gl_derivative,
                      gl_weights)
from .laplace import _NODES, _bromwich
from .special import RabotnovParams, _ml_grid, _rgamma, gamma

_INVERT_TOL = 1e-8  # certification level for runtime transform inversion
_BLOCK = 128  # base block of the Toeplitz solve behind simulate_stress


def _non_negative(value, name: str) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be non-negative, got {value}")


class MaterialModel:
    """Base of the catalog. A model supplies `_operator_terms()`: the (lhs, rhs)
    lists of (coefficient, order) terms of its rate equation, the bare sigma
    implied. `_relaxation(t)` and `_creep(t)` are its closed forms, if any."""

    _relaxation = _creep = None


@dataclass(frozen=True)
class SpringPot(MaterialModel):
    """Power-law element sigma = kappa * D^alpha strain."""

    kappa: float
    alpha: float

    def __post_init__(self):
        _positive(self.kappa, "kappa")
        _order(self.alpha)

    def _operator_terms(self):
        return [], [(self.kappa, self.alpha)]

    def _relaxation(self, t):
        if self.alpha == 1.0:
            raise DomainError(
                "springpot with order 1 is a dashpot: step-strain stress is "
                "impulsive; use the classical viscous law instead")
        return self.kappa * _rgamma(1.0 - self.alpha) * t**(-self.alpha)

    def _creep(self, t):
        return t**self.alpha / (self.kappa * gamma(1.0 + self.alpha))


@dataclass(frozen=True)
class FracMaxwell(MaterialModel):
    """Fractional Maxwell: sigma + lam^alpha D^alpha sigma
    = E lam^beta D^beta strain, with 0 <= alpha <= beta <= 1."""

    E: float
    lam: float
    alpha: float
    beta: float

    def __post_init__(self):
        _positive(self.E, "E")
        _positive(self.lam, "lam")
        a, b = _order(self.alpha), _order(self.beta)
        if a > b:
            raise DomainError(f"need alpha <= beta, got alpha={a}, beta={b}")

    def _operator_terms(self):
        return ([(self.lam**self.alpha, self.alpha)],
                [(self.E * self.lam**self.beta, self.beta)])

    def _relaxation(self, t):
        if self.alpha == 0.0:
            # the derivative on the stress side degenerates to identity,
            # leaving a pure power-law element of half strength
            return (0.5 * self.E * self.lam**self.beta * _rgamma(1.0 - self.beta)
                    * t**(-self.beta))
        x = t / self.lam
        return self.E * x**(self.alpha - self.beta) * _ml_grid(
            self.alpha, self.alpha - self.beta + 1.0, -x**self.alpha)

    def _creep(self, t):
        a, b, lam = self.alpha, self.beta, self.lam
        return (t**b * _rgamma(1.0 + b) / lam**b
                + lam**(a - b) * t**(b - a) * _rgamma(1.0 + b - a)) / self.E


@dataclass(frozen=True)
class ThreeParamMaxwell(MaterialModel):
    """sigma + a1 D^alpha sigma = b0 strain."""

    a1: float
    b0: float
    alpha: float

    def __post_init__(self):
        _positive(self.a1, "a1")
        _positive(self.b0, "b0")
        _order(self.alpha)

    def _operator_terms(self):
        return [(self.a1, self.alpha)], [(self.b0, 0.0)]

    def _relaxation(self, t):
        if self.alpha == 0.0:
            return np.full(t.shape, self.b0 / (1.0 + self.a1))
        return self.b0 * (1.0 - _ml_grid(self.alpha, 1.0, -t**self.alpha / self.a1))

    def _creep(self, t):
        # 1/Gamma(1 - alpha) vanishes at alpha = 1, leaving 1/b0
        return (1.0 + self.a1 * t**(-self.alpha) * _rgamma(1.0 - self.alpha)) / self.b0


@dataclass(frozen=True)
class FracKelvinVoigt(MaterialModel):
    """sigma = b0 strain + b1 D^alpha strain."""

    b0: float
    b1: float
    alpha: float

    def __post_init__(self):
        _non_negative(self.b0, "b0")
        _positive(self.b1, "b1")
        _order(self.alpha)

    def _operator_terms(self):
        return [], [(self.b0, 0.0), (self.b1, self.alpha)]

    def _relaxation(self, t):
        return self.b0 + self.b1 * _rgamma(1.0 - self.alpha) * t**(-self.alpha)

    def _creep(self, t):
        if self.alpha == 0.0:
            return np.full(t.shape, 1.0 / (self.b0 + self.b1))
        return t**self.alpha / self.b1 * _ml_grid(
            self.alpha, self.alpha + 1.0, -(self.b0 / self.b1) * t**self.alpha)


@dataclass(frozen=True)
class FracZener(MaterialModel):
    """sigma + a1 D^alpha sigma = b0 strain + b1 D^alpha strain.

    b0 = 0 is admitted (no equilibrium modulus; the solid relaxes
    fully). Thermodynamic admissibility wants b1 > a1*b0; violations
    only warn, so exploratory parameter sets stay usable.
    """

    a1: float
    b0: float
    b1: float
    alpha: float

    def __post_init__(self):
        _positive(self.a1, "a1")
        _non_negative(self.b0, "b0")
        _positive(self.b1, "b1")
        _order(self.alpha)
        if self.b0 > 0 and self.b1 <= self.a1 * self.b0:
            warnings.warn(
                "fractional Zener parameters are thermodynamically "
                f"inadmissible: b1={self.b1} <= a1*b0={self.a1 * self.b0}",
                UserWarning, stacklevel=2)

    def _operator_terms(self):
        return [(self.a1, self.alpha)], [(self.b0, 0.0), (self.b1, self.alpha)]

    def _relaxation(self, t):
        if self.alpha == 0.0:
            return np.full(t.shape, (self.b0 + self.b1) / (1.0 + self.a1))
        return self.b0 + (self.b1 / self.a1 - self.b0) * _ml_grid(
            self.alpha, 1.0, -t**self.alpha / self.a1)

    def _creep(self, t):
        a1, b0, b1, a = self.a1, self.b0, self.b1, self.alpha
        if a == 0.0:
            return np.full(t.shape, (1.0 + a1) / (b0 + b1))
        # 1/(s G(s)) = a1/(b1 s) + (1 - a1 b0/b1) / (s (b0 + b1 s^alpha)):
        # no cancellation, and b0 = 0 needs no special case
        return a1 / b1 + (1.0 - a1 * b0 / b1) * t**a / b1 * _ml_grid(
            a, a + 1.0, -(b0 / b1) * t**a)


@dataclass(frozen=True)
class PoyntingThomson(MaterialModel):
    """Two springpots in the driving branch with a retarded response
    branch; needs 0 <= gamma <= alpha <= beta <= 1."""

    E: float
    E0: float
    lam: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        _positive(self.E, "E")
        _positive(self.E0, "E0")
        _positive(self.lam, "lam")
        a, b, g = _order(self.alpha), _order(self.beta), _order(self.gamma)
        if not (g <= a <= b):
            raise DomainError(
                f"need gamma <= alpha <= beta, got {g}, {a}, {b}")

    def _operator_terms(self):
        ratio = self.E / self.E0
        a, b, g, lam = self.alpha, self.beta, self.gamma, self.lam
        return ([(ratio * lam**(a - g), a - g), (ratio * lam**(b - g), b - g)],
                [(self.E * lam**a, a), (self.E * lam**b, b)])


@dataclass(frozen=True)
class ClassicalMaxwell(MaterialModel):
    """Spring and dashpot in series: sigma + tau Dsigma = E tau Dstrain."""

    E: float
    tau: float

    def __post_init__(self):
        _positive(self.E, "E")
        _positive(self.tau, "tau")

    def _operator_terms(self):
        return [(self.tau, 1.0)], [(self.E * self.tau, 1.0)]

    def _relaxation(self, t):
        return self.E * np.exp(-t / self.tau)

    def _creep(self, t):
        return (1.0 + t / self.tau) / self.E


@dataclass(frozen=True)
class ClassicalKelvin(MaterialModel):
    """Spring and dashpot in parallel: sigma = E strain + E tau Dstrain."""

    E: float
    tau: float

    def __post_init__(self):
        _positive(self.E, "E")
        _positive(self.tau, "tau")

    def _operator_terms(self):
        return [], [(self.E, 0.0), (self.E * self.tau, 1.0)]

    def _relaxation(self, t):
        # the impulsive dashpot contribution at t = 0 is dropped
        return np.full(t.shape, float(self.E))

    def _creep(self, t):
        return -np.expm1(-t / self.tau) / self.E


_RESPONSE_KINDS = ("relaxation", "creep", "complex")


class MaterialResponse:
    """A material function sampled on a strictly increasing grid.

    kind is one of relaxation, creep, complex; values are real for the
    time-domain kinds and complex for the frequency-domain one.
    """

    __slots__ = ("kind", "abscissae", "values")

    def __init__(self, kind: str, abscissae, values, *, _grid_checked: bool = False):
        # _grid_checked: the abscissae come from _time_grid, which the
        # response functions run before they compute, so it is not run again
        if kind not in _RESPONSE_KINDS:
            raise DomainError(f"unknown response kind {kind!r}")
        x = np.array(abscissae, dtype=float)
        v = np.asarray(values, dtype=complex if kind == "complex" else float).copy()
        if x.ndim != 1:
            raise DomainError("response abscissae must form a 1-d array")
        if not _grid_checked:
            _time_grid(x)
        if v.shape != x.shape:
            raise DomainError("values and abscissae lengths must match")
        _in_range(v, x, f"{kind} value")
        x.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "abscissae", x)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name, value):
        raise AttributeError("MaterialResponse is immutable")

    def __len__(self):
        return self.abscissae.size

    def __repr__(self):
        return (f"MaterialResponse(kind={self.kind!r}, "
                f"n={self.abscissae.size})")


def _operator_terms(m: MaterialModel):
    """The model's rate-equation terms; refuses anything but a catalog model."""
    if not isinstance(m, MaterialModel):
        raise DomainError(f"unknown model {type(m).__name__}")
    return m._operator_terms()


def _powers(s):
    """nu -> s^nu at an array of s, each power exp(nu log s) from one
    logarithm; numpy forms orders 0, 1/2 and 1 without one (ones, sqrt, a
    copy), so those stay s**nu."""
    log_s = np.log(s)
    return lambda nu: s**nu if nu in (0.0, 0.5, 1.0) else np.exp(nu * log_s)


def _ratio(lhs, rhs, s):
    # D^nu -> s^nu at an array of s
    power = _powers(s)
    num, den = 0.0, 1.0
    for c, nu in rhs:
        num += c * power(nu)
    for c, nu in lhs:
        den += c * power(nu)
    return num / den


def transfer_function(m: MaterialModel, s) -> complex:
    """Stress-transform over strain-transform at the Laplace symbol s.

    Principal-branch powers; the negative real axis is refused because
    s**alpha is ambiguous there under our convention. The same numpy
    evaluation as complex_modulus, so the two agree bit for bit.
    """
    s = complex(s)
    if s == 0:
        raise DomainError("transfer function is not defined at s = 0")
    if s.imag == 0.0 and s.real < 0.0:
        raise BranchError(f"s = {s} lies on the negative real axis")
    lhs, rhs = _operator_terms(m)
    with np.errstate(all="ignore"):  # an overflow gives inf, as Python's complex arithmetic does
        return complex(_ratio(lhs, rhs, np.array([s]))[0])


def _time_grid(t_grid) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.size < 1 or not np.all(np.isfinite(t)):
        raise DomainError("time grid must be non-empty and finite")
    if np.any(t <= 0.0):
        raise DomainError("time grid must be strictly positive")
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("time grid must be strictly increasing")
    return t


def relaxation_modulus(m: MaterialModel, t_grid) -> MaterialResponse:
    """Stress response to a unit step strain, sampled at t_grid."""
    return _step_response(m, t_grid, "relaxation")


def creep_compliance(m: MaterialModel, t_grid) -> MaterialResponse:
    """Strain response to a unit step stress, sampled at t_grid."""
    return _step_response(m, t_grid, "creep")


def _step_response(m: MaterialModel, t_grid, kind: str) -> MaterialResponse:
    """The model's closed form of kind, else the inverse of its step transform."""
    t = _time_grid(t_grid)
    lhs, rhs = _operator_terms(m)
    closed = m._relaxation if kind == "relaxation" else m._creep
    # a closed form may overflow, and MaterialResponse refuses what it leaves
    # non-finite, so numpy need not warn; _bromwich refuses a non-finite sum
    # on its own
    with np.errstate(all="ignore"):
        v = closed(t) if closed else _bromwich(_step_transform(lhs, rhs, kind), t, _INVERT_TOL)
    return MaterialResponse(kind, t, v, _grid_checked=True)


def _step_transform(lhs, rhs, kind: str):
    """The transform values(s, t) that _bromwich inverts: G(s) / s for
    relaxation, 1 / (s G(s)) for creep, at a block of nodes s = _NODES / t.

    The parabolas' nodes avoid s = 0 and the branch cut, so no
    transfer_function checks. Each term is c s^nu = (c s_k^nu) t^-nu: the
    node factors once per call, one real power per time and one product
    per node and time, where exp(nu log s) would take a complex logarithm
    and exponential at each. The block's arrays are allocated at the
    first block, the largest, and reused by the rest.
    """
    power = _powers(_NODES)
    sides = [[(c * power(nu), -nu) for c, nu in terms] for terms in (rhs, lhs)]
    work = []

    def values(s, t):
        if not work:
            work.extend(np.empty((3,) + s.shape, complex))
        num, den, term = (w[:len(s)] for w in work)
        num.fill(0.0)
        den.fill(1.0)
        for acc, side in zip((num, den), sides):
            for factor, p in side:
                acc += np.multiply(factor, t**p, out=term)
        g = np.divide(num, den, out=num)
        if kind == "relaxation":
            return np.divide(g, s, out=g)
        return np.divide(1.0, np.multiply(s, g, out=g), out=g)

    return values


def complex_modulus(m: MaterialModel, omega_grid) -> MaterialResponse:
    """Dynamic modulus G*(omega): transfer function along s = i*omega.

    Storage modulus is the real part, loss modulus the imaginary part.
    """
    w = _time_grid(omega_grid)  # omega > 0 keeps s off 0 and the negative axis
    with np.errstate(all="ignore"):
        g = _ratio(*_operator_terms(m), 1j * w)
    return MaterialResponse("complex", w, g, _grid_checked=True)


def _toeplitz_solve(col: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with T x = y, where T is the lower-triangular Toeplitz matrix
    whose first column is col.

    Solved by halves (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
    Comput. 6(3), 1985): solve the first half, take its causal
    convolution with col off the second half, recurse. A base block is a
    product with the inverse of T's leading block plus one step of
    iterative refinement; without that step the forward error grew
    tenfold past that of substitution sample by sample where T is ill
    conditioned (a dashpot with tau >> dt). The cost is O(n log^2 n).
    """
    size = min(_BLOCK, y.size)
    k = np.arange(size)
    lag = k[:, None] - k[None, :]
    lead = np.where(lag >= 0, col[np.maximum(lag, 0)], 0.0)
    x = y.copy()
    _solve_halves(x, col, lead, np.linalg.inv(lead), 0, y.size)
    return x


def _solve_halves(x, col, lead, inv, lo, hi):
    # _toeplitz_solve's recursion, solving x[lo:hi] in place; a recursive
    # closure would be a reference cycle, and its arrays (about 0.5 MB at
    # 16 000 samples) would then wait for the cyclic garbage collector
    n, size = hi - lo, inv.shape[0]
    if n <= size:
        rhs, a = x[lo:hi].copy(), inv[:n, :n]
        z = a @ rhs
        x[lo:hi] = z + a @ (rhs - lead[:n, :n] @ z)
        return
    mid = lo + size * (-(-n // size) // 2)
    _solve_halves(x, col, lead, inv, lo, mid)
    x[mid:hi] -= _causal_convolve(col[:n], x[lo:mid], mid - lo, n)
    _solve_halves(x, col, lead, inv, mid, hi)


def simulate_stress(m: MaterialModel, strain: SignalSeries) -> SignalSeries:
    """March the model's rate equation over an arbitrary strain history.

    Every fractional derivative is replaced by its discrete convolution
    sum, and the stress-side sums combine into one lower-triangular
    Toeplitz system that is solved implicitly for all samples at once,
    which keeps the recursion stable for any positive coefficients.
    Requires a history starting at time zero with zero initial strain.
    """
    if strain.t0 != 0.0:
        raise DomainError("strain history must start at t = 0")
    if strain.values[0] != 0.0:
        raise DomainError("strain history must start from zero strain")
    lhs, rhs_terms = _operator_terms(m)
    n = len(strain)
    dt = strain.dt
    scaled = [(_scaled(coef, dt, order), order) for coef, order in lhs]
    for c, order in scaled:
        if not math.isfinite(c):
            raise StabilityError(f"stress-side coefficient of D^{order:g} over grid step "
                                 f"{dt:g} is {c}: the implicit update is unusable")
    for c, order in rhs_terms:
        if not math.isfinite(c):
            raise OverflowError(f"strain-side coefficient of D^{order:g} exceeds double range")
    pivot = 1.0 + sum(c for c, _ in scaled)
    if not (math.isfinite(pivot) and pivot > 0.0):
        raise StabilityError(f"implicit update coefficient {pivot} is unusable")
    with np.errstate(all="ignore"):  # sums out of double range are refused below
        stress = np.zeros(n)
        for coef, order in rhs_terms:
            stress += coef * gl_derivative(strain, order).values
        _in_range(stress, dt * np.arange(n), "strain-side sum")
        if lhs:
            # sigma + sum c D^nu sigma as one weight column: W = delta_0 + sum c w^(nu)
            col = np.zeros(n)
            col[0] = 1.0
            for c, order in scaled:
                col += c * gl_weights(order, n)
            stress = _toeplitz_solve(col, stress)
    _in_range(stress, dt * np.arange(n), "simulated stress")
    return SignalSeries(0.0, dt, stress)


def _scaled(coef: float, dt: float, order: float) -> float:
    """coef * dt**-order, inf when it leaves double range."""
    try:
        return coef * dt**(-order)
    except OverflowError:
        return math.inf


# quadrature refuses kernels more singular than this on coarse grids
_KERNEL_SINGULAR_LIMIT = 0.9


def rabotnov_stress(p: RabotnovParams, E: float, strain: SignalSeries) -> SignalSeries:
    """Stress from the hereditary integral with the fractional-exponential
    kernel: sigma = E * (strain - beta * integral of kernel * strain).

    The weakly singular convolution is integrated by a product rule:
    strain is averaged per interval and the kernel integrated exactly
    through its closed-form primitive, so the singularity never meets
    the quadrature. Step histories are reproduced exactly.
    """
    _positive(E, "E")
    if strain.t0 != 0.0:
        raise DomainError("strain history must start at t = 0")
    if abs(p.alpha) > _KERNEL_SINGULAR_LIMIT and strain.dt > 0.1:
        raise QuadratureError(
            f"grid step {strain.dt} is too coarse for kernel order {p.alpha}; "
            "refine below 0.1")
    vals = strain.values
    if p.beta == 0.0:
        return SignalSeries(0.0, strain.dt, E * vals)
    n = len(strain)
    ap1 = p.alpha + 1.0
    # running kernel integral over [0, k*dt], at arguments -beta (k dt)^(alpha+1)
    # from libm's pow: np.power's AVX-512 loop rounds differently (49 of 1000
    # values differed)
    times = (strain.dt * np.arange(1, n)).tolist()
    args = -p.beta * np.array(list(map(math.pow, times, repeat(ap1))))
    step = np.diff(np.concatenate(([0.0], 1.0 - _ml_grid(ap1, 1.0, args))))
    avg = 0.5 * (vals[:-1] + vals[1:])
    memory = _causal_convolve(step, avg)
    sigma = np.empty(n)
    sigma[0] = E * vals[0]
    sigma[1:] = E * (vals[1:] - memory)
    return SignalSeries(0.0, strain.dt, sigma)


def nutting_strain(psi: float, S: float, alpha, beta_exp: float, t_grid) -> SignalSeries:
    """Creep strain of the power-law material law: S**beta * t**alpha / psi.

    The grid must be finite, increasing and uniform (the result is a
    sampled signal): dt = t1 - t0 > 0, every step within 1e-9 * dt of dt.
    t = 0 is allowed and contributes strain 0 for positive alpha.
    """
    _positive(psi, "psi")
    _positive(S, "S")
    _positive(beta_exp, "beta_exp")
    a = _order(alpha)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GridError("need a uniform grid with at least 2 samples")
    if not np.all(np.isfinite(t)):
        raise GridError("grid must be finite")
    if np.any(t < 0.0):
        raise DomainError("negative times are outside the law's domain")
    if _grid_break(t) is not None:
        raise GridError("grid must be uniformly spaced and increasing")
    return SignalSeries(t[0], t[1] - t[0], S**beta_exp / psi * t**a)


def relaxation_time_of_stress(psi: float, S: float, alpha, beta_exp: float,
                              stress: float) -> float:
    """Stress-dependent relaxation time psi**(1/a) * S**(-b/a) * stress**(1/a)."""
    _positive(psi, "psi")
    _positive(S, "S")
    _positive(beta_exp, "beta_exp")
    _positive(stress, "stress")
    a = _order(alpha)
    if a == 0.0:
        raise DomainError("relaxation time is undefined at order 0")
    return psi**(1.0 / a) * S**(-beta_exp / a) * stress**(1.0 / a)
