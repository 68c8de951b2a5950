"""Constitutive model catalog: closed forms, transform inversion cross-checks,
time stepping, and the hereditary-kernel route."""

import gc
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from frheo import laplace, models
from frheo.errors import (BranchError, ConvergenceError, DomainError, GridError,
                          QuadratureError, StabilityError)
from frheo.fracops import SignalSeries, gl_derivative, gl_weights
from frheo.laplace import invert
from frheo.models import (ClassicalKelvin, ClassicalMaxwell, FracKelvinVoigt,
                          FracMaxwell, FracZener, MaterialResponse,
                          PoyntingThomson, SpringPot, ThreeParamMaxwell,
                          complex_modulus, creep_compliance, nutting_strain,
                          rabotnov_stress, relaxation_modulus,
                          relaxation_time_of_stress, simulate_stress,
                          transfer_function)
from frheo.special import MLParams, RabotnovParams, gamma, ml_eval

SPOT_TIMES = (0.1, 1.0, 10.0)


def ml(alpha, beta, z):
    return ml_eval(MLParams(alpha, beta), z)


# ----------------------------------------------------------- constructors

def test_parameter_validation():
    with pytest.raises(DomainError):
        SpringPot(-1.0, 0.5)
    with pytest.raises(DomainError):
        SpringPot(1.0, 1.5)
    with pytest.raises(DomainError):
        FracMaxwell(1.0, 1.0, 0.8, 0.3)  # needs alpha <= beta
    with pytest.raises(DomainError):
        PoyntingThomson(1.0, 1.0, 1.0, 0.3, 0.8, 0.5)  # gamma > alpha
    with pytest.raises(DomainError):
        FracKelvinVoigt(-0.1, 1.0, 0.5)
    with pytest.raises(DomainError):
        ClassicalMaxwell(1.0, 0.0)


def test_zener_admissibility_warning():
    with pytest.warns(UserWarning, match="inadmissible"):
        FracZener(2.0, 1.0, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FracZener(1.0, 1.0, 2.0, 0.5)   # healthy solid
        FracZener(1.0, 0.0, 2.0, 0.5)   # no equilibrium modulus: fine


# ------------------------------------------------------ transfer function

def test_transfer_springpot():
    m = SpringPot(1.0, 0.5)
    assert transfer_function(m, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    got = transfer_function(m, 1j)
    want = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    assert abs(got - want) < 1e-14


def test_transfer_zener_order_one_is_standard_linear_solid():
    m = FracZener(0.5, 1.0, 2.0, 1.0)
    for s in (0.3, 2.0, 1.0 + 0.7j):
        want = (1.0 + 2.0 * s) / (1.0 + 0.5 * s)
        assert abs(transfer_function(m, s) - want) < 1e-14 * abs(want)


def _poynting_hand(m, s):
    la, lb = m.lam**m.alpha, m.lam**m.beta
    num = m.E * (la * s**m.alpha + lb * s**m.beta)
    ratio = m.E / m.E0
    den = 1.0 + ratio * (m.lam**(m.alpha - m.gamma) * s**(m.alpha - m.gamma)
                         + m.lam**(m.beta - m.gamma) * s**(m.beta - m.gamma))
    return num / den


# each model's transfer function written out by hand, independently of
# the operator terms it is derived from
HAND_TRANSFER = {
    "springpot": (SpringPot(1.3, 0.45), lambda m, s: m.kappa * s**m.alpha),
    "fmaxwell": (FracMaxwell(2.0, 0.7, 0.4, 0.8),
                 lambda m, s: m.E * m.lam**m.beta * s**m.beta
                 / (1.0 + m.lam**m.alpha * s**m.alpha)),
    "maxwell3": (ThreeParamMaxwell(1.2, 2.0, 0.55),
                 lambda m, s: m.b0 / (1.0 + m.a1 * s**m.alpha)),
    "fkelvinvoigt": (FracKelvinVoigt(1.0, 2.0, 0.5),
                     lambda m, s: m.b0 + m.b1 * s**m.alpha),
    "fzener": (FracZener(1.0, 0.5, 2.0, 0.5),
               lambda m, s: (m.b0 + m.b1 * s**m.alpha) / (1.0 + m.a1 * s**m.alpha)),
    "poynting": (PoyntingThomson(2.0, 3.0, 1.5, 0.6, 0.8, 0.2), _poynting_hand),
    "cmaxwell": (ClassicalMaxwell(1.5, 0.8),
                 lambda m, s: m.E * m.tau * s / (1.0 + m.tau * s)),
    "ckelvin": (ClassicalKelvin(2.5, 1.3), lambda m, s: m.E * (1.0 + m.tau * s)),
}

# node k = 5 of the 16-node cotangent contour that inverts at t = 1
_THETA = 5 * math.pi / 16
TALBOT_NODE = 6.4 * _THETA * complex(1.0 / math.tan(_THETA), 1.0)


@pytest.mark.parametrize("s", [1.3, 2j, 0.4 - 3j, TALBOT_NODE],
                         ids=["1.3", "2j", "0.4-3j", "talbot"])
@pytest.mark.parametrize("name", sorted(HAND_TRANSFER))
def test_transfer_hand_formula(name, s):
    m, hand = HAND_TRANSFER[name]
    want = hand(m, complex(s))
    assert abs(transfer_function(m, s) - want) <= 1e-14 * abs(want)


# exact orders 0, 1/2 and 1, which _ratio forms as s**nu, not from the logarithm
EXACT_ORDER_MODELS = {
    "ckelvin": ClassicalKelvin(2.5, 1.3),
    "cmaxwell": ClassicalMaxwell(1.5, 0.8),
    "springpot": SpringPot(1.3, 0.5),
    "poynting": PoyntingThomson(2.0, 3.0, 1.5, 0.5, 1.0, 0.5),  # gamma = alpha, beta = 1
}


@pytest.mark.parametrize("name", sorted(EXACT_ORDER_MODELS))
def test_exact_orders_take_one_power_path(name):
    m = EXACT_ORDER_MODELS[name]
    w = np.geomspace(1e-2, 1e2, 9)
    want = [transfer_function(m, 1j * x) for x in w]
    assert complex_modulus(m, w).values.tolist() == want
    # times up to about one relaxation time: further down an exponential tail
    # the contour's rounding is no longer small against the value
    t = np.geomspace(0.1, 1.0, 5)
    for response, transform in ((relaxation_modulus, lambda s: transfer_function(m, s) / s),
                                (creep_compliance, lambda s: 1 / (s * transfer_function(m, s)))):
        ref = [invert(transform, float(tk)) for tk in t]
        assert_allclose(response(m, t).values, ref, rtol=1e-13, atol=0.0)


def test_transfer_branch_cut_and_origin():
    m = SpringPot(1.0, 0.5)
    with pytest.raises(BranchError):
        transfer_function(m, -1.0)
    with pytest.raises(DomainError):
        transfer_function(m, 0.0)


# ------------------------------------------------- relaxation closed forms

def test_springpot_relaxation_and_self_similarity():
    m = SpringPot(1.3, 0.45)
    t = np.geomspace(0.01, 100.0, 9)
    g = relaxation_modulus(m, t).values
    assert_allclose(g, 1.3 * t**-0.45 / gamma(0.55), rtol=1e-13)
    # pure power law: rescaling time only rescales amplitude
    g2 = relaxation_modulus(m, 3.0 * t).values
    assert_allclose(g2, 3.0**-0.45 * g, rtol=1e-14)


def test_springpot_creep_product_identity():
    # G(t) * J(t) = sin(pi a) / (pi a) for every t
    for alpha in (0.2, 0.5, 0.8):
        m = SpringPot(2.0, alpha)
        t = np.geomspace(0.1, 10.0, 5)
        prod = relaxation_modulus(m, t).values * creep_compliance(m, t).values
        want = math.sin(math.pi * alpha) / (math.pi * alpha)
        assert_allclose(prod, want, rtol=1e-13)


def test_order_one_impulse_policy():
    # a response of impulses alone, the step-strain stress of a dashpot,
    # is refused
    for m in (SpringPot(1.0, 1.0), FracMaxwell(2.0, 1.0, 0.0, 1.0),
              FracKelvinVoigt(0.0, 3.0, 1.0)):
        with pytest.raises(DomainError, match="impulse at t = 0 alone"):
            relaxation_modulus(m, [1.0])
    # beside a finite term the impulse is dropped, also where its
    # 1/Gamma(0) = 0 would meet t^-1 = inf
    assert relaxation_modulus(FracKelvinVoigt(2.0, 3.0, 1.0), [1e-310]).values[0] == 2.0
    assert creep_compliance(ThreeParamMaxwell(0.5, 3.0, 1.0), [1e-310]).values[0] == 1.0 / 3.0
    # creep of the dashpot is perfectly regular
    j = creep_compliance(SpringPot(2.0, 1.0), [3.0]).values[0]
    assert j == pytest.approx(1.5, rel=1e-14)


def test_maxwell_reduces_to_exponential_at_order_one():
    m = FracMaxwell(2.0, 0.7, 1.0, 1.0)
    t = np.geomspace(0.05, 5.0, 20)
    g = relaxation_modulus(m, t).values
    assert_allclose(g, 2.0 * np.exp(-t / 0.7), rtol=1e-12)


def test_maxwell_degenerate_stress_derivative():
    # order zero on the stress side leaves a half-strength power law
    g = relaxation_modulus(FracMaxwell(2.0, 1.0, 0.0, 0.5), [1.0]).values[0]
    assert g == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


def test_order_zero_collapses_to_constants():
    assert relaxation_modulus(ThreeParamMaxwell(1.0, 3.0, 0.0), [2.0]).values[0] \
        == pytest.approx(1.5, rel=1e-14)
    assert relaxation_modulus(FracZener(1.0, 1.0, 2.0, 0.0), [2.0]).values[0] \
        == pytest.approx(1.5, rel=1e-14)
    assert creep_compliance(FracKelvinVoigt(1.0, 3.0, 0.0), [2.0]).values[0] \
        == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("t", SPOT_TIMES)
def test_maxwell_relaxation_against_inversion(t):
    m = FracMaxwell(1.0, 1.0, 0.6, 0.6)
    got = relaxation_modulus(m, [t]).values[0]
    ref = invert(lambda s: transfer_function(m, s) / s, t, tol=1e-8)
    assert got == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("t", SPOT_TIMES)
def test_three_param_relaxation_against_inversion(t):
    m = ThreeParamMaxwell(1.2, 2.0, 0.55)
    got = relaxation_modulus(m, [t]).values[0]
    ref = invert(lambda s: transfer_function(m, s) / s, t, tol=1e-8)
    assert got == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("t", SPOT_TIMES)
def test_zener_relaxation_against_inversion(t):
    m = FracZener(1.0, 0.5, 2.0, 0.5)
    got = relaxation_modulus(m, [t]).values[0]
    ref = invert(lambda s: transfer_function(m, s) / s, t, tol=1e-8)
    assert got == pytest.approx(ref, rel=1e-6)


def test_poynting_collapse_to_scaled_springpot():
    # equal exponents cancel the retardation branch down to a constant
    m = PoyntingThomson(1.0, 2.0, 1.5, 0.4, 0.4, 0.4)
    kappa = 2.0 * 1.5**0.4 / (1.0 + 2.0 * 1.0 / 2.0)
    t = np.geomspace(0.1, 10.0, 5)
    got = relaxation_modulus(m, t).values
    want = relaxation_modulus(SpringPot(kappa, 0.4), t).values
    assert_allclose(got, want, rtol=1e-6)


@pytest.mark.parametrize("kind,orders", [("relaxation", (0.4, 0.4, 0.4)),
                                         ("creep", (0.6, 0.6, 0.2)),
                                         ("creep", (1.0, 1.0, 0.0))])
def test_equal_order_poynting_is_a_power_law(kind, orders, monkeypatch):
    # one power on the dividing side: the response is a power law, with
    # no inversion, and it agrees with the scalar inversion
    def no_inversion(*args):
        raise AssertionError("the response was inverted")

    monkeypatch.setattr(models, "_bromwich", no_inversion)
    m = PoyntingThomson(2.0, 3.0, 1.5, *orders)
    t = np.geomspace(1e-3, 1e3, 13)
    if kind == "relaxation":
        got = relaxation_modulus(m, t).values
        ref = [invert(lambda s: transfer_function(m, s) / s, tk, tol=1e-8) for tk in t]
    else:
        got = creep_compliance(m, t).values
        ref = [invert(lambda s: 1.0 / (s * transfer_function(m, s)), tk, tol=1e-8) for tk in t]
    assert_allclose(got, ref, rtol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_poynting_against_mpmath_talbot(seed):
    # seeded parameter sets and times; the reference inverts the hand
    # formula on mpmath's Talbot contour in 25 digits
    rng = np.random.default_rng(seed)
    g, a, b = (float(v) for v in np.sort(rng.uniform(0.05, 0.95, 3)))
    E, E0, lam = (float(v) for v in np.exp(rng.uniform(math.log(0.2), math.log(5.0), 3)))
    m = PoyntingThomson(E, E0, lam, a, b, g)
    t = np.sort(np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 5)))
    g_t, j_t = relaxation_modulus(m, t).values, creep_compliance(m, t).values
    with mpmath.workdps(25):
        for k, tk in enumerate(t):
            tk = mpmath.mpf(tk)
            g_ref = mpmath.invertlaplace(lambda s: _poynting_hand(m, s) / s, tk,
                                         method="talbot")
            j_ref = mpmath.invertlaplace(lambda s: 1 / (s * _poynting_hand(m, s)), tk,
                                         method="talbot")
            assert g_t[k] == pytest.approx(float(g_ref), rel=1e-8)
            assert j_t[k] == pytest.approx(float(j_ref), rel=1e-8)


def test_poynting_grid_matches_pointwise_inversion():
    # 300 times span several contour blocks; each keeps its own parabola,
    # so the grid repeats the scalar inversion of the transfer function
    m = PoyntingThomson(2.0, 3.0, 1.5, 0.6, 0.8, 0.2)
    t = np.geomspace(1e-2, 1e2, 300)
    for response, transform in ((relaxation_modulus, lambda s: transfer_function(m, s) / s),
                                (creep_compliance, lambda s: 1 / (s * transfer_function(m, s)))):
        want = [invert(transform, float(tk)) for tk in t]
        assert_allclose(response(m, t).values, want, rtol=1e-13, atol=0.0)


def _certified(f, *args):
    """f(*args), or None where it raises ConvergenceError."""
    try:
        return f(*args)
    except ConvergenceError:
        return None


def _assert_certification_parity(m, t):
    # the grid path certifies the times invert certifies on the transfer
    # function, and their values agree; a refused grid is tried time by time
    for response, transform in ((relaxation_modulus, lambda s: transfer_function(m, s) / s),
                                (creep_compliance, lambda s: 1 / (s * transfer_function(m, s)))):
        want = [_certified(invert, transform, float(tk)) for tk in t]
        got = _certified(lambda: response(m, t).values.tolist()) or [
            _certified(lambda: response(m, [tk]).values[0]) for tk in t]
        assert [v is None for v in got] == [v is None for v in want], (m, t, response.__name__)
        both = [(g, w) for g, w in zip(got, want) if g is not None and w is not None]
        if both:
            assert_allclose(*zip(*both), rtol=1e-11, atol=0.0)


def test_poynting_grid_certifies_as_pointwise_inversion():
    # 200 seeded models, 0 <= gamma <= alpha <= beta <= 1 and log-uniform
    # moduli and lam, each on a log grid of 2 times inside [1e-6, 1e6]
    rng = np.random.default_rng(19)
    for _ in range(200):
        g, a, b = np.sort(rng.uniform(0.0, 1.0, 3)).tolist()
        E, E0, lam = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3)).tolist()
        lo, hi = np.sort(rng.uniform(math.log(1e-6), math.log(1e6), 2)).tolist()
        _assert_certification_parity(PoyntingThomson(E, E0, lam, a, b, g),
                                     np.exp(np.linspace(lo, hi, 2)))


def test_poynting_grid_certifies_as_pointwise_inversion_at_extreme_times():
    # at 1e-310 the nodes leave double range and both refuse; at 1e-300 and
    # 1e200 creep's transform under- or overflows at some nodes and both
    # refuse it, while relaxation certifies there
    _assert_certification_parity(PoyntingThomson(2.0, 3.0, 1.5, 0.6, 0.8, 0.2),
                                 np.array([1e-310, 1e-300, 1e-200, 1e200]))


def test_inverted_grid_takes_each_upper_half_node_once(monkeypatch):
    # the models' transforms are real-symmetric, so the conjugate nodes
    # would only repeat the upper half's values; each block's nodes are
    # _NODES / t at its times
    seen = []

    def counting(values, t, tol):
        def wrapped(s, t):
            assert s.shape == (t.size, laplace._NODES.size)
            assert np.array_equal(s, laplace._NODES / t)
            seen.append(s.copy())
            return values(s, t)
        return laplace._bromwich(wrapped, t, tol)

    monkeypatch.setattr(models, "_bromwich", counting)
    m = PoyntingThomson(2.0, 3.0, 1.5, 0.6, 0.8, 0.2)
    t = np.geomspace(1e-2, 1e2, 171)
    for response in (relaxation_modulus, creep_compliance):
        seen.clear()
        response(m, t)
        assert sum(s.size for s in seen) == 171 * laplace._NODES.size == 171 * 90
        assert all(np.all(s.imag >= 0.0) for s in seen)


def test_inverted_grid_names_its_first_uncertified_time():
    # poisoned times in two blocks after the first: the error names the
    # first in grid order, and nothing is returned
    t = np.geomspace(0.1, 10.0, 3 * laplace._BLOCK)
    bad = [laplace._BLOCK + 22, 2 * laplace._BLOCK + 24]
    bad_nodes = laplace._NODES[0] / t[bad]  # each row's first node

    def transform(s, t):
        v = 1.0 / (s + 1.0)
        v[np.isin(s[:, 0], bad_nodes)] = math.nan
        return v

    with pytest.raises(ConvergenceError, match=rf"contour sum nan at t={t[bad[0]]} is not"):
        laplace._bromwich(transform, t, 1e-8)
    good = t[:bad[0]]
    assert_allclose(laplace._bromwich(transform, good, 1e-8), np.exp(-good), rtol=1e-8)


def test_inverted_grid_memory_stays_one_block():
    # a whole-grid (n_t x 90) node array would take 29 MB at 20 000 times
    t = np.geomspace(1e-2, 1e2, 20_000)
    m = PoyntingThomson(2.0, 3.0, 1.5, 0.6, 0.8, 0.2)
    tracemalloc.start()
    try:
        j = creep_compliance(m, t).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(j)) and np.all(np.diff(j) > 0.0)
    assert peak < 4e6, peak


def test_classical_kelvin_relaxation_is_flat():
    g = relaxation_modulus(ClassicalKelvin(2.5, 1.0), SPOT_TIMES).values
    assert_allclose(g, 2.5, rtol=0.0)


# ------------------------------------------------------ creep dual routes

def test_kelvin_voigt_creep_closed_form_against_inversion():
    m = FracKelvinVoigt(1.0, 1.0, 0.5)
    for t in SPOT_TIMES:
        got = creep_compliance(m, [t]).values[0]
        ref = invert(lambda s: 1.0 / (s * transfer_function(m, s)), t, tol=1e-8)
        assert got == pytest.approx(ref, rel=1e-6)


def test_kelvin_voigt_creep_reduces_to_exponential_at_order_one():
    m = FracKelvinVoigt(1.0, 2.0, 1.0)
    t = np.geomspace(0.05, 5.0, 20)
    j = creep_compliance(m, t).values
    assert_allclose(j, 1.0 - np.exp(-t / 2.0), rtol=1e-12)


def test_maxwell_creep_against_power_sum():
    m = FracMaxwell(1.0, 1.0, 0.3, 0.7)
    for t in SPOT_TIMES:
        got = creep_compliance(m, [t]).values[0]
        want = t**0.7 / gamma(1.7) + t**0.4 / gamma(1.4)
        assert got == pytest.approx(want, rel=1e-6)


def test_zener_creep_against_closed_form():
    m = FracZener(1.0, 0.5, 2.0, 0.5)
    for t in SPOT_TIMES:
        got = creep_compliance(m, [t]).values[0]
        want = 2.0 - 1.5 * ml(0.5, 1.0, -0.25 * math.sqrt(t))
        assert got == pytest.approx(want, rel=1e-6)


def test_three_param_creep_against_closed_form():
    m = ThreeParamMaxwell(1.2, 2.0, 0.55)
    for t in SPOT_TIMES:
        got = creep_compliance(m, [t]).values[0]
        want = 0.5 * (1.0 + 1.2 * t**-0.55 / gamma(0.45))
        assert got == pytest.approx(want, rel=1e-6)


def test_three_param_creep_near_order_one_against_mpmath():
    # contour inversion cannot certify the first grid point to 1e-8 here
    # (drift 1.2e-7), so this response rests on the closed form
    m = ThreeParamMaxwell(0.25228, 1.27089, 0.93206)
    t = np.geomspace(0.0031529, 5.642, 171)
    j = creep_compliance(m, t).values
    a1, b0, alpha = (mpmath.mpf(v) for v in (m.a1, m.b0, m.alpha))
    with mpmath.workdps(30):
        for k in (0, 60, 170):
            ref = mpmath.invertlaplace(lambda s: (1 + a1 * s**alpha) / (b0 * s),
                                       mpmath.mpf(t[k]), method="talbot")
            assert j[k] == pytest.approx(float(ref), rel=1e-12)
    # at order one the dashpot's impulse is dropped, leaving 1 / b0
    j = creep_compliance(ThreeParamMaxwell(0.5, 3.0, 1.0), [0.01, 1.0]).values
    assert_allclose(j, 1.0 / 3.0, rtol=1e-15)


def test_classical_maxwell_creep_is_affine():
    m = ClassicalMaxwell(1.5, 0.8)
    for t in SPOT_TIMES:
        got = creep_compliance(m, [t]).values[0]
        assert got == pytest.approx((1.0 + t / 0.8) / 1.5, rel=1e-6)


@pytest.mark.parametrize("m", [
    ClassicalMaxwell(1.5, 0.8),
    ClassicalKelvin(2.0, 0.7),
    FracMaxwell(2.0, 0.7, 0.3, 0.8),
    FracMaxwell(2.0, 0.7, 0.6, 0.6),  # alpha = beta
    FracMaxwell(2.0, 0.7, 0.0, 0.8),  # alpha = 0
    FracZener(0.5, 1.0, 2.0, 0.6),
    FracZener(0.5, 0.0, 2.0, 0.6),  # b0 = 0
    FracZener(0.5, 1.0, 2.0, 0.0),  # alpha = 0
], ids=repr)
def test_creep_closed_form_against_inversion(m):
    t = np.geomspace(0.01, 100.0, 9)
    got = creep_compliance(m, t).values
    ref = [invert(lambda s: 1.0 / (s * transfer_function(m, s)), float(tk), tol=1e-8)
           for tk in t]
    assert_allclose(got, ref, rtol=1e-6)


# -------------------------------------------------------- complex modulus

def test_complex_modulus_springpot_values():
    r = complex_modulus(SpringPot(1.0, 0.5), [1.0])
    assert r.kind == "complex"
    v = r.values[0]
    assert v.real == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert v.imag == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_springpot_loss_tangent_is_frequency_free():
    alpha = 0.3
    r = complex_modulus(SpringPot(2.0, alpha), np.geomspace(1e-3, 1e3, 13))
    tan_delta = r.values.imag / r.values.real
    assert_allclose(tan_delta, math.tan(math.pi * alpha / 2.0), rtol=1e-13)


def test_complex_modulus_classical_maxwell():
    v = complex_modulus(ClassicalMaxwell(1.0, 1.0), [1.0]).values[0]
    assert abs(v - complex(0.5, 0.5)) < 1e-15


# ------------------------------------------------------------- simulation

def ramp_series(dt, tmax):
    t = np.arange(0.0, tmax + dt / 2, dt)
    return SignalSeries(0.0, dt, t)


def test_simulate_springpot_ramp():
    m = SpringPot(1.3, 0.45)
    out = simulate_stress(m, ramp_series(1e-3, 1.0))
    want = 1.3 / gamma(1.55)  # exact fractional derivative of t at t = 1
    assert out.values[-1] == pytest.approx(want, rel=1e-3)


def test_simulate_zero_strain_zero_stress():
    m = FracZener(1.0, 0.5, 2.0, 0.5)
    out = simulate_stress(m, SignalSeries(0.0, 0.1, np.zeros(50)))
    assert not np.any(out.values)


def test_simulate_linearity():
    m = FracZener(1.0, 0.5, 2.0, 0.5)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(60)
    b = rng.standard_normal(60)
    a[0] = b[0] = 0.0
    sa = simulate_stress(m, SignalSeries(0.0, 0.05, a)).values
    sb = simulate_stress(m, SignalSeries(0.0, 0.05, b)).values
    mix = simulate_stress(m, SignalSeries(0.0, 0.05, 3.0 * a - 0.5 * b)).values
    ref = 3.0 * sa - 0.5 * sb
    assert np.max(np.abs(mix - ref)) < 1e-12 * np.max(np.abs(ref))


def test_simulate_zener_ramp_matches_hereditary_integral():
    # independent route: convolution of the relaxation modulus with unit
    # strain rate has the closed form b0*t + (b1/a1 - b0) * t * E_{a,2}(...)
    m = FracZener(1.0, 0.5, 2.0, 0.5)
    out = simulate_stress(m, ramp_series(1e-3, 1.0))
    for t, idx in ((0.5, 500), (1.0, 1000)):
        want = 0.5 * t + 1.5 * t * ml(0.5, 2.0, -math.sqrt(t))
        assert out.values[idx] == pytest.approx(want, rel=1e-2)


def test_simulate_zener_plateau():
    # strain ramps to 1 and holds; stress must settle at the equilibrium
    # modulus b0 once the transient clears
    m = FracZener(1.0, 1.0, 2.0, 0.9)
    dt = 0.02
    t = np.arange(0.0, 100.0 + dt / 2, dt)
    strain = SignalSeries(0.0, dt, np.minimum(t / 0.5, 1.0))
    out = simulate_stress(m, strain)
    assert out.values[-1] == pytest.approx(1.0, rel=2e-2)


def test_simulate_classical_maxwell_ramp():
    m = ClassicalMaxwell(2.0, 0.7)
    out = simulate_stress(m, ramp_series(1e-3, 1.0))
    want = 2.0 * 0.7 * (1.0 - math.exp(-1.0 / 0.7))
    assert out.values[-1] == pytest.approx(want, rel=1e-2)


def test_simulate_frees_its_arrays_without_the_cycle_collector():
    # a reference cycle in the solve would hold its arrays (about 0.5 MB
    # at 16 000 samples) until the cyclic collector happened to run
    t = np.arange(3000) * 0.01
    series = SignalSeries(0.0, 0.01, np.minimum(t, 5.0))
    gc.collect()
    gc.disable()
    try:
        simulate_stress(FracZener(1.0, 0.5, 2.0, 0.4), series)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_simulate_preconditions():
    m = SpringPot(1.0, 0.5)
    with pytest.raises(DomainError):
        simulate_stress(m, SignalSeries(1.0, 0.1, [0.0, 1.0]))
    with pytest.raises(DomainError):
        simulate_stress(m, SignalSeries(0.0, 0.1, [0.5, 1.0]))


def test_simulate_refuses_unusable_pivot():
    # tau / dt overflows the implicit update coefficient to infinity
    with pytest.raises(StabilityError, match="inf"):
        simulate_stress(ClassicalMaxwell(1e-300, 1e308), SignalSeries(0.0, 1e-10, [0.0, 1.0]))
    # each stress-side coefficient is finite (both of order 0), their sum is not
    with pytest.raises(StabilityError, match=r"^implicit update coefficient inf is unusable$"):
        simulate_stress(PoyntingThomson(1e308, 1.0, 1.0, 0.5, 0.5, 0.5),
                        SignalSeries(0.0, 0.1, [0.0, 1.0]))


def test_simulate_names_a_coefficient_that_leaves_double_range():
    # tau * dt**-1 overflows in Python's pow itself on a subnormal step
    with pytest.raises(StabilityError, match=r"coefficient of D\^1 over grid step 1e-310 is inf"):
        simulate_stress(ClassicalMaxwell(1.0, 1.0), SignalSeries(0.0, 1e-310, [0.0, 1.0]))
    # E * lam**beta = 1e308 * 1e10 on the strain side; the stress side stays finite
    with pytest.raises(OverflowError,
                       match=r"^strain-side coefficient of D\^1 exceeds double range$"):
        simulate_stress(FracMaxwell(1e308, 1e10, 0.5, 1.0), SignalSeries(0.0, 0.1, [0.0, 1.0]))


def strain_history(shape, n):
    """(dt, samples) of a seeded strain history on [0, 5], zero at t = 0."""
    t = np.linspace(0.0, 5.0, n)
    if shape == "ramp":
        v = 0.2 * t
    elif shape == "sine":
        v = np.sin(2.0 * math.pi * 1.3 * t)
    else:  # a creep curve with 1% multiplicative noise
        v = (t / 5.0)**0.4 * (1.0 + 0.01 * np.random.default_rng(7).standard_normal(n))
    return t[1], v


def forward_substitution(m, strain):
    """The per-sample implicit march, one dot product per term and sample:
    an O(n^2) oracle for the blocked Toeplitz solve."""
    lhs, rhs_terms = m._operator_terms()
    n, dt = len(strain), strain.dt
    rhs = np.zeros(n)
    for coef, order in rhs_terms:
        rhs += coef * gl_derivative(strain, order).values
    scaled = [(coef * dt**(-order), gl_weights(order, n)) for coef, order in lhs]
    pivot = 1.0 + sum(c for c, _ in scaled)
    sigma = np.zeros(n)
    for i in range(n):
        acc = rhs[i]
        for c, w in scaled:
            acc -= c * np.dot(w[1:i + 1], sigma[i - 1::-1]) if i else 0.0
        sigma[i] = acc / pivot
    return sigma


@pytest.mark.parametrize("shape", ["ramp", "sine", "noisy"])
@pytest.mark.parametrize("name", sorted(HAND_TRANSFER))
def test_simulate_matches_forward_substitution(name, shape):
    m = HAND_TRANSFER[name][0]
    dt, v = strain_history(shape, 3000)
    strain = SignalSeries(0.0, dt, v)
    got = simulate_stress(m, strain).values
    want = forward_substitution(m, strain)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", ["step", "ramp"])
@pytest.mark.parametrize("name", ["cmaxwell", "ckelvin", "maxwell3"])
def test_simulate_matches_forward_substitution_past_4096_samples(name, shape):
    # the classical models' weights and Toeplitz column end inside the
    # directly summed block and skip every FFT; maxwell3's fractional column
    # takes the direct sums and the FFT at every halving level past 1024
    m = HAND_TRANSFER[name][0]
    t = np.linspace(0.0, 5.0, 4500)
    v = np.where(t >= 1.0, 0.3, 0.0) if shape == "step" else 0.2 * t
    strain = SignalSeries(0.0, t[1], v)
    got = simulate_stress(m, strain).values
    want = forward_substitution(m, strain)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("name", sorted(HAND_TRANSFER))
def test_simulate_discrete_equation_residual(name):
    # sigma + sum c D^nu sigma = sum b D^beta strain on the grid, to
    # 1e-14 of the equation's largest terms, at 16000 samples
    m = HAND_TRANSFER[name][0]
    dt, v = strain_history("sine", 16000)
    sigma = simulate_stress(m, SignalSeries(0.0, dt, v)).values
    lhs, rhs = m._operator_terms()
    left = sigma + sum(c * gl_derivative(SignalSeries(0.0, dt, sigma), nu).values
                       for c, nu in lhs)
    right = sum(c * gl_derivative(SignalSeries(0.0, dt, v), nu).values for c, nu in rhs)
    scale = (np.max(np.abs(sigma)) * (1.0 + 2.0 * sum(abs(c) * dt**-nu for c, nu in lhs))
             + np.max(np.abs(right)))
    assert np.max(np.abs(left - right)) <= 1e-14 * scale


# -------------------------------------------------------- hereditary kernel

def test_rabotnov_without_memory_is_elastic():
    strain = ramp_series(0.1, 2.0)
    out = rabotnov_stress(RabotnovParams(-0.5, 0.0), 3.0, strain)
    assert_allclose(out.values, 3.0 * strain.values, atol=0.0)


def test_rabotnov_step_matches_mapped_zener():
    # the kernel material with (alpha, beta) maps onto a Zener solid with
    # order alpha+1, a1 = 1/beta, b1 = E/beta, b0 = 0; step responses of
    # the two routes must coincide
    dt = 0.01
    n = 1001
    strain = SignalSeries(0.0, dt, np.ones(n))
    out = rabotnov_stress(RabotnovParams(-0.5, 1.0), 2.0, strain)
    t = np.arange(1, n) * dt
    ref = relaxation_modulus(FracZener(1.0, 0.0, 2.0, 0.5), t).values
    keep = t >= 0.1
    assert_allclose(out.values[1:][keep], ref[keep], rtol=1e-3)
    assert out.values[0] == pytest.approx(2.0, rel=1e-14)


def test_rabotnov_ramp_matches_mapped_zener_simulation():
    strain = ramp_series(0.01, 2.0)
    out = rabotnov_stress(RabotnovParams(-0.5, 1.0), 2.0, strain)
    ref = simulate_stress(FracZener(1.0, 0.0, 2.0, 0.5), strain)
    keep = slice(10, None)
    assert np.max(np.abs(out.values[keep] - ref.values[keep])) \
        < 1e-2 * np.max(np.abs(ref.values[keep]))


def test_rabotnov_step_decays_monotonically_to_nothing():
    dt = 0.05
    n = 601  # reaches t = 30, deep in the algebraic tail
    out = rabotnov_stress(RabotnovParams(-0.3, 1.0), 1.0, SignalSeries(0.0, dt, np.ones(n)))
    assert np.all(np.diff(out.values) <= 0.0)
    assert out.values[-1] < 0.05


def test_rabotnov_refuses_coarse_grid_near_strong_singularity():
    strain = SignalSeries(0.0, 0.2, np.ones(20))
    with pytest.raises(QuadratureError):
        rabotnov_stress(RabotnovParams(-0.95, 1.0), 1.0, strain)
    # same kernel on a fine grid is accepted
    fine = SignalSeries(0.0, 0.05, np.ones(5))
    rabotnov_stress(RabotnovParams(-0.95, 1.0), 1.0, fine)


def test_rabotnov_requires_zero_start_time():
    with pytest.raises(DomainError):
        rabotnov_stress(RabotnovParams(-0.5, 1.0), 1.0,
                        SignalSeries(0.5, 0.1, np.ones(5)))


# ------------------------------------------------------ power-law material

def test_power_law_strain_values():
    t = np.linspace(0.0, 4.0, 5)
    out = nutting_strain(1.0, 1.0, 1.0, 1.0, t)
    assert_allclose(out.values, t, rtol=1e-14)
    out = nutting_strain(2.0, 3.0, 0.5, 1.0, t)
    assert out.values[-1] == pytest.approx(3.0, rel=1e-14)
    assert out.t0 == 0.0 and out.dt == 1.0


def test_power_law_strain_has_constant_fractional_rate():
    # the matched-order derivative of the creep strain is flat in time
    t = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    series = nutting_strain(2.0, 3.0, 0.5, 1.0, t)
    d = gl_derivative(series, 0.5)
    want = 1.5 * gamma(1.5)
    assert d.values[-1] == pytest.approx(want, rel=5e-3)


def test_power_law_strain_domain():
    with pytest.raises(DomainError):
        nutting_strain(1.0, 1.0, 0.5, 1.0, [-1.0, 0.0, 1.0])
    with pytest.raises(GridError):
        nutting_strain(1.0, 1.0, 0.5, 1.0, [0.0, 1.0, 3.0])
    with pytest.raises(DomainError):
        nutting_strain(-1.0, 1.0, 0.5, 1.0, [0.0, 1.0])
    for grid in ([1.0], [[0.0, 1.0, 2.0]]):  # one sample; a 2-d grid
        with pytest.raises(GridError, match="^need a uniform grid with at least 2 samples$"):
            nutting_strain(1.0, 1.0, 0.5, 1.0, grid)


def test_stress_relaxation_time_values():
    assert relaxation_time_of_stress(1.0, 1.0, 0.5, 1.0, 1.0) \
        == pytest.approx(1.0, rel=1e-14)
    assert relaxation_time_of_stress(16.0, 2.0, 0.5, 1.0, 1.0) \
        == pytest.approx(64.0, rel=1e-14)
    with pytest.raises(DomainError):
        relaxation_time_of_stress(1.0, 1.0, 0.0, 1.0, 1.0)


def test_relaxation_time_inverts_the_strain_law():
    # the creep strain evaluated at the stress's own time scale returns
    # exactly that stress level, for any admissible parameters
    for psi, S, alpha, beta_exp, x in ((2.0, 3.0, 0.5, 1.0, 0.7),
                                       (0.5, 1.2, 0.25, 2.0, 1.9),
                                       (7.0, 0.4, 0.9, 1.5, 0.2)):
        tau = relaxation_time_of_stress(psi, S, alpha, beta_exp, x)
        eps = S**beta_exp / psi * tau**alpha
        assert eps == pytest.approx(x, rel=1e-12)


# ---------------------------------------------------------------- dispatch

@pytest.mark.parametrize("call", [
    lambda m: transfer_function(m, 1.0),
    lambda m: relaxation_modulus(m, [1.0]),
    lambda m: creep_compliance(m, [1.0]),
    lambda m: complex_modulus(m, [1.0]),
    lambda m: simulate_stress(m, SignalSeries(0.0, 0.1, [0.0, 1.0])),
], ids=["transfer", "relaxation", "creep", "complex", "simulate"])
@pytest.mark.parametrize("thing", [
    "springpot", SimpleNamespace(kappa=1.0, alpha=0.5)], ids=["str", "lookalike"])
def test_non_model_is_refused(call, thing):
    with pytest.raises(DomainError, match="unknown model"):
        call(thing)


# ---------------------------------------------------------- response type

def test_response_validation():
    with pytest.raises(DomainError):
        MaterialResponse("nonsense", [1.0], [1.0])
    with pytest.raises(DomainError):
        MaterialResponse("relaxation", [1.0, 1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        MaterialResponse("relaxation", [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        MaterialResponse("relaxation", [1.0, 2.0], [1.0])
    for x in (1.0, [[1.0, 2.0]]):  # 0-d and 2-d abscissae
        with pytest.raises(DomainError, match="^response abscissae must form a 1-d array$"):
            MaterialResponse("relaxation", x, x)
    r = MaterialResponse("creep", [1.0, 2.0], [0.5, 0.7])
    with pytest.raises(AttributeError):
        r.kind = "relaxation"
    with pytest.raises(ValueError):
        r.values[0] = 0.0
    assert len(r) == 2


@pytest.mark.parametrize("call", [
    lambda: creep_compliance(ClassicalMaxwell(1e-320, 1e-320), [1.0, 10.0]),  # 1/E = inf
    lambda: complex_modulus(SpringPot(1e308, 0.5), [1e300, 1e305]),  # inf / inf = nan
    lambda: MaterialResponse("relaxation", [1.0, 2.0], [1.0, math.nan]),
], ids=["maxwell creep", "springpot complex", "constructor"])
def test_non_finite_response_is_refused(call):
    # RuntimeWarnings are errors in this suite, so none may escape either
    with pytest.raises(OverflowError, match="exceeds double range"):
        call()


def test_time_grid_validation():
    m = SpringPot(1.0, 0.5)
    with pytest.raises(DomainError):
        relaxation_modulus(m, [-1.0, 1.0])
    with pytest.raises(DomainError):
        relaxation_modulus(m, [2.0, 1.0])
    with pytest.raises(DomainError):
        relaxation_modulus(m, [])


@pytest.mark.parametrize("call", [relaxation_modulus, creep_compliance, complex_modulus])
def test_each_response_grid_is_checked_once(monkeypatch, call):
    checks = []
    real = models._time_grid
    monkeypatch.setattr(models, "_time_grid", lambda t: checks.append(1) or real(t))
    grid = np.geomspace(1e-2, 1e2, 113)
    r = call(FracZener(1.0, 0.5, 2.0, 0.6), grid)
    assert len(checks) == 1 and r.abscissae.tolist() == grid.tolist()
    assert grid.flags.writeable  # the caller's array is not frozen with the response's copy


def test_poynting_creep_far_out_is_refused_by_both_routes():
    # past t ~ 1e200 the transfer function underflows to 0 at some nodes:
    # the pointwise inversion of 1/(s G(s)) once let Python's complex
    # division raise ZeroDivisionError; both routes now decline the time
    m = PoyntingThomson(2, 3, 1.5, 0.6, 0.8, 0.2)
    with pytest.raises(ConvergenceError, match=r"^contour sum at t=1e\+300 is not certified: "
                       "the transform raised ZeroDivisionError"):
        invert(lambda s: 1.0 / (s * transfer_function(m, s)), 1e300)
    with pytest.raises(ConvergenceError, match=r"at t=1e\+300 is not certified"):
        creep_compliance(m, [1e300])
