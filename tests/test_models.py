"""Constitutive model catalog: closed forms, transform inversion cross-checks,
time stepping, and the hereditary-kernel route."""

import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from frheo.errors import BranchError, DomainError, GridError, QuadratureError
from frheo.fracops import SignalSeries, gl_derivative
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


def test_springpot_order_one_relaxation_refused():
    with pytest.raises(DomainError):
        relaxation_modulus(SpringPot(1.0, 1.0), [1.0])
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


def test_simulate_preconditions():
    m = SpringPot(1.0, 0.5)
    with pytest.raises(DomainError):
        simulate_stress(m, SignalSeries(1.0, 0.1, [0.0, 1.0]))
    with pytest.raises(DomainError):
        simulate_stress(m, SignalSeries(0.0, 0.1, [0.5, 1.0]))


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
    r = MaterialResponse("creep", [1.0, 2.0], [0.5, 0.7])
    with pytest.raises(AttributeError):
        r.kind = "relaxation"
    with pytest.raises(ValueError):
        r.values[0] = 0.0
    assert len(r) == 2


def test_time_grid_validation():
    m = SpringPot(1.0, 0.5)
    with pytest.raises(DomainError):
        relaxation_modulus(m, [-1.0, 1.0])
    with pytest.raises(DomainError):
        relaxation_modulus(m, [2.0, 1.0])
    with pytest.raises(DomainError):
        relaxation_modulus(m, [])
