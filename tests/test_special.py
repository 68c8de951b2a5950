"""Gamma, Mittag-Leffler and kernel tests against independent references.

Reference values marked "frozen" were produced by a 60-digit
direct-series evaluation (mpmath, mp.gamma) in a separate script; the
identities use only stdlib math as the oracle.
"""

import math

import numpy as np
import pytest

from frheo.errors import DomainError, PoleError
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
    with pytest.raises(OverflowError):
        ml(0.3, 1.0, 1e9)
    # just under the edge the value is still returned
    assert ml(1.0, 1.0, 709.0) == pytest.approx(math.exp(709.0), rel=1e-12)
    big = ml(2.0, 1.0, 500000.0)
    assert big == pytest.approx(math.cosh(math.sqrt(500000.0)), rel=1e-6)


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
