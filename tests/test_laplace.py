"""Numerical inverse Laplace transform checked against known transform pairs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frheo.errors import ConvergenceError, DomainError
from frheo.laplace import _block_work, _rule_sums, invert
from frheo.special import MLParams, ml_eval


def test_step_function():
    assert invert(lambda s: 1.0 / s, 5.0) == pytest.approx(1.0, abs=1e-8)


def test_decaying_exponential():
    assert invert(lambda s: 1.0 / (s + 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-8)


def test_inverse_sqrt():
    # 1/sqrt(s) pairs with 1/sqrt(pi t)
    assert invert(lambda s: s**-0.5, 1.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-8)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_mittag_leffler_pair(alpha, lam):
    # s^(a-1)/(s^a + c) inverts to the one-parameter function of -c t^a
    p = MLParams(alpha, 1.0)
    for t in np.geomspace(0.1, 10.0, 7):
        got = invert(lambda s: s**(alpha - 1.0) / (s**alpha + lam), float(t))
        want = ml_eval(p, -lam * t**alpha)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_exponential_family_certified_range():
    # Far down an exponential tail the contour sum loses all significant
    # digits, so declines are expected there; the body of the decay must
    # both certify and agree tightly.
    for tau in (0.5, 2.0):
        transform = lambda s: 3.0 / (1.0 + tau * s)
        for x in np.geomspace(0.01, 20.0, 15):
            t = float(x * tau)
            want = (3.0 / tau) * math.exp(-x)
            try:
                got = invert(transform, t)
            except ConvergenceError:
                assert x > 4.0, f"declined inside the certified range, x={x}"
                continue
            assert got == pytest.approx(want, rel=1e-7)


def test_refinement_is_monotone():
    sums = _rule_sums(lambda s, t: 1.0 / (1.0 + s), 1.0, _block_work(1))
    coarse, fine, _ = (v.real for v in sums)
    want = math.exp(-1.0)
    assert abs(fine - want) <= abs(coarse - want)
    assert abs(fine - want) <= abs(coarse - fine)


def test_domain_checks():
    f = lambda s: 1.0 / s
    with pytest.raises(DomainError):
        invert(f, 0.0)
    with pytest.raises(DomainError):
        invert(f, -1.0)
    with pytest.raises(DomainError):
        invert(f, math.inf)
    with pytest.raises(DomainError):
        invert(f, 1.0, tol=1e-13)


def test_honest_decline_deep_in_tail():
    # exp(-40) is ~4e-18: unreachable at 1e-10 relative accuracy in doubles
    with pytest.raises(ConvergenceError):
        invert(lambda s: 1.0 / (s + 1.0), 40.0, tol=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_contour_sum_rejected(bad):
    with pytest.raises(ConvergenceError):
        invert(lambda s: bad, 1.0)


def test_arithmetic_error_of_the_transform_is_refused():
    # a transform that fails at a node declines the point and names t;
    # any other exception is the caller's and passes through
    def underflowing(s):
        return 1.0 / (s * complex(0.0 if abs(s) < 1e-290 else 1.0))

    with pytest.raises(ConvergenceError, match=r"^contour sum at t=1e\+300 is not certified: "
                       r"the transform raised ZeroDivisionError \(complex division by zero\) "
                       r"at a node$"):
        invert(underflowing, 1e300)
    assert invert(underflowing, 1.0) == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(TypeError):
        invert(lambda s: "s" + s, 1.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(pair=st.sampled_from(["exponential", "power", "mittag-leffler"]),
       t=st.floats(1e-2, 1e2), a=st.floats(0.1, 1.0), nu=st.floats(0.1, 2.5),
       lam=st.floats(0.1, 2.0), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_known_pairs_certify_or_decline(pair, t, a, nu, lam, tol):
    # a is the decay rate of the exponential and the order of the
    # Mittag-Leffler pair; |z| <= 50 keeps ml_eval's reference at 1e-10
    assume(pair != "mittag-leffler" or lam * t**a <= 50.0)
    transform, want = {
        "exponential": (lambda s: 1.0 / (s + a), math.exp(-a * t)),
        "power": (lambda s: s**-nu, t**(nu - 1.0) / math.gamma(nu)),
        "mittag-leffler": (lambda s: s**(a - 1.0) / (s**a + lam),
                           ml_eval(MLParams(a, 1.0), -lam * t**a)),
    }[pair]
    try:
        got = invert(transform, t, tol)
    except ConvergenceError:
        return
    assert abs(got - want) <= 10.0 * tol * abs(want)


def test_imaginary_residue_rejected():
    # a transform that is not real-symmetric leaves a genuine imaginary part
    with pytest.raises(ConvergenceError):
        invert(lambda s: 1.0 / (s + 1j), 1.0)


@pytest.mark.parametrize("eps, certified", [(1e-6, False), (1e-13, True)])
def test_antisymmetric_part_is_the_residue(eps, certified):
    # eps i / (s + 2) is all antisymmetric part: it leaves the value alone
    # and inverts to an imaginary residue eps e^-2, 3.7e-7 of e^-1 at eps 1e-6
    transform = lambda s: 1.0 / (s + 1.0) + eps * 1j / (s + 2.0)
    if not certified:
        with pytest.raises(ConvergenceError, match="imaginary residue"):
            invert(transform, 1.0, 1e-8)
    else:
        assert invert(transform, 1.0, 1e-8) == pytest.approx(math.exp(-1.0), rel=1e-8)
