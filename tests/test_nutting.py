"""Log-space creep fitting, quasi-property extraction, extended power series."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frheo.errors import DegenerateDataError, DivisionError, DomainError
from frheo.fracops import SignalSeries
from frheo.models import nutting_strain
from frheo.nutting import (CreepColumns, CreepRecord, NuttingFit, fit_nutting,
                           nutting_general_series, quasi_property)
from frheo.special import gamma

PSI, ALPHA, BETA = 2.0, 0.5, 1.3


def law(t, S, psi=PSI, alpha=ALPHA, beta=BETA):
    return S**beta * t**alpha / psi


def synthetic_records(noise_rng=None, level=0.0):
    recs = []
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        for S in (1.0, 2.0, 4.0):
            eps = law(t, S)
            if noise_rng is not None:
                eps *= math.exp(level * noise_rng.standard_normal())
            recs.append(CreepRecord(t, S, eps))
    return recs


# ------------------------------------------------------------------ fitting

def test_noiseless_fit_is_exact():
    fit = fit_nutting(synthetic_records())
    assert fit.psi == pytest.approx(PSI, rel=1e-10)
    assert fit.alpha == pytest.approx(ALPHA, abs=1e-10)
    assert fit.beta_exp == pytest.approx(BETA, abs=1e-10)
    assert fit.rms_log_residual < 1e-12
    assert fit.n_points == 15
    assert not fit.beta_fixed and not fit.alpha_range_violation


def test_tuples_are_accepted():
    fit = fit_nutting([(t, 2.0, law(t, 2.0, beta=1.0)) for t in (1.0, 2.0, 4.0)])
    assert fit.psi == pytest.approx(PSI, rel=1e-10)


def test_single_stress_pins_the_stress_exponent():
    recs = [CreepRecord(t, 3.0, law(t, 3.0, beta=1.0))
            for t in (0.5, 1.0, 2.0, 4.0)]
    fit = fit_nutting(recs)
    assert fit.beta_fixed
    assert fit.beta_exp == 1.0
    assert fit.psi == pytest.approx(PSI, rel=1e-10)
    assert fit.alpha == pytest.approx(ALPHA, abs=1e-10)


def test_degenerate_data_is_refused():
    with pytest.raises(DegenerateDataError):
        fit_nutting([(1.0, 1.0, 1.0), (2.0, 1.0, 1.5)])  # too few
    with pytest.raises(DegenerateDataError):
        fit_nutting([(2.0, S, 0.3 * S) for S in (1.0, 2.0, 3.0)])  # one time
    with pytest.raises(DegenerateDataError):
        fit_nutting([(2.0, 1.0, v) for v in (0.3, 0.4, 0.5)])  # one time, one stress


def test_fitted_psi_out_of_double_range_is_refused():
    # strains near 1e-310 put psi near exp(713.8); no numpy warning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"fitted psi = exp\(713\.801\) exceeds"):
            fit_nutting([(1.0, 1.0, 1e-310), (2.0, 1.0, 2e-310), (3.0, 1.0, 3e-310)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_survives_multiplicative_noise(seed):
    rng = np.random.default_rng(seed)
    fit = fit_nutting(synthetic_records(rng, level=0.01))
    assert fit.psi == pytest.approx(PSI, rel=0.05)
    assert fit.alpha == pytest.approx(ALPHA, rel=0.05)
    assert fit.beta_exp == pytest.approx(BETA, rel=0.05)
    assert fit.rms_log_residual < 0.05


def test_time_unit_equivariance():
    # relabeling seconds as milliseconds scales psi by c**alpha and
    # leaves both exponents untouched
    base = synthetic_records()
    c = 1000.0
    scaled = [CreepRecord(c * r.t, r.stress, r.strain) for r in base]
    f0 = fit_nutting(base)
    f1 = fit_nutting(scaled)
    assert f1.alpha == pytest.approx(f0.alpha, abs=1e-10)
    assert f1.beta_exp == pytest.approx(f0.beta_exp, abs=1e-10)
    assert f1.psi == pytest.approx(c**f0.alpha * f0.psi, rel=1e-8)


def test_out_of_range_exponent_is_reported_not_clamped():
    recs = [CreepRecord(t, S, law(t, S, alpha=1.3))
            for t in (0.5, 1.0, 2.0) for S in (1.0, 3.0)]
    fit = fit_nutting(recs)
    assert fit.alpha_range_violation
    assert fit.alpha == pytest.approx(1.3, abs=1e-10)


def test_record_and_fit_validation():
    with pytest.raises(DomainError):
        CreepRecord(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        CreepRecord(1.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        CreepRecord(1.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        NuttingFit(psi=-1.0, alpha=0.5, beta_exp=1.0,
                   rms_log_residual=0.0, n_points=5)
    with pytest.raises(DomainError):
        NuttingFit(psi=1.0, alpha=0.5, beta_exp=1.0,
                   rms_log_residual=0.0, n_points=2)
    with pytest.raises(DomainError, match="^rms residual cannot be negative$"):
        NuttingFit(psi=1.0, alpha=0.5, beta_exp=1.0, rms_log_residual=-1e-300, n_points=5)
    with pytest.raises(DomainError, match="^rms residual must be a number, got nan$"):
        NuttingFit(psi=1.0, alpha=0.5, beta_exp=1.0, rms_log_residual=math.nan, n_points=5)


@pytest.mark.parametrize("cols,message", [
    (([1.0, 2.0], [1.0], [1.0, 2.0]), "creep columns must be 1-D and of one length"),
    (([[1.0]], [1.0], [1.0]), "creep columns must be 1-D and of one length"),
    (([1.0, 2.0], [1.0, 1.0], [0.5, 0.0]),
     "creep record field strain must be a positive real, got 0.0"),
    # the first cell in file order: row 1's stress before row 2's t
    (([1.0, -2.0], [math.inf, 1.0], [0.5, 0.7]),
     "creep record field stress must be a positive real, got inf"),
    (([1.0, math.nan], [1.0, 1.0], [0.5, 0.7]),
     "creep record field t must be a positive real, got nan"),
], ids=["ragged", "2-D", "zero strain", "file order", "nan time"])
def test_creep_columns_refuse_what_a_record_refuses(cols, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        CreepColumns(*cols)
    good = CreepColumns([1.0, 2.0], [1.0, 1.0], [0.5, 0.7])
    assert len(good) == 2 and good.stress.dtype == float


# ------------------------------------------------------------ quasi-property

def test_quasi_property_is_apparent_viscosity_at_order_one():
    t = np.arange(0.0, 1.0 + 0.05, 0.1)
    out = quasi_property(3.0, SignalSeries(0.0, 0.1, t), 1.0)
    assert out.t0 == pytest.approx(0.1)  # startup sample dropped
    assert_allclose(out.values, 3.0, rtol=1e-12)


def test_quasi_property_is_secant_modulus_at_order_zero():
    s = SignalSeries(0.0, 0.1, np.full(10, 2.0))
    out = quasi_property(4.0, s, 0.0)
    assert out.t0 == 0.0
    assert_allclose(out.values, 2.0, rtol=1e-14)


def test_matched_order_gives_a_flat_material_constant():
    t = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    strain = nutting_strain(PSI, 3.0, 0.5, 1.0, t)
    out = quasi_property(3.0, strain, 0.5)
    want = PSI / gamma(1.5)  # psi * S**(1-beta) / gamma(1+alpha)
    tail = out.values[10:]
    assert np.max(tail) - np.min(tail) < 0.01 * want
    assert np.mean(tail) == pytest.approx(want, rel=1e-3)


def test_quasi_property_refuses_non_monotone_strain():
    s = SignalSeries(0.0, 0.1, [0.0, 1.0, 0.5, 0.4])
    with pytest.raises(DivisionError, match="sample 2"):
        quasi_property(1.0, s, 1.0)


def test_quasi_property_refuses_empty_strain():
    with pytest.raises(DivisionError):
        quasi_property(1.0, SignalSeries(0.0, 0.1, np.zeros(5)), 0.5)
    with pytest.raises(DomainError):
        quasi_property(1.0, SignalSeries(0.0, 0.1, [0.0, 1.0, -1.0, 1.0]), 0.5)
    with pytest.raises(DomainError):
        quasi_property(-1.0, SignalSeries(0.0, 0.1, [0.0, 1.0, 2.0]), 0.5)
    with pytest.raises(DomainError, match="^too few samples beyond the startup region$"):
        quasi_property(1.0, SignalSeries(0.0, 0.1, [0.0, 0.0, 0.0, 1.0]), 0.5)


# ----------------------------------------------------------- general series

def test_general_series_single_term_value():
    out = nutting_general_series(1.0, 1.0, 0.5, [1.0], [4.0, 5.0])
    assert out.values[0] == pytest.approx(2.0, rel=1e-14)


def test_general_series_matches_plain_law():
    t = np.linspace(1.0, 5.0, 9)
    a = nutting_general_series(3.0, BETA, ALPHA, [1.0 / PSI], t)
    b = nutting_strain(PSI, 3.0, ALPHA, BETA, t)
    assert_allclose(a.values, b.values, rtol=1e-14)


def test_general_series_zero_padding_is_inert():
    t = np.linspace(1.0, 2.0, 5)
    a = nutting_general_series(2.0, 1.0, 0.7, [2.0], t)
    b = nutting_general_series(2.0, 1.0, 0.7, [2.0, 0.0, 0.0], t)
    assert_allclose(a.values, b.values, atol=0.0)


def test_general_series_small_corrections_stay_small():
    t = np.linspace(1.0, 2.0, 5)
    a = nutting_general_series(1.0, 1.0, 0.5, [1.0], t)
    b = nutting_general_series(1.0, 1.0, 0.5, [1.0, 1e-6], t)
    assert np.max(np.abs(b.values - a.values) / a.values) < 1e-5


def test_general_series_domain():
    for alpha_prime in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^leading exponent must be finite$"):
            nutting_general_series(1.0, 1.0, alpha_prime, [1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        nutting_general_series(1.0, 1.0, 0.5, [1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        nutting_general_series(1.0, 1.0, 0.5, [], [1.0, 2.0])
    with pytest.raises(DomainError):
        nutting_general_series(1.0, 1.0, 0.5, [1.0], [1.0, 2.0, 4.0])
