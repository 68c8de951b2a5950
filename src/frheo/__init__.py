"""frheo: fractional-calculus viscoelasticity toolkit.

Special functions (gamma, Mittag-Leffler, fractional-exponential
kernel), discrete fractional operators, a constitutive-model catalog
with relaxation/creep/dynamic responses and time-domain simulation,
numerical inverse Laplace transformation, and power-law creep fitting.
"""

from .errors import (BranchError, ConvergenceError, DegenerateDataError,
                     DivisionError, DomainError, FormatError, FrheoError,
                     GridError, PoleError, QuadratureError, StabilityError)
from .fracops import (FractionalOrder, SignalSeries, caputo_derivative,
                      frac_deriv_power, gl_derivative, gl_weights)
from .laplace import invert
from .models import (ClassicalKelvin, ClassicalMaxwell, FracKelvinVoigt,
                     FracMaxwell, FracZener, MaterialResponse, PoyntingThomson,
                     SpringPot, ThreeParamMaxwell, complex_modulus,
                     creep_compliance, nutting_strain, rabotnov_stress,
                     relaxation_modulus, relaxation_time_of_stress,
                     simulate_stress, transfer_function)
from .nutting import (CreepColumns, CreepRecord, NuttingFit, fit_nutting,
                      nutting_general_series, quasi_property)
from .special import MLParams, RabotnovParams, gamma, ml_eval, rabotnov_kernel

__version__ = "0.1.0"

__all__ = [
    "BranchError", "ClassicalKelvin", "ClassicalMaxwell", "ConvergenceError",
    "CreepColumns", "CreepRecord", "DegenerateDataError", "DivisionError",
    "DomainError", "FormatError", "FracKelvinVoigt", "FracMaxwell", "FracZener",
    "FractionalOrder", "FrheoError", "GridError", "MLParams",
    "MaterialResponse", "NuttingFit", "PoleError", "PoyntingThomson",
    "QuadratureError", "RabotnovParams", "SignalSeries", "SpringPot",
    "StabilityError", "ThreeParamMaxwell", "caputo_derivative",
    "complex_modulus", "creep_compliance", "fit_nutting", "frac_deriv_power",
    "gamma", "gl_derivative", "gl_weights", "invert", "ml_eval",
    "nutting_general_series", "nutting_strain", "quasi_property",
    "rabotnov_kernel", "rabotnov_stress", "relaxation_modulus",
    "relaxation_time_of_stress", "simulate_stress", "transfer_function",
]
