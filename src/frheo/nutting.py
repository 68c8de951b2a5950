"""Power-law creep fitting and quasi-property extraction.

The creep law strain = S**b * t**a / psi is exactly linear in log
space, so the fit is a plain least-squares solve; no iterative
optimizer, no starting guesses. Quasi-properties divide the applied
stress by a fractional derivative of the recorded strain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DivisionError, DomainError, _in_range, _positive
from .fracops import OrderLike, SignalSeries, _grid_break, gl_derivative

_FIELDS = ("t", "stress", "strain")  # of a creep record, in file and column order


@dataclass(frozen=True)
class CreepRecord:
    """One experimental triple: time, applied stress, measured strain."""

    t: float
    stress: float
    strain: float

    def __post_init__(self):
        for name in _FIELDS:
            _positive(getattr(self, name), f"creep record field {name}")


def _first_non_positive(cols):
    """(row, column) of the first cell of the equal-length columns cols,
    read row by row, that is not a positive real; None if every cell is."""
    x = np.asarray(cols)
    bad = ~((x > 0.0) & (x < np.inf))
    return divmod(int(np.argmax(bad.T)), len(x)) if bad.any() else None


@dataclass(frozen=True)
class CreepColumns:
    """Creep records as three columns of one length: times, applied
    stresses and measured strains, every cell a positive real. len() is
    the record count."""

    t: np.ndarray
    stress: np.ndarray
    strain: np.ndarray

    def __post_init__(self):
        cols = [np.asarray(getattr(self, n), dtype=float) for n in _FIELDS]
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise DomainError("creep columns must be 1-D and of one length")
        bad = _first_non_positive(cols)
        if bad:
            k, j = bad
            raise DomainError(f"creep record field {_FIELDS[j]} must be a positive real, "
                              f"got {cols[j][k]}")
        for name, c in zip(_FIELDS, cols):
            object.__setattr__(self, name, c)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class NuttingFit:
    """Fitted creep-law parameters plus fit diagnostics.

    beta_fixed marks records without stress variation, where the stress
    exponent cannot be identified and is pinned to 1.
    alpha_range_violation marks time exponents outside [0, 1]; the raw
    value is reported, never clamped.
    """

    psi: float
    alpha: float
    beta_exp: float
    rms_log_residual: float
    n_points: int
    beta_fixed: bool = False
    alpha_range_violation: bool = False

    def __post_init__(self):
        if not (self.psi > 0 and math.isfinite(self.psi)):
            raise DomainError(f"psi must be positive, got {self.psi}")
        if math.isnan(self.rms_log_residual):
            raise DomainError("rms residual must be a number, got nan")
        if self.rms_log_residual < 0:
            raise DomainError("rms residual cannot be negative")
        if self.n_points < 3:
            raise DomainError("a fit needs at least 3 points")


def fit_nutting(data) -> NuttingFit:
    """Least-squares fit of log strain = b*log stress + a*log t - log psi.

    data is a CreepColumns or a sequence of CreepRecord or (t, stress,
    strain) triples. Needs at least 3 records and 2 distinct times. With
    fewer than 2 distinct stresses the exponent b is not identifiable; it
    is fixed to 1 and the fit flagged. Raises DegenerateDataError when the
    design matrix stays rank-deficient beyond that fallback.
    """
    if not isinstance(data, CreepColumns):
        records = [r if isinstance(r, CreepRecord) else CreepRecord(*r) for r in data]
        data = CreepColumns(*np.array([(r.t, r.stress, r.strain) for r in records],
                                      dtype=float).reshape(-1, 3).T)
    n = len(data)
    if n < 3:
        raise DegenerateDataError(f"need at least 3 records, got {n}")
    log_t, log_s, y = np.log(data.t), np.log(data.stress), np.log(data.strain)
    beta_fixed = bool(np.unique(log_s).size < 2)
    # with b pinned to 1, log stress moves from the design to the target
    design = np.column_stack([log_t, np.ones(n)] if beta_fixed else [log_s, log_t, np.ones(n)])
    target = y - log_s if beta_fixed else y
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise DegenerateDataError(
            "records do not span the fit: vary the times "
            "(and stresses, for the stress exponent)")
    beta_exp, alpha, intercept = (1.0, *coef) if beta_fixed else coef
    resid = target - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return NuttingFit(
        psi=float(np.exp(-intercept)),
        alpha=float(alpha),
        beta_exp=float(beta_exp),
        rms_log_residual=rms,
        n_points=n,
        beta_fixed=beta_fixed,
        alpha_range_violation=not 0.0 <= alpha <= 1.0,
    )


def quasi_property(S: float, strain: SignalSeries, mu: OrderLike) -> SignalSeries:
    """Stress divided by the order-mu fractional derivative of strain.

    Order 0 gives the reciprocal-modulus analog, order 1 the apparent
    viscosity. Leading samples where the strain is still identically
    zero carry no information and are dropped from the output; the
    derivative is taken on the full record first, so the memory lower
    terminal stays at the record start.
    """
    _positive(S, "stress")
    deriv = gl_derivative(strain, mu).values
    vals = strain.values
    positive = vals > 0.0
    if not positive.any():
        raise DivisionError("strain record is identically non-positive")
    start = int(np.argmax(positive))
    if np.any(vals[start:] <= 0.0):
        raise DomainError("strain must stay positive beyond the startup region")
    tail = deriv[start:]
    if np.any(tail <= 0.0):
        bad = start + int(np.argmax(tail <= 0.0))
        raise DivisionError(
            f"fractional derivative is non-positive at sample {bad} "
            f"(t = {strain.t0 + bad * strain.dt:g})")
    if tail.size < 2:
        raise DomainError("too few samples beyond the startup region")
    with np.errstate(all="ignore"):  # a quotient out of double range is refused below
        q = S / tail
    _in_range(q, strain.t0 + strain.dt * np.arange(start, vals.size), "quasi-property")
    return SignalSeries(strain.t0 + start * strain.dt, strain.dt, q)


def nutting_general_series(S: float, beta_exp: float, alpha_prime: float,
                           coeffs, t_grid) -> SignalSeries:
    """Descending power series S**b * (c0*t**a' + c1*t**(a'-1) + ...).

    A single coefficient reduces to the plain creep law with
    psi = 1/c0. Times must be strictly positive since the trailing
    exponents are negative, and finite, increasing and uniform:
    dt = t1 - t0 > 0, every step within 1e-9 * dt of dt.
    """
    _positive(S, "stress")
    _positive(beta_exp, "stress exponent")
    if not (isinstance(alpha_prime, (int, float)) and math.isfinite(alpha_prime)):
        raise DomainError("leading exponent must be finite")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise DomainError("need a non-empty sequence of finite coefficients")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t)):
        raise DomainError("need a finite grid with at least 2 samples")
    if np.any(t <= 0.0):
        raise DomainError("times must be strictly positive")
    if _grid_break(t) is not None:
        raise DomainError("grid must be uniformly spaced and increasing")
    vals = np.zeros_like(t)
    for i, ck in enumerate(c):
        if ck != 0.0:
            vals += ck * t**(alpha_prime - i)
    return SignalSeries(t[0], t[1] - t[0], S**beta_exp * vals)
