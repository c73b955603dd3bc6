"""Probability weighted moments (PWMs) and GEV parameter recovery.

Two recovery routes are provided: the classical one based on the first
three L-moments and a trimmed variant based on the first three
(0,1)-trimmed L-moments, which damps the influence of the largest
observation.  Both express the moments through PWMs ``beta_0..beta_K``
and invert an equation system for (mu, sigma, xi); the shape equation is
solved by a fitted polynomial by default, with exact numerical inversion
available behind a flag for validation.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import DataError, NumericError, ParameterError
from .gev import GevParams, brentq, gev_quantile

__all__ = [
    "PwmVector",
    "pwm_of_gev",
    "sample_pwm",
    "sample_pwm_unbiased",
    "lmoments_from_pwm",
    "tlmoments_from_pwm",
    "gev_from_lmoments",
    "gev_from_tlmoments",
    "shape_from_lmoments",
    "shape_from_tlmoments",
    "shape_gradient_lmoments",
    "shape_gradient_tlmoments",
    "gev_fit_gradient",
]

EULER_GAMMA = np.euler_gamma

# offsets making the shape-equation ratio vanish at xi = 0
_L_OFFSET = math.log(2) / math.log(3)
_TL_OFFSET = (2 * math.log(2) - math.log(3)) / (3 * math.log(3) - 2 * math.log(4))

# |fitted shape| below this switches the scale/location equations to
# their xi -> 0 limits (the raw equations are 0/0 there)
_FIT_GUMBEL_EPS = 1e-6


@dataclass(frozen=True)
class PwmVector:
    """Ordered PWMs beta_0..beta_K of a sample or distribution."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim != 1:
            raise ParameterError("PWM values must form a 1-D sequence")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        return float(self.values[k])


def pwm_of_gev(params: GevParams, k: int) -> float:
    """PWM of order k of a GEV computed by quadrature of the quantile.

    This is the in-repo oracle for parameter round trips: it integrates
    ``quantile(u) * u**k`` over (0, 1) to absolute tolerance 1e-10 and is
    independent of the closed-form recovery equations it validates.
    """
    if k < 0:
        raise ParameterError("PWM order must be a non-negative integer")
    if params.xi >= 1:
        raise ParameterError(
            f"PWMs diverge for shape >= 1 (got xi={params.xi}); the mean is infinite"
        )
    # only this validation oracle needs quadrature; importing it here keeps
    # scipy.integrate out of the command line's start-up
    from scipy import integrate

    # strong endpoint singularities (shape near 1) make quad report
    # roundoff in its extrapolation table; the explicit error-estimate
    # check below is the contract, so the warning itself is noise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            lambda u: gev_quantile(params, u) * u**k,
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
    if err > 1e-10:
        raise NumericError(f"PWM quadrature error estimate {err:.2e} exceeds 1e-10")
    return float(value)


def _check_sorted_finite(xs: np.ndarray) -> None:
    """Reject a sorted, non-empty sample holding NaN or an infinity, read off its
    two ends (NaN sorts last)."""
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise DataError("sample values must be finite")


def sample_pwm(data, k_max: int) -> PwmVector:
    """Plug-in sample PWMs beta_hat_k = mean(x * Fhat(x)**k), k = 0..k_max.

    ``Fhat`` is the empirical distribution function #{obs <= x}/n; tied
    observations share a common value.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("sample PWMs require a 1-D sample of length >= 2")
    if k_max < 0:
        raise ParameterError("k_max must be non-negative")
    xs = np.sort(x)
    _check_sorted_finite(xs)
    ecdf = np.searchsorted(xs, x, side="right") / len(x)
    ks = np.arange(k_max + 1)
    betas = np.mean(x[:, None] * ecdf[:, None] ** ks[None, :], axis=0)
    return PwmVector(betas)


def sample_pwm_unbiased(data, k_max: int) -> PwmVector:
    """Unbiased sample PWMs from order-statistic weights.

    b_k averages x_(i) * C(i-1, k)/C(n-1, k) over the ordered sample;
    unlike the plug-in version this is exactly unbiased for beta_k,
    which removes the O(1/n) downward shape bias that otherwise
    dominates interval coverage at realistic record lengths.  Both
    versions share the same limit distribution, so the nonparametric
    covariance machinery applies to either.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("sample PWMs require a 1-D sample of length >= 2")
    if k_max < 0:
        raise ParameterError("k_max must be non-negative")
    xs = np.sort(x)
    _check_sorted_finite(xs)
    n = len(xs)
    if k_max >= n:
        raise ParameterError(f"PWM order {k_max} needs a sample larger than {k_max}")
    idx = np.arange(1, n + 1, dtype=float)
    betas = np.empty(k_max + 1)
    weights = np.ones(n)
    betas[0] = xs.mean()
    for k in range(1, k_max + 1):
        weights = weights * (idx - k) / (n - k)
        betas[k] = float(np.mean(weights * xs))
    return PwmVector(betas)


def lmoments_from_pwm(pwm: PwmVector) -> tuple[float, float, float]:
    """First three L-moments from beta_0..beta_2."""
    if pwm.order < 3:
        raise ParameterError("L-moments need PWMs up to order 2")
    b0, b1, b2 = pwm[0], pwm[1], pwm[2]
    return b0, 2 * b1 - b0, 6 * b2 - 6 * b1 + b0


def tlmoments_from_pwm(pwm: PwmVector) -> tuple[float, float, float]:
    """First three (0,1)-trimmed L-moments from beta_0..beta_3."""
    if pwm.order < 4:
        raise ParameterError("trimmed L-moments need PWMs up to order 3")
    b0, b1, b2, b3 = pwm[0], pwm[1], pwm[2], pwm[3]
    t1 = 2 * b0 - 2 * b1
    t2 = 1.5 * (4 * b1 - b0 - 3 * b2)
    t3 = (2.0 / 3.0) * (36 * b2 - 18 * b1 + 2 * b0 - 20 * b3)
    return t1, t2, t3


# --------------------------------------------------------------------------
# Shape recovery
# --------------------------------------------------------------------------


def _h_l(b0: float, b1: float, b2: float) -> float:
    try:
        return (2 * b1 - b0) / (3 * b2 - b0) - _L_OFFSET
    except ZeroDivisionError:
        raise DataError(
            "degenerate sample: L-moment shape ratio has a zero denominator"
        ) from None


def _h_tl(b0: float, b1: float, b2: float, b3: float) -> float:
    try:
        return (4 * b1 - b0 - 3 * b2) / (9 * b2 - b0 - 8 * b3) - _TL_OFFSET
    except ZeroDivisionError:
        raise DataError(
            "degenerate sample: trimmed L-moment shape ratio has a zero denominator"
        ) from None


def shape_from_lmoments(pwm: PwmVector) -> float:
    """Polynomial shape approximation from the L-moment ratio."""
    if pwm.order < 3:
        raise ParameterError("shape recovery needs PWMs up to order 2")
    h = _h_l(pwm[0], pwm[1], pwm[2])
    return -7.859 * h - 2.9554 * h * h


def shape_from_tlmoments(pwm: PwmVector) -> float:
    """Polynomial shape approximation from the trimmed-L-moment ratio."""
    if pwm.order < 4:
        raise ParameterError("shape recovery needs PWMs up to order 3")
    h = _h_tl(pwm[0], pwm[1], pwm[2], pwm[3])
    return -8.567394 * h + 0.675969 * h * h


def shape_gradient_lmoments(pwm: PwmVector) -> np.ndarray:
    """Analytic gradient of the L-route shape estimate in (b0, b1, b2)."""
    b0, b1, b2 = pwm[0], pwm[1], pwm[2]
    num = 2 * b1 - b0
    den = 3 * b2 - b0
    h = num / den - _L_OFFSET
    dpoly = -7.859 - 2 * 2.9554 * h
    grad_h = np.array([(num - den) / den**2, 2.0 / den, -3.0 * num / den**2])
    return dpoly * grad_h


def shape_gradient_tlmoments(pwm: PwmVector) -> np.ndarray:
    """Analytic gradient of the TL-route shape estimate in (b0..b3)."""
    b0, b1, b2, b3 = pwm[0], pwm[1], pwm[2], pwm[3]
    num = 4 * b1 - b0 - 3 * b2
    den = 9 * b2 - b0 - 8 * b3
    h = num / den - _TL_OFFSET
    dpoly = -8.567394 + 2 * 0.675969 * h
    grad_num = np.array([-1.0, 4.0, -3.0, 0.0])
    grad_den = np.array([-1.0, 0.0, 9.0, -8.0])
    grad_h = (den * grad_num - num * grad_den) / den**2
    return dpoly * grad_h


def _solve_shape_l(b0: float, b1: float, b2: float) -> float:
    """Exact shape from the untrimmed ratio equation by root finding."""
    rhs = (3 * b2 - b0) / (2 * b1 - b0)

    def lhs(xi: float) -> float:
        if abs(xi) < 1e-9:
            return math.log(3) / math.log(2)
        return (3.0**xi - 1.0) / (2.0**xi - 1.0)

    lo, hi = -10.0, 1.0 - 1e-10
    if (lhs(lo) - rhs) * (lhs(hi) - rhs) > 0:
        raise NumericError(f"moment ratio {rhs:.6g} has no shape solution in ({lo}, 1)")
    return float(brentq(lambda s: lhs(s) - rhs, lo, hi, xtol=1e-13))


def _solve_shape_tl(b0: float, b1: float, b2: float, b3: float) -> float:
    """Exact shape from the trimmed ratio equation by root finding."""
    rhs = 2.0 * (18 * b2 - 9 * b1 + b0 - 10 * b3) / (4 * b1 - b0 - 3 * b2)

    def lhs(xi: float) -> float:
        if abs(xi) < 1e-9:
            return (19 * math.log(2) - 12 * math.log(3)) / (
                math.log(3) - 2 * math.log(2)
            )
        return (5 * 4.0**xi - 12 * 3.0**xi + 9 * 2.0**xi - 2.0) / (
            3.0**xi - 2.0 ** (xi + 1) + 1.0
        )

    lo, hi = -5.0, 1.0 - 1e-10
    if (lhs(lo) - rhs) * (lhs(hi) - rhs) > 0:
        raise NumericError(
            f"trimmed moment ratio {rhs:.6g} has no shape solution in ({lo}, 1)"
        )
    return float(brentq(lambda s: lhs(s) - rhs, lo, hi, xtol=1e-13))


# --------------------------------------------------------------------------
# Full parameter recovery
# --------------------------------------------------------------------------


def gev_from_lmoments(pwm: PwmVector, exact_shape: bool = False) -> GevParams:
    """GEV parameters from PWMs via the L-moment equation system.

    Parameters
    ----------
    pwm : PwmVector
        PWMs of order >= 3 (beta_0, beta_1, beta_2, ...).
    exact_shape : bool
        Solve the shape ratio equation numerically instead of using the
        default polynomial approximation (validation aid).

    Raises
    ------
    DataError
        If the implied second L-moment is not positive.
    NumericError
        If the recovered shape reaches the Gamma-function pole at 1.
    """
    if pwm.order < 3:
        raise ParameterError("L-moment recovery needs PWMs up to order 2")
    b0, b1, b2 = pwm[0], pwm[1], pwm[2]
    lam2 = 2 * b1 - b0
    if not lam2 > 0:  # also rejects NaN
        raise DataError(f"degenerate sample: second L-moment {lam2:.6g} is not positive")
    xi = _solve_shape_l(b0, b1, b2) if exact_shape else shape_from_lmoments(pwm)
    if xi >= 1:
        raise NumericError(f"recovered shape {xi:.4f} >= 1: mean is infinite")
    if abs(xi) < _FIT_GUMBEL_EPS:
        sigma = lam2 / math.log(2)
        mu = b0 - EULER_GAMMA * sigma
    else:
        sigma = lam2 * xi / (gamma_fn(1 - xi) * (2.0**xi - 1.0))
        mu = b0 + sigma * (1.0 - gamma_fn(1 - xi)) / xi
    return GevParams(float(mu), float(sigma), float(xi))


def gev_from_tlmoments(pwm: PwmVector, exact_shape: bool = False) -> GevParams:
    """GEV parameters from PWMs via the (0,1)-trimmed equation system.

    Same contract as :func:`gev_from_lmoments` but based on beta_0..beta_3
    and the trimmed moments; near xi = 0 the scale/location equations use
    their analytic limits (the raw expressions are 0/0 at the Gamma pole).
    """
    if pwm.order < 4:
        raise ParameterError("trimmed recovery needs PWMs up to order 3")
    b0, b1, b2, b3 = pwm[0], pwm[1], pwm[2], pwm[3]
    lam2_t = 1.5 * (4 * b1 - b0 - 3 * b2)
    if not lam2_t > 0:  # also rejects NaN
        raise DataError(
            f"degenerate sample: second trimmed L-moment {lam2_t:.6g} is not positive"
        )
    xi = _solve_shape_tl(b0, b1, b2, b3) if exact_shape else shape_from_tlmoments(pwm)
    if xi >= 1:
        raise NumericError(f"recovered shape {xi:.4f} >= 1: mean is infinite")
    scale_num = 4 * b1 - b0 - 3 * b2
    if abs(xi) < _FIT_GUMBEL_EPS:
        sigma = scale_num / math.log(4.0 / 3.0)
        mu = 2 * (b0 - b1) + sigma * (math.log(2) - EULER_GAMMA)
    else:
        g = gamma_fn(-xi)
        sigma = scale_num / (g * (3.0**xi - 2.0 ** (xi + 1) + 1.0))
        mu = 2 * (b0 - b1) + sigma / xi - sigma * g * (2.0**xi - 2.0)
    return GevParams(float(mu), float(sigma), float(xi))


@dataclass(frozen=True)
class _MomentMethod:
    """PWM order K and the shape, shape-gradient and recovery maps of a method."""

    order: int
    shape: Callable[[PwmVector], float]
    shape_gradient: Callable[[PwmVector], np.ndarray]
    recover: Callable[[PwmVector], GevParams]


_MOMENT_METHODS = {
    "L": _MomentMethod(3, shape_from_lmoments, shape_gradient_lmoments, gev_from_lmoments),
    "TL": _MomentMethod(4, shape_from_tlmoments, shape_gradient_tlmoments, gev_from_tlmoments),
}


def _moment_method(method: str) -> _MomentMethod:
    """The table entry of an L/TL method name."""
    try:
        return _MOMENT_METHODS[method]
    except KeyError:
        raise ParameterError(
            f"unknown moment method {method!r}; use 'L' or 'TL'"
        ) from None


def gev_fit_gradient(pwm: PwmVector, method: str) -> np.ndarray:
    """Gradient of the (mu, sigma, xi) recovery map in the PWMs.

    The shape row is analytic (it drives the regional variance and is
    cross-checked by finite differences in the tests); the location and
    scale rows use central differences of the full recovery map.

    Returns
    -------
    numpy.ndarray
        3 x K matrix, K = 3 for ``method='L'`` and 4 for ``method='TL'``.
    """
    spec = _moment_method(method)
    k_needed = spec.order
    if pwm.order < k_needed:
        raise ParameterError(f"method {method!r} needs PWMs up to order {k_needed - 1}")
    base = pwm.values[:k_needed].copy()
    out = np.empty((3, k_needed))
    out[2] = spec.shape_gradient(PwmVector(base))
    for k in range(k_needed):
        h = 1e-6 * max(1.0, abs(base[k]))
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        theta_up = spec.recover(PwmVector(up)).as_array()
        theta_dn = spec.recover(PwmVector(dn)).as_array()
        out[0, k] = (theta_up[0] - theta_dn[0]) / (2 * h)
        out[1, k] = (theta_up[1] - theta_dn[1]) / (2 * h)
    return out
