"""Probability weighted moments (PWMs) and GEV parameter recovery.

Two recovery routes are provided: the classical one based on the first
three L-moments and a trimmed variant based on the first three
(0,1)-trimmed L-moments, which damps the influence of the largest
observation.  Both express the moments through PWMs ``beta_0..beta_K``
and invert an equation system for (mu, sigma, xi); the shape is a fitted
polynomial in one moment ratio per route, and that ratio, checked once,
also feeds the analytic shape gradient.  Sample PWMs, and the influence
rows behind their covariance, come from one stable ranking of all sites
of a region at once.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import DataError, NumericError, ParameterError, _integer
from .gev import GevParams, gev_quantile

__all__ = [
    "PwmVector",
    "pwm_of_gev",
    "sample_pwm",
    "sample_pwm_unbiased",
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
    k = _integer(k, "PWM order")
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


def _ranked_block(samples, K: int, pwm_estimator: str | None = None) -> np.ndarray:
    """Sample PWMs or influence rows of samples ending in the same year, from one
    stable ranking of the n x d block that pads them at the start.

    With ``pwm_estimator`` ('plugin' or 'unbiased') this is the d x K matrix
    of PWMs beta_0..beta_{K-1}, one row per sample.  Without it, it is the
    n x d x K array of plug-in influence rows (see ``zhat_vectors``): entry
    (t, j) is year t of the block, which holds no data before sample j
    starts.  Tied values share the ecdf value #{obs <= x}/n_j.  The
    one-sample calls are the public sample functions.
    """
    lengths = np.array([len(x) for x in samples])
    n, d = int(lengths.max()), len(samples)
    pad = n - lengths
    years = np.arange(n)[:, None]
    real = years >= pad
    block = np.full((n, d), -np.inf)
    block.T[real.T] = np.concatenate(samples)
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    # the padding sorts first, so a sample's smallest value follows it (NaN sorts last)
    if not (np.isfinite(xs[pad, np.arange(d)]).all() and np.isfinite(xs[-1]).all()):
        raise DataError("sample values must be finite")
    if pwm_estimator == "unbiased" and lengths.min() < K:
        raise ParameterError(f"PWM order {K - 1} needs a sample larger than {K - 1}")
    # runs of tied values, read before the padding is zeroed: no real value ties -inf
    starts = np.ones((n + 1, d), dtype=bool)
    starts[1:-1] = xs[1:] != xs[:-1]
    last = np.minimum.accumulate(np.where(starts[1:], years, n)[::-1], axis=0)[::-1]
    ecdf = (last + 1 - pad) / lengths
    # zeros in the padding keep inf * 0 out of every product and sum below
    xs[~real] = 0.0
    if pwm_estimator == "plugin":
        # the plug-in mean adds its terms in each sample's own order
        ecdf_x = np.empty_like(ecdf)
        np.put_along_axis(ecdf_x, order, ecdf, axis=0)
        x = np.where(real, block, 0.0)
        return (x[:, :, None] * ecdf_x[:, :, None] ** np.arange(K)).sum(axis=0) / lengths[:, None]
    if pwm_estimator == "unbiased":
        # b_k averages x_(i) * C(i-1, k)/C(n-1, k); a row-wise mean over each
        # sample's sorted values keeps the pairwise sum of a one-sample mean
        rank = (years + 1 - pad).astype(float)
        weights, terms = np.ones((n, d)), [xs]
        for k in range(1, K):
            weights = weights * (rank - k) / (lengths - k)
            terms.append(weights * xs)
        by_sample = np.stack(terms).transpose(2, 0, 1).copy()
        return np.array([t[:, a:].mean(axis=1) for t, a in zip(by_sample, pad)])
    # x F(x)**k plus k/n_j times the sum of x_l F(x_l)**(k-1) over x_l >= x,
    # a suffix sum from the first of x's ties in sorted order
    first = np.maximum.accumulate(np.where(starts[:-1], years, 0), axis=0)
    ranked = np.empty((n, d, K))
    ranked[:, :, 0] = xs
    for k in range(1, K):
        v = xs * ecdf ** (k - 1)
        suffix = np.cumsum(v[::-1], axis=0)[::-1]
        ranked[:, :, k] = xs * ecdf**k + (k / lengths) * np.take_along_axis(suffix, first, axis=0)
    rows = np.empty_like(ranked)
    np.put_along_axis(rows, order[:, :, None], ranked, axis=0)
    return rows


def _one_sample_pwms(data, k_max: int, pwm_estimator: str) -> PwmVector:
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("sample PWMs require a 1-D sample of length >= 2")
    k_max = _integer(k_max, "k_max")
    if k_max < 0:
        raise ParameterError("k_max must be non-negative")
    return PwmVector(_ranked_block([x], k_max + 1, pwm_estimator)[0])


def sample_pwm(data, k_max: int) -> PwmVector:
    """Plug-in sample PWMs beta_hat_k = mean(x * Fhat(x)**k), k = 0..k_max.

    ``Fhat`` is the empirical distribution function #{obs <= x}/n; tied
    observations share a common value.
    """
    return _one_sample_pwms(data, k_max, "plugin")


def sample_pwm_unbiased(data, k_max: int) -> PwmVector:
    """Unbiased sample PWMs from order-statistic weights.

    b_k averages x_(i) * C(i-1, k)/C(n-1, k) over the ordered sample;
    unlike the plug-in version this is exactly unbiased for beta_k,
    which removes the O(1/n) downward shape bias that otherwise
    dominates interval coverage at realistic record lengths.  Both
    versions share the same limit distribution, so the nonparametric
    covariance machinery applies to either.
    """
    return _one_sample_pwms(data, k_max, "unbiased")


# --------------------------------------------------------------------------
# Shape recovery
# --------------------------------------------------------------------------


def _ratio(num: float, den: float, offset: float, name: str) -> tuple[float, float, float]:
    """``num``, ``den`` and ``num / den - offset`` of a shape ratio, checked:
    ``num`` and ``den`` finite and ``den`` nonzero."""
    if den == 0:
        raise DataError(f"degenerate sample: {name} shape ratio has a zero denominator")
    if not (math.isfinite(num) and math.isfinite(den)):
        raise DataError(
            f"{name} shape ratio {num:.6g}/{den:.6g} has a non-finite numerator or denominator"
        )
    return num, den, num / den - offset


def _ratio_l(pwm: PwmVector) -> tuple[float, float, float]:
    """The L-moment shape ratio (2b1 - b0)/(3b2 - b0), as :func:`_ratio` gives it."""
    if pwm.order < 3:
        raise ParameterError("shape recovery needs PWMs up to order 2")
    b0, b1, b2 = pwm[0], pwm[1], pwm[2]
    return _ratio(2 * b1 - b0, 3 * b2 - b0, _L_OFFSET, "L-moment")


def _ratio_tl(pwm: PwmVector) -> tuple[float, float, float]:
    """The trimmed shape ratio (4b1 - b0 - 3b2)/(9b2 - b0 - 8b3), as :func:`_ratio` gives it."""
    if pwm.order < 4:
        raise ParameterError("shape recovery needs PWMs up to order 3")
    b0, b1, b2, b3 = pwm[0], pwm[1], pwm[2], pwm[3]
    return _ratio(4 * b1 - b0 - 3 * b2, 9 * b2 - b0 - 8 * b3, _TL_OFFSET, "trimmed L-moment")


def _squared(den: float) -> float:
    """``den**2`` of a shape gradient, which must neither overflow nor underflow to 0."""
    try:
        square = den**2
    except OverflowError:
        square = math.inf
    if not 0 < square < math.inf:
        raise NumericError(
            f"shape gradient: the squared ratio denominator of {den:.6g} "
            "is out of floating-point range"
        )
    return square


def shape_from_lmoments(pwm: PwmVector) -> float:
    """Polynomial shape approximation from the L-moment ratio."""
    h = _ratio_l(pwm)[2]
    return -7.859 * h - 2.9554 * h * h


def shape_from_tlmoments(pwm: PwmVector) -> float:
    """Polynomial shape approximation from the trimmed-L-moment ratio."""
    h = _ratio_tl(pwm)[2]
    return -8.567394 * h + 0.675969 * h * h


def shape_gradient_lmoments(pwm: PwmVector) -> np.ndarray:
    """Analytic gradient of the L-route shape estimate in (b0, b1, b2)."""
    num, den, h = _ratio_l(pwm)
    dpoly = -7.859 - 2 * 2.9554 * h
    den2 = _squared(den)
    grad_h = np.array([(num - den) / den2, 2.0 / den, -3.0 * num / den2])
    return dpoly * grad_h


def shape_gradient_tlmoments(pwm: PwmVector) -> np.ndarray:
    """Analytic gradient of the TL-route shape estimate in (b0..b3)."""
    num, den, h = _ratio_tl(pwm)
    dpoly = -8.567394 + 2 * 0.675969 * h
    grad_num = np.array([-1.0, 4.0, -3.0, 0.0])
    grad_den = np.array([-1.0, 0.0, 9.0, -8.0])
    grad_h = (den * grad_num - num * grad_den) / _squared(den)
    return dpoly * grad_h


# --------------------------------------------------------------------------
# Full parameter recovery
# --------------------------------------------------------------------------


def gev_from_lmoments(pwm: PwmVector) -> GevParams:
    """GEV parameters from PWMs via the L-moment equation system.

    Parameters
    ----------
    pwm : PwmVector
        PWMs of order >= 3 (beta_0, beta_1, beta_2, ...).

    Raises
    ------
    DataError
        If the implied second L-moment is not positive, or the shape
        ratio has a zero or non-finite denominator or numerator.
    NumericError
        If the recovered shape reaches the Gamma-function pole at 1.
    """
    if pwm.order < 3:
        raise ParameterError("L-moment recovery needs PWMs up to order 2")
    b0, b1, b2 = pwm[0], pwm[1], pwm[2]
    lam2 = 2 * b1 - b0
    if not lam2 > 0:  # also rejects NaN
        raise DataError(f"degenerate sample: second L-moment {lam2:.6g} is not positive")
    xi = shape_from_lmoments(pwm)
    if xi >= 1:
        raise NumericError(f"recovered shape {xi:.4f} >= 1: mean is infinite")
    if abs(xi) < _FIT_GUMBEL_EPS:
        sigma = lam2 / math.log(2)
        mu = b0 - EULER_GAMMA * sigma
    else:
        sigma = lam2 * xi / (gamma_fn(1 - xi) * (2.0**xi - 1.0))
        mu = b0 + sigma * (1.0 - gamma_fn(1 - xi)) / xi
    return GevParams(float(mu), float(sigma), float(xi))


def gev_from_tlmoments(pwm: PwmVector) -> GevParams:
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
    xi = shape_from_tlmoments(pwm)
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
    scale rows use central differences of the full recovery map, with a
    step of 1e-6 times the larger of the PWM moved and the L-scale
    2 beta_1 - beta_0 (of the largest PWM if both are 0).

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
    spread = abs(2 * base[1] - base[0])
    for k in range(k_needed):
        h = 1e-6 * max(abs(base[k]), spread) or 1e-6 * np.abs(base).max()
        up, dn = base.copy(), base.copy()
        up[k] += h
        dn[k] -= h
        theta_up = spec.recover(PwmVector(up)).as_array()
        theta_dn = spec.recover(PwmVector(dn)).as_array()
        out[0, k] = (theta_up[0] - theta_dn[0]) / (2 * h)
        out[1, k] = (theta_up[1] - theta_dn[1]) / (2 * h)
    return out
