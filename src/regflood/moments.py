"""Probability weighted moments (PWMs) and GEV parameter recovery.

Two recovery routes are provided: the classical one based on the first
three L-moments and a trimmed variant based on the first three
(0,1)-trimmed L-moments, which damps the influence of the largest
observation.  Both express the moments through PWMs ``beta_0..beta_K``
and invert an equation system for (mu, sigma, xi); the shape is a fitted
polynomial in one moment ratio per route, and that ratio, checked once,
also feeds the analytic shape gradient.  Sample PWMs, and the influence
rows behind their covariance, come from the one stable ranking that a
region's observation scheme keeps for all of its sites.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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

# Cephes ``Gamma`` as SciPy's ``scipy.special.gamma`` evaluates it: a P/Q
# rational approximation on [2, 3], Stirling's formula above 33 and
# reflection below -33
_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)
_GAMMA_STIRLING = (
    7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
    3.47222221605458667310e-3, 8.33333333333482257126e-2,
)
_GAMMA_MAX = 171.624376956302725  # Gamma overflows above this
_STIRLING_POW_SPLIT = 143.01608  # above this x**(x - 0.5) would overflow


def _polevl(x: float, coefs) -> float:
    """Horner evaluation, highest power first."""
    total = coefs[0]
    for c in coefs[1:]:
        total = total * x + c
    return total


def _stirling_gamma(x: float) -> float:
    """Gamma(x) by Stirling's formula, for 33 < x."""
    if x >= _GAMMA_MAX:
        return math.inf
    w = 1.0 / x
    w = 1.0 + w * _polevl(w, _GAMMA_STIRLING)
    y = math.exp(x)
    if x > _STIRLING_POW_SPLIT:
        v = math.pow(x, 0.5 * x - 0.25)
        y = v * (v / y)
    else:
        y = math.pow(x, x - 0.5) / y
    return 2.50662827463100050242 * y * w


def gamma_fn(x: float) -> float:
    """The Gamma function, equal to ``scipy.special.gamma`` bit for bit.

    Poles give NaN at the negative integers and -inf or +inf at -0.0 or
    +0.0; Gamma(-inf) is NaN.
    """
    x = float(x)
    if not math.isfinite(x):
        return x if x > 0 else math.nan
    if x == 0.0:
        return math.copysign(math.inf, x)
    q = abs(x)
    if q > 33.0:
        if x > 0:
            return _stirling_gamma(x)
        p = math.floor(q)
        if p == q:
            return math.nan
        sign = 1.0 if int(p) % 2 else -1.0
        z = q - p
        if z > 0.5:
            z = q - (p + 1.0)
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return sign * math.inf
        return sign * (math.pi / (abs(z) * _stirling_gamma(q)))
    # shift into [2, 3), keeping the product of the factors in z
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if -1e-9 < x < 1e-9:
            # next to a pole: Gamma(x) ~ 1/(x (1 + Euler x))
            if x == 0.0:
                return math.nan
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


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


@np.errstate(over="ignore", invalid="ignore")  # the callers' finite checks speak
def _rank_stack(padded, order, pad, K: int, pwm_estimator: str | None = None, rows: bool = False):
    """Sample PWMs and influence rows of the rows of ``padded``, read off their stable
    sort ``order`` (a scheme's cached one), which this does not recompute.

    ``padded`` is (..., d, n): row j holds a sample of length n - pad[j] at its end,
    after -inf padding, and leading axes stack regions of one shape.  Returns the pair
    (pwms, rows), each None unless asked for: ``pwm_estimator`` ('plugin' or
    'unbiased') asks for the (..., d, K) PWMs beta_0..beta_{K-1}, ``rows`` for the
    (..., n, d, K) plug-in influence rows (see ``zhat_vectors``), zero before each
    sample starts.  Tied values share the ecdf value #{obs <= x}/n_j.  Values that
    overflow the sums come out non-finite.
    """
    # every sum below reads (..., n, d) arrays in C order, which fixes its rounding
    block, order = (np.ascontiguousarray(a.swapaxes(-1, -2)) for a in (padded, order))
    n, d = block.shape[-2:]
    lengths = n - pad
    years = np.arange(n)[:, None]
    real = years >= pad
    xs = np.take_along_axis(block, order, axis=-2)
    # runs of tied values, read before the padding is zeroed: no real value ties -inf
    starts = np.ones(xs.shape[:-2] + (n + 1, d), dtype=bool)
    starts[..., 1:-1, :] = xs[..., 1:, :] != xs[..., :-1, :]
    ends = np.where(starts[..., 1:, :], years, n)[..., ::-1, :]
    last = np.minimum.accumulate(ends, axis=-2)[..., ::-1, :]
    ecdf = (last + 1 - pad) / lengths
    # zeros in the padding keep inf * 0 out of every product and sum below
    np.copyto(xs, 0.0, where=~real)
    pwms = influence = None
    if pwm_estimator == "plugin":
        # the plug-in mean adds its terms in each sample's own order
        ecdf_x = np.empty_like(ecdf)
        np.put_along_axis(ecdf_x, order, ecdf, axis=-2)
        x = np.where(real, block, 0.0)
        pwms = (x[..., None] * ecdf_x[..., None] ** np.arange(K)).sum(axis=-3) / lengths[:, None]
    elif pwm_estimator == "unbiased":
        # b_k averages x_(i) * C(i-1, k)/C(n-1, k); a row-wise mean over each
        # sample's sorted values keeps the pairwise sum of a one-sample mean
        rank = (years + 1 - pad).astype(float)
        weights, terms = np.ones((n, d)), [xs]
        for k in range(1, K):
            weights = weights * (rank - k) / (lengths - k)
            terms.append(weights * xs)
        by_sample = np.stack(terms, axis=-2).swapaxes(-1, -3).copy()
        pwms = np.empty(xs.shape[:-2] + (d, K))
        for j, a in enumerate(pad.tolist()):
            pwms[..., j, :] = by_sample[..., j, :, a:].mean(axis=-1)
    if rows:
        # x F(x)**k plus k/n_j times the sum of x_l F(x_l)**(k-1) over x_l >= x,
        # a suffix sum from the first of x's ties in sorted order
        first = np.maximum.accumulate(np.where(starts[..., :-1, :], years, 0), axis=-2)
        influence = np.empty(xs.shape + (K,))
        influence[..., 0] = np.where(real, block, 0.0)
        for k in range(1, K):
            v = xs * ecdf ** (k - 1)
            suffix = np.cumsum(v[..., ::-1, :], axis=-2)[..., ::-1, :]
            tail = np.take_along_axis(suffix, first, axis=-2)
            ranked = xs * ecdf**k + (k / lengths) * tail
            np.copyto(ranked, 0.0, where=~real)  # the padding sorts first: its rows stay in place
            np.put_along_axis(influence[..., k], order, ranked, axis=-2)
    return pwms, influence


def _ranked_block(padded, order, pad, K: int, pwm_estimator: str | None = None) -> np.ndarray:
    """The d x K PWMs of :func:`_rank_stack` with ``pwm_estimator``, its n x d x K
    influence rows without; data whose scale overflows them raise :class:`NumericError`."""
    pwms, influence = _rank_stack(padded, order, pad, K, pwm_estimator, rows=pwm_estimator is None)
    out = influence if pwm_estimator is None else pwms
    if not np.isfinite(out).all():
        raise NumericError("the data's scale overflows the sample PWMs or their influence rows")
    return out


def _one_sample(x: np.ndarray, K: int, pwm_estimator: str | None = None) -> np.ndarray:
    """:func:`_ranked_block` of one finite 1-D sample, for the public one-sample functions."""
    if not np.isfinite(x).all():
        raise DataError("sample values must be finite")
    if pwm_estimator == "unbiased" and len(x) < K:
        raise ParameterError(f"PWM order {K - 1} needs a sample larger than {K - 1}")
    order = np.argsort(x, kind="stable")[None]
    return _ranked_block(x[None], order, np.zeros(1, dtype=int), K, pwm_estimator)


def _one_sample_pwms(data, k_max: int, pwm_estimator: str) -> PwmVector:
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("sample PWMs require a 1-D sample of length >= 2")
    k_max = _integer(k_max, "k_max")
    if k_max < 0:
        raise ParameterError("k_max must be non-negative")
    return PwmVector(_one_sample(x, k_max + 1, pwm_estimator)[0])


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
# Shape and parameter recovery
# --------------------------------------------------------------------------


def _l_terms(b):
    """Numerator (the L-scale) and denominator of the L shape ratio."""
    return 2 * b[1] - b[0], 3 * b[2] - b[0]


def _l_ratio_gradient(num, den, den2):
    return (num - den) / den2, 2.0 / den, -3.0 * num / den2


def _l_location_scale(b, xi: float):
    """L-route (mu, sigma) at shape ``xi``."""
    lam2 = _l_terms(b)[0]
    if abs(xi) < _FIT_GUMBEL_EPS:
        sigma = lam2 / math.log(2)
        return b[0] - EULER_GAMMA * sigma, sigma
    g = gamma_fn(1 - xi)
    sigma = lam2 * xi / (g * (2.0**xi - 1.0))
    return b[0] + sigma * (1.0 - g) / xi, sigma


def _tl_terms(b):
    """Numerator (2/3 of the trimmed L-scale) and denominator of the trimmed shape ratio."""
    return 4 * b[1] - b[0] - 3 * b[2], 9 * b[2] - b[0] - 8 * b[3]


def _tl_ratio_gradient(num, den, den2):
    # (d num, d den) / d beta_k, k = 0..3
    return [(den * a - num * c) / den2 for a, c in ((-1, -1), (4, 0), (-3, 9), (0, -8))]


def _tl_location_scale(b, xi: float):
    """Trimmed-route (mu, sigma) at shape ``xi``."""
    scale_num = _tl_terms(b)[0]
    if abs(xi) < _FIT_GUMBEL_EPS:
        sigma = scale_num / math.log(4.0 / 3.0)
        return 2 * (b[0] - b[1]) + sigma * (math.log(2) - EULER_GAMMA), sigma
    g = gamma_fn(-xi)
    sigma = scale_num / (g * (3.0**xi - 2.0 ** (xi + 1) + 1.0))
    return 2 * (b[0] - b[1]) + sigma / xi - sigma * g * (2.0**xi - 2.0), sigma


@dataclass(frozen=True)
class _MomentMethod:
    """One recovery route through the PWMs b = beta_0..beta_{K-1}.

    The shape is the polynomial ``poly[0] h + poly[1] h**2`` in the ratio ``h =
    num/den - offset`` of ``terms(b)``, whose gradient in b is ``ratio_gradient(num,
    den, den * den)``; the second (trimmed) L-moment, ``moment``, is ``factor * num``.
    ``location_scale(b, xi)`` is (mu, sigma) at shape ``xi``: linear in b, so b may
    hold arrays, and near xi = 0 it takes its equations' limits (0/0 there).
    """

    order: int
    moment: str
    label: str
    terms: Callable
    offset: float
    ratio_gradient: Callable
    poly: tuple[float, float]
    factor: float
    location_scale: Callable

    def _pwms(self, pwm: PwmVector, what: str) -> list[float]:
        """b as floats, whose arithmetic overflows to inf without a warning."""
        if pwm.order < self.order:
            raise ParameterError(f"{what} needs PWMs up to order {self.order - 1}")
        return pwm.values[: self.order].tolist()

    def _ratio(self, num: float, den: float) -> float:
        """``h``, checked: ``num`` and ``den`` finite and ``den`` nonzero."""
        if den == 0:
            raise DataError(f"degenerate sample: {self.moment} shape ratio has a zero denominator")
        if not (math.isfinite(num) and math.isfinite(den)):
            raise DataError(
                f"{self.moment} shape ratio {num:.6g}/{den:.6g} "
                "has a non-finite numerator or denominator"
            )
        return num / den - self.offset

    def _poly(self, h):
        return self.poly[0] * h + self.poly[1] * h * h

    def _gradient(self, num, den, den2, h) -> list:
        dpoly = self.poly[0] + 2 * self.poly[1] * h
        return [dpoly * g for g in self.ratio_gradient(num, den, den2)]

    def _shape(self, h: float) -> float:
        """The polynomial shape, which a ratio beyond about 1e154 in magnitude overflows."""
        xi = self._poly(h)
        if not math.isfinite(xi):
            raise NumericError(f"shape ratio {h:.6g} puts the shape out of floating-point range")
        return xi

    def shape(self, pwm: PwmVector) -> float:
        """Polynomial shape approximation from the route's (trimmed) L-moment ratio."""
        return self._shape(self._ratio(*self.terms(self._pwms(pwm, "shape recovery"))))

    def shape_gradient(self, pwm: PwmVector) -> np.ndarray:
        """Analytic gradient of the shape estimate in beta_0..beta_{K-1}, K = 3 (L) or 4 (TL)."""
        num, den = self.terms(self._pwms(pwm, "shape recovery"))
        h = self._ratio(num, den)
        den2 = den * den
        if not 0 < den2 < math.inf:
            raise NumericError(
                f"shape gradient: the squared ratio denominator of {den:.6g} "
                "is out of floating-point range"
            )
        grad = self._gradient(num, den, den2, h)
        if not all(map(math.isfinite, grad)):
            raise NumericError(f"shape gradient at ratio {h:.6g} is out of floating-point range")
        return np.array(grad)

    @np.errstate(all="ignore")  # the mask speaks
    def shape_maps(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`shape` and :meth:`shape_gradient` of every PWM row of ``betas`` (..., >= K)
        at once, bit for bit: the (...) shapes, the (..., K) gradients and the (...)
        mask of the rows where both return rather than raise (elsewhere the values
        mean nothing)."""
        num, den = self.terms([betas[..., k] for k in range(self.order)])
        h = num / den - self.offset
        xi = self._poly(h)
        den2 = den * den
        grad = np.stack(self._gradient(num, den, den2, h), axis=-1)
        ok = (den != 0) & np.isfinite(num) & np.isfinite(den) & np.isfinite(xi)
        ok &= (0 < den2) & (den2 < math.inf) & np.isfinite(grad).all(axis=-1)
        return xi, grad, ok

    def recover(self, pwm: PwmVector) -> GevParams:
        """GEV parameters from the PWMs via the route's equation system: the L-moment one
        from beta_0..beta_2, or the (0,1)-trimmed one from beta_0..beta_3.

        Raises :class:`DataError` if the second (trimmed) L-moment is not
        positive, the PWMs are all equal (a constant sample's plug-in PWMs) or the
        shape ratio has a zero or non-finite numerator or denominator,
        :class:`NumericError` if the shape reaches the Gamma-function
        pole at 1 or the shape, location or scale leaves the floating-point range.
        """
        b = self._pwms(pwm, self.label)
        num, den = self.terms(b)
        lam2 = self.factor * num
        if not lam2 > 0:  # also rejects NaN
            raise DataError(f"degenerate sample: second {self.moment} {lam2:.6g} is not positive")
        if min(b) == max(b):  # tied values share Fhat = 1: the L-skewness reads 1
            raise DataError(f"degenerate sample: all PWMs equal {b[0]:.6g}, as for a constant")
        xi = self._shape(self._ratio(num, den))
        if xi >= 1:
            raise NumericError(f"recovered shape {xi:.4f} >= 1: mean is infinite")
        mu, sigma = self.location_scale(b, xi)
        if not (math.isfinite(mu) and 0 < sigma < math.inf):
            raise NumericError(f"location {mu:.6g}, scale {sigma:.6g} out of floating-point range")
        return GevParams(mu, sigma, xi)


_MOMENT_METHODS = {
    "L": _MomentMethod(3, "L-moment", "L-moment recovery", _l_terms, _L_OFFSET,
                       _l_ratio_gradient, (-7.859, -2.9554), 1.0, _l_location_scale),
    "TL": _MomentMethod(4, "trimmed L-moment", "trimmed recovery", _tl_terms, _TL_OFFSET,
                        _tl_ratio_gradient, (-8.567394, 0.675969), 1.5, _tl_location_scale),
}


def _moment_method(method: str) -> _MomentMethod:
    """The table entry of an L/TL method name."""
    try:
        return _MOMENT_METHODS[method]
    except KeyError:
        raise ParameterError(
            f"unknown moment method {method!r}; use 'L' or 'TL'"
        ) from None


# the public maps of each route
shape_from_lmoments = _MOMENT_METHODS["L"].shape
shape_from_tlmoments = _MOMENT_METHODS["TL"].shape
shape_gradient_lmoments = _MOMENT_METHODS["L"].shape_gradient
shape_gradient_tlmoments = _MOMENT_METHODS["TL"].shape_gradient
gev_from_lmoments = _MOMENT_METHODS["L"].recover
gev_from_tlmoments = _MOMENT_METHODS["TL"].recover


def _fit_step(xi: float) -> float:
    """The difference step of :func:`gev_fit_gradient` at shape ``xi``."""
    # a point in 0 < |xi| < _FIT_GUMBEL_EPS reads the limit equations, exact only
    # at 0; twice the step clears that band
    step = 1e-4
    if any(0 < abs(xi + s) < _FIT_GUMBEL_EPS for s in (-step, step)):
        step = 2e-4
    return step


def _fit_gradient_returns(xi: float, b: list, shape_grad: list) -> bool:
    """Whether :func:`gev_fit_gradient` returns for PWMs ``b`` whose recovery gives the
    shape ``xi`` and whose shape gradient ``shape_grad`` is finite, without evaluating
    it; False means only "not shown".

    Past the pole check and with -100 < xi, every Gamma factor and divisor of the
    location-scale maps at xi and xi -+ step lies between about 1e-7 and 1e158 in
    magnitude and they cancel pairwise, so the map's coefficients stay below about
    1e8; with ``b`` and ``shape_grad`` below 1e100 every entry stays below about 1e220.
    """
    return -100.0 < xi and xi + _fit_step(xi) < 1 and max(map(abs, b + shape_grad)) < 1e100


def gev_fit_gradient(pwm: PwmVector, method: str) -> np.ndarray:
    """Gradient of the (mu, sigma, xi) recovery map in the PWMs, a 3 x K matrix
    (K = 3 for ``method='L'``, 4 for ``'TL'``).

    The shape row is the analytic shape gradient.  At a fixed shape the location
    and scale are linear in the PWMs, so their rows are that map at the K unit
    vectors plus its derivative in the shape (a central difference of step 1e-4)
    times the shape row.  A shape within the step of the pole at 1 raises
    :class:`NumericError`.
    """
    spec = _moment_method(method)
    K = spec.order
    if pwm.order < K:
        raise ParameterError(f"method {method!r} needs PWMs up to order {K - 1}")
    xi = spec.recover(pwm).xi
    step = _fit_step(xi)
    if xi + step >= 1:
        raise NumericError(f"recovered shape {xi:.6f} is within {step:g} of the pole at 1")
    b = pwm.values[:K].tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # the check below speaks
        out = np.array([*spec.location_scale(np.eye(K), xi), spec.shape_gradient(pwm)])
        up = spec.location_scale(b, xi + step)
        dn = spec.location_scale(b, xi - step)
        out[:2] += np.outer(np.subtract(up, dn) / (2 * step), out[2])
    if not np.isfinite(out).all():
        raise NumericError("fit gradient is out of floating-point range")
    return out
