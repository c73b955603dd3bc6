"""Seasonal two-component quantile estimation with asymptotic intervals.

A winter and a summer GEV are fitted regionally from disjoint seasonal
maxima; the annual quantile is read off the product distribution and its
limiting variance follows from the delta method applied to the implicit
quantile map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NumericError, ParameterError
from .gev import (
    GevParams,
    TwoComponentGev,
    gev_cdf,
    gev_cdf_jacobian,
    gev_pdf,
    gev_quantile,
    twocomp_quantile,
)
from .regional import ObservationScheme, RegionalGevFit, fit_gev_regional

__all__ = [
    "SeasonalFit",
    "QuantileInterval",
    "fit_seasonal_regional",
    "twocomp_quantile_variance",
    "twocomp_quantile_ci",
    "gev_quantile_variance",
    "gev_quantile_ci",
]


@dataclass(frozen=True)
class QuantileInterval:
    """Point estimate with a symmetric-in-construction confidence interval."""

    estimate: float
    lower: float
    upper: float
    alpha: float

    def __str__(self) -> str:
        return f"{self.estimate:.1f} [{self.lower:.1f}, {self.upper:.1f}]"


@dataclass(frozen=True)
class SeasonalFit:
    """Winter and summer GEV fits with their limiting covariances.

    ``sigma_w``/``sigma_s`` are covariances of ``sqrt(n) * (theta_hat -
    theta)``.  ``n`` is the effective record length used in interval
    scaling: the target site's own length.  For staggered regions this
    is shorter than the scheme period the covariances are normalized to,
    which widens intervals (a deliberately conservative convention).
    """

    theta_w: GevParams
    theta_s: GevParams
    sigma_w: np.ndarray
    sigma_s: np.ndarray
    n: int
    diagnostics: dict | None = None

    @property
    def model(self) -> TwoComponentGev:
        return TwoComponentGev(self.theta_w, self.theta_s)


def fit_seasonal_regional(
    winter_scheme: ObservationScheme,
    summer_scheme: ObservationScheme,
    target_site: str,
    method: str = "TL",
    pwm_estimator: str = "unbiased",
) -> SeasonalFit:
    """Fit both seasonal GEVs regionally at a target site.

    Winter and summer are fitted independently (the seasons are treated
    as independent by construction; a correlation diagnostic is recorded
    but never gates the fit).
    """
    fit_w = fit_gev_regional(winter_scheme, target_site, method, pwm_estimator)
    fit_s = fit_gev_regional(summer_scheme, target_site, method, pwm_estimator)
    n_eff = min(fit_w.n_effective, fit_s.n_effective)
    diagnostics = {
        "method": method,
        "target_site": target_site,
        "winter": fit_w,
        "summer": fit_s,
        "season_correlation": _season_correlation(
            winter_scheme, summer_scheme, target_site
        ),
    }
    return SeasonalFit(
        theta_w=fit_w.theta,
        theta_s=fit_s.theta,
        sigma_w=fit_w.covariance,
        sigma_s=fit_s.covariance,
        n=n_eff,
        diagnostics=diagnostics,
    )


def _season_correlation(
    winter_scheme: ObservationScheme,
    summer_scheme: ObservationScheme,
    target_site: str,
) -> float | None:
    """Pearson correlation of the target site's seasonal series (diagnostic)."""
    w = winter_scheme.sites[winter_scheme.site_index(target_site)].values
    s = summer_scheme.sites[summer_scheme.site_index(target_site)].values
    m = min(len(w), len(s))
    if m < 3:
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = float(np.corrcoef(w[-m:], s[-m:])[0, 1])
    return corr if math.isfinite(corr) else None


def _quantile_variance(parts, q: float) -> float:
    """Delta-method variance of ``sqrt(n) * (q_hat - q)`` at the quantile ``q``
    of a product of GEV cdfs, one ``(theta, covariance)`` pair per factor.

    Implicit differentiation of prod_c G_c(q) = p gives factor c's gradient
    -P_c J_c(q) / f(q): P_c the product of the other factors' cdfs, J_c the
    cdf Jacobian, zero outside factor c's support (where its cdf is flat and
    the product quantile can lie), and f = sum_c g_c P_c the product density.
    The factors are fitted independently, so the variance sums
    grad' Sigma_c grad over them.  A single GEV is the one-factor product.
    """
    cdfs = [gev_cdf(theta, q) for theta, _ in parts]
    others = [math.prod(cdfs[:c] + cdfs[c + 1:]) for c in range(len(parts))]
    dens = sum(gev_pdf(theta, q) * other for (theta, _), other in zip(parts, others))
    if not dens > 0:
        raise NumericError(
            f"product density vanished at q={q:.6g}; the quantile escaped "
            "every component's effective support"
        )
    variance = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for (theta, sigma), other in zip(parts, others):
            lo, hi = theta.support()
            if lo < q < hi:
                grad = -other * gev_cdf_jacobian(theta, q) / dens
                variance += float(grad @ np.asarray(sigma, dtype=float) @ grad)
    if not math.isfinite(variance):
        raise NumericError(
            f"the quantile variance at q={q:.6g} is {variance}: a covariance is not "
            "finite or its product with the gradient overflows the float range"
        )
    return max(variance, 0.0)


def _interval(q: float, sd: float, alpha: float) -> QuantileInterval:
    """The (1 - alpha) normal interval ``q -/+ z_(1-alpha/2) sd``; every
    interval of the package is formed here."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie strictly between 0 and 1")
    level = 1.0 - alpha / 2.0
    # an alpha up to about 1.1e-16 rounds the level to 1, where z is infinite
    z = NormalDist().inv_cdf(level) if level < 1.0 else math.inf
    # Python floats overflow to inf silently; the check below speaks
    q, half = float(q), z * float(sd)
    lower, upper = q - half, q + half
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise NumericError(f"the interval {q:.6g} -/+ {half:.6g} leaves the float range")
    return QuantileInterval(q, lower, upper, alpha)


def twocomp_quantile_variance(fit: SeasonalFit, p: float) -> float:
    """Limiting variance of the product-model quantile estimator.

    Evaluates, at the estimated quantile q_p,

        [G_s^2 J_w S_w J_w' + G_w^2 J_s S_s J_s'] / [g_w G_s + G_w g_s]^2

    with J the parameter Jacobian of the cdf and g the density; this is
    the delta-method variance of sqrt(n) * (q_hat - q).
    """
    parts = [(fit.theta_w, fit.sigma_w), (fit.theta_s, fit.sigma_s)]
    return _quantile_variance(parts, twocomp_quantile(fit.model, p))


def twocomp_quantile_ci(fit: SeasonalFit, p: float, alpha: float) -> QuantileInterval:
    """Asymptotic (1 - alpha) confidence interval for the annual quantile."""
    qp = twocomp_quantile(fit.model, p)
    variance = _quantile_variance([(fit.theta_w, fit.sigma_w), (fit.theta_s, fit.sigma_s)], qp)
    return _interval(qp, math.sqrt(variance) / math.sqrt(fit.n), alpha)


def gev_quantile_variance(theta: GevParams, sigma: np.ndarray, p: float) -> float:
    """Delta-method variance of a single-GEV quantile estimator: the
    one-factor product, used for the annual one-component fits."""
    return _quantile_variance([(theta, sigma)], gev_quantile(theta, p))


def gev_quantile_ci(
    fit: RegionalGevFit, p: float, alpha: float
) -> QuantileInterval:
    """Asymptotic (1 - alpha) interval for a single-GEV regional quantile."""
    qp = float(gev_quantile(fit.theta, p))
    variance = _quantile_variance([(fit.theta, fit.covariance)], qp)
    return _interval(qp, math.sqrt(variance) / math.sqrt(fit.n_effective), alpha)
