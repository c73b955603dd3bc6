"""Seasonal two-component quantile estimation with asymptotic intervals.

A winter and a summer GEV are fitted regionally from disjoint seasonal
maxima; the annual quantile is read off the product distribution and its
limiting variance follows from the delta method applied to the implicit
quantile map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import NumericError, ParameterError
from .gev import (
    GevParams,
    TwoComponentGev,
    gev_cdf,
    gev_cdf_jacobian,
    gev_pdf,
    gev_quantile,
    gev_quantile_gradient,
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


def _jacobian_total(theta: GevParams, x: float) -> np.ndarray:
    """Parameter Jacobian of the cdf extended by its limits.

    Outside the support the cdf is locally constant (0 or 1), so all
    parameter derivatives vanish; the variance formula needs this total
    extension because the product quantile can escape the support of a
    bounded-tail component.
    """
    lo, hi = theta.support()
    if lo < x < hi:
        return gev_cdf_jacobian(theta, x)
    return np.zeros(3)


def twocomp_quantile_variance(fit: SeasonalFit, p: float) -> float:
    """Limiting variance of the product-model quantile estimator.

    Evaluates, at the estimated quantile q_p,

        [G_s^2 J_w S_w J_w' + G_w^2 J_s S_s J_s'] / [g_w G_s + G_w g_s]^2

    with J the parameter Jacobian of the cdf and g the density; this is
    the delta-method variance of sqrt(n) * (q_hat - q).
    """
    return _twocomp_variance_at(fit, p, twocomp_quantile(fit.model, p))


def _twocomp_variance_at(fit: SeasonalFit, p: float, qp: float) -> float:
    """:func:`twocomp_quantile_variance` at its already inverted quantile ``qp``."""
    cdf_w = gev_cdf(fit.theta_w, qp)
    cdf_s = gev_cdf(fit.theta_s, qp)
    dens_w = gev_pdf(fit.theta_w, qp)
    dens_s = gev_pdf(fit.theta_s, qp)
    denom = (dens_w * cdf_s + cdf_w * dens_s) ** 2
    if denom < 1e-300:
        raise NumericError(
            f"product density vanished at q_{p}={qp:.6g}; the quantile escaped "
            "both components' effective support"
        )
    jac_w = _jacobian_total(fit.theta_w, qp)
    jac_s = _jacobian_total(fit.theta_s, qp)
    num = cdf_s**2 * (jac_w @ fit.sigma_w @ jac_w) + cdf_w**2 * (
        jac_s @ fit.sigma_s @ jac_s
    )
    return max(float(num / denom), 0.0)


def twocomp_quantile_ci(fit: SeasonalFit, p: float, alpha: float) -> QuantileInterval:
    """Asymptotic (1 - alpha) confidence interval for the annual quantile."""
    z = _interval_z(alpha)
    qp = twocomp_quantile(fit.model, p)
    return _normal_interval(qp, _twocomp_variance_at(fit, p, qp), fit.n, alpha, z)


def _interval_z(alpha: float) -> float:
    """The normal quantile z_(1-alpha/2) of a two-sided (1 - alpha) interval;
    every interval of the package reads its level here."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie strictly between 0 and 1")
    return ndtri(1.0 - alpha / 2.0)


def _normal_interval(
    estimate: float, variance: float, n: int, alpha: float, z: float
) -> QuantileInterval:
    """``estimate -/+ z sqrt(variance / n)`` with ``z = _interval_z(alpha)``."""
    half = z * math.sqrt(variance) / math.sqrt(n)
    return QuantileInterval(estimate, estimate - half, estimate + half, alpha)


def gev_quantile_variance(theta: GevParams, sigma: np.ndarray, p: float) -> float:
    """Delta-method variance of a single-GEV quantile estimator.

    Degenerate case of the product-model formula with one component
    removed; used for the annual one-component fits.
    """
    grad = gev_quantile_gradient(theta, p)
    return max(float(grad @ np.asarray(sigma, dtype=float) @ grad), 0.0)


def gev_quantile_ci(
    fit: RegionalGevFit, p: float, alpha: float
) -> QuantileInterval:
    """Asymptotic (1 - alpha) interval for a single-GEV regional quantile."""
    z = _interval_z(alpha)
    qp = float(gev_quantile(fit.theta, p))
    variance = gev_quantile_variance(fit.theta, fit.covariance, p)
    return _normal_interval(qp, variance, fit.n_effective, alpha, z)
