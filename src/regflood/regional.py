"""Multi-site observation schemes and regional shape estimation.

Sites in a region share a common final observation year but started
recording at different times, giving a staggered scheme with offsets
``a_j`` and lengths ``n_j = n - a_j``.  The joint limiting covariance of
the sample PWMs across sites is estimated nonparametrically from
influence-function analogues computed per site and paired over the
overlapping years; the delta method then yields the covariance of the
per-site shape estimates, the optimal combination weights and a Wald
test of shape homogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .errors import (
    DataError,
    NumericError,
    OverlapError,
    ParameterError,
)
from .gev import GevParams
from .moments import (
    gev_fit_gradient,
    gev_from_lmoments,
    gev_from_tlmoments,
    sample_pwm,
    sample_pwm_unbiased,
    shape_from_lmoments,
    shape_from_tlmoments,
    shape_gradient_lmoments,
    shape_gradient_tlmoments,
)

__all__ = [
    "SiteSeries",
    "ObservationScheme",
    "CovarianceBlocks",
    "zhat_vectors",
    "sigma_r_hat",
    "sigma_tail_hat",
    "optimal_weights",
    "fallback_weights",
    "covariance_is_valid",
    "regional_shape",
    "RegionalShapeResult",
    "homogeneity_test",
    "fit_gev_regional",
    "RegionalGevFit",
]

# Shape covariances with a condition number above this trigger the fallback.
MAX_CONDITION = 1e12

_METHOD_ORDERS = {"L": 3, "TL": 4}

# PWM estimator used for the parameter fits.  The influence-row
# covariance machinery below always follows the plug-in construction it
# is defined for; the fits default to the unbiased order-statistic
# version, whose vanishing O(1/n) bias is what keeps interval coverage
# near nominal at realistic record lengths (both share one limit law).
_PWM_FNS = {"unbiased": sample_pwm_unbiased, "plugin": sample_pwm}


def _pwm_fn(name: str):
    try:
        return _PWM_FNS[name]
    except KeyError:
        raise ParameterError(
            f"unknown PWM estimator {name!r}; use 'unbiased' or 'plugin'"
        ) from None


@dataclass(frozen=True)
class SiteSeries:
    """One site's annual (or seasonal) maxima, aligned to the scheme end.

    ``offset`` counts years missing at the start relative to the longest
    record; row ``i`` of ``values`` is year ``offset + i + 1`` of the
    common observation period.
    """

    site_id: str
    offset: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise DataError(
                f"site {self.site_id!r}: series must be 1-D with length >= 2"
            )
        if self.offset < 0:
            raise DataError(f"site {self.site_id!r}: negative offset")
        object.__setattr__(self, "values", vals)

    @property
    def length(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ObservationScheme:
    """Staggered multi-site sample with a common final year."""

    sites: tuple[SiteSeries, ...]

    def __post_init__(self):
        sites = tuple(self.sites)
        if not sites:
            raise DataError("observation scheme needs at least one site")
        ids = [s.site_id for s in sites]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate site ids in observation scheme")
        ends = {s.offset + s.length for s in sites}
        if len(ends) != 1:
            raise DataError(
                "all sites must end in the same year: offsets + lengths differ "
                f"({sorted(ends)})"
            )
        if min(s.offset for s in sites) != 0:
            raise DataError("at least one site must span the full period (offset 0)")
        object.__setattr__(self, "sites", sites)

    @classmethod
    def from_matrix(cls, data, site_ids=None) -> "ObservationScheme":
        """Equal-length scheme from an (years x sites) matrix."""
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2:
            raise DataError("expected a 2-D (years x sites) array")
        if site_ids is None:
            site_ids = [f"site{j + 1}" for j in range(arr.shape[1])]
        return cls(
            tuple(
                SiteSeries(sid, 0, arr[:, j]) for j, sid in enumerate(site_ids)
            )
        )

    @property
    def d(self) -> int:
        return len(self.sites)

    @property
    def n(self) -> int:
        return self.sites[0].offset + self.sites[0].length

    @property
    def lengths(self) -> np.ndarray:
        return np.array([s.length for s in self.sites], dtype=int)

    @property
    def ratios(self) -> np.ndarray:
        return self.lengths / self.n

    @property
    def site_ids(self) -> list[str]:
        return [s.site_id for s in self.sites]

    def site_index(self, site_id: str) -> int:
        try:
            return self.site_ids.index(site_id)
        except ValueError:
            raise DataError(
                f"site {site_id!r} not in scheme (have {self.site_ids})"
            ) from None

    def subset(self, site_ids) -> "ObservationScheme":
        """Scheme restricted to the given sites (order preserved)."""
        keep = [self.sites[self.site_index(sid)] for sid in site_ids]
        shift = min(s.offset for s in keep)
        return ObservationScheme(
            tuple(SiteSeries(s.site_id, s.offset - shift, s.values) for s in keep)
        )


@dataclass(frozen=True)
class CovarianceBlocks:
    """Estimated dK x dK limiting covariance of the stacked sample PWMs.

    ``matrix`` is exactly symmetric but not necessarily positive
    semi-definite: finite-sample estimates can have negative
    eigenvalues, which the shape weighting handles with its fallback.
    """

    matrix: np.ndarray
    order: int
    site_ids: tuple[str, ...]

    def block(self, j: int, l: int) -> np.ndarray:
        k = self.order
        return self.matrix[j * k : (j + 1) * k, l * k : (l + 1) * k]


def zhat_vectors(series, K: int) -> np.ndarray:
    """Influence-function rows for the sample PWMs of one series.

    Row ``i`` holds, for k = 0..K-1,

        x_i * Fhat(x_i)**k + (1/n) * sum_l x_l * k * Fhat(x_l)**(k-1) * 1{x_i <= x_l}

    with ``Fhat`` the plug-in empirical cdf of the series.  The k = 0
    column is the raw data (the correction term carries a factor k).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise DataError("influence rows require a 1-D series of length >= 2")
    if K < 1:
        raise ParameterError("K must be >= 1")
    n = len(x)
    xs = np.sort(x)
    ecdf_x = np.searchsorted(xs, x, side="right") / n
    ecdf_s = np.searchsorted(xs, xs, side="right") / n
    out = np.empty((n, K))
    out[:, 0] = x
    pos = np.searchsorted(xs, x, side="left")
    for k in range(1, K):
        v = xs * ecdf_s ** (k - 1)
        suffix = np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]])
        out[:, k] = x * ecdf_x**k + (k / n) * suffix[pos]
    return out


def sigma_r_hat(scheme: ObservationScheme, K: int) -> CovarianceBlocks:
    """Nonparametric estimate of the joint PWM covariance across sites.

    Block (j, l) is ``min(r_j, r_l)/(r_j*r_l)`` times the empirical
    covariance of the sites' influence rows over their overlapping
    years, with ``r_j = n_j/n``.  Each site's influence rows are
    computed once and centred once per distinct overlap start (once in
    all when the records have equal lengths); each block is one product
    of two such centred row sets.  The result is exactly symmetric.
    """
    if K < 1:
        raise ParameterError("K must be >= 1")
    d, n = scheme.d, scheme.n
    r = scheme.ratios
    offsets = [s.offset for s in scheme.sites]
    zhats = [zhat_vectors(s.values, K) for s in scheme.sites]
    matrix = np.empty((d * K, d * K))
    # Pairs are grouped by overlap start, so only one group's centred
    # rows are held at a time.
    for start in sorted(set(offsets)):
        m = n - start
        group = [j for j in range(d) if offsets[j] <= start]
        late = [j for j in group if offsets[j] == start]
        if m < 2:
            raise OverlapError(
                f"sites {[scheme.site_ids[j] for j in late]} share only {m} "
                "observation years with the others"
            )
        centred = {}
        for j in group:
            z = zhats[j][start - offsets[j] :]
            centred[j] = z - z.mean(axis=0)
        for a in late:
            for b in group:
                if offsets[b] == start and b < a:
                    continue  # both start here: the pair was done from b
                j, l = min(a, b), max(a, b)
                zj = centred[j]
                # A.T @ A on one buffer would dispatch to a symmetric rank-k
                # update; a distinct operand keeps every block on one product.
                zl = centred[l] if l != j else zj.copy()
                cov = zj.T @ zl / (m - 1)
                block = min(r[j], r[l]) / (r[j] * r[l]) * cov
                matrix[j * K : (j + 1) * K, l * K : (l + 1) * K] = block
                if l != j:
                    matrix[l * K : (l + 1) * K, j * K : (j + 1) * K] = block.T
    return CovarianceBlocks(matrix=matrix, order=K, site_ids=tuple(scheme.site_ids))


@dataclass(frozen=True)
class _ShapeSystem:
    """Per-site PWMs, shape estimates and gradients with their covariances."""

    pwms: list
    grads: list
    xi_hats: np.ndarray
    sigma: np.ndarray
    blocks: CovarianceBlocks


def _shape_system(
    scheme: ObservationScheme, method: str, pwm_estimator: str
) -> _ShapeSystem:
    K = _require_method(method)
    pwm_from = _pwm_fn(pwm_estimator)
    shape_fn = shape_from_lmoments if method == "L" else shape_from_tlmoments
    grad_fn = (
        shape_gradient_lmoments if method == "L" else shape_gradient_tlmoments
    )
    d = scheme.d
    xi_hats = np.empty(d)
    pwms, grads = [], []
    for j, site in enumerate(scheme.sites):
        try:
            pwm = pwm_from(site.values, K - 1)
            xi_hats[j] = shape_fn(pwm)
            grads.append(grad_fn(pwm))
        except Exception as exc:
            raise NumericError(
                f"shape estimation failed at site {site.site_id!r}: {exc}"
            ) from exc
        pwms.append(pwm)
    blocks = sigma_r_hat(scheme, K)
    sigma = np.empty((d, d))
    for j in range(d):
        for l in range(d):
            sigma[j, l] = grads[j] @ blocks.block(j, l) @ grads[l]
    sigma = 0.5 * (sigma + sigma.T)
    return _ShapeSystem(pwms, grads, xi_hats, sigma, blocks)


def sigma_tail_hat(
    scheme: ObservationScheme, method: str = "TL", pwm_estimator: str = "unbiased"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site shape estimates and their joint limiting covariance.

    The covariance follows from the PWM covariance and the delta method,
    using the analytic gradient of the polynomial shape map actually
    applied to the data (so the variance describes the estimator in use).

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Length-d vector of shape estimates and the d x d covariance of
        ``sqrt(n) * (xi_hat - xi)``.
    """
    system = _shape_system(scheme, method, pwm_estimator)
    return system.xi_hats, system.sigma


def _eigenvalues_valid(eigs: np.ndarray) -> bool:
    return bool(eigs.min() > 0 and eigs.max() / eigs.min() < MAX_CONDITION)


def _lagrange_weights(sigma: np.ndarray) -> np.ndarray:
    raw = np.linalg.solve(sigma, np.ones(sigma.shape[0]))
    return raw / raw.sum()


def covariance_is_valid(sigma: np.ndarray) -> bool:
    """True when a covariance estimate is usable for optimal weighting.

    Requires strictly positive eigenvalues and a condition number below
    ``MAX_CONDITION``; finite-sample estimates occasionally fail this
    (negative eigenvalues), in which case length-proportional weights
    are used instead.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        return False
    return _eigenvalues_valid(np.linalg.eigvalsh(0.5 * (sigma + sigma.T)))


def optimal_weights(sigma: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Variance-minimizing weights summing to one.

    For a positive definite ``sigma`` this is the Lagrange solution
    ``sigma^{-1} 1 / (1' sigma^{-1} 1)``.  Degenerate inputs fall back to
    the supplied weight vector (uniform weights when none is given).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ParameterError("covariance must be a square matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise ParameterError("covariance must be symmetric")
    d = sigma.shape[0]
    if not covariance_is_valid(sigma):
        if fallback is not None:
            w = np.asarray(fallback, dtype=float)
            return w / w.sum()
        return np.full(d, 1.0 / d)
    return _lagrange_weights(sigma)


def fallback_weights(scheme: ObservationScheme) -> np.ndarray:
    """Weights proportional to local record lengths (sum to one)."""
    lengths = scheme.lengths.astype(float)
    return lengths / lengths.sum()


@dataclass(frozen=True)
class RegionalShapeResult:
    """Weighted regional shape estimate with its provenance."""

    xi: float
    weights: np.ndarray
    diagnostics: dict


def regional_shape(
    scheme: ObservationScheme, method: str = "TL", pwm_estimator: str = "unbiased"
) -> RegionalShapeResult:
    """Weighted combination of per-site shape estimates.

    Weights minimize the estimated limiting variance when the shape
    covariance is valid; otherwise they are proportional to the record
    lengths (the remedy for finite-sample covariance estimates with
    negative eigenvalues).
    """
    return _combine_shapes(scheme, _shape_system(scheme, method, pwm_estimator), method)


def _combine_shapes(
    scheme: ObservationScheme, system: _ShapeSystem, method: str
) -> RegionalShapeResult:
    sigma = system.sigma
    eigs = np.linalg.eigvalsh(sigma)
    if _eigenvalues_valid(eigs):
        weights = _lagrange_weights(sigma)
        source = "optimal"
    else:
        weights = fallback_weights(scheme)
        source = "length-proportional"
    return RegionalShapeResult(
        xi=float(weights @ system.xi_hats),
        weights=weights,
        diagnostics={
            "weights_source": source,
            "xi_by_site": system.xi_hats,
            "sigma_tail": sigma,
            "sigma_tail_min_eigenvalue": float(eigs.min()),
            "method": method,
        },
    )


def homogeneity_test(
    scheme: ObservationScheme, method: str = "TL", pwm_estimator: str = "unbiased"
) -> tuple[float, float]:
    """Wald test of equal shape parameters across sites.

    Uses the successive-difference contrasts of the per-site shape
    estimates and their estimated covariance; the statistic is referred
    to a chi-square distribution with d-1 degrees of freedom.

    Returns
    -------
    (float, float)
        Test statistic and p-value.
    """
    d = scheme.d
    if d < 2:
        raise ParameterError("homogeneity test needs at least two sites")
    xi_hats, sigma = sigma_tail_hat(scheme, method, pwm_estimator)
    contrast = np.zeros((d - 1, d))
    idx = np.arange(d - 1)
    contrast[idx, idx] = 1.0
    contrast[idx, idx + 1] = -1.0
    diffs = contrast @ xi_hats
    inner = contrast @ sigma @ contrast.T
    eigs = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    if eigs.min() <= 0 or eigs.max() / max(eigs.min(), 1e-300) > MAX_CONDITION:
        raise NumericError(
            "contrast covariance is singular; drop duplicated or perfectly "
            "dependent sites before testing homogeneity"
        )
    stat = float(scheme.n * diffs @ np.linalg.solve(inner, diffs))
    return stat, float(chi2.sf(stat, df=d - 1))


@dataclass(frozen=True)
class RegionalGevFit:
    """Regional GEV estimate at a target site.

    ``theta`` carries the target site's own location/scale with the
    regional shape; ``covariance`` is the delta-method covariance of
    ``sqrt(n) * (theta_hat - theta)`` with ``n`` the scheme's common
    period length.
    """

    theta: GevParams
    covariance: np.ndarray
    n_effective: int
    shape: RegionalShapeResult
    local_theta: GevParams


def fit_gev_regional(
    scheme: ObservationScheme,
    target_site: str,
    method: str = "TL",
    pwm_estimator: str = "unbiased",
) -> RegionalGevFit:
    """Fit a GEV at one site, borrowing the shape from the whole region.

    The location and scale come from the target site's own moment fit;
    the shape is the weighted regional estimate.  The 3x3 covariance is
    assembled from the joint PWM covariance: location/scale rows act on
    the target site's PWM block only, the shape row combines all sites
    with the regional weights (treated as fixed, their limit value).
    """
    K = _require_method(method)
    recover = gev_from_lmoments if method == "L" else gev_from_tlmoments
    t = scheme.site_index(target_site)
    system = _shape_system(scheme, method, pwm_estimator)
    shape = _combine_shapes(scheme, system, method)

    try:
        local = recover(system.pwms[t])
    except Exception as exc:
        raise NumericError(
            f"moment fit failed at target site {target_site!r}: {exc}"
        ) from exc
    theta = GevParams(local.mu, local.sigma, shape.xi)

    d = scheme.d
    grad = np.zeros((3, d * K))
    fit_grad_t = gev_fit_gradient(system.pwms[t], method)
    grad[0, t * K : (t + 1) * K] = fit_grad_t[0]
    grad[1, t * K : (t + 1) * K] = fit_grad_t[1]
    for j in range(d):
        grad[2, j * K : (j + 1) * K] = shape.weights[j] * system.grads[j]
    cov = grad @ system.blocks.matrix @ grad.T
    cov = 0.5 * (cov + cov.T)
    return RegionalGevFit(
        theta=theta,
        covariance=cov,
        n_effective=scheme.sites[t].length,
        shape=shape,
        local_theta=local,
    )


def _require_method(method: str) -> int:
    if method not in _METHOD_ORDERS:
        raise ParameterError(f"unknown moment method {method!r}; use 'L' or 'TL'")
    return _METHOD_ORDERS[method]
