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

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .errors import DataError, NumericError, ParameterError, RegfloodError, _integer
from .gev import GevParams
from .moments import PwmVector, _moment_method, _ranked_block, gev_fit_gradient

__all__ = [
    "SiteSeries",
    "ObservationScheme",
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

# PWM estimators for the parameter fits.  The influence-row
# covariance machinery below always follows the plug-in construction it
# is defined for; the fits default to the unbiased order-statistic
# version, whose vanishing O(1/n) bias is what keeps interval coverage
# near nominal at realistic record lengths (both share one limit law).
_PWM_ESTIMATORS = ("unbiased", "plugin")


@dataclass(frozen=True)
class SiteSeries:
    """One site's annual (or seasonal) maxima, aligned to the scheme end.

    ``offset`` counts years missing at the start relative to the longest
    record; row ``i`` of ``values`` is year ``offset + i + 1`` of the
    common observation period.  Values must be finite.
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
        if not np.all(np.isfinite(vals)):
            raise DataError(f"site {self.site_id!r}: series values must be finite")
        offset = _integer(self.offset, f"site {self.site_id!r}: offset", DataError)
        if offset < 0:
            raise DataError(f"site {self.site_id!r}: negative offset")
        object.__setattr__(self, "offset", offset)
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
        elif len(site_ids) != arr.shape[1]:
            raise DataError(f"{len(site_ids)} site ids for {arr.shape[1]} columns")
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
    def offsets(self) -> np.ndarray:
        return np.array([s.offset for s in self.sites], dtype=int)

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

    def overlap_groups(self):
        """Yield ``(start, group, late)`` per distinct offset, in increasing order:
        ``group`` indexes the sites observed from ``start`` on, ``late`` the
        positions among them of those starting there.  Each pair of sites is
        a (late, group) entry of the group of its later start only."""
        offsets = self.offsets
        for start in np.unique(offsets):
            group = np.flatnonzero(offsets <= start)
            yield int(start), group, np.flatnonzero(offsets[group] == start)

    def rows(self, sites, start: int) -> np.ndarray:
        """Common-period rows from ``start`` on, one column per listed site."""
        return np.column_stack(
            [self.sites[j].values[start - self.sites[j].offset :] for j in sites]
        )

    def subset(self, site_ids) -> "ObservationScheme":
        """Scheme restricted to the given sites (order preserved)."""
        keep = [self.sites[self.site_index(sid)] for sid in site_ids]
        shift = min((s.offset for s in keep), default=0)
        return ObservationScheme(
            tuple(SiteSeries(s.site_id, s.offset - shift, s.values) for s in keep)
        )


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
    K = _integer(K, "K")
    if K < 1:
        raise ParameterError("K must be >= 1")
    return _ranked_block([x], K)[:, 0]


def sigma_r_hat(scheme: ObservationScheme, K: int) -> np.ndarray:
    """Nonparametric estimate of the joint PWM covariance across sites.

    Returns the dK x dK limiting covariance of the stacked sample PWMs,
    site by site: block (j, l) holds rows ``j*K:(j+1)*K`` and columns
    ``l*K:(l+1)*K``.  It is ``min(r_j, r_l)/(r_j*r_l)`` times the
    empirical covariance of the sites' influence rows over their
    overlapping years, with ``r_j = n_j/n``.  The rows of all sites come
    from one ranking of the padded scheme; each overlap group's rows are
    sliced from it and centred once, and the blocks of its late-starting
    sites against the whole group are one stacked product.  The matrix
    is exactly symmetric but not necessarily positive semi-definite:
    finite-sample estimates can have negative eigenvalues, which the
    shape weighting handles with its fallback.  Data whose scale
    overflows the matrix raise :class:`NumericError`.
    """
    K = _integer(K, "K")
    if K < 1:
        raise ParameterError("K must be >= 1")
    r = scheme.ratios

    def columns(sites):
        return (sites[:, None] * K + np.arange(K)).ravel()

    matrix = np.empty((scheme.d * K, scheme.d * K))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below speaks
        zhats = _ranked_block([s.values for s in scheme.sites], K)
        for start, group, late in scheme.overlap_groups():
            # C order, so the centring adds each column's years one by one (the
            # strided copy that indexing makes would sum a K = 1 column pairwise)
            z = np.ascontiguousarray(zhats[start:, group])
            z = z - z.mean(axis=0)
            m = len(z)
            # one K x K product per (late, group) pair: one 2-D product can round
            # the blocks differently, as BLAS picks kernels by size; indexing copies
            # the late sites, keeping A.T @ A off the symmetric rank-k path
            by_site = z.transpose(1, 0, 2)
            cov = by_site[late].transpose(0, 2, 1)[:, None] @ by_site[None] / (m - 1)
            r_late, r_group = r[group[late]], r[group]
            scale = np.minimum.outer(r_late, r_group) / np.outer(r_late, r_group)
            block = (scale[:, :, None, None] * cov).transpose(0, 2, 1, 3)
            block = block.reshape(len(late) * K, -1)
            rows, cols = columns(group[late]), columns(group)
            matrix[np.ix_(rows, cols)] = block
            matrix[np.ix_(cols, rows)] = block.T
    if not np.isfinite(matrix).all():
        raise NumericError("PWM covariance is not finite: the data's scale overflows it")
    return matrix


def sigma_tail_hat(
    scheme: ObservationScheme, method: str = "TL", pwm_estimator: str = "unbiased"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site shape estimates and their joint limiting covariance.

    The covariance follows from the PWM covariance and the delta method,
    using the analytic gradient of the polynomial shape map actually
    applied to the data (so the variance describes the estimator in use).
    Both are read off :func:`regional_shape`.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Length-d vector of shape estimates and the d x d covariance of
        ``sqrt(n) * (xi_hat - xi)``.
    """
    diagnostics = regional_shape(scheme, method, pwm_estimator).diagnostics
    return diagnostics["xi_by_site"], diagnostics["sigma_tail"]


def _eigenvalues_valid(eigs: np.ndarray) -> bool:
    return bool(eigs.min() > 0 and eigs.max() / eigs.min() < MAX_CONDITION)


def _pool_weights(sigma: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, str, float]:
    """Pooling weights under a symmetric covariance, their source and its least eigenvalue.

    The weights are the Lagrange solution ``sigma^{-1} 1 / (1' sigma^{-1} 1)``
    when the covariance is valid, otherwise ``fallback`` as given.
    """
    eigs = np.linalg.eigvalsh(sigma)
    if not _eigenvalues_valid(eigs):
        return fallback, "length-proportional", float(eigs.min())
    raw = np.linalg.solve(sigma, np.ones(sigma.shape[0]))
    return raw / raw.sum(), "optimal", float(eigs.min())


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
    ``sigma^{-1} 1 / (1' sigma^{-1} 1)`` of its symmetric part.
    Degenerate inputs fall back to the supplied weight vector, rescaled
    to sum to one (uniform weights when none is given).
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ParameterError("covariance must be a square matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise ParameterError("covariance must be symmetric")
    w = np.ones(sigma.shape[0]) if fallback is None else np.asarray(fallback, dtype=float)
    return _pool_weights(0.5 * (sigma + sigma.T), w / w.sum())[0]


def fallback_weights(scheme: ObservationScheme) -> np.ndarray:
    """Weights proportional to local record lengths (sum to one)."""
    lengths = scheme.lengths.astype(float)
    return lengths / lengths.sum()


@dataclass(frozen=True)
class RegionalShapeResult:
    """Weighted regional shape estimate with its provenance.

    ``n`` is the scheme's common period length, to which the shape
    covariance in ``diagnostics["sigma_tail"]`` is normalized.  The shape
    system it was pooled from is kept: the per-site ``pwms``, the d x K
    ``shape_gradients`` of the shape map in them and the dK x dK
    ``pwm_covariance`` from :func:`sigma_r_hat`.
    """

    xi: float
    weights: np.ndarray
    diagnostics: dict
    n: int
    pwms: tuple = field(repr=False)
    shape_gradients: np.ndarray = field(repr=False)
    pwm_covariance: np.ndarray = field(repr=False)

    def homogeneity(self) -> tuple[float, float]:
        """Wald test of equal shape parameters across the fitted sites.

        Uses the successive-difference contrasts of the per-site shape
        estimates and their estimated covariance; the statistic is
        referred to a chi-square distribution with d-1 degrees of freedom.

        Returns
        -------
        (float, float)
            Test statistic and p-value.
        """
        xi_hats = self.diagnostics["xi_by_site"]
        d = len(xi_hats)
        if d < 2:
            raise ParameterError("homogeneity test needs at least two sites")
        contrast = np.eye(d - 1, d) - np.eye(d - 1, d, k=1)
        diffs = contrast @ xi_hats
        inner = contrast @ self.diagnostics["sigma_tail"] @ contrast.T
        if not covariance_is_valid(inner):
            raise NumericError(
                "contrast covariance is singular; drop duplicated or perfectly "
                "dependent sites before testing homogeneity"
            )
        stat = float(self.n * diffs @ np.linalg.solve(inner, diffs))
        return stat, float(chdtrc(d - 1, stat))


def regional_shape(
    scheme: ObservationScheme, method: str = "TL", pwm_estimator: str = "unbiased"
) -> RegionalShapeResult:
    """Weighted combination of per-site shape estimates.

    The shape covariance is ``G Sigma_R G'`` (delta method), with ``G``
    the block-diagonal shape gradients and ``Sigma_R`` the joint PWM
    covariance.  Weights minimize the estimated limiting variance when
    that covariance is valid; otherwise they are proportional to the
    record lengths (the remedy for finite-sample covariance estimates
    with negative eigenvalues).  A site whose values are all equal is
    rejected with :class:`DataError`, a non-finite shape covariance with
    :class:`NumericError`.
    """
    spec = _moment_method(method)
    K, d = spec.order, scheme.d
    if pwm_estimator not in _PWM_ESTIMATORS:
        raise ParameterError(
            f"unknown PWM estimator {pwm_estimator!r}; use 'unbiased' or 'plugin'"
        )
    for site in scheme.sites:
        if np.all(site.values == site.values[0]):
            raise DataError(
                f"site {site.site_id!r}: all values are equal; its shape cannot be estimated"
            )
        if pwm_estimator == "unbiased" and site.length < K:
            raise NumericError(
                f"shape estimation failed at site {site.site_id!r}: "
                f"PWM order {K - 1} needs a sample larger than {K - 1}"
            )
    betas = _ranked_block([site.values for site in scheme.sites], K, pwm_estimator)
    pwms = tuple(map(PwmVector, betas))
    xi_hats, grads = np.empty(d), np.empty((d, K))
    for j, (site, pwm) in enumerate(zip(scheme.sites, pwms)):
        try:
            xi_hats[j] = spec.shape(pwm)
            grads[j] = spec.shape_gradient(pwm)
        except RegfloodError as exc:
            raise NumericError(
                f"shape estimation failed at site {site.site_id!r}: {exc}"
            ) from exc
    cov = sigma_r_hat(scheme, K)
    blocks = cov.reshape(d, K, d, K).transpose(0, 2, 1, 3)
    sigma = (grads[:, None, None] @ blocks @ grads[None, :, :, None])[:, :, 0, 0]
    sigma = 0.5 * (sigma + sigma.T)
    if not np.all(np.isfinite(sigma)):
        raise NumericError(
            "shape covariance is not finite: the data's scale overflows "
            "the shape gradients or the PWM covariance"
        )
    weights, source, min_eig = _pool_weights(sigma, fallback_weights(scheme))
    return RegionalShapeResult(
        xi=float(weights @ xi_hats),
        weights=weights,
        diagnostics={
            "weights_source": source,
            "xi_by_site": xi_hats,
            "sigma_tail": sigma,
            "sigma_tail_min_eigenvalue": min_eig,
            "method": method,
        },
        n=scheme.n,
        pwms=pwms,
        shape_gradients=grads,
        pwm_covariance=cov,
    )


def homogeneity_test(
    scheme: ObservationScheme, method: str = "TL", pwm_estimator: str = "unbiased"
) -> tuple[float, float]:
    """Wald test of equal shape parameters across sites: statistic and p-value.

    Read off the regional shape fit by :meth:`RegionalShapeResult.homogeneity`.
    """
    return regional_shape(scheme, method, pwm_estimator).homogeneity()


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
    spec = _moment_method(method)
    t = scheme.site_index(target_site)
    shape = regional_shape(scheme, method, pwm_estimator)
    try:
        local = spec.recover(shape.pwms[t])
    except RegfloodError as exc:
        raise NumericError(
            f"moment fit failed at target site {target_site!r}: {exc}"
        ) from exc
    theta = GevParams(local.mu, local.sigma, shape.xi)

    K = spec.order
    grad = np.zeros((3, scheme.d * K))
    grad[:2, t * K : (t + 1) * K] = gev_fit_gradient(shape.pwms[t], method)[:2]
    grad[2] = (shape.weights[:, None] * shape.shape_gradients).ravel()
    cov = grad @ shape.pwm_covariance @ grad.T
    cov = 0.5 * (cov + cov.T)
    return RegionalGevFit(
        theta=theta,
        covariance=cov,
        n_effective=scheme.sites[t].length,
        shape=shape,
        local_theta=local,
    )
