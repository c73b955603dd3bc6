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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, NumericError, ParameterError, RegfloodError, _integer
from .gev import GevParams
from .moments import (
    PwmVector,
    _fit_gradient_returns,
    _moment_method,
    _one_sample,
    _rank_stack,
    _ranked_block,
    gev_fit_gradient,
)

__all__ = [
    "SiteSeries",
    "ObservationScheme",
    "zhat_vectors",
    "sigma_r_hat",
    "sigma_tail_hat",
    "optimal_weights",
    "fallback_weights",
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SiteSeries:
    """One site's annual (or seasonal) maxima, aligned to the scheme end.

    ``offset`` counts years missing at the start relative to the longest
    record; row ``i`` of ``values`` is year ``offset + i + 1`` of the
    common observation period.  Values must be finite; they are kept as a
    read-only copy, so a scheme never follows later edits of the caller's array.
    """

    site_id: str
    offset: int
    values: np.ndarray

    def __post_init__(self):
        vals = _read_only(np.array(self.values, dtype=float))
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

    # the per-site arrays are computed once, on first use, and read-only

    @cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(np.array([s.offset for s in self.sites], dtype=int))

    @cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(np.array([s.length for s in self.sites], dtype=int))

    @cached_property
    def ratios(self) -> np.ndarray:
        return _read_only(self.lengths / self.n)

    @cached_property
    def _padded(self) -> np.ndarray:
        """The sites as the rows of a d x n block padded with -inf at the start."""
        padded = np.full((self.d, self.n), -np.inf)
        own = np.arange(self.n) >= self.offsets[:, None]
        padded[own] = np.concatenate([s.values for s in self.sites])
        return _read_only(padded)

    @cached_property
    def _order(self) -> np.ndarray:
        """Each padded row's stable sort order: the ranking every lane reads."""
        return _read_only(np.argsort(self._padded, axis=-1, kind="stable"))

    @cached_property
    def _rank_tables(self) -> tuple:
        """The :func:`_start_ranks` tables of ``_order``: the joint ranks the tail lane reads."""
        return tuple(map(_read_only, _start_ranks(self._order, self.offsets)))

    @cached_property
    def _pwm_covariances(self) -> dict:
        """:func:`sigma_r_hat`'s read-only matrix per order K, added on first use."""
        return {}

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
        shift = min((s.offset for s in keep), default=0)
        return ObservationScheme(
            tuple(SiteSeries(s.site_id, s.offset - shift, s.values) for s in keep)
        )


def _start_ranks(order: np.ndarray, offsets: np.ndarray):
    """Every site's ranks among the rows from each distinct start (start x site x
    year after the leading axes of ``order``, in the narrowest unsigned type
    holding n; a row before the start ranks 0), from the stable sort orders
    (..., d, n) of the -inf-padded rows of a scheme, and per pair l < m
    (``np.triu_indices`` order) its start and overlap length."""
    d, n = order.shape[-2:]
    l, m = np.triu_indices(d, 1)
    # the padding sorts first: the later site of a pair ranks 0 before its start
    starts, start_of = np.unique(offsets, return_inverse=True)
    counted = (order[..., None, :, :] >= starts[:, None, None]).astype(np.min_scalar_type(n))
    np.cumsum(counted, axis=-1, out=counted)
    ranks = np.empty_like(counted)
    by_region = order.reshape(-1, d, n)
    ranks.reshape(-1, len(starts), d, n)[
        np.arange(len(by_region))[:, None, None], :, np.arange(d)[:, None], by_region
    ] = counted.reshape(-1, len(starts), d, n).transpose(0, 2, 3, 1)
    start = np.maximum(start_of[l], start_of[m])
    return ranks, start, n - starts[start]


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
    return _one_sample(x, K)[:, 0]


def sigma_r_hat(scheme: ObservationScheme, K: int) -> np.ndarray:
    """Nonparametric estimate of the joint PWM covariance across sites.

    Returns the dK x dK limiting covariance of the stacked sample PWMs,
    site by site: block (j, l) holds rows ``j*K:(j+1)*K`` and columns
    ``l*K:(l+1)*K``.  It is ``min(r_j, r_l)/(r_j*r_l)`` times the
    empirical covariance of the sites' influence rows over their
    overlapping years, with ``r_j = n_j/n``.  The rows of all sites come
    from the scheme's one ranking, the stable sort it caches and shares with
    the PWMs and the tail lane.  Centred over each site's own
    record, zero before it, they give all d x d blocks in one stacked
    product, each divided by its overlap length minus one: the later site
    of a pair sums to zero over the overlap, so the other's overlap mean
    cancels.  One triangle is mirrored onto the other, so the matrix is
    exactly symmetric, but not necessarily positive semi-definite:
    finite-sample estimates can have negative eigenvalues, which the
    shape weighting handles with its fallback.  Data whose scale
    overflows the matrix raise :class:`NumericError`.

    The scheme keeps the matrix of each order it is asked for, as it
    depends on the data and K only: later calls, from any moment method or
    PWM estimator, return that same array.  It is read-only, so writing
    into it raises ``ValueError``; copy it to edit it.
    """
    K = _integer(K, "K")
    if K < 1:
        raise ParameterError("K must be >= 1")
    if (matrix := scheme._pwm_covariances.get(K)) is None:
        zhats = _ranked_block(scheme._padded, scheme._order, scheme.offsets, K)
        matrix = _pwm_covariance(zhats, scheme.offsets, scheme.ratios)
        if not np.isfinite(matrix).all():
            raise NumericError("PWM covariance is not finite: the data's scale overflows it")
        scheme._pwm_covariances[K] = _read_only(matrix)
    return matrix


@np.errstate(over="ignore", invalid="ignore")  # the callers' finite checks speak
def _pwm_covariance(zhats: np.ndarray, offsets: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """:func:`sigma_r_hat` from the (..., n, d, K) influence rows of one scheme shape;
    leading axes stack regions."""
    n, d, K = zhats.shape[-3:]
    lead = zhats.shape[:-3]
    own = (np.arange(n)[:, None] >= offsets)[:, :, None]
    overlap = n - np.maximum.outer(offsets, offsets)
    lengths = n - offsets
    matrix = np.empty(lead + (d * K, d * K))
    blocks = matrix.reshape(lead + (d, K, d, K)).swapaxes(-3, -2)
    z = np.where(own, zhats - zhats.sum(axis=-3, keepdims=True) / lengths[:, None], 0.0)
    # one K x K product per pair: one 2-D product can round the blocks
    # differently, as BLAS picks kernels by size; the copy keeps A.T @ A
    # off the symmetric rank-k path
    by_site = np.moveaxis(z, -3, -2)
    np.matmul(
        by_site.copy().swapaxes(-1, -2)[..., :, None, :, :], by_site[..., None, :, :, :], out=blocks
    )
    blocks /= (overlap - 1)[:, :, None, None]
    blocks *= (np.minimum.outer(ratios, ratios) / np.outer(ratios, ratios))[:, :, None, None]
    lower = np.tri(d * K, k=-1, dtype=bool)
    for one in matrix.reshape(-1, d * K, d * K):  # a 2-D mask takes the fast path
        one[lower] = one.T[lower]
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


def _chi2_tail(df: int, x: float) -> float:
    """P(chi-square with integer ``df`` degrees of freedom > x).

    With y = x/2 this is e^-y sum_a y^a / a! over a = 0..df/2 - 1 for even
    df, and erfc(sqrt(y)) plus the same sum over a = 1/2..(df - 2)/2 for odd
    df; each term is formed in log space, so no large df overflows.  It
    is 1 for x <= 0 and NaN for NaN.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    half = 0.5 * (df % 2)
    terms = [math.erfc(math.sqrt(y))] if half else []
    for j in range(df // 2):
        a = j + half
        terms.append(math.exp(a * log_y - y - math.lgamma(a + 1.0)))
    return math.fsum(terms)


def _eigenvalues_valid(eigs: np.ndarray) -> np.ndarray:
    """Whether each row of eigenvalues belongs to a usable covariance."""
    low, high = eigs.min(axis=-1), eigs.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (low > 0) & (high / low < MAX_CONDITION)


def _pool_weights(sigma: np.ndarray, fallback: np.ndarray):
    """Pooling weights under symmetric covariances (..., d, d), whether they are the
    optimal ones and the least eigenvalue of each covariance.

    The weights are the Lagrange solution ``sigma^{-1} 1 / (1' sigma^{-1} 1)``
    where the covariance is valid, otherwise ``fallback`` as given.
    """
    eigs = np.linalg.eigvalsh(sigma)
    valid = _eigenvalues_valid(eigs)
    weights = np.broadcast_to(fallback, eigs.shape).copy()  # C order: the dot products read rows
    if valid.any():
        raw = np.linalg.solve(sigma[valid], np.ones(sigma.shape[-1])[:, None])[..., 0]
        weights[valid] = raw / raw.sum(axis=-1, keepdims=True)
    return weights, valid, eigs.min(axis=-1)


def _weights_source(valid) -> str:
    return "optimal" if valid else "length-proportional"


def optimal_weights(sigma: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Variance-minimizing weights summing to one.

    For a positive definite ``sigma`` this is the Lagrange solution
    ``sigma^{-1} 1 / (1' sigma^{-1} 1)`` of its symmetric part.
    Degenerate inputs fall back to the supplied weight vector, rescaled
    to sum to one (uniform weights when none is given).  Raises
    :class:`ParameterError` for an empty, non-square or asymmetric
    ``sigma`` and for a fallback that is not d finite weights with a
    finite non-zero sum.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or not sigma.size:
        raise ParameterError("covariance must be a non-empty square matrix")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise ParameterError("covariance must be symmetric")
    d = sigma.shape[0]
    fallback = _unit_sum(np.ones(d) if fallback is None else fallback, d)
    return _pool_weights(0.5 * (sigma + sigma.T), fallback)[0]


def _unit_sum(weights, d: int) -> np.ndarray:
    """``weights`` rescaled to sum to one, which must be ``d`` finite weights
    with a finite non-zero sum."""
    w = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):
        total = w.sum()
    if w.shape != (d,) or not (np.all(np.isfinite(w)) and np.isfinite(total) and total != 0):
        raise ParameterError(
            f"need {d} finite weights with a finite non-zero sum, got {w.tolist()}"
        )
    return w / total


def fallback_weights(scheme: ObservationScheme) -> np.ndarray:
    """Weights proportional to local record lengths (sum to one)."""
    return _length_weights(scheme.lengths)


def _length_weights(lengths: np.ndarray) -> np.ndarray:
    lengths = lengths.astype(float)
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
        if not _eigenvalues_valid(np.linalg.eigvalsh(0.5 * (inner + inner.T))):
            raise NumericError(
                "contrast covariance is singular; drop duplicated or perfectly "
                "dependent sites before testing homogeneity"
            )
        stat = float(self.n * diffs @ np.linalg.solve(inner, diffs))
        return stat, _chi2_tail(d - 1, stat)


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
    K = spec.order
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
    betas = _ranked_block(scheme._padded, scheme._order, scheme.offsets, K, pwm_estimator)
    pwms = tuple(map(PwmVector, betas))
    xi_hats, grads, ok = spec.shape_maps(betas)
    if not ok.all():  # the scalar maps raise the first failing site's error
        j = int(np.argmin(ok))
        try:
            spec.shape(pwms[j])
            spec.shape_gradient(pwms[j])
        except RegfloodError as exc:
            raise NumericError(
                f"shape estimation failed at site {scheme.sites[j].site_id!r}: {exc}"
            ) from exc
    cov = sigma_r_hat(scheme, K)
    sigma = _shape_covariance(grads, cov)
    if not np.all(np.isfinite(sigma)):
        raise NumericError(
            "shape covariance is not finite: the data's scale overflows "
            "the shape gradients or the PWM covariance"
        )
    weights, valid, min_eig = _pool_weights(sigma, fallback_weights(scheme))
    return RegionalShapeResult(
        xi=float(weights @ xi_hats),
        weights=weights,
        diagnostics={
            "weights_source": _weights_source(valid),
            "xi_by_site": xi_hats,
            "sigma_tail": sigma,
            "sigma_tail_min_eigenvalue": float(min_eig),
            "method": method,
        },
        n=scheme.n,
        pwms=pwms,
        shape_gradients=grads,
        pwm_covariance=cov,
    )


@np.errstate(over="ignore", invalid="ignore")  # the callers' finite checks speak
def _shape_covariance(grads: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The symmetrized shape covariance ``G Sigma_R G'`` of (..., d, K) shape gradients
    and (..., dK, dK) PWM covariances."""
    d, K = grads.shape[-2:]
    blocks = cov.reshape(cov.shape[:-2] + (d, K, d, K)).swapaxes(-3, -2)
    sigma = (grads[..., :, None, None, :] @ blocks @ grads[..., None, :, :, None])[..., 0, 0]
    return 0.5 * (sigma + sigma.swapaxes(-1, -2))


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


def _fit_gev_regional_stack(stack: np.ndarray, order, reads: dict, pwm_estimator: str) -> dict:
    """:func:`fit_gev_regional`'s ``theta`` at site 0 of a stack (R, d, n) of
    equal-length regions of at least K years, whose rows sort stably by ``order``, per
    method of ``reads`` on the contiguous slice of the stack it maps to: a list with,
    per region of the slice, the single fit's theta bit for bit, or None where the fit
    failed or a check of the batch rejected it.

    One ranking and one PWM covariance serve every method: L reads the leading orders
    of TL's PWMs, influence rows and covariance blocks, which equal its own.  The fit
    gradient, which only decides whether the fit raises, is not evaluated but shown
    finite by :func:`_fit_gradient_returns`.
    """
    d, n = stack.shape[1:]
    specs = {method: _moment_method(method) for method in reads}
    K, pad = max(s.order for s in specs.values()), np.zeros(d, dtype=int)
    lo, hi = min(s.start for s in reads.values()), max(s.stop for s in reads.values())
    all_betas, all_rows = _rank_stack(stack[lo:hi], order[lo:hi], pad, K, pwm_estimator, rows=True)
    all_cov = _pwm_covariance(all_rows, pad, np.ones(d)).reshape(-1, d, K, d, K)
    constant_site = (stack.min(axis=2) == stack.max(axis=2)).any(axis=1)
    out = {}
    for method, spec in specs.items():
        k, own = spec.order, slice(reads[method].start - lo, reads[method].stop - lo)
        betas, rows = all_betas[own, ..., :k], all_rows[own, ..., :k]
        cov = all_cov[own, :, :k, :, :k].reshape(-1, d * k, d * k)
        xi_hats, grads, sites_ok = spec.shape_maps(betas)
        sigma = _shape_covariance(grads, cov)
        ok = ~constant_site[reads[method]] & sites_ok.all(axis=1)
        for array in (betas, rows, cov, sigma):
            ok &= np.isfinite(array).reshape(len(ok), -1).all(axis=1)
        sigma[~ok] = np.eye(d)  # LAPACK on a rejected region's NaNs could fail the stack
        try:
            weights, _, _ = _pool_weights(sigma, _length_weights(np.full(d, n)))
        except np.linalg.LinAlgError:  # each region alone shows which
            ok[:] = False
            weights = np.zeros((len(ok), d))
        xi = (weights[:, None, :] @ xi_hats[:, :, None])[:, 0, 0]
        out[method] = thetas = []
        for b, g, x, good in zip(betas[:, 0].tolist(), grads[:, 0].tolist(), xi.tolist(), ok):
            theta = None
            if good:
                try:
                    local = spec.recover(PwmVector(b))
                    if _fit_gradient_returns(local.xi, b, g):
                        theta = GevParams(local.mu, local.sigma, x)
                except RegfloodError:
                    pass
            thetas.append(theta)
    return out
