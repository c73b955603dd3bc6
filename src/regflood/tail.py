"""Semi-parametric heavy-tail pipeline: tail index, extrapolation, regions.

Local tail indices come from log relative excesses over a high order
statistic; extrapolated quantiles follow the power-tail formula.  For a
tail-homogeneous region the local indices are combined by weights that
minimize the limiting variance, which depends on pairwise extremal
dependence between the sites (estimated either from joint top ranks or
through a dependence-function representation).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.stats import norm

from .errors import DataError, DomainError, NumericError, ParameterError
from .regional import ObservationScheme, fallback_weights, optimal_weights
from .twocomp import QuantileInterval

__all__ = [
    "hill",
    "default_k",
    "weissman_quantile",
    "tail_prob",
    "tail_dependence_empirical",
    "pickands_cfg",
    "TailConfig",
    "TailDependence",
    "semi_sigma",
    "regional_tail_fit",
    "RegionalTailFit",
    "weissman_ci",
    "seasonal_weissman_quantile",
]

PICKANDS_T_GRID = np.linspace(0.0, 1.0, 201)


def hill(data, k: int) -> float:
    """Tail-index estimate from the k largest observations.

    Mean of log(X_(n-i+1) / X_(n-k)) over i = 1..k, the maximum
    pseudo-likelihood estimate under an exact power tail.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = len(x)
    if not 2 <= k < n:
        raise ParameterError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    threshold = x[n - k - 1]
    if threshold <= 0:
        raise DomainError(
            f"threshold order statistic {threshold:.6g} is not positive; "
            "log excesses are undefined"
        )
    return float(np.mean(np.log(x[n - k :] / threshold)))


def default_k(n: int, d: int) -> int:
    """Tail sample length rule floor(2 n^(2/3) / d^(1/3)), clamped to [2, n-1].

    Growing slower than n keeps the excess threshold drifting into the
    tail; shrinking with d trades local tail data against the bias
    reduction from pooling many sites.
    """
    if n < 3:
        raise ParameterError(f"need n >= 3 observations, got {n}")
    if d < 1:
        raise ParameterError(f"need d >= 1 sites, got {d}")
    k = math.floor(2.0 * n ** (2.0 / 3.0) / d ** (1.0 / 3.0))
    clamped = min(max(k, 2), n - 1)
    if clamped != k:
        warnings.warn(
            f"tail sample length {k} clamped to {clamped} for n={n}, d={d}",
            stacklevel=2,
        )
    return clamped


def weissman_quantile(data, k: int, p: float, gamma: float) -> float:
    """Extrapolated high quantile u * (k / (n (1-p)))**gamma.

    ``u`` is the (n-k)-th order statistic.  Levels at or below the
    empirical threshold coverage 1 - k/n trigger a warning: the formula
    is meant for extrapolation beyond the data range.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = len(x)
    if not 2 <= k < n:
        raise ParameterError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    if p >= 1.0:
        raise DomainError("p = 1 corresponds to an infinite quantile")
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly between 0 and 1")
    if gamma < 0:
        raise ParameterError("tail index must be non-negative")
    threshold = x[n - k - 1]
    if threshold <= 0:
        raise DomainError(f"threshold {threshold:.6g} is not positive")
    if p <= 1.0 - k / n:
        warnings.warn(
            f"p={p} is within the empirical range (<= 1 - k/n = {1 - k / n:.4f}); "
            "no extrapolation is taking place",
            stacklevel=2,
        )
    return float(threshold * (k / (n * (1.0 - p))) ** gamma)


def tail_prob(x: float, data, k: int, gamma: float) -> float:
    """Tail cdf value 1 - (k/n) * (x/u)**(-1/gamma) for x above the threshold.

    Exact algebraic inverse of :func:`weissman_quantile`.
    """
    xs = np.sort(np.asarray(data, dtype=float))
    n = len(xs)
    if not 2 <= k < n:
        raise ParameterError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    if gamma <= 0:
        raise ParameterError("tail index must be positive")
    threshold = xs[n - k - 1]
    if threshold <= 0:
        raise DomainError(f"threshold {threshold:.6g} is not positive")
    if x < threshold:
        raise DomainError(
            f"x={x:.6g} lies below the threshold {threshold:.6g}; the tail "
            "formula extrapolates upward only"
        )
    return float(1.0 - (k / n) * (x / threshold) ** (-1.0 / gamma))


# --------------------------------------------------------------------------
# Extremal dependence between sites
# --------------------------------------------------------------------------


def _ordinal_ranks(values: np.ndarray) -> np.ndarray:
    ranks = np.empty(len(values), dtype=float)
    ranks[np.argsort(values, kind="stable")] = np.arange(1, len(values) + 1)
    return ranks


def tail_dependence_empirical(pairs, k: int, x: float, y: float) -> float:
    """Joint-top-rank estimate of the upper tail copula at (x, y).

    Counts pairs whose within-pair ranks both lie in the top ``k*x``
    resp. ``k*y`` fractions and normalizes by k.  Converges to
    min(x, y) for comonotone pairs and to 0 under independence.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise DataError("need an (m x 2) array of paired observations, m >= 2")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if x < 0 or y < 0:
        raise DomainError("tail copula arguments must be non-negative")
    if x == 0 or y == 0:
        return 0.0
    m = arr.shape[0]
    r = _ordinal_ranks(arr[:, 0])
    s = _ordinal_ranks(arr[:, 1])
    joint = np.sum((r > m - k * x) & (s > m - k * y))
    return float(joint / k)


def _joint_top_share(r: np.ndarray, s: np.ndarray, k: int, x: float, y: float) -> float:
    """:func:`tail_dependence_empirical` from precomputed within-pair ranks."""
    if x < 0 or y < 0:
        raise DomainError("tail copula arguments must be non-negative")
    if x == 0 or y == 0:
        return 0.0
    m = len(r)
    joint = np.sum((r > m - k * x) & (s > m - k * y))
    return float(joint / k)


def pickands_cfg(pairs, t_grid=PICKANDS_T_GRID) -> np.ndarray:
    """Rank-based dependence-function estimate on a grid of [0, 1].

    Log-scale estimator corrected to equal 1 at both endpoints and
    clipped into the admissible band max(t, 1-t) <= A(t) <= 1.
    Pseudo-observations are built internally as rank/(m+1), which keeps
    all logarithms finite.
    """
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("need an (m x 2) array of paired observations")
    m = arr.shape[0]
    if m < 10:
        raise DataError(f"dependence-function estimation needs >= 10 pairs, got {m}")
    t = np.asarray(t_grid, dtype=float)
    if np.any((t < 0) | (t > 1)):
        raise DomainError("t grid must lie in [0, 1]")
    u = _ordinal_ranks(arr[:, 0]) / (m + 1)
    v = _ordinal_ranks(arr[:, 1]) / (m + 1)
    lu = -np.log(u)
    lv = -np.log(v)

    def log_a_raw(ti: float) -> float:
        with np.errstate(divide="ignore"):
            left = lu / (1.0 - ti) if ti < 1.0 else np.full(m, np.inf)
            right = lv / ti if ti > 0.0 else np.full(m, np.inf)
        return -np.euler_gamma - float(np.mean(np.log(np.minimum(left, right))))

    raw = np.array([log_a_raw(ti) for ti in t])
    a0 = log_a_raw(0.0)
    a1 = log_a_raw(1.0)
    corrected = raw - (1.0 - t) * a0 - t * a1
    a_vals = np.exp(corrected)
    return np.clip(a_vals, np.maximum(t, 1.0 - t), 1.0)


class TailDependence:
    """Pairwise extremal dependence of a region.

    Holds one tail-copula evaluator per site pair; built either from
    joint top ranks over the pairwise overlap years or from a
    dependence-function table via Lambda(x, y) = (x+y) * (1 - A(y/(x+y))).
    """

    def __init__(self, d: int, lambda_fns: dict):
        self.d = d
        self._fns = lambda_fns

    def lambda_value(self, l: int, m: int, x: float, y: float) -> float:
        if l == m:
            return min(x, y)
        if (l, m) in self._fns:
            return float(self._fns[(l, m)](x, y))
        return float(self._fns[(m, l)](y, x))

    @classmethod
    def independent(cls, d: int) -> "TailDependence":
        return cls(d, {(l, m): (lambda x, y: 0.0) for l in range(d) for m in range(l + 1, d)})

    @classmethod
    def comonotone(cls, d: int) -> "TailDependence":
        return cls(d, {(l, m): min for l in range(d) for m in range(l + 1, d)})

    @classmethod
    def from_scheme(
        cls,
        scheme: ObservationScheme,
        k,
        method: str = "empirical",
        t_grid=PICKANDS_T_GRID,
    ) -> "TailDependence":
        """Estimate all pairwise dependencies from the overlap years.

        The empirical method ranks each site once per distinct overlap
        start (once in all when the records have equal lengths) and
        counts joint top ranks from those cached ranks; its values equal
        :func:`tail_dependence_empirical` on each pair's overlap rows.
        The ``pickands_cfg`` method estimates a dependence-function table
        for each pair.
        """
        if method not in ("empirical", "pickands_cfg"):
            raise ParameterError(
                f"unknown dependence method {method!r}; use 'empirical' or 'pickands_cfg'"
            )
        d = scheme.d
        ks = _as_k_vector(scheme, k)

        @functools.cache
        def site_ranks(j: int, start: int) -> np.ndarray:
            return _ordinal_ranks(_overlap_rows(scheme, j, start))

        fns = {}
        for l in range(d):
            for m in range(l + 1, d):
                start = _overlap_start(scheme, l, m)
                k_pair = int(min(ks[l], ks[m], scheme.n - start - 1))
                if method == "empirical":
                    fns[(l, m)] = functools.partial(
                        _joint_top_share, site_ranks(l, start), site_ranks(m, start), k_pair
                    )
                else:
                    pairs = np.column_stack(
                        [_overlap_rows(scheme, l, start), _overlap_rows(scheme, m, start)]
                    )
                    a_vals = pickands_cfg(pairs, t_grid)
                    fns[(l, m)] = _pickands_lambda_fn(np.asarray(t_grid, float), a_vals)
        return cls(d, fns)


def _overlap_start(scheme: ObservationScheme, l: int, m: int) -> int:
    """First row (of the common period) observed at both sites."""
    start = max(scheme.sites[l].offset, scheme.sites[m].offset)
    rows = scheme.n - start
    if rows < 2:
        raise DataError(
            f"sites {scheme.site_ids[l]!r} and {scheme.site_ids[m]!r} share "
            f"only {rows} years"
        )
    return start


def _overlap_rows(scheme: ObservationScheme, j: int, start: int) -> np.ndarray:
    site = scheme.sites[j]
    return site.values[start - site.offset :]


def _pickands_lambda_fn(t_grid: np.ndarray, a_vals: np.ndarray):
    def fn(x: float, y: float) -> float:
        if x <= 0 or y <= 0:
            return 0.0
        t = y / (x + y)
        a = float(np.interp(t, t_grid, a_vals))
        return (x + y) * (1.0 - a)

    return fn


# --------------------------------------------------------------------------
# Regional combination
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TailConfig:
    """Tail sample lengths, combination weights and dependence method."""

    k: np.ndarray
    weights: np.ndarray | None = None
    dependence_method: str = "empirical"

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k, dtype=int))
        if np.any(k < 2):
            raise ParameterError("all tail sample lengths must be >= 2")
        object.__setattr__(self, "k", k)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if abs(w.sum() - 1.0) > 1e-12:
                raise ParameterError("weights must sum to 1")
            object.__setattr__(self, "weights", w)
        if self.dependence_method not in ("empirical", "pickands_cfg"):
            raise ParameterError(
                f"unknown dependence method {self.dependence_method!r}"
            )


def _as_k_vector(scheme: ObservationScheme, k) -> np.ndarray:
    lengths = scheme.lengths
    if k is None:
        ks = np.array([default_k(int(nj), scheme.d) for nj in lengths])
    else:
        ks = np.atleast_1d(np.asarray(k, dtype=int))
        if ks.size == 1:
            ks = np.full(scheme.d, int(ks[0]))
    if ks.size != scheme.d:
        raise ParameterError(f"need one k per site ({scheme.d}), got {ks.size}")
    if np.any(ks < 2) or np.any(ks >= lengths):
        raise ParameterError(
            f"tail sample lengths must satisfy 2 <= k_j < n_j (got k={ks.tolist()}, "
            f"n={lengths.tolist()})"
        )
    return ks


def semi_sigma(config: TailConfig, r, dependence: TailDependence) -> np.ndarray:
    """Limiting covariance structure of the local tail-index estimates.

    Entry (l, m) is ``c_l c_m min(r_l, r_m) Lambda((r_l c_l)^-1,
    (r_m c_m)^-1)`` with ``c_l = k_1/k_l``; the diagonal is exactly
    ``c_l`` and is set directly rather than through the estimated
    dependence.
    """
    r = np.asarray(r, dtype=float)
    ks = config.k
    d = len(ks)
    if r.size != d:
        raise ParameterError("need one length ratio per site")
    if np.any((r <= 0) | (r > 1)):
        raise ParameterError("length ratios must lie in (0, 1]")
    c = ks[0] / ks.astype(float)
    sigma = np.empty((d, d))
    for l in range(d):
        sigma[l, l] = c[l]
        for m in range(l + 1, d):
            lam = dependence.lambda_value(
                l, m, 1.0 / (r[l] * c[l]), 1.0 / (r[m] * c[m])
            )
            val = c[l] * c[m] * min(r[l], r[m]) * lam
            sigma[l, m] = val
            sigma[m, l] = val
    return sigma


@dataclass(frozen=True)
class RegionalTailFit:
    """Local tail indices and their variance-optimal combination."""

    gamma: float
    gammas: np.ndarray
    k: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray
    weights_source: str
    dependence_method: str


def regional_tail_fit(
    scheme: ObservationScheme,
    k=None,
    dependence_method: str = "empirical",
    weights=None,
) -> RegionalTailFit:
    """Estimate a common tail index for a region.

    Computes local indices with the default (or given) tail sample
    lengths, estimates the pairwise dependence, and combines with
    variance-minimizing weights (length-proportional when the estimated
    covariance is not usable).
    """
    ks = _as_k_vector(scheme, k)
    gammas = np.array([hill(s.values, int(kj)) for s, kj in zip(scheme.sites, ks)])
    config = TailConfig(k=ks, dependence_method=dependence_method)
    dependence = TailDependence.from_scheme(scheme, ks, dependence_method)
    sigma = semi_sigma(config, scheme.ratios, dependence)
    if weights is None:
        w = optimal_weights(sigma, fallback=fallback_weights(scheme))
        source = "optimal"
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        source = "user"
    return RegionalTailFit(
        gamma=float(w @ gammas),
        gammas=gammas,
        k=ks,
        weights=w,
        sigma=sigma,
        weights_source=source,
        dependence_method=dependence_method,
    )


def weissman_ci(
    scheme: ObservationScheme,
    config: TailConfig,
    target_site: str,
    p: float,
    alpha: float,
) -> QuantileInterval:
    """Extrapolated quantile at a site with its asymptotic interval.

    The relative half-width is ``z * sqrt(gamma^2/k_1 * w' Sigma w) *
    log(k_j / (n_j (1-p)))`` with site 1 (the scheme's first site) as
    the normalization reference.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie strictly between 0 and 1")
    ks = _as_k_vector(scheme, config.k)
    j = scheme.site_index(target_site)
    dependence = TailDependence.from_scheme(scheme, ks, config.dependence_method)
    sigma = semi_sigma(TailConfig(k=ks), scheme.ratios, dependence)
    if config.weights is not None:
        w = config.weights
    else:
        w = optimal_weights(sigma, fallback=fallback_weights(scheme))
    gammas = np.array([hill(s.values, int(kj)) for s, kj in zip(scheme.sites, ks)])
    gamma_reg = float(w @ gammas)
    site = scheme.sites[j]
    q_hat = weissman_quantile(site.values, int(ks[j]), p, gamma_reg)
    log_width = math.log(ks[j] / (site.length * (1.0 - p)))
    rel_half = (
        norm.ppf(1.0 - alpha / 2.0)
        * math.sqrt(gamma_reg**2 / ks[0] * float(w @ sigma @ w))
        * log_width
    )
    return QuantileInterval(q_hat, q_hat * (1.0 - rel_half), q_hat * (1.0 + rel_half), alpha)


def seasonal_weissman_quantile(
    winter_scheme: ObservationScheme,
    summer_scheme: ObservationScheme,
    target_site: str,
    p: float,
    k=None,
) -> float:
    """Seasonal-product variant of the extrapolated quantile (not recommended).

    Estimates each season's tail cdf semi-parametrically at the target
    site, forms the product and inverts it numerically.  Shipped for
    estimator comparisons only: simulations show it can carry a severe
    bias, hence the warning on every call.
    """
    warnings.warn(
        "the seasonal-product extrapolation estimator is not recommended: "
        "it can be severely biased; prefer the seasonal moment fit or the "
        "annual extrapolation",
        stacklevel=2,
    )
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly between 0 and 1")
    season_parts = []
    for scheme in (winter_scheme, summer_scheme):
        fit = regional_tail_fit(scheme, k=k)
        j = scheme.site_index(target_site)
        site = scheme.sites[j]
        xs = np.sort(site.values)
        threshold = xs[site.length - int(fit.k[j]) - 1]
        if threshold <= 0:
            raise DomainError(
                f"threshold {threshold:.6g} at site {target_site!r} is not positive"
            )
        season_parts.append((threshold, int(fit.k[j]), site.length, fit.gamma))

    def season_cdf(part, x: float) -> float:
        u, kj, nj, gam = part
        return 1.0 - (kj / nj) * (x / u) ** (-1.0 / gam)

    def product(x: float) -> float:
        return season_cdf(season_parts[0], x) * season_cdf(season_parts[1], x)

    x0 = max(season_parts[0][0], season_parts[1][0])
    if product(x0) >= p:
        raise DomainError(
            f"target level p={p} is reached at or below the seasonal thresholds; "
            "the product formula extrapolates upward only"
        )
    x1 = x0
    for _ in range(300):
        x1 *= 2.0
        if product(x1) >= p:
            break
    else:
        raise NumericError("failed to bracket the seasonal-product quantile")
    try:
        root = optimize.brentq(lambda x: product(x) - p, x0, x1, xtol=1e-12)
    except (ValueError, RuntimeError) as exc:
        raise NumericError(f"seasonal-product inversion failed: {exc}") from exc
    return float(root)
