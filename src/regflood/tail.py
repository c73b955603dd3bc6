"""Semi-parametric heavy-tail pipeline: tail index, extrapolation, regions.

Local tail indices come from log relative excesses over a high order
statistic; extrapolated quantiles follow the power-tail formula.  For a
tail-homogeneous region the local indices are combined by weights that
minimize the limiting variance, which depends on pairwise extremal
dependence between the sites (estimated either from joint top ranks or
through a dependence-function representation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, NumericError, ParameterError
from .gev import brentq
from .regional import ObservationScheme, _pool_weights, fallback_weights
from .twocomp import QuantileInterval, _interval

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
# the estimated dependence methods of TailDependence.from_scheme
DEPENDENCE_METHODS = ("empirical", "pickands_cfg")


def _tail_lengths(k) -> np.ndarray:
    """Tail sample lengths as ints of the same shape; NaN, infinite,
    fractional or int64-overflowing values are rejected rather than
    truncated or wrapped (10.0 passes)."""
    ks = np.asarray(k)
    if ks.dtype.kind != "i":
        try:
            ks = ks.astype(float)
        except (TypeError, ValueError):
            raise ParameterError(f"tail sample lengths must be integers, got {k!r}") from None
        if not np.all((np.abs(ks) < 2.0**63) & (ks == np.round(ks))):  # also rejects NaN
            raise ParameterError(
                f"tail sample lengths must be integers of magnitude below 2**63, got {ks.tolist()}"
            )
    return np.asarray(ks, dtype=int)


def _excess_threshold(data, k) -> tuple[np.ndarray, int, float]:
    """Sorted sample, k as an int and the excess threshold X_(n-k), checked positive."""
    k = int(_tail_lengths(k))
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise DataError(f"need a 1-D sample, got shape {x.shape}")
    x = np.sort(x)
    n = len(x)
    if not 2 <= k < n:
        raise ParameterError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):  # NaN sorts last
        raise DataError("sample values must be finite")
    threshold = x[n - k - 1]
    if threshold <= 0:
        raise DomainError(
            f"threshold order statistic {threshold:.6g} is not positive; "
            "log excesses are undefined"
        )
    return x, k, threshold


def _hill_threshold(data, k) -> tuple[float, float]:
    """Hill index and its excess threshold X_(n-k), both from one sort."""
    x, k, threshold = _excess_threshold(data, k)
    return float(np.mean(np.log(x[len(x) - k :] / threshold))), threshold


def hill(data, k: int) -> float:
    """Tail-index estimate from the k largest observations.

    Mean of log(X_(n-i+1) / X_(n-k)) over i = 1..k, the maximum
    pseudo-likelihood estimate under an exact power tail.
    """
    return _hill_threshold(data, k)[0]


def default_k(n: int, d: int) -> int:
    """Tail sample length rule floor(2 n^(2/3) / d^(1/3)), clamped to [2, n-1].

    Growing slower than n keeps the excess threshold drifting into the
    tail; shrinking with d trades local tail data against the bias
    reduction from pooling many sites.
    """
    if not 3 <= n < math.inf:  # also rejects NaN
        raise ParameterError(f"need a finite n >= 3 observations, got {n}")
    if not d >= 1:
        raise ParameterError(f"need d >= 1 sites, got {d}")
    k = math.floor(2.0 * n ** (2.0 / 3.0) / d ** (1.0 / 3.0))
    clamped = min(max(k, 2), n - 1)
    if clamped != k:
        warnings.warn(
            f"tail sample length {k} clamped to {clamped} for n={n}, d={d}",
            stacklevel=2,
        )
    return clamped


def _power_tail_quantile(threshold, k: int, n: int, gamma: float, p: float) -> tuple:
    """Quantile u * r**gamma above the threshold u = X_(n-k), and r = k / (n (1-p));
    warns the caller's caller at p <= 1 - k/n, where nothing is extrapolated."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly between 0 and 1 (1 is infinite), got {p}")
    if not 0.0 <= gamma < math.inf:
        raise ParameterError(f"tail index must be finite and non-negative, got {gamma}")
    if p <= 1.0 - k / n:
        warnings.warn(
            f"p={p} is within the empirical range (<= 1 - k/n = {1 - k / n:.4f}); "
            "no extrapolation is taking place",
            stacklevel=3,
        )
    ratio = k / (n * (1.0 - p))
    try:
        q = float(threshold) * ratio**gamma
    except OverflowError:  # of the power; the product overflows to inf
        q = math.inf
    if not math.isfinite(q):
        raise NumericError(
            f"extrapolated quantile {threshold:.6g} * {ratio:.6g}**{gamma:.6g} overflows"
        )
    return q, ratio


def _power_tail_cdf(threshold, k: int, n: int, gamma: float, x: float) -> float:
    """Inverse of :func:`_power_tail_quantile`: 1 - (k/n) (x/u)**(-1/gamma)."""
    if not 0.0 < gamma < math.inf:
        raise ParameterError(f"tail index must be finite and positive, got {gamma}")
    return 1.0 - (k / n) * (x / threshold) ** (-1.0 / gamma)


def weissman_quantile(data, k: int, p: float, gamma: float) -> float:
    """Extrapolated high quantile u * (k / (n (1-p)))**gamma.

    ``u`` is the (n-k)-th order statistic.  Levels at or below the
    empirical threshold coverage 1 - k/n trigger a warning: the formula
    is meant for extrapolation beyond the data range.
    """
    x, k, threshold = _excess_threshold(data, k)
    return _power_tail_quantile(threshold, k, len(x), gamma, p)[0]


def tail_prob(x: float, data, k: int, gamma: float) -> float:
    """Tail cdf value 1 - (k/n) * (x/u)**(-1/gamma) for x above the threshold.

    Exact algebraic inverse of :func:`weissman_quantile`.
    """
    xs, k, threshold = _excess_threshold(data, k)
    if not x >= threshold:  # also rejects NaN
        raise DomainError(
            f"x={x:.6g} lies below the threshold {threshold:.6g}; the tail "
            "formula extrapolates upward only"
        )
    return float(_power_tail_cdf(threshold, k, len(xs), gamma, x))


# --------------------------------------------------------------------------
# Extremal dependence between sites
# --------------------------------------------------------------------------


def _ordinal_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..m along axis 0 (per column), ties broken by position."""
    return np.argsort(np.argsort(values, axis=0, kind="stable"), axis=0) + 1.0


def _finite_pairs(pairs) -> np.ndarray:
    """Paired observations as a finite (m x 2) float array."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("need an (m x 2) array of paired observations")
    if not np.all(np.isfinite(arr)):
        raise DataError("paired observations must be finite")
    return arr


def tail_dependence_empirical(pairs, k: int, x: float, y: float) -> float:
    """Joint-top-rank estimate of the upper tail copula at (x, y).

    Counts pairs whose within-pair ranks both lie in the top ``k*x``
    resp. ``k*y`` fractions and normalizes by k.  Converges to
    min(x, y) for comonotone pairs and to 0 under independence.
    """
    arr = _finite_pairs(pairs)
    if arr.shape[0] < 2:
        raise DataError("need an (m x 2) array of paired observations, m >= 2")
    if k < 1:
        raise ParameterError("k must be >= 1")
    return _joint_top_share(*_ordinal_ranks(arr).T, k, x, y)


def _joint_top_share(r: np.ndarray, s: np.ndarray, k: int, x: float, y: float) -> float:
    """:func:`tail_dependence_empirical` from precomputed within-pair ranks."""
    if not (x >= 0 and y >= 0):  # also rejects NaN
        raise DomainError("tail copula arguments must be non-negative")
    if x == 0 or y == 0:
        return 0.0
    m = len(r)
    joint = np.sum((r > m - k * x) & (s > m - k * y))
    return float(joint / k)


def pickands_cfg(pairs, t_grid=PICKANDS_T_GRID) -> np.ndarray:
    """Rank-based dependence-function estimate on a grid of [0, 1].

    Log-scale estimator corrected to equal 1 at both endpoints and
    clipped into the admissible band max(t, 1-t) <= A(t) <= 1.  The
    endpoint corrections are the raw estimates at t = 0 and t = 1,
    whether or not the grid contains them.
    Pseudo-observations are built internally as rank/(m+1), which keeps
    all logarithms finite.
    """
    arr = _finite_pairs(pairs)
    m = arr.shape[0]
    if m < 10:
        raise DataError(f"dependence-function estimation needs >= 10 pairs, got {m}")
    t = np.asarray(t_grid, dtype=float)
    if np.any((t < 0) | (t > 1)):
        raise DomainError("t grid must lie in [0, 1]")
    u, v = (_ordinal_ranks(arr) / (m + 1)).T
    # one row per grid point, then the endpoints t = 0 and t = 1
    ts = np.concatenate([t, [0.0, 1.0]])[:, None]
    with np.errstate(divide="ignore"):
        ratios = np.minimum(-np.log(u) / (1.0 - ts), -np.log(v) / ts)
    log_a = -np.euler_gamma - np.mean(np.log(ratios), axis=1)
    corrected = log_a[:-2] - (1.0 - t) * log_a[-2] - t * log_a[-1]
    a_vals = np.exp(corrected)
    return np.clip(a_vals, np.maximum(t, 1.0 - t), 1.0)


class TailDependence:
    """Extremal dependence of a region, evaluated as one d x d matrix.

    ``matrix(x)`` gives the tail copula Lambda_lm(x_l, x_m) of all site
    pairs for one argument per site, with Lambda_ll(x, x) = x.  Off the
    diagonal, by ``method``:

    - ``"independent"``: 0; ``"comonotone"``: min(x_l, x_m);
    - ``"empirical"``: joint top ranks over the pair's overlap years;
      ``tables`` holds per overlap start the sites observed from it, the
      positions among them of those starting there, their ranks and the
      pairs' tail sample lengths;
    - ``"pickands_cfg"``: (x_l + x_m)(1 - A_lm(x_m/(x_l + x_m))); ``tables``
      holds one table A_lm on ``PICKANDS_T_GRID`` per pair l < m
      (``np.triu_indices`` order).
    """

    def __init__(self, d: int, method: str, tables=()):
        self.d = d
        self.method = method
        self._tables = tables

    @classmethod
    def independent(cls, d: int) -> "TailDependence":
        return cls(d, "independent")

    @classmethod
    def comonotone(cls, d: int) -> "TailDependence":
        return cls(d, "comonotone")

    @classmethod
    def from_scheme(
        cls, scheme: ObservationScheme, k, method: str = "empirical"
    ) -> "TailDependence":
        """Estimate the region's dependence from each pair's overlap years.

        The empirical method ranks each site once per distinct overlap
        start; ``matrix`` then equals :func:`tail_dependence_empirical`
        on each pair's overlap rows with k = min(k_l, k_m) (below the
        overlap length, since each k_j is below its site's length).
        The ``pickands_cfg`` method estimates a dependence-function table
        on ``PICKANDS_T_GRID`` for each pair; ``matrix`` interpolates in it.
        """
        if method not in DEPENDENCE_METHODS:
            raise ParameterError(
                f"unknown dependence method {method!r}; use one of {DEPENDENCE_METHODS}"
            )
        d = scheme.d
        ks = _as_k_vector(scheme, k)
        if method == "pickands_cfg":
            offsets = scheme.offsets
            a_rows = [
                pickands_cfg(scheme.rows((l, m), max(offsets[l], offsets[m])))
                for l, m in zip(*np.triu_indices(d, 1))
            ]
            return cls(d, method, a_rows)
        tables = []
        for start, group, late in scheme.overlap_groups():
            ranks = _ordinal_ranks(scheme.rows(group, start))
            k_pair = np.minimum.outer(ks[group[late]], ks[group])
            tables.append((group, late, ranks, k_pair))
        return cls(d, method, tables)

    def matrix(self, x) -> np.ndarray:
        """Tail-copula matrix Lambda_lm(x_l, x_m) for one argument per site."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ParameterError(
                f"dependence covers {self.d} sites, got arguments of shape {x.shape}"
            )
        if not np.all(np.isfinite(x) & (x >= 0)):
            raise DomainError("tail copula arguments must be finite and non-negative")
        if self.method == "comonotone":
            return np.minimum.outer(x, x)
        lam = np.zeros((self.d, self.d))
        if self.method == "empirical":
            for group, late, ranks, k_pair in self._tables:
                # joint top ranks of the late x group pairs, one count per pair
                rows, starts_here = len(ranks), group[late]
                joint = (ranks[:, late, None] > rows - k_pair * x[starts_here, None]) & (
                    ranks[:, None, :] > rows - k_pair * x[group]
                )
                block = joint.sum(axis=0) / k_pair
                lam[np.ix_(starts_here, group)] = block
                lam[np.ix_(group, starts_here)] = block.T
        elif self.method == "pickands_cfg":
            l, m = np.triu_indices(self.d, 1)
            with np.errstate(invalid="ignore"):
                t = x[m] / (x[l] + x[m])
            a = np.array([np.interp(tp, PICKANDS_T_GRID, row) for tp, row in zip(t, self._tables)])
            lam[l, m] = lam[m, l] = np.where(
                (x[l] > 0) & (x[m] > 0), (x[l] + x[m]) * (1.0 - a), 0.0
            )
        np.fill_diagonal(lam, x)
        return lam


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
        k = np.atleast_1d(_tail_lengths(self.k))
        if np.any(k < 2):
            raise ParameterError("all tail sample lengths must be >= 2")
        object.__setattr__(self, "k", k)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if not np.all(np.isfinite(w)) or abs(w.sum() - 1.0) > 1e-12:
                raise ParameterError("weights must be finite and sum to 1")
            object.__setattr__(self, "weights", w)
        if self.dependence_method not in DEPENDENCE_METHODS:
            raise ParameterError(
                f"unknown dependence method {self.dependence_method!r}"
            )


def _as_k_vector(scheme: ObservationScheme, k) -> np.ndarray:
    lengths = scheme.lengths
    if k is None:
        ks = np.array([default_k(int(nj), scheme.d) for nj in lengths])
    else:
        ks = np.atleast_1d(_tail_lengths(k))
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
    dependence, which must cover the same sites as ``config.k``.
    """
    r = np.asarray(r, dtype=float)
    ks = config.k
    if r.size != len(ks):
        raise ParameterError("need one length ratio per site")
    if not np.all((r > 0) & (r <= 1)):
        raise ParameterError("length ratios must lie in (0, 1]")
    c = ks[0] / ks.astype(float)
    sigma = np.outer(c, c) * np.minimum.outer(r, r) * dependence.matrix(1.0 / (r * c))
    np.fill_diagonal(sigma, c)
    return sigma


@dataclass(frozen=True)
class RegionalTailFit:
    """Local tail indices, their variance-optimal combination and read-offs.

    ``weights_source`` is ``"optimal"`` (variance-minimizing for ``sigma``),
    ``"length-proportional"`` (``sigma`` is not a usable covariance) or
    ``"user"`` (given by the caller, rescaled to sum to one).  ``thresholds``
    are the fitted ``scheme``'s excess thresholds X_(n_j-k_j).
    """

    gamma: float
    gammas: np.ndarray
    k: np.ndarray
    weights: np.ndarray
    sigma: np.ndarray
    weights_source: str
    dependence_method: str
    scheme: ObservationScheme = field(repr=False)
    thresholds: np.ndarray

    def _site_tail(self, site_id: str) -> tuple:
        """A site's power tail (u_j, k_j, n_j, gamma) as the tail helpers take it."""
        j = self.scheme.site_index(site_id)
        return self.thresholds[j], int(self.k[j]), self.scheme.sites[j].length, self.gamma

    def quantile(self, site_id: str, p: float) -> float:
        """Extrapolated quantile u_j * (k_j / (n_j (1-p)))**gamma at a site."""
        return _power_tail_quantile(*self._site_tail(site_id), p)[0]

    def interval(self, site_id: str, p: float, alpha: float) -> QuantileInterval:
        """Quantile q at a site with its delta-method interval q (1 -+ z s |log r|),
        r = k_j / (n_j (1-p)), s^2 = gamma^2/k_1 * w' Sigma w (site 1 the reference)."""
        q_hat, ratio = _power_tail_quantile(*self._site_tail(site_id), p)
        s = math.sqrt(self.gamma**2 / self.k[0] * float(self.weights @ self.sigma @ self.weights))
        return _interval(q_hat, q_hat * s * abs(math.log(ratio)), alpha)


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
    hills = [_hill_threshold(s.values, kj) for s, kj in zip(scheme.sites, ks)]
    gammas, thresholds = map(np.array, zip(*hills))
    dependence = TailDependence.from_scheme(scheme, ks, dependence_method)
    sigma = semi_sigma(TailConfig(k=ks), scheme.ratios, dependence)
    if weights is None:
        # a fallback is rescaled to sum to one like user weights
        fallback = fallback_weights(scheme)
        w, source, _ = _pool_weights(sigma, fallback / fallback.sum())
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (scheme.d,) or not np.all(np.isfinite(w)) or w.sum() == 0:
            raise ParameterError(
                f"need {scheme.d} finite weights with a non-zero sum, got {w.tolist()}"
            )
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
        scheme=scheme,
        thresholds=thresholds,
    )


def weissman_ci(
    scheme: ObservationScheme,
    config: TailConfig,
    target_site: str,
    p: float,
    alpha: float,
) -> QuantileInterval:
    """:func:`regional_tail_fit` with the configuration's k, dependence method and
    weights (renormalized to sum to one), then :meth:`RegionalTailFit.interval`."""
    fit = regional_tail_fit(scheme, config.k, config.dependence_method, config.weights)
    return fit.interval(target_site, p, alpha)


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
        if not fit.gamma > 0:
            raise NumericError(
                f"a season's pooled tail index {fit.gamma:.6g} is not positive; "
                "its power-tail cdf is undefined"
            )
        season_parts.append(fit._site_tail(target_site))

    def product(x: float) -> float:
        return _power_tail_cdf(*season_parts[0], x) * _power_tail_cdf(*season_parts[1], x)

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
        root = brentq(lambda x: product(x) - p, x0, x1, xtol=1e-12)
    except (ValueError, RuntimeError) as exc:
        raise NumericError(f"seasonal-product inversion failed: {exc}") from exc
    return float(root)
