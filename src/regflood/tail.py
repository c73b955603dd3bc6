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

from .errors import DataError, DomainError, NumericError, ParameterError, _integer
from .gev import brentq
from .regional import (
    ObservationScheme,
    _length_weights,
    _pool_weights,
    _unit_sum,
    _weights_source,
)
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
# pair rows the empirical dependence compares at once (at most about 1 MB of arrays)
_JOINT_CELLS = 2**17


def _check_dependence_method(method) -> None:
    if method not in DEPENDENCE_METHODS:
        raise ParameterError(
            f"unknown dependence method {method!r}; use one of {DEPENDENCE_METHODS}"
        )


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
        raise _threshold_error(threshold)
    return x, k, threshold


def _threshold_error(threshold) -> DomainError:
    return DomainError(
        f"threshold order statistic {threshold:.6g} is not positive; log excesses are undefined"
    )


def _hill_block(xs: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hill indices and excess thresholds of the rows of ``xs`` (..., d, n), each sorted
    with its sample at the end, k_j from its top; the one-sample :func:`_hill_threshold`
    bit for bit."""
    n = xs.shape[-1]
    thresholds = xs[..., np.arange(len(ks)), n - ks - 1]
    gammas = np.empty(thresholds.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # a threshold <= 0 is the caller's
        for k in np.unique(ks):
            at = ks == k
            gammas[..., at] = np.mean(np.log(xs[..., at, n - k :] / thresholds[..., at, None]), axis=-1)
    return gammas, thresholds


def _hill_threshold(data, k) -> tuple[float, float]:
    """Hill index and its excess threshold X_(n-k), both from one sort."""
    x, k, threshold = _excess_threshold(data, k)
    return float(_hill_block(x[None], np.array([k]))[0][0]), threshold


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
    n, d = _integer(n, "n"), _integer(d, "d")
    if not n >= 3:
        raise ParameterError(f"need n >= 3 observations, got {n}")
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
    m = arr.shape[0]
    if m < 2:
        raise DataError("need an (m x 2) array of paired observations, m >= 2")
    k = _integer(k, "k")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if not (x >= 0 and y >= 0):  # also rejects NaN
        raise DomainError("tail copula arguments must be non-negative")
    if x == 0 or y == 0:
        return 0.0
    r, s = _ordinal_ranks(arr).T
    return float(np.sum((r > m - k * x) & (s > m - k * y)) / k)


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
    if not np.all((t >= 0) & (t <= 1)):  # also rejects NaN
        raise DomainError("t grid must lie in [0, 1]")
    u, v = (_ordinal_ranks(arr) / (m + 1)).T
    return _cfg_dependence(u, v, t)


def _cfg_dependence(u, v, t) -> np.ndarray:
    """The :func:`pickands_cfg` estimate at the points ``t`` (..., k) from the
    pseudo-observations ``u`` and ``v`` (..., m): one row of m terms per
    point and per endpoint t = 0 and t = 1, each averaged on its own, so
    that a point rounds the same whatever else is estimated with it."""
    ts = np.concatenate([t, np.zeros(t.shape[:-1] + (1,)), np.ones(t.shape[:-1] + (1,))],
                        axis=-1)[..., None]
    with np.errstate(divide="ignore"):
        ratios = np.minimum(-np.log(u)[..., None, :] / (1.0 - ts), -np.log(v)[..., None, :] / ts)
    log_a = -np.euler_gamma - np.mean(np.log(ratios), axis=-1)
    corrected = log_a[..., :-2] - (1.0 - t) * log_a[..., -2:-1] - t * log_a[..., -1:]
    return np.clip(np.exp(corrected), np.maximum(t, 1.0 - t), 1.0)


class TailDependence:
    """Extremal dependence of a region, evaluated as one d x d matrix.

    ``matrix(x)`` gives the tail copula Lambda_lm(x_l, x_m) of all site
    pairs for one argument per site, with Lambda_ll(x, x) = x.  Off the
    diagonal, by ``method``:

    - ``"independent"``: 0; ``"comonotone"``: min(x_l, x_m);
    - ``"empirical"``: joint top ranks over the pair's overlap years;
      ``tables`` holds the ranks of every site among the rows from each
      distinct start, counted off the scheme's one sort order (start x site
      x year, in the narrowest unsigned type holding n, after any leading
      axes that stack regions of one scheme shape, which ``matrix`` keeps)
      and, per pair l < m
      (``np.triu_indices`` order), its start, overlap length and k;
    - ``"pickands_cfg"``: (x_l + x_m)(1 - A_lm(x_m/(x_l + x_m))), A_lm the
      :func:`pickands_cfg` estimate on the pair's overlap years, read off
      ``PICKANDS_T_GRID`` by linear interpolation; ``tables`` holds the
      same ranks and, per pair, its start and overlap length.
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

        The scheme's cached stable sort order, the ranking the Hill indices
        and the moment lane read too, is counted cumulatively over the rows
        from each distinct start; that gives every site's ranks among them,
        ties broken by position.  For the empirical method ``matrix`` then
        equals :func:`tail_dependence_empirical` on each pair's overlap
        rows with k = min(k_l, k_m) (below the overlap length, since each
        k_j is below its site's length).  For ``pickands_cfg`` it equals
        :func:`pickands_cfg` on each pair's overlap rows, interpolated
        with ``np.interp`` on ``PICKANDS_T_GRID``, but estimates A only at
        the two grid points around the pair's argument (and the endpoints).
        """
        _check_dependence_method(method)
        return cls._from_order(scheme._order, scheme.offsets, _as_k_vector(scheme, k), method)

    @classmethod
    def _from_order(
        cls, order: np.ndarray, offsets: np.ndarray, ks: np.ndarray, method: str = "empirical"
    ) -> "TailDependence":
        """The estimate from the stable sort orders (..., d, n) of the -inf-padded rows
        of a scheme; for the empirical method leading axes stack regions of its
        shape, and :meth:`matrix` then gives one matrix per region."""
        _check_dependence_method(method)
        d = order.shape[-2]
        ranks, start, rows = _start_ranks(order, offsets)
        if method == "empirical":
            l, m = np.triu_indices(d, 1)
            return cls(d, method, (ranks, start, rows, np.minimum(ks[l], ks[m])))
        if np.any(short := rows < 10):
            raise DataError(
                f"dependence-function estimation needs >= 10 pairs, got {rows[short][0]}"
            )
        return cls(d, method, (ranks, start, rows))

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
        lead = self._tables[0].shape[:-3] if self.method == "empirical" else ()
        lam = np.zeros(lead + (self.d, self.d))
        l, m = np.triu_indices(self.d, 1)
        if self.method == "empirical":
            ranks, start, rows, k_pair = self._tables
            # a row is in a site's top k x when its rank exceeds rows - k x; the
            # clip keeps out the rows before the pair's start, ranked 0
            bar_l = np.maximum(rows - k_pair * x[l], 0.0)[:, None]
            bar_m = np.maximum(rows - k_pair * x[m], 0.0)[:, None]
            joint = np.empty(lead + (len(l),), dtype=int)
            step = max(1, _JOINT_CELLS // (ranks.shape[-1] * math.prod(lead)))
            for lo in range(0, len(l), step):
                p = slice(lo, lo + step)
                top_l = ranks[..., start[p], l[p], :] > bar_l[p]
                joint[..., p] = (top_l & (ranks[..., start[p], m[p], :] > bar_m[p])).sum(axis=-1)
            lam[..., l, m] = lam[..., m, l] = joint / k_pair
        elif self.method == "pickands_cfg":
            with np.errstate(invalid="ignore"):
                t = x[m] / (x[l] + x[m])
            a = self._pickands_at(l, m, t)
            lam[l, m] = lam[m, l] = np.where(
                (x[l] > 0) & (x[m] > 0), (x[l] + x[m]) * (1.0 - a), 0.0
            )
        sites = np.arange(self.d)
        lam[..., sites, sites] = x
        return lam

    def _pickands_at(self, l, m, t) -> np.ndarray:
        """A_lm(t) per pair as ``np.interp(t, PICKANDS_T_GRID, pickands_cfg(pair))``
        computes it, from the estimates at the grid points on either side."""
        ranks, start, rows = self._tables
        grid = PICKANDS_T_GRID
        lo = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
        nodes = grid[np.stack([lo, lo + 1], axis=-1)]
        a = np.empty_like(nodes)
        for s in np.unique(start).tolist():
            p = np.flatnonzero(start == s)
            length = rows[p[0]]  # the pairs' overlap: the last years
            u = ranks[s, l[p], -length:] / (length + 1)
            v = ranks[s, m[p], -length:] / (length + 1)
            a[p] = _cfg_dependence(u, v, nodes[p])
        below, above = a.T
        slope = (above - below) / (nodes[:, 1] - nodes[:, 0])
        # t = 1 is the last grid point, which np.interp reads off as it is
        return np.where(t == nodes[:, 1], above, slope * (t - nodes[:, 0]) + below)


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
        _check_dependence_method(self.dependence_method)


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
    sigma[..., np.arange(len(c)), np.arange(len(c))] = c
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
    sorted_rows = np.take_along_axis(scheme._padded, scheme._order, axis=-1)
    gammas, thresholds = _hill_block(sorted_rows, ks)
    if (thresholds <= 0).any():
        raise _threshold_error(thresholds[np.argmax(thresholds <= 0)])
    if (flat := sorted_rows[:, -1] == thresholds).any():  # a Hill index of exactly 0
        j = int(np.argmax(flat))
        raise DataError(f"site {scheme.site_ids[j]!r}: its top {ks[j]} values are all equal")
    dependence = TailDependence._from_order(scheme._order, scheme.offsets, ks, dependence_method)
    sigma = semi_sigma(TailConfig(k=ks), scheme.ratios, dependence)
    if weights is None:
        w, valid, _ = _pool_weights(sigma, _length_weights(scheme.lengths))
        source = _weights_source(valid)
    else:
        w, source = _unit_sum(weights, scheme.d), "user"
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


def _tail_fits(stack: np.ndarray, order: np.ndarray, ks: np.ndarray) -> list:
    """:func:`regional_tail_fit` with empirical dependence of each of a stack (R, d, n)
    of equal-length regions, whose rows sort stably by ``order``, with tail lengths
    ``ks``: per region site 0's power tail (u, k, n, gamma) as
    :meth:`RegionalTailFit._site_tail` gives it, bit for bit, or None where the fit
    failed or a check of the batch rejected it."""
    R, d, n = stack.shape
    sorted_rows = np.take_along_axis(stack, order, axis=-1)
    gammas, thresholds = _hill_block(sorted_rows, ks)
    good = ((thresholds > 0) & (sorted_rows[..., -1] != thresholds)).all(axis=1)
    dependence = TailDependence._from_order(order, np.zeros(d, dtype=int), ks)
    sigma = semi_sigma(TailConfig(k=ks), np.ones(d), dependence)
    try:
        w, _, _ = _pool_weights(sigma, _length_weights(np.full(d, n)))
    except np.linalg.LinAlgError:  # each region alone shows which
        return [None] * R
    gamma = (w[:, None, :] @ gammas[:, :, None])[:, 0, 0]
    return [
        (u, int(ks[0]), n, g) if ok else None
        for u, g, ok in zip(thresholds[:, 0], gamma.tolist(), good)
    ]


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
    return _product_quantile(season_parts, p)


def _product_quantile(season_parts, p: float) -> float:
    """The level-``p`` quantile of the product of the seasons' power-tail cdfs, each
    given as (u_j, k_j, n_j, gamma) with gamma > 0."""

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
