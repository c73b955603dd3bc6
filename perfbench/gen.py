"""Seeded input generators for the benchmark workloads.

Inputs are built with NumPy and ``scipy.special`` only, never with the
package under test, so a change to the package cannot change the data it
is measured on.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, stdtrit

# --------------------------------------------------------------------------
# cli-gauges: monthly maxima CSV
# --------------------------------------------------------------------------

GAUGES = 12
GAUGE_YEARS = 60
GAUGE_MAX_OFFSET = 15  # every pair of gauges overlaps by >= 45 years
FINAL_YEAR = 2020
WINTER_MONTHS = (11, 12, 1, 2, 3, 4)
# Monthly maxima are GEV with a positive shape whose lower support bound
# mu - sigma/xi is above zero, so every flow is positive by construction.
MONTHLY_GEV = {"winter": (20.0, 4.0, 0.25), "summer": (15.0, 4.0, 0.30)}
GAUGE_FACTOR_LOADING = math.sqrt(0.6)


def _gev_ppf(u, mu, sigma, xi):
    return mu + sigma * np.expm1(-xi * np.log(-np.log(u))) / xi


@dataclass(frozen=True)
class MonthlyCsv:
    path: Path
    rows: int
    site_ids: tuple[str, ...]


def write_monthly_csv(path: Path, seed: int) -> MonthlyCsv:
    """Monthly maxima of 12 staggered gauges over 60 hydrological years.

    The hydrological year y runs from November of y-1 through October
    of y.  Gauge 1 spans all 60 years; the others start 0-15 years later
    and all end in ``FINAL_YEAR``.  Gauges share a common Gaussian factor
    per month and a per-gauge scale, so shapes are regionally equal.
    """
    rng = np.random.default_rng([seed, 1])
    offsets = np.concatenate([[0], rng.integers(0, GAUGE_MAX_OFFSET + 1, GAUGES - 1)])
    scales = rng.uniform(0.5, 2.0, GAUGES)
    months = 12 * GAUGE_YEARS
    common = rng.standard_normal(months)
    own = rng.standard_normal((months, GAUGES))
    z = GAUGE_FACTOR_LOADING * common[:, None] + math.sqrt(
        1.0 - GAUGE_FACTOR_LOADING**2
    ) * own
    u = ndtr(z)
    # month index i: hydrological year i // 12, calendar month Nov, Dec, Jan..Oct
    cal_month = np.array([11, 12, *range(1, 11)] * GAUGE_YEARS)
    winter = np.isin(cal_month, WINTER_MONTHS)
    flows = np.where(
        winter[:, None],
        _gev_ppf(u, *MONTHLY_GEV["winter"]),
        _gev_ppf(u, *MONTHLY_GEV["summer"]),
    ) * scales[None, :]
    site_ids = tuple(f"G{j + 1:02d}" for j in range(GAUGES))
    first_hydro_year = FINAL_YEAR - GAUGE_YEARS + 1
    lines = ["site_id,year,month,flow"]
    for j, sid in enumerate(site_ids):
        for i in range(12 * offsets[j], months):
            hydro_year = first_hydro_year + i // 12
            month = int(cal_month[i])
            year = hydro_year - 1 if month >= 11 else hydro_year
            lines.append(f"{sid},{year},{month},{flows[i, j]:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return MonthlyCsv(path, len(lines) - 1, site_ids)


# --------------------------------------------------------------------------
# region-wide: staggered annual block-maximum region
# --------------------------------------------------------------------------

REGION_SITES = 40
REGION_YEARS = 100
REGION_MAX_OFFSET = 40  # every pair of sites overlaps by >= 60 years
# Block maxima over b scaled absolute-t variables (t with 1/xi degrees of
# freedom); the lower support bound mu - sigma/xi is above zero.
BLOCKMAX = {"mu": 10.0, "sigma": 2.0, "xi": 0.25, "b": 12}
KHOUDRAJI_THETAS = (1.5, 2.5)


def _gumbel_copula(theta: float, n: int, d: int, rng) -> np.ndarray:
    """Gumbel-Hougaard copula draws by the positive-stable frailty method."""
    alpha = 1.0 / theta
    v = rng.uniform(0.0, math.pi, n)
    w = rng.standard_exponential(n)
    s = (
        np.sin(alpha * v)
        / np.sin(v) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )
    e = rng.standard_exponential((n, d))
    return np.exp(-((e / s[:, None]) ** alpha))


def _khoudraji(n: int, d: int, rng) -> np.ndarray:
    """Asymmetrized copula max(V**(1/c), W**(1/(1-c))), c = (0..d-1)/d."""
    c = np.arange(d) / d
    v = _gumbel_copula(KHOUDRAJI_THETAS[0], n, d, rng)
    w = _gumbel_copula(KHOUDRAJI_THETAS[1], n, d, rng)
    with np.errstate(divide="ignore"):
        pv = np.where(c > 0, v ** (1.0 / np.where(c > 0, c, 1.0)), 0.0)
    return np.maximum(pv, w ** (1.0 / (1.0 - c)))


def _blockmax_ppf(u):
    mu, sigma, xi, b = (BLOCKMAX[k] for k in ("mu", "sigma", "xi", "b"))
    dof = 1.0 / xi
    a_b = stdtrit(dof, 1.0 - 1.0 / (2.0 * b))
    inner = stdtrit(dof, (u ** (1.0 / b) + 1.0) / 2.0)
    return mu + sigma / xi * (inner / a_b - 1.0)


@dataclass(frozen=True)
class StaggeredRegion:
    """Annual maxima per site, each aligned to the common final year."""

    site_ids: tuple[str, ...]
    offsets: tuple[int, ...]
    values: tuple[np.ndarray, ...]


def staggered_region(seed: int, index: int) -> StaggeredRegion:
    """Region ``index`` of the seeded pool: 40 sites, 100-year period."""
    rng = np.random.default_rng([seed, 2, index])
    full = _blockmax_ppf(_khoudraji(REGION_YEARS, REGION_SITES, rng))
    full = full * rng.uniform(0.5, 2.0, REGION_SITES)[None, :]
    offsets = np.concatenate(
        [[0], rng.integers(0, REGION_MAX_OFFSET + 1, REGION_SITES - 1)]
    )
    return StaggeredRegion(
        site_ids=tuple(f"S{j + 1:02d}" for j in range(REGION_SITES)),
        offsets=tuple(int(a) for a in offsets),
        values=tuple(full[a:, j].copy() for j, a in enumerate(offsets)),
    )


# --------------------------------------------------------------------------
# quantile-draws: parameter draws around the delta-method oracle models
# --------------------------------------------------------------------------

# (theta_w, theta_s, sigma_w, sigma_s) of the three delta-method oracle cases
ORACLE_MODELS = (
    (
        (2.0, 1.0, 0.2),
        (1.5, 1.0, 0.4),
        [[0.5, 0.1, 0.01], [0.1, 0.3, 0.02], [0.01, 0.02, 0.05]],
        [[0.6, 0.05, 0.0], [0.05, 0.4, 0.03], [0.0, 0.03, 0.08]],
    ),
    (
        (3.0, 2.0, 0.1),
        (2.0, 1.5, 0.3),
        np.diag([0.8, 0.5, 0.04]).tolist(),
        np.diag([1.0, 0.6, 0.06]).tolist(),
    ),
    (
        (2.0, 1.0, 0.25),
        (2.0, 1.0, 0.25),
        [[0.4, 0.05, 0.0], [0.05, 0.2, 0.01], [0.0, 0.01, 0.03]],
        [[0.4, 0.05, 0.0], [0.05, 0.2, 0.01], [0.0, 0.01, 0.03]],
    ),
)
# the oracle's covariances are those of sqrt(n)(theta_hat - theta); draws
# use n = 100 record years
DRAW_RECORD_YEARS = 100


class ParameterDraws:
    """Endless seeded stream of (winter, summer) GEV parameter triples."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([seed, 3])
        self._models = [
            (
                np.array(tw),
                np.array(ts),
                np.linalg.cholesky(np.array(sw) / DRAW_RECORD_YEARS),
                np.linalg.cholesky(np.array(ss) / DRAW_RECORD_YEARS),
            )
            for tw, ts, sw, ss in ORACLE_MODELS
        ]

    def next(self, count: int) -> np.ndarray:
        """``count`` x 2 x 3 array of winter/summer (mu, sigma, xi)."""
        which = self._rng.integers(0, len(self._models), count)
        z = self._rng.standard_normal((count, 2, 3))
        out = np.empty((count, 2, 3))
        for i, m in enumerate(which):
            tw, ts, lw, ls = self._models[m]
            out[i, 0] = tw + lw @ z[i, 0]
            out[i, 1] = ts + ls @ z[i, 1]
        return out
