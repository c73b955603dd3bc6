"""Monte Carlo laboratory for comparing regional quantile estimators.

Regions are simulated with an asymmetrized Gumbel-Hougaard dependence
model across sites and either finite-block-maximum margins (scaled
absolute-t blocks) or seasonal product margins.  Each replication draws
a region, runs the configured estimators at the first site and the
report aggregates bias, variance and scaled mean squared error.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import astuple, dataclass, field, fields
from functools import partial

import numpy as np
from scipy.special import stdtr, stdtrit

from .errors import DataError, DomainError, ParameterError, RegfloodError
from .gev import GevParams, TwoComponentGev, gev_quantile, twocomp_quantile
from .ingest import SeasonalSchemes
from .regional import _PWM_FNS, ObservationScheme, fit_gev_regional
from .tail import DEPENDENCE_METHODS, regional_tail_fit, seasonal_weissman_quantile
from .twocomp import fit_seasonal_regional

__all__ = [
    "gumbel_copula_sample",
    "khoudraji_sample",
    "BlockMaxMargin",
    "SeasonalMargins",
    "blockmax_cdf",
    "blockmax_quantile",
    "CopulaSpec",
    "ScenarioConfig",
    "EstimatorStats",
    "ScenarioReport",
    "run_scenario",
    "load_scenario",
    "quantile_function",
    "ESTIMATOR_NAMES",
]

ESTIMATOR_NAMES = ("W", "L", "TL", "sW", "sL", "sTL")
_SEASONAL_ONLY = ("sW", "sL", "sTL")
# ScenarioConfig.method_options: the keys and the values each may take
_METHOD_OPTIONS = {
    "pwm_estimator": tuple(_PWM_FNS),
    "dependence_method": DEPENDENCE_METHODS,
}


# --------------------------------------------------------------------------
# Copula sampling
# --------------------------------------------------------------------------


def _positive_stable(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Totally skewed positive stable draws with Laplace transform exp(-s**alpha)."""
    v = rng.uniform(0.0, np.pi, size=size)
    w = rng.standard_exponential(size=size)
    return (
        np.sin(alpha * v)
        / np.sin(v) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )


def gumbel_copula_sample(theta: float, d: int, rng: np.random.Generator, size=None):
    """Draws from the d-dimensional Gumbel-Hougaard copula.

    Uses the frailty construction: exponentials divided by a positive
    stable variate, pushed through the generator inverse.  ``theta = 1``
    yields exact independence.

    Parameters
    ----------
    size : int, optional
        Number of draws; omitted means a single d-vector.
    """
    if not theta >= 1.0:
        raise ParameterError(f"dependence parameter must be >= 1, got {theta}")
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    n = 1 if size is None else int(size)
    if theta == 1.0:
        u = rng.uniform(size=(n, d))
    else:
        alpha = 1.0 / theta
        s = _positive_stable(alpha, n, rng)
        e = rng.standard_exponential(size=(n, d))
        u = np.exp(-((e / s[:, None]) ** (1.0 / theta)))
    return u[0] if size is None else u


def khoudraji_sample(
    theta1: float, theta2: float, c, rng: np.random.Generator, size=None
):
    """Asymmetrized copula draws via componentwise power weights.

    Component j is max(V_j**(1/c_j), W_j**(1/(1-c_j))) for V, W drawn
    independently from the two base copulas; c_j = 0 returns W_j and
    c_j = 1 returns V_j (continuity limits of the exponents).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise ParameterError("asymmetry exponents must lie in [0, 1]")
    d = len(c)
    n = 1 if size is None else int(size)
    v = gumbel_copula_sample(theta1, d, rng, size=n)
    w = gumbel_copula_sample(theta2, d, rng, size=n)
    u = np.empty((n, d))
    for j in range(d):
        if c[j] == 0.0:
            u[:, j] = w[:, j]
        elif c[j] == 1.0:
            u[:, j] = v[:, j]
        else:
            u[:, j] = np.maximum(v[:, j] ** (1.0 / c[j]), w[:, j] ** (1.0 / (1.0 - c[j])))
    return u[0] if size is None else u


def gumbel_copula_cdf(theta: float, u) -> float:
    """Analytic Gumbel-Hougaard cdf (oracle for sampler checks)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        return 0.0
    return float(np.exp(-np.sum((-np.log(u)) ** theta) ** (1.0 / theta)))


def khoudraji_cdf(theta1: float, theta2: float, c, u) -> float:
    """Analytic asymmetrized cdf C1(u**c) * C2(u**(1-c))."""
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    return gumbel_copula_cdf(theta1, u**c) * gumbel_copula_cdf(theta2, u ** (1.0 - c))


# --------------------------------------------------------------------------
# Margins
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockMaxMargin:
    """Distribution of a maximum over b scaled absolute-t variables.

    Converges to the GEV(mu, sigma, xi) as the block size grows; finite
    b is the realistic annual-maximum situation (b = 12 months).
    """

    mu: float
    sigma: float
    xi: float
    b: int

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ParameterError(f"location must be finite, got {self.mu}")
        if not 0.0 < self.sigma < math.inf:
            raise ParameterError(f"scale must be positive and finite, got {self.sigma}")
        if not 0.0 < self.xi < math.inf:
            raise ParameterError(
                "block-maximum construction needs a positive finite shape (t degrees "
                f"of freedom 1/xi), got {self.xi}"
            )
        if not self.b >= 2:
            raise ParameterError(
                f"block size must be >= 2, got {self.b}; the standardization "
                "constant vanishes below that"
            )

    @property
    def dof(self) -> float:
        return 1.0 / self.xi

    @property
    def a_b(self) -> float:
        return float(stdtrit(self.dof, 1.0 - 1.0 / (2.0 * self.b)))


@dataclass(frozen=True)
class SeasonalMargins:
    """Product-model margins: one GEV per season."""

    winter: GevParams
    summer: GevParams

    @property
    def model(self) -> TwoComponentGev:
        return TwoComponentGev(self.winter, self.summer)


def blockmax_cdf(margin: BlockMaxMargin, x):
    """cdf (2 T_dof(a_b (1 + xi (x-mu)/sigma)) - 1)**b, zero below support."""
    x = np.asarray(x, dtype=float)
    z = 1.0 + margin.xi * (x - margin.mu) / margin.sigma
    inner = 2.0 * stdtr(margin.dof, margin.a_b * z) - 1.0
    out = np.where(z > 0, np.maximum(inner, 0.0) ** margin.b, 0.0)
    return float(out) if out.ndim == 0 else out


def blockmax_quantile(margin: BlockMaxMargin, p):
    """Closed-form inverse of :func:`blockmax_cdf` on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("quantile level must lie strictly between 0 and 1")
    inner = stdtrit(margin.dof, (p ** (1.0 / margin.b) + 1.0) / 2.0)
    out = margin.mu + margin.sigma / margin.xi * (inner / margin.a_b - 1.0)
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# Scenario configuration and execution
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CopulaSpec:
    """Inter-site dependence: two base strengths plus asymmetry exponents."""

    theta1: float
    theta2: float
    c: np.ndarray

    def __post_init__(self):
        if not (1.0 <= self.theta1 < math.inf and 1.0 <= self.theta2 < math.inf):
            raise ParameterError(
                f"copula strengths must be finite and >= 1, got {self.theta1}, {self.theta2}"
            )
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if c.ndim != 1 or not np.all((c >= 0.0) & (c <= 1.0)):
            raise ParameterError("asymmetry exponents must be a vector in [0, 1]")
        object.__setattr__(self, "c", c)

    @classmethod
    def default_for(cls, d: int, theta1: float = 1.5, theta2: float = 2.5) -> "CopulaSpec":
        """Staircase asymmetry (0, 1, ..., d-1)/d used in the standard scenarios."""
        return cls(theta1, theta2, np.arange(d) / d)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo experiment."""

    d: int
    n: int
    p: float
    margins: BlockMaxMargin | SeasonalMargins
    copula: CopulaSpec
    estimators: tuple[str, ...]
    replications: int
    seed: int
    method_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.d >= 1 and self.n >= 3):
            raise ParameterError("need d >= 1 sites and n >= 3 years")
        if not 0.0 < self.p < 1.0:
            raise ParameterError("target probability must lie in (0, 1)")
        if not self.replications >= 1:
            raise ParameterError("need at least one replication")
        if not self.seed >= 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if len(self.copula.c) != self.d:
            raise ParameterError(
                f"copula asymmetry vector has {len(self.copula.c)} entries for d={self.d}"
            )
        estimators = tuple(self.estimators)
        if not estimators or len(set(estimators)) != len(estimators):
            raise ParameterError(f"need distinct estimators, at least one, got {estimators}")
        unknown = set(estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ParameterError(f"unknown estimators: {sorted(unknown)}")
        if isinstance(self.margins, BlockMaxMargin):
            seasonal = set(estimators) & set(_SEASONAL_ONLY)
            if seasonal:
                raise ParameterError(
                    f"estimators {sorted(seasonal)} need seasonal margins"
                )
        for key, value in self.method_options.items():
            if value not in _METHOD_OPTIONS.get(key, ()):
                raise ParameterError(
                    f"unknown method option {key}={value!r} (known: {_METHOD_OPTIONS})"
                )
        object.__setattr__(self, "estimators", estimators)

    def true_quantile(self) -> float:
        if isinstance(self.margins, BlockMaxMargin):
            return float(blockmax_quantile(self.margins, self.p))
        return twocomp_quantile(self.margins.model, self.p)


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario description from a JSON file.

    A file that cannot be read, does not hold a JSON object, lacks a
    key or holds a value that does not convert raises :class:`DataError`;
    a converted value outside its range raises :class:`ParameterError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"scenario file {path} must hold a JSON object")
    try:
        d = int(raw["d"])
        marg = raw["margins"]
        if marg["type"] == "blockmax":
            margins = BlockMaxMargin(
                float(marg["mu"]), float(marg["sigma"]), float(marg["xi"]), int(marg["b"])
            )
        elif marg["type"] == "seasonal":
            margins = SeasonalMargins(
                GevParams(*map(float, marg["winter"])),
                GevParams(*map(float, marg["summer"])),
            )
        else:
            raise DataError(f"unknown margin type {marg['type']!r}")
        cop = raw.get("copula", {})
        c = cop.get("c")
        copula = CopulaSpec(
            float(cop.get("theta1", 1.5)),
            float(cop.get("theta2", 2.5)),
            np.asarray(c, dtype=float) if c is not None else np.arange(d) / d,
        )
        estimators = raw.get("estimators", ["W", "L", "TL"])
        if not isinstance(estimators, list):
            raise DataError(f"scenario file {path}: estimators must be a JSON list")
        return ScenarioConfig(
            d=d,
            n=int(raw["n"]),
            p=float(raw["p"]),
            margins=margins,
            copula=copula,
            estimators=tuple(estimators),
            replications=int(raw.get("replications", 500)),
            seed=int(raw.get("seed", 0)),
            method_options=dict(raw.get("method_options", {})),
        )
    except RegfloodError:
        raise
    except KeyError as exc:
        raise DataError(f"scenario file {path} is missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"scenario file {path}: unusable value: {exc}") from exc


def _simulate_region(config: ScenarioConfig, rng: np.random.Generator) -> SeasonalSchemes:
    cop = config.copula
    if isinstance(config.margins, BlockMaxMargin):
        u = khoudraji_sample(cop.theta1, cop.theta2, cop.c, rng, size=config.n)
        x = blockmax_quantile(config.margins, u)
        return SeasonalSchemes(None, None, ObservationScheme.from_matrix(x))
    # seasonal margins: one independent copula draw per season
    u_w = khoudraji_sample(cop.theta1, cop.theta2, cop.c, rng, size=config.n)
    u_s = khoudraji_sample(cop.theta1, cop.theta2, cop.c, rng, size=config.n)
    w = gev_quantile(config.margins.winter, u_w)
    s = gev_quantile(config.margins.summer, u_s)
    return SeasonalSchemes(
        ObservationScheme.from_matrix(w),
        ObservationScheme.from_matrix(s),
        ObservationScheme.from_matrix(np.maximum(w, s)),
    )


def quantile_function(
    name, schemes, target, pwm_estimator="unbiased", k=None, dependence_method="empirical"
):
    """Fit estimator ``name`` of :data:`ESTIMATOR_NAMES` to the region ``schemes`` (a
    :class:`SeasonalSchemes`); return ``p -> quantile`` at site ``target``.
    ``pwm_estimator`` serves L, TL, sL and sTL, ``k`` W and sW, ``dependence_method``
    W; sW fits at each call and warns."""
    if name in _SEASONAL_ONLY and schemes.winter is None:
        raise DataError(f"estimator {name!r} needs winter and summer schemes")
    if name in ("L", "TL"):
        fit = fit_gev_regional(schemes.annual, target, name, pwm_estimator=pwm_estimator)
        return partial(gev_quantile, fit.theta)
    if name in ("sL", "sTL"):
        fit = fit_seasonal_regional(
            schemes.winter, schemes.summer, target, name[1:], pwm_estimator=pwm_estimator
        )
        return partial(twocomp_quantile, fit.model)
    if name == "W":
        return partial(regional_tail_fit(schemes.annual, k, dependence_method).quantile, target)
    if name == "sW":
        return partial(seasonal_weissman_quantile, schemes.winter, schemes.summer, target, k=k)
    raise ParameterError(f"unknown estimator {name!r}; use one of {ESTIMATOR_NAMES}")


@dataclass(frozen=True)
class EstimatorStats:
    """Replication summary for one estimator."""

    name: str
    n_ok: int
    n_failed: int
    bias: float
    variance: float
    mse_scaled: float
    se_bias: float
    se_mse_scaled: float
    q25: float
    median: float
    q75: float
    outliers: int


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregated results of one scenario run."""

    q_true: float
    replications: int
    seed: int
    estimates: dict
    stats: tuple[EstimatorStats, ...]

    def to_text(self) -> str:
        header = (
            f"{'estimator':>10} {'ok':>5} {'fail':>5} {'bias':>10} {'variance':>10} "
            f"{'mse/q^2':>10} {'se(mse)':>9} {'q25':>8} {'median':>8} {'q75':>8} {'outl':>5}"
        )
        lines = [f"true quantile: {self.q_true:.4f}   replications: {self.replications}", header]
        for st in self.stats:
            lines.append(
                f"{st.name:>10} {st.n_ok:>5d} {st.n_failed:>5d} {st.bias:>10.4f} "
                f"{st.variance:>10.4f} {st.mse_scaled:>10.5f} {st.se_mse_scaled:>9.5f} "
                f"{st.q25:>8.3f} {st.median:>8.3f} {st.q75:>8.3f} {st.outliers:>5d}"
            )
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        """One row per estimator: its :class:`EstimatorStats` fields and ``q_true``.

        The ``name`` field is written under the column ``estimator``.
        """
        stat_names = [f.name for f in fields(EstimatorStats)][1:]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["estimator", *stat_names, "q_true"])
            for st in self.stats:
                writer.writerow([*astuple(st), self.q_true])

    def stat(self, name: str) -> EstimatorStats:
        for st in self.stats:
            if st.name == name:
                return st
        raise KeyError(name)


def _summarize(name: str, values: np.ndarray, q_true: float) -> EstimatorStats:
    ok = values[np.isfinite(values)]
    n_ok = len(ok)
    n_failed = len(values) - n_ok
    if n_ok == 0:
        nan = float("nan")
        return EstimatorStats(name, 0, n_failed, nan, nan, nan, nan, nan, nan, nan, nan, 0)
    err = ok - q_true
    sq = err**2 / q_true**2
    q25, med, q75 = np.percentile(ok, [25, 50, 75])
    iqr = q75 - q25
    outliers = int(np.sum((ok < q25 - 1.5 * iqr) | (ok > q75 + 1.5 * iqr)))
    sd = float(np.std(ok, ddof=1)) if n_ok > 1 else 0.0
    se_sq = float(np.std(sq, ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0
    return EstimatorStats(
        name=name,
        n_ok=n_ok,
        n_failed=n_failed,
        bias=float(np.mean(err)),
        variance=float(np.var(ok, ddof=1)) if n_ok > 1 else 0.0,
        mse_scaled=float(np.mean(sq)),
        se_bias=sd / math.sqrt(n_ok),
        se_mse_scaled=se_sq,
        q25=float(q25),
        median=float(med),
        q75=float(q75),
        outliers=outliers,
    )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute a scenario: simulate, estimate, aggregate.

    Replications run on independent, deterministically spawned random
    streams, so results depend only on the seed (and are reproducible
    under any execution order).  Estimator failures are recorded per
    replication rather than aborting the run.
    """
    q_true = config.true_quantile()
    estimates = {
        name: np.full(config.replications, np.nan) for name in config.estimators
    }
    # the lab reproduces the published study, whose moment estimators are
    # the plug-in versions covered by the asymptotic theory; production
    # fits elsewhere default to the unbiased variant
    options = {"pwm_estimator": "plugin", **config.method_options}
    streams = np.random.SeedSequence(config.seed).spawn(config.replications)
    for rep, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        region = _simulate_region(config, rng)
        for name in config.estimators:
            try:
                quantile = quantile_function(name, region, region.annual.site_ids[0], **options)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    estimates[name][rep] = quantile(config.p)
            except (RegfloodError, np.linalg.LinAlgError):
                pass  # recorded as NaN; counted in the report
    stats = tuple(
        _summarize(name, estimates[name], q_true) for name in config.estimators
    )
    return ScenarioReport(
        q_true=q_true,
        replications=config.replications,
        seed=config.seed,
        estimates=estimates,
        stats=stats,
    )
