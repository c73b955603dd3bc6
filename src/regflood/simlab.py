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

from .errors import DataError, DomainError, NumericError, ParameterError, RegfloodError, _integer
from .gev import GevParams, TwoComponentGev, gev_quantile, twocomp_quantile
from .ingest import SeasonalSchemes
from .moments import _moment_method
from .regional import _PWM_ESTIMATORS, ObservationScheme, _fit_gev_regional_stack, fit_gev_regional
from .tail import (
    DEPENDENCE_METHODS,
    _power_tail_quantile,
    _product_quantile,
    _tail_fits,
    default_k,
    regional_tail_fit,
    seasonal_weissman_quantile,
)
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
    "pwm_estimator": _PWM_ESTIMATORS,
    "dependence_method": DEPENDENCE_METHODS,
}
# replications fitted at once: at most _CHUNK, fewer where one kind of a region's
# maxima needs over _CHUNK_CELLS / _CHUNK numbers (a chunk stacks up to three kinds)
_CHUNK = 32
_CHUNK_CELLS = 2**17


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


def gumbel_copula_sample(theta: float, d: int, rng: np.random.Generator, size: int):
    """``size`` x d draws from the d-dimensional Gumbel-Hougaard copula.

    Uses the frailty construction: exponentials divided by a positive
    stable variate, pushed through the generator inverse.  ``theta = 1``
    yields exact independence.
    """
    if not 1.0 <= theta < math.inf:  # also rejects NaN
        raise ParameterError(f"dependence parameter must be finite and >= 1, got {theta}")
    d, size = _integer(d, "dimension"), _integer(size, "sample size")
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    if size < 0:
        raise ParameterError(f"sample size must be >= 0, got {size}")
    if theta == 1.0:
        return rng.uniform(size=(size, d))
    alpha = 1.0 / theta
    s = _positive_stable(alpha, size, rng)
    e = rng.standard_exponential(size=(size, d))
    return np.exp(-((e / s[:, None]) ** (1.0 / theta)))


def khoudraji_sample(theta1: float, theta2: float, c, rng: np.random.Generator, size: int):
    """``size`` x d asymmetrized copula draws via componentwise power weights.

    Component j is max(V_j**(1/c_j), W_j**(1/(1-c_j))) for V, W drawn
    independently from the two base copulas; c_j = 0 returns W_j and
    c_j = 1 returns V_j (continuity limits of the exponents).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.all((c >= 0.0) & (c <= 1.0)):
        raise ParameterError("asymmetry exponents must lie in [0, 1]")
    d = len(c)
    v = gumbel_copula_sample(theta1, d, rng, size=size)
    w = gumbel_copula_sample(theta2, d, rng, size=size)
    u = np.empty_like(v)
    for j in range(d):
        if c[j] == 0.0:
            u[:, j] = w[:, j]
        elif c[j] == 1.0:
            u[:, j] = v[:, j]
        else:
            u[:, j] = np.maximum(v[:, j] ** (1.0 / c[j]), w[:, j] ** (1.0 / (1.0 - c[j])))
    return u


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
        object.__setattr__(self, "b", _integer(self.b, "block size"))
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
        from scipy.special import stdtrit  # block-maximum margins only; off the CLI's start-up

        return float(stdtrit(self.dof, 1.0 - 1.0 / (2.0 * self.b)))


# product-model margins, one GEV per season: the model itself
SeasonalMargins = TwoComponentGev


def blockmax_cdf(margin: BlockMaxMargin, x):
    """cdf (2 T_dof(a_b (1 + xi (x-mu)/sigma)) - 1)**b, zero below support.

    A NaN argument gives NaN.
    """
    from scipy.special import stdtr

    x = np.asarray(x, dtype=float)
    # an overflowing z is an infinite one, which the limits below handle
    with np.errstate(over="ignore", invalid="ignore"):
        z = 1.0 + margin.xi * (x - margin.mu) / margin.sigma
        inner = 2.0 * stdtr(margin.dof, margin.a_b * z) - 1.0
    out = np.where(z <= 0, 0.0, np.maximum(inner, 0.0) ** margin.b)
    return float(out) if out.ndim == 0 else out


def blockmax_quantile(margin: BlockMaxMargin, p):
    """Closed-form inverse of :func:`blockmax_cdf` on (0, 1).

    Raises ``NumericError`` if a quantile exceeds the float range.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise DomainError("quantile level must lie strictly between 0 and 1")
    from scipy.special import stdtrit

    inner = stdtrit(margin.dof, (p ** (1.0 / margin.b) + 1.0) / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = margin.mu + margin.sigma / margin.xi * (inner / margin.a_b - 1.0)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"a quantile of {margin} overflows the float range")
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
    margins: BlockMaxMargin | TwoComponentGev
    copula: CopulaSpec
    estimators: tuple[str, ...]
    replications: int
    seed: int
    method_options: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("d", "n", "replications", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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
        return twocomp_quantile(self.margins, self.p)


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

    def integer(value, name):
        return _integer(value, f"scenario file {path}: {name}", DataError, text=True)

    try:
        d = integer(raw["d"], "d")
        marg = raw["margins"]
        if marg["type"] == "blockmax":
            margins = BlockMaxMargin(
                float(marg["mu"]), float(marg["sigma"]), float(marg["xi"]),
                integer(marg["b"], "b"),
            )
        elif marg["type"] == "seasonal":
            margins = TwoComponentGev(
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
            n=integer(raw["n"], "n"),
            p=float(raw["p"]),
            margins=margins,
            copula=copula,
            estimators=tuple(estimators),
            replications=integer(raw.get("replications", 500), "replications"),
            seed=integer(raw.get("seed", 0), "seed"),
            method_options=dict(raw.get("method_options", {})),
        )
    except RegfloodError:
        raise
    except KeyError as exc:
        raise DataError(f"scenario file {path} is missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"scenario file {path}: unusable value: {exc}") from exc


def _draw_region(config: ScenarioConfig, rng: np.random.Generator) -> tuple:
    """One replication's (annual, winter, summer) maxima as (d, n) arrays, site by row;
    the seasons are None under block-maximum margins."""
    cop = config.copula
    draw = partial(khoudraji_sample, cop.theta1, cop.theta2, cop.c, rng, size=config.n)
    if isinstance(config.margins, BlockMaxMargin):
        return blockmax_quantile(config.margins, draw()).T, None, None
    # seasonal margins: one independent copula draw per season
    w = gev_quantile(config.margins.winter, draw()).T
    s = gev_quantile(config.margins.summer, draw()).T
    return np.maximum(w, s), w, s


def _schemes(draw: tuple) -> SeasonalSchemes:
    """The :class:`SeasonalSchemes` of a :func:`_draw_region` draw."""
    annual, winter, summer = (x if x is None else ObservationScheme.from_matrix(x.T) for x in draw)
    return SeasonalSchemes(winter, summer, annual)


def _simulate_region(config: ScenarioConfig, rng: np.random.Generator) -> SeasonalSchemes:
    return _schemes(_draw_region(config, rng))


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
    """Aggregated results of one scenario run.

    ``failures`` maps each estimator to the number of its failed (NaN) replications
    by the name of the exception class that failed them.
    """

    q_true: float
    replications: int
    seed: int
    estimates: dict
    stats: tuple[EstimatorStats, ...]
    failures: dict = field(default_factory=dict)

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


def _read(quantile, *args) -> float:
    """A quantile read-off, NaN where it raises or an argument is None."""
    if any(arg is None for arg in args):
        return math.nan
    try:
        return quantile(*args)
    except (RegfloodError, np.linalg.LinAlgError):
        return math.nan


def _batch_estimates(config: ScenarioConfig, draws: list, options: dict) -> dict:
    """The estimates at site 1 of the replications ``draws`` of :func:`_draw_region`, at once.

    Per estimator the batch covers, a list with the single path's value bit for bit,
    or NaN where the fit failed or one of the batch's checks rejected it.  Not
    covered: W with ``pickands_cfg`` dependence, and the moment estimators with
    unbiased PWMs on fewer years than their order.
    """
    p, pwm_estimator, R = config.p, options["pwm_estimator"], len(draws)
    names = set(config.estimators)
    annual, seasonal = bool(names - set(_SEASONAL_ONLY)), bool(names & set(_SEASONAL_ONLY))
    # one stack of the kinds read, annual then winter then summer, sorted once
    stack = np.array([draw[kind] for kind in (0,) * annual + (1, 2) * seasonal for draw in draws])
    order = np.argsort(stack, axis=-1, kind="stable")

    def reads(on_annual: bool, on_seasons: bool) -> slice:  # the stack's regions a fit reads
        return slice(0 if on_annual else R * annual, R * (annual + 2 * on_seasons))

    methods = {
        m: reads(m in names, "s" + m in names) for m in ("L", "TL") if names & {m, "s" + m}
        and not (pwm_estimator == "unbiased" and config.n < _moment_method(m).order)
    }
    thetas = _fit_gev_regional_stack(stack, order, methods, pwm_estimator) if methods else {}
    out = {}
    with warnings.catch_warnings():  # the fits warn too: default_k clamps short records
        warnings.simplefilter("ignore")
        for m, fits in thetas.items():
            if m in names:
                out[m] = [_read(gev_quantile, theta, p) for theta in fits[:R]]
            if "s" + m in names:
                out["s" + m] = [
                    _read(lambda w, s: twocomp_quantile(TwoComponentGev(w, s), p), w, s)
                    for w, s in zip(fits[-2 * R : -R], fits[-R:])
                ]
        on_annual = "W" in names and options.get("dependence_method", "empirical") == "empirical"
        if on_annual or "sW" in names:
            span = reads(on_annual, "sW" in names)
            ks = np.full(config.d, default_k(config.n, config.d))
            tails = _tail_fits(stack[span], order[span], ks)
            if on_annual:
                out["W"] = [_read(lambda t: _power_tail_quantile(*t, p)[0], t) for t in tails[:R]]
            if "sW" in names:
                out["sW"] = [
                    _read(lambda w, s: _product_quantile([w, s], p), w, s)  # raises at gamma <= 0
                    for w, s in zip(tails[-2 * R : -R], tails[-R:])
                ]
    return out


def _single_estimate(name: str, region, p: float, options: dict, failures: dict) -> float:
    """Estimator ``name`` fitted to one replication at site 1, NaN where it fails; a
    failure is counted in ``failures`` under its exception class."""
    try:
        with warnings.catch_warnings():  # the fit warns too: default_k clamps short records
            warnings.simplefilter("ignore")
            return quantile_function(name, region, region.annual.site_ids[0], **options)(p)
    except (RegfloodError, np.linalg.LinAlgError) as exc:
        failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
        return math.nan


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute a scenario: simulate, estimate, aggregate.

    Replications run on independent, deterministically spawned random
    streams, so results depend only on the seed (and are reproducible
    under any execution order).  Chunks of up to 32 are drawn as arrays
    and fitted as one stack of the kinds of maxima their estimators read;
    a replication that a check of the chunk rejects, or an estimator it
    does not cover, is refit alone by :func:`quantile_function`.
    The estimates equal those of fitting every replication alone, bit for
    bit.  Estimator failures are recorded per replication as NaN rather
    than aborting the run, and counted by exception class in the report's
    ``failures``.
    """
    q_true = config.true_quantile()
    estimates = {name: np.full(config.replications, np.nan) for name in config.estimators}
    failures = {name: {} for name in config.estimators}
    # the lab reproduces the published study, whose moment estimators are
    # the plug-in versions covered by the asymptotic theory; production
    # fits elsewhere default to the unbiased variant
    options = {"pwm_estimator": "plugin", **config.method_options}
    streams = np.random.SeedSequence(config.seed).spawn(config.replications)
    cells = config.d * 4 * (config.n + config.d * 4)  # TL's influence rows and covariance
    chunk = max(1, min(_CHUNK, _CHUNK_CELLS // cells))
    for lo in range(0, config.replications, chunk):
        draws = [_draw_region(config, np.random.default_rng(s)) for s in streams[lo : lo + chunk]]
        batch = _batch_estimates(config, draws, options)
        regions = [None] * len(draws)  # the schemes of the replications refit alone
        for name in config.estimators:
            for i, value in enumerate(batch.get(name, [math.nan] * len(draws))):
                if math.isnan(value):
                    regions[i] = regions[i] or _schemes(draws[i])
                    value = _single_estimate(name, regions[i], config.p, options, failures[name])
                estimates[name][lo + i] = value
    stats = tuple(_summarize(name, estimates[name], q_true) for name in config.estimators)
    return ScenarioReport(
        q_true=q_true,
        replications=config.replications,
        seed=config.seed,
        estimates=estimates,
        stats=stats,
        failures=failures,
    )
