"""regflood: regional estimation of high quantiles of annual maximal flows.

Two regional lanes are provided.  The parametric lane fits seasonal GEV
distributions with (trimmed) L-moments, combines per-site shapes with
variance-optimal weights and reads annual quantiles off the seasonal
product model with delta-method confidence intervals.  The
semi-parametric lane estimates a common tail index from local excess
statistics and extrapolates quantiles with power-tail scaling.  A Monte
Carlo laboratory simulates dependent regions for estimator comparison.
"""

from .errors import (
    DataError,
    DomainError,
    HomogeneityError,
    NumericError,
    ParameterError,
    RegfloodError,
)
from .gev import (
    GevParams,
    TwoComponentGev,
    gev_cdf,
    gev_cdf_jacobian,
    gev_pdf,
    gev_quantile,
    kl_project_gev,
    twocomp_cdf,
    twocomp_evi,
    twocomp_pdf,
    twocomp_quantile,
)
from .ingest import (
    MonthlyRecord,
    MonthlyTable,
    ReturnLevelCurve,
    SeasonDefinition,
    SeasonalSchemes,
    ingest_monthly,
    return_level_curve,
    seasonal_maxima,
)
from .moments import (
    PwmVector,
    gev_from_lmoments,
    gev_from_tlmoments,
    lmoments_from_pwm,
    pwm_of_gev,
    sample_pwm,
    sample_pwm_unbiased,
    tlmoments_from_pwm,
)
from .regional import (
    ObservationScheme,
    RegionalGevFit,
    RegionalShapeResult,
    SiteSeries,
    fallback_weights,
    fit_gev_regional,
    homogeneity_test,
    optimal_weights,
    regional_shape,
    sigma_r_hat,
    sigma_tail_hat,
    zhat_vectors,
)
from .simlab import (
    BlockMaxMargin,
    CopulaSpec,
    ScenarioConfig,
    ScenarioReport,
    SeasonalMargins,
    blockmax_cdf,
    blockmax_quantile,
    gumbel_copula_sample,
    khoudraji_sample,
    load_scenario,
    quantile_function,
    run_scenario,
)
from .tail import (
    RegionalTailFit,
    TailConfig,
    TailDependence,
    default_k,
    hill,
    pickands_cfg,
    regional_tail_fit,
    semi_sigma,
    seasonal_weissman_quantile,
    tail_dependence_empirical,
    tail_prob,
    weissman_ci,
    weissman_quantile,
)
from .twocomp import (
    QuantileInterval,
    SeasonalFit,
    fit_seasonal_regional,
    gev_quantile_ci,
    gev_quantile_variance,
    twocomp_quantile_ci,
    twocomp_quantile_variance,
)

__version__ = "0.1.0"
