"""Copula samplers, block-maximum margins and scenario harness tests."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

from regflood.errors import DataError, DomainError, ParameterError
from regflood.gev import GevParams, gev_cdf
from regflood.simlab import (
    ESTIMATOR_NAMES,
    BlockMaxMargin,
    CopulaSpec,
    ScenarioConfig,
    SeasonalMargins,
    blockmax_cdf,
    blockmax_quantile,
    gumbel_copula_cdf,
    gumbel_copula_sample,
    khoudraji_cdf,
    khoudraji_sample,
    _simulate_region,
    load_scenario,
    quantile_function,
    run_scenario,
)

MARGIN = BlockMaxMargin(1.75, 1.0, 0.3, 12)


class TestGumbelCopula:
    def test_independence_case(self):
        rng = np.random.default_rng(0)
        u = gumbel_copula_sample(1.0, 3, rng, size=20_000)
        tau = kendalltau(u[:5000, 0], u[:5000, 1]).statistic
        assert abs(tau) < 0.03

    def test_kendall_tau_matches_theta(self):
        rng = np.random.default_rng(1)
        u = gumbel_copula_sample(2.0, 2, rng, size=10_000)
        tau = kendalltau(u[:, 0], u[:, 1]).statistic
        assert tau == pytest.approx(0.5, abs=0.02)

    def test_cdf_at_half(self):
        rng = np.random.default_rng(2)
        theta = 2.0
        u = gumbel_copula_sample(theta, 2, rng, size=100_000)
        emp = np.mean((u[:, 0] <= 0.5) & (u[:, 1] <= 0.5))
        expected = gumbel_copula_cdf(theta, [0.5, 0.5])
        assert expected == pytest.approx(0.5 ** (2 ** (1 / theta)), rel=1e-12)
        assert emp == pytest.approx(expected, abs=3 * math.sqrt(0.25 / 100_000) + 0.003)

    def test_uniform_margins(self):
        rng = np.random.default_rng(3)
        u = gumbel_copula_sample(3.0, 4, rng, size=10_000)
        for j in range(4):
            assert kstest(u[:, j], "uniform").statistic < 0.02

    def test_theta_below_one_rejected(self):
        for theta in (0.9, math.nan):
            with pytest.raises(ParameterError):
                gumbel_copula_sample(theta, 2, np.random.default_rng(0))

    def test_single_draw_shape(self):
        u = gumbel_copula_sample(1.5, 5, np.random.default_rng(4))
        assert u.shape == (5,)


class TestKhoudraji:
    def test_all_ones_reduces_to_first(self):
        rng1 = np.random.default_rng(10)
        rng2 = np.random.default_rng(10)
        u = khoudraji_sample(1.7, 2.9, np.ones(3), rng1, size=100)
        v = gumbel_copula_sample(1.7, 3, rng2, size=100)
        np.testing.assert_allclose(u, v)

    def test_all_zeros_reduces_to_second(self):
        # with c = 0 everywhere only the second copula's draw survives;
        # same stream, so draws match a direct two-stage consumption
        rng = np.random.default_rng(11)
        u = khoudraji_sample(1.7, 2.9, np.zeros(3), rng, size=50)
        rng2 = np.random.default_rng(11)
        gumbel_copula_sample(1.7, 3, rng2, size=50)
        v = gumbel_copula_sample(2.9, 3, rng2, size=50)
        np.testing.assert_allclose(u, v)

    def test_empirical_copula_matches_analytic(self):
        rng = np.random.default_rng(12)
        c = np.array([0.0, 0.5])
        n = 100_000
        u = khoudraji_sample(1.5, 2.5, c, rng, size=n)
        grid = np.linspace(0.1, 0.9, 5)
        for a in grid:
            for b in grid:
                emp = np.mean((u[:, 0] <= a) & (u[:, 1] <= b))
                true = khoudraji_cdf(1.5, 2.5, c, [a, b])
                se = math.sqrt(true * (1 - true) / n)
                assert abs(emp - true) <= 3 * se + 1e-4, (a, b)

    def test_uniform_margins(self):
        rng = np.random.default_rng(13)
        u = khoudraji_sample(1.5, 2.5, np.array([0.3, 0.8]), rng, size=10_000)
        for j in range(2):
            assert kstest(u[:, j], "uniform").statistic < 0.02

    def test_exponent_validation(self):
        for c in ([0.5, 1.2], [0.5, math.nan]):
            with pytest.raises(ParameterError):
                khoudraji_sample(1.5, 2.5, np.array(c), np.random.default_rng(0))


class TestBlockMax:
    def test_published_quantile(self):
        assert blockmax_quantile(MARGIN, 0.99) == pytest.approx(14.151, abs=1e-3)
        assert blockmax_cdf(MARGIN, 14.151) == pytest.approx(0.99, abs=1e-3)

    def test_round_trip(self):
        for p in (0.05, 0.5, 0.9, 0.99, 0.9999):
            q = blockmax_quantile(MARGIN, p)
            assert blockmax_cdf(MARGIN, q) == pytest.approx(p, abs=1e-10)

    def test_valid_cdf(self):
        x = np.linspace(-2, 60, 300)
        vals = blockmax_cdf(MARGIN, x)
        assert np.all(np.diff(vals) >= -1e-12)
        assert blockmax_cdf(MARGIN, -10.0) == 0.0
        assert blockmax_cdf(MARGIN, 1e7) == pytest.approx(1.0)

    def test_large_block_approaches_gev(self):
        # measured sup deviation on this grid: 1.4e-3 at b = 1e4,
        # shrinking like a power of b
        gev = GevParams(1.75, 1.0, 0.3)
        grid = (1.0, 3.0, 8.0, 20.0)

        def sup_err(b):
            big = BlockMaxMargin(1.75, 1.0, 0.3, b)
            return max(abs(blockmax_cdf(big, x) - gev_cdf(gev, x)) for x in grid)

        assert sup_err(10_000) < 2e-3
        assert sup_err(100_000) < sup_err(10_000) < sup_err(1_000)

    def test_small_block_rejected(self):
        # the standardization constant is the t-quantile at 1 - 1/(2b),
        # which sits at the median for b = 1: no scale left
        with pytest.raises(ParameterError):
            BlockMaxMargin(1.75, 1.0, 0.3, 1)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ParameterError):
            BlockMaxMargin(0.0, 1.0, -0.1, 12)

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            blockmax_quantile(MARGIN, 1.0)

    @pytest.mark.parametrize(
        "mu, sigma, xi, b",
        [(math.nan, 1.0, 0.3, 12), (1.75, math.nan, 0.3, 12), (1.75, 1.0, math.nan, 12),
         (math.inf, 1.0, 0.3, 12), (1.75, math.inf, 0.3, 12), (1.75, 1.0, math.inf, 12),
         (1.75, 1.0, 0.3, math.nan)],
    )
    def test_nan_or_infinite_parameters_rejected(self, mu, sigma, xi, b):
        with pytest.raises(ParameterError):
            BlockMaxMargin(mu, sigma, xi, b)


class TestCopulaSpec:
    @pytest.mark.parametrize(
        "theta1, theta2, c",
        [(math.nan, 2.5, [0.0, 0.5]), (1.5, math.nan, [0.0, 0.5]),
         (math.inf, 2.5, [0.0, 0.5]), (1.5, math.inf, [0.0, 0.5]),
         (1.5, 2.5, [0.0, math.nan]), (1.5, 2.5, [[0.0, 0.5]])],
    )
    def test_nan_infinite_or_misshapen_parameters_rejected(self, theta1, theta2, c):
        with pytest.raises(ParameterError):
            CopulaSpec(theta1, theta2, c)


def make_config(**kwargs):
    defaults = dict(
        d=3,
        n=50,
        p=0.99,
        margins=SeasonalMargins(GevParams(2, 1, 0.2), GevParams(1.5, 1, 0.4)),
        copula=CopulaSpec.default_for(3),
        estimators=("L", "sTL"),
        replications=4,
        seed=99,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestScenario:
    @pytest.mark.parametrize(
        "options",
        [{"pwm_estimator": "unbiasd"}, {"dependence_method": "pickands"},
         {"pwm_estimatr": "plugin"}],
    )
    def test_bad_method_options_rejected(self, options):
        with pytest.raises(ParameterError, match="method option"):
            make_config(method_options=options)

    @pytest.mark.parametrize("estimators", [(), ("W", "W"), ["L", "sTL", "L"]])
    def test_empty_or_repeated_estimators_rejected(self, estimators):
        with pytest.raises(ParameterError, match="distinct estimators"):
            make_config(estimators=estimators)

    def test_valid_method_options_accepted(self):
        options = {"pwm_estimator": "unbiased", "dependence_method": "pickands_cfg"}
        assert make_config(method_options=options).method_options == options

    @pytest.mark.parametrize("field", ["d", "n", "replications", "seed"])
    def test_nan_or_negative_counts_rejected(self, field):
        for value in (math.nan, -1):
            with pytest.raises(ParameterError):
                make_config(**{field: value})

    def test_bit_reproducible(self):
        r1 = run_scenario(make_config(replications=2))
        r2 = run_scenario(make_config(replications=2))
        for name in ("L", "sTL"):
            np.testing.assert_array_equal(r1.estimates[name], r2.estimates[name])

    def test_different_seed_differs(self):
        r1 = run_scenario(make_config(replications=2))
        r2 = run_scenario(make_config(replications=2, seed=100))
        assert not np.allclose(r1.estimates["L"], r2.estimates["L"])

    def test_true_quantile_seasonal(self):
        assert make_config().true_quantile() == pytest.approx(15.692, abs=1e-3)

    def test_blockmax_iid_reduction(self):
        # degenerate copula and one site: draws must be iid from the margin
        config = make_config(
            d=1,
            n=4000,
            margins=MARGIN,
            copula=CopulaSpec(1.0, 1.0, np.array([0.5])),
            estimators=("W",),
            replications=1,
        )
        rng = np.random.default_rng(np.random.SeedSequence(5))
        region = _simulate_region(config, rng)
        sample = region.annual.sites[0].values
        stat = kstest(sample, lambda x: blockmax_cdf(MARGIN, x)).pvalue
        assert stat > 0.01

    def test_seasonal_estimators_need_seasonal_margins(self):
        with pytest.raises(ParameterError):
            make_config(margins=MARGIN, estimators=("sTL",))

    def test_report_statistics(self):
        report = run_scenario(make_config(replications=6))
        st = report.stat("sTL")
        assert st.n_ok + st.n_failed == 6
        assert st.q25 <= st.median <= st.q75
        text = report.to_text()
        assert "sTL" in text and "mse" in text

    def test_report_csv_round_trip(self, tmp_path):
        report = run_scenario(make_config(replications=3))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == (
            "estimator,n_ok,n_failed,bias,variance,mse_scaled,se_bias,"
            "se_mse_scaled,q25,median,q75,outliers,q_true"
        )
        assert len(rows) == 3  # header + two estimators

    def test_site_relabeling_invariance(self):
        # permuting sites together with the asymmetry vector relabels the
        # region; statistics at the (relabelled) target site 1 agree when
        # the permutation fixes site 1
        config = make_config(replications=3)
        perm = [0, 2, 1]
        config_p = make_config(
            replications=3,
            copula=CopulaSpec(1.5, 2.5, config.copula.c[perm]),
        )
        r1 = run_scenario(config)
        r2 = run_scenario(config_p)
        # same seed, same margins; the L estimator at site 1 sees the same
        # marginal law, so summary statistics stay within resampling noise
        assert r1.stat("L").n_ok == r2.stat("L").n_ok


class TestQuantileFunction:
    def test_run_scenario_reads_every_estimator_off_it(self):
        config = make_config(estimators=ESTIMATOR_NAMES, replications=2)
        report = run_scenario(config)
        streams = np.random.SeedSequence(config.seed).spawn(config.replications)
        for rep, stream in enumerate(streams):
            region = _simulate_region(config, np.random.default_rng(stream))
            for name in ESTIMATOR_NAMES:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    q = quantile_function(name, region, "site1", pwm_estimator="plugin")(config.p)
                assert q == report.estimates[name][rep]

    def test_only_sw_fits_at_each_call(self):
        region = _simulate_region(make_config(), np.random.default_rng(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quantile = quantile_function("sW", region, "site2")
        with pytest.warns(UserWarning, match="not recommended"):
            assert quantile(0.99) > 0

    def test_unknown_name_rejected(self):
        region = _simulate_region(make_config(), np.random.default_rng(3))
        with pytest.raises(ParameterError, match="unknown estimator 'X'"):
            quantile_function("X", region, "site1")

    def test_blockmax_region_has_no_seasons(self):
        config = make_config(margins=MARGIN, estimators=("W",))
        region = _simulate_region(config, np.random.default_rng(4))
        assert region.winter is None and region.summer is None
        assert region.annual.d == 3 and region.annual.n == 50
        for name in ("sW", "sL", "sTL"):
            with pytest.raises(DataError, match="needs winter and summer"):
                quantile_function(name, region, "site1")


class TestScenarioFile:
    def test_load_round_trip(self, tmp_path):
        raw = {
            "d": 4,
            "n": 60,
            "p": 0.995,
            "margins": {"type": "seasonal", "winter": [2, 1, 0.2], "summer": [1.5, 1, 0.4]},
            "copula": {"theta1": 1.5, "theta2": 2.5},
            "estimators": ["L", "TL"],
            "replications": 7,
            "seed": 11,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        config = load_scenario(path)
        assert config.d == 4
        assert config.replications == 7
        assert isinstance(config.margins, SeasonalMargins)
        np.testing.assert_allclose(config.copula.c, np.arange(4) / 4)

    def test_estimators_must_be_a_list(self, tmp_path):
        raw = {
            "d": 2,
            "n": 60,
            "p": 0.99,
            "margins": {"type": "seasonal", "winter": [2, 1, 0.2], "summer": [1.5, 1, 0.4]},
            "estimators": "sTL",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError, match="estimators must be a JSON list"):
            load_scenario(path)

    def test_blockmax_margins(self, tmp_path):
        raw = {
            "d": 2,
            "n": 60,
            "p": 0.99,
            "margins": {"type": "blockmax", "mu": 1.75, "sigma": 1, "xi": 0.3, "b": 12},
            "estimators": ["W"],
            "seed": 1,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        config = load_scenario(path)
        assert isinstance(config.margins, BlockMaxMargin)
        assert config.true_quantile() == pytest.approx(14.151, abs=1e-3)
