"""Copula samplers, block-maximum margins and scenario harness tests."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest

import regflood.simlab as simlab
from regflood.errors import DataError, DomainError, ParameterError, RegfloodError
from regflood.gev import GevParams, TwoComponentGev, gev_cdf, twocomp_quantile
from regflood.ingest import SeasonalSchemes
from regflood.moments import PwmVector, _moment_method, _ranked_block
from regflood.regional import ObservationScheme
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
        for theta in (0.9, math.nan, math.inf):
            with pytest.raises(ParameterError):
                gumbel_copula_sample(theta, 2, np.random.default_rng(0), size=1)
            with pytest.raises(ParameterError):
                khoudraji_sample(1.5, theta, [0.5, 0.5], np.random.default_rng(0), size=1)
        # counts: bools, fractions and a negative size used to escape as TypeError
        # or ValueError; an infinite theta as ZeroDivisionError
        for d, size in ((True, 1), (2.5, 1), (2, True), (2, 2.5), (2, "2"), (2, -1)):
            with pytest.raises(ParameterError):
                gumbel_copula_sample(2.0, d, np.random.default_rng(0), size=size)
        for size in (True, 2.5, -1):
            with pytest.raises(ParameterError):
                khoudraji_sample(1.5, 2.5, [0.5, 0.5], np.random.default_rng(0), size=size)
        u = khoudraji_sample(1.5, 2.5, [0.5, 0.5], np.random.default_rng(0), size=2.0)
        assert u.shape == (2, 2)


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
                khoudraji_sample(1.5, 2.5, np.array(c), np.random.default_rng(0), size=1)


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
        with pytest.raises(DomainError):
            blockmax_quantile(MARGIN, np.array([0.5, math.nan]))

    def test_fractional_block_size_rejected(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            BlockMaxMargin(1.75, 1.0, 0.3, 2.5)
        assert type(BlockMaxMargin(1.75, 1.0, 0.3, 12.0).b) is int

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

    @pytest.mark.parametrize("field", ["d", "n", "replications", "seed"])
    def test_fractional_counts_rejected(self, field):
        # int() would truncate; replications=2.5 used to escape run_scenario as TypeError
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            make_config(**{field: 3.5})

    def test_integral_float_counts_become_ints(self):
        config = make_config(d=3.0, n=50.0, replications=4.0, seed=99.0)
        assert [type(getattr(config, f)) for f in ("d", "n", "replications", "seed")] == [int] * 4

    @pytest.mark.parametrize("dependence_method", ["empirical", "pickands_cfg"])
    def test_short_records_warn_nothing(self, dependence_method):
        # at d = 10 and n = 3 default_k clamps the tail sample length 1 to 2, for W as for sW
        config = make_config(d=10, n=3, replications=3, copula=CopulaSpec.default_for(10),
                             estimators=ESTIMATOR_NAMES,
                             method_options={"dependence_method": dependence_method})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_scenario(config)
        assert [str(w.message) for w in caught if issubclass(w.category, UserWarning)] == []

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
        config = make_config()
        assert config.true_quantile() == pytest.approx(15.692, abs=1e-3)
        model = TwoComponentGev(GevParams(2, 1, 0.2), GevParams(1.5, 1, 0.4))
        assert config.true_quantile() == twocomp_quantile(model, config.p)

    def test_two_component_margins_run_a_scenario(self):
        # the seasonal margins are the product model itself
        model = TwoComponentGev(GevParams(2, 1, 0.2), GevParams(1.5, 1, 0.4))
        report = run_scenario(make_config(margins=model, replications=2))
        assert report.q_true == twocomp_quantile(model, 0.99)
        assert report.stat("L").n_ok == report.stat("sTL").n_ok == 2

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
        assert config.margins == TwoComponentGev(GevParams(2, 1, 0.2), GevParams(1.5, 1, 0.4))
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


def _single_path(config):
    """Every replication fitted alone by quantile_function: its estimates and the
    exception class of each failure, as run_scenario records them."""
    options = {"pwm_estimator": "plugin", **config.method_options}
    estimates = {name: np.full(config.replications, np.nan) for name in config.estimators}
    failures = {name: {} for name in config.estimators}
    for rep, stream in enumerate(np.random.SeedSequence(config.seed).spawn(config.replications)):
        region = simlab._simulate_region(config, np.random.default_rng(stream))
        for name in config.estimators:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    quantile = quantile_function(name, region, "site1", **options)
                    estimates[name][rep] = quantile(config.p)
            except (RegfloodError, np.linalg.LinAlgError) as exc:
                kind = type(exc).__name__
                failures[name][kind] = failures[name].get(kind, 0) + 1
    return estimates, failures


def _assert_same_estimates(report, estimates):
    for name, values in estimates.items():
        np.testing.assert_array_equal(report.estimates[name], values, err_msg=name)


class TestBatchedScenario:
    """run_scenario fits a chunk of replications at once; every estimate equals the
    one-replication path's bit for bit."""

    @pytest.mark.parametrize("replications", [1, 4, 37])  # 37: a chunk of 32 and a remainder
    @pytest.mark.parametrize("pwm_estimator", ["plugin", "unbiased"])
    @pytest.mark.parametrize("dependence_method", ["empirical", "pickands_cfg"])
    @pytest.mark.parametrize("margins", ["seasonal", "blockmax"])
    def test_estimates_match_the_single_path(
        self, margins, dependence_method, pwm_estimator, replications
    ):
        seasonal = margins == "seasonal"
        config = make_config(
            d=4, n=30, replications=replications, seed=21, copula=CopulaSpec.default_for(4),
            **({"estimators": ESTIMATOR_NAMES} if seasonal
               else {"estimators": ("W", "L", "TL"), "margins": MARGIN}),
            method_options={"pwm_estimator": pwm_estimator, "dependence_method": dependence_method},
        )
        report = run_scenario(config)
        estimates, failures = _single_path(config)
        _assert_same_estimates(report, estimates)
        assert report.failures == failures

    def test_failing_regions_match_the_single_path(self):
        # heavy seasonal tails on short records: some replications fail in the
        # moment fits (shape at the pole) and are refit alone by the single path
        config = make_config(
            d=4, n=15, p=0.999, estimators=ESTIMATOR_NAMES, replications=40, seed=9,
            margins=SeasonalMargins(GevParams(2, 1, 0.8), GevParams(1.5, 1, 0.9)),
            copula=CopulaSpec.default_for(4),
        )
        report = run_scenario(config)
        estimates, failures = _single_path(config)
        _assert_same_estimates(report, estimates)
        assert report.failures == failures
        assert sum(sum(f.values()) for f in failures.values()) > 0

    def test_a_constant_site_fails_as_on_the_single_path(self, monkeypatch):
        simulate = simlab._simulate_region
        calls = []

        def third_has_a_constant_site(config, rng):
            region = simulate(config, rng)
            calls.append(None)
            if len(calls) % 4 != 3:
                return region

            def flatten(scheme):
                values = np.stack([s.values for s in scheme.sites], axis=1)
                values[:, 1] = values[0, 1]
                return ObservationScheme.from_matrix(values)

            return SeasonalSchemes(*map(flatten, (region.winter, region.summer, region.annual)))

        monkeypatch.setattr(simlab, "_simulate_region", third_has_a_constant_site)
        config = make_config(estimators=ESTIMATOR_NAMES, replications=4)
        report = run_scenario(config)
        estimates, failures = _single_path(config)
        _assert_same_estimates(report, estimates)
        assert report.failures == failures
        for name in ("L", "TL", "sL", "sTL"):
            assert np.isnan(report.estimates[name][2])
            assert np.isfinite(np.delete(report.estimates[name], 2)).all()
            assert report.failures[name] == {"DataError": 1}

    def test_clean_chunks_refit_nothing_alone(self, monkeypatch):
        refits = []
        single = simlab._single_estimate
        monkeypatch.setattr(
            simlab, "_single_estimate", lambda name, *args: refits.append(name) or single(name, *args)
        )
        report = run_scenario(make_config(estimators=ESTIMATOR_NAMES, replications=6))
        assert refits == []
        assert report.failures == {name: {} for name in ESTIMATOR_NAMES}
        # an option the batch does not cover is fitted alone
        run_scenario(make_config(
            estimators=("W", "L"), replications=3, method_options={"dependence_method": "pickands_cfg"}
        ))
        assert refits == ["W"] * 3

    def test_each_stack_is_sorted_once(self, monkeypatch):
        # W and L/TL share the annual stack's sort, sW and sTL the seasonal ones'
        sorted_shapes = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            sorted_shapes.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        run_scenario(make_config(estimators=("W", "L", "TL", "sW", "sTL"), replications=5))
        assert sorted_shapes == [(5, 3, 50)] * 3
        # a stack no estimator reads is not sorted
        sorted_shapes.clear()
        run_scenario(make_config(estimators=("sTL",), replications=5))
        assert sorted_shapes == [(5, 3, 50)] * 2

    def test_shape_maps_match_the_scalar_gradient_where_pow_and_product_differ(self):
        # summer region of replication 78 of the gate-9 scenario: C pow rounds
        # the square of TL's ratio denominator 0.8040464322827425 at site 7 one
        # unit in the last place away from den * den, which both routes take
        config = ScenarioConfig(
            d=10, n=50, p=0.99, margins=SeasonalMargins(GevParams(2, 1, 0.2), GevParams(1.5, 1, 0.4)),
            copula=CopulaSpec.default_for(10), estimators=("TL",), replications=500, seed=20250810,
        )
        stream = np.random.SeedSequence(config.seed).spawn(config.replications)[78]
        summer = simlab._simulate_region(config, np.random.default_rng(stream)).summer
        spec = _moment_method("TL")
        betas = _ranked_block(summer._padded, summer._order, summer.offsets, spec.order, "plugin")
        num, den = (float(v[6]) for v in spec.terms(betas.T))
        assert den == 0.8040464322827425 and den**2 != den * den
        h = num / den - spec.offset
        product = spec._gradient(num, den, den * den, h)
        assert product != spec._gradient(num, den, den**2, h)
        xi, grads, ok = spec.shape_maps(betas)
        assert ok.all() and grads[6].tolist() == product
        np.testing.assert_array_equal(grads, [spec.shape_gradient(PwmVector(b)) for b in betas])
        np.testing.assert_array_equal(xi, [spec.shape(PwmVector(b)) for b in betas])
