"""Seasonal product-model inference tests: variance formula and intervals."""

import math
import warnings

import numpy as np
import pytest

from regflood.errors import NumericError, ParameterError
from regflood.gev import (
    GevParams,
    TwoComponentGev,
    gev_cdf_jacobian,
    gev_pdf,
    gev_quantile,
    twocomp_quantile,
)
from regflood.regional import ObservationScheme, RegionalGevFit, SiteSeries
from regflood.twocomp import (
    SeasonalFit,
    fit_seasonal_regional,
    gev_quantile_ci,
    gev_quantile_variance,
    twocomp_quantile_ci,
    twocomp_quantile_variance,
)

THETA_W = GevParams(2, 1, 0.2)
THETA_S = GevParams(1.5, 1, 0.4)
SIGMA_W = np.array([[0.5, 0.1, 0.01], [0.1, 0.3, 0.02], [0.01, 0.02, 0.05]])
SIGMA_S = np.array([[0.6, 0.05, 0.0], [0.05, 0.4, 0.03], [0.0, 0.03, 0.08]])


def make_fit(n=100, sw=SIGMA_W, ss=SIGMA_S):
    return SeasonalFit(THETA_W, THETA_S, sw, ss, n)


def make_seasonal_schemes(seed=0, d=4, n=100):
    rng = np.random.default_rng(seed)
    sites_w, sites_s = [], []
    for j in range(d):
        w = gev_quantile(THETA_W, rng.uniform(size=n))
        s = gev_quantile(THETA_S, rng.uniform(size=n))
        sites_w.append(SiteSeries(f"s{j + 1}", 0, w))
        sites_s.append(SiteSeries(f"s{j + 1}", 0, s))
    return ObservationScheme(tuple(sites_w)), ObservationScheme(tuple(sites_s))


class TestVariance:
    def test_zero_covariances_give_zero(self):
        fit = make_fit(sw=np.zeros((3, 3)), ss=np.zeros((3, 3)))
        assert twocomp_quantile_variance(fit, 0.99) == 0.0

    def test_equal_components_collapse(self):
        # with theta_w = theta_s = theta and equal covariances the formula
        # reduces by hand algebra to J S J' / (2 g^2) at the sqrt(p) point
        theta = THETA_W
        sigma = SIGMA_W
        fit = SeasonalFit(theta, theta, sigma, sigma, 100)
        p = 0.99
        var = twocomp_quantile_variance(fit, p)
        q = gev_quantile(theta, math.sqrt(p))
        jac = gev_cdf_jacobian(theta, q)
        dens = gev_pdf(theta, q)
        expected = float(jac @ sigma @ jac) / (2.0 * dens**2)
        assert var == pytest.approx(expected, rel=1e-10)

    def test_monte_carlo_delta_oracle(self):
        # small-noise perturbation oracle: empirical variance of
        # sqrt(n)(q_hat - q) under Gaussian parameter noise Sigma/n
        fit = make_fit()
        p = 0.99
        var = twocomp_quantile_variance(fit, p)
        scale = 1e6
        ndraw = 20_000
        rng = np.random.default_rng(42)
        lw = np.linalg.cholesky(SIGMA_W / scale)
        ls = np.linalg.cholesky(SIGMA_S / scale)
        qs = np.empty(ndraw)
        for i in range(ndraw):
            tw = THETA_W.as_array() + lw @ rng.standard_normal(3)
            ts = THETA_S.as_array() + ls @ rng.standard_normal(3)
            qs[i] = twocomp_quantile(
                TwoComponentGev(GevParams(*tw), GevParams(*ts)), p
            )
        mc = scale * np.var(qs, ddof=1)
        assert var == pytest.approx(mc, rel=0.05)

    def test_monotone_in_covariance_scaling(self):
        fit1 = make_fit()
        fit2 = make_fit(sw=2.0 * SIGMA_W, ss=3.0 * SIGMA_S)
        assert twocomp_quantile_variance(fit2, 0.99) > twocomp_quantile_variance(
            fit1, 0.99
        )

    def test_nonnegative(self):
        for p in (0.01, 0.5, 0.9, 0.999):
            assert twocomp_quantile_variance(make_fit(), p) >= 0.0

    def test_quantile_beyond_bounded_component(self):
        # bounded winter tail, heavy summer tail: the 0.99 product
        # quantile escapes the winter support, where the winter cdf is
        # flat and only the summer term contributes
        bounded = GevParams(2.0, 1.0, -0.3)
        fit = SeasonalFit(bounded, THETA_S, SIGMA_W, SIGMA_S, 100)
        p = 0.999
        q = twocomp_quantile(TwoComponentGev(bounded, THETA_S), p)
        assert q > bounded.support()[1]
        var = twocomp_quantile_variance(fit, p)
        jac_s = gev_cdf_jacobian(THETA_S, q)
        expected = float(jac_s @ SIGMA_S @ jac_s) / gev_pdf(THETA_S, q) ** 2
        assert var == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("a", [1e-100, 1e100, 1e150, 1e200, 1e300])
    def test_variance_follows_the_data_scale(self, a):
        # x -> a x with covariances D Sigma D, D = diag(a, a, 1) / sqrt(a), scales
        # the variance by a; from a = 1e150 the squared product density underflowed
        # the old 1e-300 floor although the density itself is positive
        root = math.sqrt(a)
        d = np.diag([root, root, 1.0 / root])
        w, s = (GevParams(a * t.mu, a * t.sigma, t.xi) for t in (THETA_W, THETA_S))
        fit = SeasonalFit(w, s, d @ SIGMA_W @ d, d @ SIGMA_S @ d, 100)
        assert twocomp_quantile_variance(fit, 0.99) == pytest.approx(
            a * twocomp_quantile_variance(make_fit(), 0.99), rel=1e-9
        )
        assert gev_quantile_variance(w, d @ SIGMA_W @ d, 0.99) == pytest.approx(
            a * gev_quantile_variance(THETA_W, SIGMA_W, 0.99), rel=1e-9
        )

    @pytest.mark.parametrize("bad", [np.full((3, 3), np.nan), 1e308 * np.eye(3)],
                             ids=["nan", "1e308"])
    def test_non_finite_variance_is_a_numeric_error(self, bad):
        # a NaN covariance used to give the interval 15.7 [nan, nan], and 1e308 a
        # bare RuntimeWarning from the overflowing product
        calls = [lambda: gev_quantile_variance(THETA_W, bad, 0.99),
                 lambda: gev_quantile_ci(RegionalGevFit(THETA_W, bad, 100, None, THETA_W),
                                         0.99, 0.05)]
        for fit in (make_fit(sw=bad, ss=bad), make_fit(ss=bad)):
            calls += [lambda fit=fit: twocomp_quantile_variance(fit, 0.99),
                      lambda fit=fit: twocomp_quantile_ci(fit, 0.99, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NumericError, match="variance .* is (nan|inf)"):
                    call()


class TestInterval:
    def test_alpha_near_one_degenerates(self):
        fit = make_fit()
        ci = twocomp_quantile_ci(fit, 0.99, 1 - 1e-12)
        assert ci.upper - ci.lower == pytest.approx(0.0, abs=1e-6)

    def test_zero_variance_degenerates(self):
        fit = make_fit(sw=np.zeros((3, 3)), ss=np.zeros((3, 3)))
        ci = twocomp_quantile_ci(fit, 0.99, 0.05)
        assert ci.lower == ci.estimate == ci.upper

    def test_symmetric_and_contains_estimate(self):
        ci = twocomp_quantile_ci(make_fit(), 0.99, 0.05)
        assert ci.lower < ci.estimate < ci.upper
        assert ci.estimate - ci.lower == pytest.approx(ci.upper - ci.estimate)

    def test_width_scales_inverse_sqrt_n(self):
        w100 = twocomp_quantile_ci(make_fit(n=100), 0.99, 0.05)
        w400 = twocomp_quantile_ci(make_fit(n=400), 0.99, 0.05)
        assert (w100.upper - w100.lower) == pytest.approx(
            2.0 * (w400.upper - w400.lower), rel=1e-10
        )

    def test_one_quantile_inversion(self, monkeypatch):
        from regflood import twocomp as twocomp_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return twocomp_quantile(*args, **kwargs)

        monkeypatch.setattr(twocomp_module, "twocomp_quantile", counting)
        ci = twocomp_quantile_ci(make_fit(), 0.99, 0.05)
        assert len(calls) == 1
        assert ci.estimate == twocomp_quantile(make_fit().model, 0.99)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            twocomp_quantile_ci(make_fit(), 0.99, 0.0)

    @pytest.mark.parametrize("alpha", [1e-17, 5e-324])
    def test_alpha_too_small_for_a_finite_z(self, alpha):
        # 1 - alpha/2 rounds to 1, where the normal quantile is infinite
        with pytest.raises(NumericError, match="leaves the float range"):
            twocomp_quantile_ci(make_fit(), 0.99, alpha)

    def test_affine_transform_scales_width(self):
        # x -> a x + b maps (mu, sigma) -> (a mu + b, a sigma) and the
        # moment covariances by the same affine push-forward
        a, b = 2.5, 3.0
        scale = np.diag([a, a, 1.0])
        fit = make_fit()
        moved = SeasonalFit(
            GevParams(a * THETA_W.mu + b, a * THETA_W.sigma, THETA_W.xi),
            GevParams(a * THETA_S.mu + b, a * THETA_S.sigma, THETA_S.xi),
            scale @ SIGMA_W @ scale.T,
            scale @ SIGMA_S @ scale.T,
            fit.n,
        )
        ci = twocomp_quantile_ci(fit, 0.99, 0.05)
        ci_moved = twocomp_quantile_ci(moved, 0.99, 0.05)
        assert ci_moved.estimate == pytest.approx(a * ci.estimate + b, rel=1e-9)
        assert (ci_moved.upper - ci_moved.lower) == pytest.approx(
            a * (ci.upper - ci.lower), rel=1e-9
        )


class TestSeasonalFit:
    def test_identical_schemes_agree(self):
        winter, summer = make_seasonal_schemes(seed=5)
        fit = fit_seasonal_regional(winter, winter, "s1", "TL")
        assert fit.theta_w == fit.theta_s
        np.testing.assert_allclose(fit.sigma_w, fit.sigma_s)

    def test_single_site_degenerates_to_local(self):
        winter, summer = make_seasonal_schemes(seed=6, d=1)
        fit = fit_seasonal_regional(winter, summer, "s1", "L")
        assert fit.n == 100
        assert fit.diagnostics["winter"].shape.weights == pytest.approx([1.0])

    def test_regional_shape_beats_local_variance(self):
        # homogeneous region: replication spread of the regional shape
        # is below the local one
        regional, local = [], []
        for r in range(60):
            winter, summer = make_seasonal_schemes(seed=200 + r, d=6, n=50)
            fit = fit_seasonal_regional(winter, summer, "s1", "L")
            regional.append(fit.theta_w.xi)
            local.append(fit.diagnostics["winter"].local_theta.xi)
        assert np.var(regional) < np.var(local)

    def test_missing_target_site(self):
        winter, summer = make_seasonal_schemes()
        with pytest.raises(Exception):
            fit_seasonal_regional(winter, summer, "ghost", "L")

    def test_correlation_diagnostic_present(self):
        winter, summer = make_seasonal_schemes(seed=9)
        fit = fit_seasonal_regional(winter, summer, "s1", "L")
        corr = fit.diagnostics["season_correlation"]
        assert corr is not None and abs(corr) < 0.5


class TestSingleGevInterval:
    def test_variance_positive_and_interval_ordered(self):
        from regflood.regional import fit_gev_regional

        winter, _ = make_seasonal_schemes(seed=12, d=3)
        fit = fit_gev_regional(winter, "s1", "L")
        var = gev_quantile_variance(fit.theta, fit.covariance, 0.99)
        assert var > 0
        ci = gev_quantile_ci(fit, 0.99, 0.05)
        assert ci.lower < ci.estimate < ci.upper
