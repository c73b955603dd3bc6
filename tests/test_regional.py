"""Observation scheme, PWM covariance and regional shape tests."""

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from regflood.errors import DataError, NumericError, ParameterError
from regflood.gev import GevParams, gev_quantile
from regflood import regional as regional_module
from regflood.moments import sample_pwm, sample_pwm_unbiased, shape_from_lmoments
from regflood.regional import (
    ObservationScheme,
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


def make_scheme(seed=0, d=4, n=80, xi=0.2, offsets=None):
    rng = np.random.default_rng(seed)
    offsets = offsets or [0] * d
    sites = []
    for j in range(d):
        nj = n - offsets[j]
        series = gev_quantile(GevParams(2, 1, xi), rng.uniform(size=nj))
        sites.append(SiteSeries(f"s{j + 1}", offsets[j], series))
    return ObservationScheme(tuple(sites))


class TestScheme:
    def test_validation(self):
        with pytest.raises(DataError):
            ObservationScheme(())
        with pytest.raises(DataError):
            # ends differ
            ObservationScheme(
                (SiteSeries("a", 0, np.ones(5)), SiteSeries("b", 0, np.ones(4)))
            )
        with pytest.raises(DataError):
            # nobody spans the full period
            ObservationScheme(
                (SiteSeries("a", 1, np.ones(4)), SiteSeries("b", 2, np.ones(3)))
            )

    def test_properties(self):
        scheme = make_scheme(d=3, n=50, offsets=[0, 10, 20])
        assert scheme.n == 50
        assert list(scheme.lengths) == [50, 40, 30]
        np.testing.assert_allclose(scheme.ratios, [1.0, 0.8, 0.6])
        assert scheme.site_index("s2") == 1
        with pytest.raises(DataError):
            scheme.site_index("nope")


class TestZhat:
    def test_k0_column_is_raw_data(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(2, size=30)
        z = zhat_vectors(x, 3)
        np.testing.assert_allclose(z[:, 0], x)

    def test_two_point_hand_case(self):
        # brute-force evaluation on {1, 2}: Fhat = (1/2, 1);
        # correction for k=1 is (1/n) * sum_l x_l * 1{x_i <= x_l}
        z = zhat_vectors([1.0, 2.0], 2)
        np.testing.assert_allclose(z, [[1.0, 2.0], [2.0, 3.0]])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        x = rng.gamma(2, size=17)
        n = len(x)
        ecdf = lambda v: np.sum(x <= v) / n  # noqa: E731
        K = 4
        expected = np.empty((n, K))
        for i in range(n):
            for k in range(K):
                corr = sum(
                    x[l] * k * ecdf(x[l]) ** (k - 1) * (x[i] <= x[l])
                    for l in range(n)
                )
                expected[i, k] = x[i] * ecdf(x[i]) ** k + corr / n
        np.testing.assert_allclose(zhat_vectors(x, K), expected, rtol=1e-12)

    def test_permutation_permutes_rows(self):
        rng = np.random.default_rng(7)
        x = rng.gamma(2, size=25)
        perm = rng.permutation(len(x))
        np.testing.assert_allclose(
            zhat_vectors(x[perm], 3), zhat_vectors(x, 3)[perm], rtol=1e-12
        )


class TestSigmaR:
    def test_equal_lengths_prefactor_one_k1(self):
        # with K = 1 the influence rows are the raw data, so the matrix
        # is the plain empirical covariance of the annual maxima
        scheme = make_scheme(d=3, n=60)
        blocks = sigma_r_hat(scheme, 1)
        data = np.column_stack([s.values for s in scheme.sites])
        np.testing.assert_allclose(blocks.matrix, np.cov(data.T, ddof=1), rtol=1e-10)

    def test_single_site_variance(self):
        scheme = ObservationScheme((SiteSeries("a", 0, np.array([1.0, 2, 3, 4, 5])),))
        blocks = sigma_r_hat(scheme, 1)
        assert blocks.matrix[0, 0] == pytest.approx(2.5)

    def test_two_site_hand_case(self):
        scheme = ObservationScheme(
            (
                SiteSeries("a", 0, np.array([1.0, 2, 3, 4, 5])),
                SiteSeries("b", 2, np.array([2.0, 1, 3])),
            )
        )
        blocks = sigma_r_hat(scheme, 1)
        # overlap years 3..5 pair (3,4,5) with (2,1,3): cov = 0.5,
        # prefactor min(1, .6)/(1*.6) = 1
        assert blocks.matrix[0, 1] == pytest.approx(0.5)
        assert blocks.matrix[1, 0] == pytest.approx(0.5)
        assert blocks.matrix[0, 0] == pytest.approx(2.5)
        # own block of the short site: var(2,1,3) = 1, prefactor 1/0.6
        assert blocks.matrix[1, 1] == pytest.approx(1.0 / 0.6)

    def test_symmetry_with_k3(self):
        scheme = make_scheme(d=4, n=70, offsets=[0, 0, 15, 30])
        blocks = sigma_r_hat(scheme, 3)
        np.testing.assert_allclose(blocks.matrix, blocks.matrix.T, atol=1e-12)
        assert blocks.matrix.shape == (12, 12)

    @pytest.mark.parametrize("K", [3, 4])
    def test_matches_per_pair_loop_on_staggered_scheme(self, K):
        # four distinct offsets: rows centred once per (site, overlap start)
        # must give exactly the blocks of centring afresh for every pair
        scheme = make_scheme(seed=3, d=6, n=75, offsets=[0, 0, 12, 25, 25, 40])
        np.testing.assert_array_equal(
            sigma_r_hat(scheme, K).matrix, _sigma_r_per_pair(scheme, K)
        )


def _sigma_r_per_pair(scheme, K):
    """Reference loop: each pair centres both sites' rows over its overlap."""
    d, n, r = scheme.d, scheme.n, scheme.ratios
    offsets = [s.offset for s in scheme.sites]
    zhats = [zhat_vectors(s.values, K) for s in scheme.sites]
    matrix = np.empty((d * K, d * K))
    for j in range(d):
        for l in range(j, d):
            start = max(offsets[j], offsets[l])
            zj = zhats[j][start - offsets[j] :]
            zl = zhats[l][start - offsets[l] :]
            zj = zj - zj.mean(axis=0)
            zl = zl - zl.mean(axis=0)
            cov = zj.T @ zl / (n - start - 1)
            pref = min(r[j], r[l]) / (r[j] * r[l])
            matrix[j * K : (j + 1) * K, l * K : (l + 1) * K] = pref * cov
            matrix[l * K : (l + 1) * K, j * K : (j + 1) * K] = pref * cov.T
    return matrix


class TestSigmaTail:
    def test_single_site_scalar(self):
        scheme = make_scheme(d=1, n=100)
        xi_hats, sigma = sigma_tail_hat(scheme, "L")
        assert xi_hats.shape == (1,)
        assert sigma.shape == (1, 1)
        assert sigma[0, 0] > 0

    def test_duplicated_site_is_singular(self):
        rng = np.random.default_rng(9)
        series = gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=60))
        scheme = ObservationScheme(
            (SiteSeries("a", 0, series), SiteSeries("b", 0, series.copy()))
        )
        xi_hats, sigma = sigma_tail_hat(scheme, "L")
        assert xi_hats[0] == pytest.approx(xi_hats[1])
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() == pytest.approx(0.0, abs=1e-8)

    def test_predicts_replication_variance(self):
        # simulation oracle: empirical variance of the local shape
        # estimate over replications should match diag(Sigma)/n
        rng = np.random.default_rng(11)
        n, reps = 1500, 800
        theta = GevParams(2, 1, 0.2)
        xis = np.empty(reps)
        preds = []
        for r in range(reps):
            data = gev_quantile(theta, rng.uniform(size=n))
            xis[r] = shape_from_lmoments(sample_pwm(data, 2))
            if r < 60:
                scheme = ObservationScheme((SiteSeries("a", 0, data),))
                _, sigma = sigma_tail_hat(scheme, "L")
                preds.append(sigma[0, 0] / n)
        emp = np.var(xis, ddof=1)
        assert np.mean(preds) == pytest.approx(emp, rel=0.25)


class TestWeights:
    def test_identity_gives_uniform(self):
        np.testing.assert_allclose(optimal_weights(np.eye(4)), np.full(4, 0.25))

    def test_diagonal_inverse_proportional(self):
        w = optimal_weights(np.diag([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(w, np.array([4, 2, 1]) / 7)

    def test_hand_case(self):
        w = optimal_weights(np.array([[1.0, 0.5], [0.5, 2.0]]))
        np.testing.assert_allclose(w, [0.75, 0.25])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ParameterError):
            optimal_weights(np.array([[1.0, 0.2], [0.6, 1.0]]))

    def test_degenerate_uses_fallback(self):
        sigma = np.ones((3, 3))  # rank one
        np.testing.assert_allclose(
            optimal_weights(sigma, fallback=np.array([2.0, 1.0, 1.0])),
            [0.5, 0.25, 0.25],
        )
        np.testing.assert_allclose(optimal_weights(sigma), np.full(3, 1 / 3))

    def test_minimizes_quadratic_form(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.5 * np.eye(3)
        w_opt = optimal_weights(sigma)
        assert w_opt.sum() == pytest.approx(1.0, abs=1e-12)
        best = w_opt @ sigma @ w_opt
        # dense grid over the sum-to-one plane
        for w1 in np.linspace(-0.5, 1.5, 41):
            for w2 in np.linspace(-0.5, 1.5, 41):
                w = np.array([w1, w2, 1 - w1 - w2])
                assert best <= w @ sigma @ w + 1e-12

    def test_fallback_weights(self):
        scheme = make_scheme(d=2, n=150, offsets=[0, 50])
        np.testing.assert_allclose(fallback_weights(scheme), [0.6, 0.4])


class TestRegionalShape:
    def test_single_site_is_local(self):
        scheme = make_scheme(d=1, n=90)
        result = regional_shape(scheme, "L")
        local = shape_from_lmoments(
            sample_pwm_unbiased(scheme.sites[0].values, 2)
        )
        assert result.xi == pytest.approx(local)
        np.testing.assert_allclose(result.weights, [1.0])
        plugin = regional_shape(scheme, "L", pwm_estimator="plugin")
        assert plugin.xi == pytest.approx(
            shape_from_lmoments(sample_pwm(scheme.sites[0].values, 2))
        )

    def test_weights_sum_to_one(self):
        result = regional_shape(make_scheme(d=5, n=60), "TL")
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_reordering(self):
        scheme = make_scheme(d=4, n=70, offsets=[0, 0, 10, 20])
        result = regional_shape(scheme, "L")
        reordered = ObservationScheme(tuple(reversed(scheme.sites)))
        result_r = regional_shape(reordered, "L")
        assert result.xi == pytest.approx(result_r.xi, rel=1e-10)

    def test_duplicated_site_falls_back(self):
        rng = np.random.default_rng(15)
        series = gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=50))
        scheme = ObservationScheme(
            (SiteSeries("a", 0, series), SiteSeries("b", 0, series.copy()))
        )
        result = regional_shape(scheme, "L")
        assert result.diagnostics["weights_source"] == "length-proportional"

    def test_regional_variance_not_worse(self):
        # homogeneous region: pooling should not increase the spread of
        # the shape estimate compared to single-site estimation
        reps = 120
        regional_xis, local_xis = [], []
        for r in range(reps):
            scheme = make_scheme(seed=100 + r, d=6, n=50)
            regional_xis.append(regional_shape(scheme, "L").xi)
            local_xis.append(
                shape_from_lmoments(sample_pwm(scheme.sites[0].values, 2))
            )
        assert np.var(regional_xis) < np.var(local_xis)


class TestHomogeneity:
    def test_needs_two_sites(self):
        with pytest.raises(ParameterError):
            homogeneity_test(make_scheme(d=1), "L")

    def test_two_site_statistic_is_squared_zscore(self):
        scheme = make_scheme(d=2, n=80)
        xi_hats, sigma = sigma_tail_hat(scheme, "L")
        stat, p = homogeneity_test(scheme, "L")
        diff = xi_hats[0] - xi_hats[1]
        var = sigma[0, 0] + sigma[1, 1] - 2 * sigma[0, 1]
        assert stat == pytest.approx(scheme.n * diff**2 / var, rel=1e-10)
        assert p == pytest.approx(float(chi2.sf(stat, 1)), abs=1e-12)

    def test_homogeneous_pvalues_roughly_uniform(self):
        pvals = [
            homogeneity_test(make_scheme(seed=500 + r, d=2, n=100), "L")[1]
            for r in range(1000)
        ]
        # Kolmogorov distance to U(0,1) below 0.1 for the two-site case
        dist = kstest(pvals, "uniform").statistic
        assert dist < 0.1

    def test_many_site_anticonservativeness_is_bounded(self):
        # with more contrasts the plug-in covariance bias inflates the
        # statistic; the measured deviation stays moderate and must not
        # silently grow
        pvals = [
            homogeneity_test(make_scheme(seed=900 + r, d=4, n=100), "L")[1]
            for r in range(400)
        ]
        assert kstest(pvals, "uniform").statistic < 0.25
        assert np.mean(np.asarray(pvals) < 0.05) < 0.25

    def test_duplicated_site_raises(self):
        rng = np.random.default_rng(21)
        series = gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=40))
        scheme = ObservationScheme(
            (SiteSeries("a", 0, series), SiteSeries("b", 0, series.copy()))
        )
        with pytest.raises(NumericError, match="duplicated"):
            homogeneity_test(scheme, "L")

    @pytest.mark.parametrize("method", ["L", "TL"])
    def test_equals_statistic_read_off_the_fit(self, method):
        scheme = make_scheme(d=5, n=60, offsets=[0, 0, 8, 15, 30])
        fit = fit_gev_regional(scheme, "s3", method)
        assert homogeneity_test(scheme, method) == fit.shape.homogeneity()
        assert fit.shape.n == scheme.n


class TestFitGevRegional:
    def test_shape_is_regional_location_is_local(self):
        scheme = make_scheme(d=4, n=90)
        fit = fit_gev_regional(scheme, "s2", "L")
        assert fit.theta.xi == pytest.approx(regional_shape(scheme, "L").xi)
        assert fit.theta.mu == pytest.approx(fit.local_theta.mu)
        assert fit.covariance.shape == (3, 3)
        eigs = np.linalg.eigvalsh(fit.covariance)
        assert eigs.min() > -1e-10
        assert fit.n_effective == 90

    def test_missing_site(self):
        with pytest.raises(DataError):
            fit_gev_regional(make_scheme(d=2), "ghost", "L")

    def test_one_pwm_covariance_per_fit(self, monkeypatch):
        calls = []
        original = regional_module.sigma_r_hat

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(regional_module, "sigma_r_hat", counting)
        scheme = make_scheme(d=4, n=60, offsets=[0, 5, 10, 20])
        fit_gev_regional(scheme, "s2", "TL")
        assert len(calls) == 1
