"""Observation scheme, PWM covariance and regional shape tests."""

import importlib.util
import sys
import warnings
from dataclasses import astuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import chdtrc
from scipy.stats import chi2, kstest

from regflood.errors import DataError, NumericError, ParameterError, RegfloodError
from regflood.gev import GevParams, gev_quantile
from regflood import regional as regional_module
from regflood.moments import _moment_method, sample_pwm, sample_pwm_unbiased, shape_from_lmoments
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
from regflood.ingest import SeasonalSchemes
from regflood.simlab import ESTIMATOR_NAMES, quantile_function
from regflood.tail import (
    DEPENDENCE_METHODS,
    TailConfig,
    TailDependence,
    regional_tail_fit,
    weissman_ci,
)
from regflood.twocomp import fit_seasonal_regional, gev_quantile_ci, twocomp_quantile_ci


def make_scheme(seed=0, d=4, n=80, xi=0.2, offsets=None):
    rng = np.random.default_rng(seed)
    offsets = offsets or [0] * d
    sites = []
    for j in range(d):
        nj = n - offsets[j]
        series = gev_quantile(GevParams(2, 1, xi), rng.uniform(size=nj))
        sites.append(SiteSeries(f"s{j + 1}", offsets[j], series))
    return ObservationScheme(tuple(sites))


def _gumbel_region(seed=1):
    """Three sites x 30 years of Gumbel maxima."""
    rng = np.random.default_rng(seed)
    return gev_quantile(GevParams(10, 2, 0.0), rng.uniform(size=(30, 3)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.linspace(1.0, 2.0, 30)
        values[7] = bad
        with pytest.raises(DataError, match="site 'b'"):
            SiteSeries("b", 0, values)
        data = _gumbel_region()
        data[4, 1] = bad
        with pytest.raises(DataError, match="site 'site2'.*finite"):
            ObservationScheme.from_matrix(data)

    def test_offset_must_be_an_integer(self):
        # an integral float becomes an int; a fractional one used to pass and
        # then break slicing in the tail lane with a bare TypeError; a string or a
        # bool is not a count
        site = SiteSeries("b", 2.0, np.ones(5))
        assert site.offset == 2 and isinstance(site.offset, int)
        for bad in (2.5, np.nan, "two", "2", True):
            with pytest.raises(DataError, match="site 'b': offset must be an integer"):
                SiteSeries("b", bad, np.ones(5))

    def test_empty_subset_rejected(self):
        with pytest.raises(DataError, match="at least one site"):
            make_scheme(d=2).subset([])

    @pytest.mark.parametrize("ids", [["a"], ["a", "b"], ["a", "b", "c", "d"]])
    def test_from_matrix_needs_one_id_per_column(self, ids):
        with pytest.raises(DataError, match=f"{len(ids)} site ids for 3 columns"):
            ObservationScheme.from_matrix(np.ones((10, 3)), ids)
        assert ObservationScheme.from_matrix(np.ones((10, 3)), ["x", "y", "z"]).d == 3

    def test_properties(self):
        scheme = make_scheme(d=3, n=50, offsets=[0, 10, 20])
        assert scheme.n == 50
        assert list(scheme.offsets) == [0, 10, 20]
        assert list(scheme.lengths) == [50, 40, 30]
        np.testing.assert_allclose(scheme.ratios, [1.0, 0.8, 0.6])
        assert scheme.site_index("s2") == 1
        with pytest.raises(DataError):
            scheme.site_index("nope")

    def test_site_arrays_are_computed_once_and_read_only(self):
        scheme = make_scheme(d=3, n=50, offsets=[0, 10, 20])
        padded = np.full((3, 50), -np.inf)
        for j, site in enumerate(scheme.sites):
            padded[j, site.offset:] = site.values
        expected = {
            "offsets": [0, 10, 20],
            "lengths": [50, 40, 30],
            "ratios": [1.0, 0.8, 0.6],
            "_padded": padded,
            "_order": np.argsort(padded, axis=-1, kind="stable"),
        }
        for name, value in expected.items():
            array = getattr(scheme, name)
            assert getattr(scheme, name) is array
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
            np.testing.assert_array_equal(array, value)
        assert list(scheme.lengths) == [50, 40, 30]
        # the per-start rank tables and the PWM covariance of each order asked for
        fresh = ObservationScheme(scheme.sites)
        tables = regional_module._start_ranks(expected["_order"], np.array([0, 10, 20]))
        reads = [(lambda i=i: scheme._rank_tables[i], table) for i, table in enumerate(tables)]
        reads += [(lambda K=K: sigma_r_hat(scheme, K), sigma_r_hat(fresh, K)) for K in (2, 4)]
        for read, value in reads:
            array = read()
            assert read() is array
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
            np.testing.assert_array_equal(array, value)
        assert scheme._rank_tables is scheme._rank_tables


    @pytest.mark.parametrize("build", ["from_matrix", "SiteSeries"])
    def test_values_are_a_read_only_copy(self, build):
        # a fit cached on the scheme must not follow later edits of the caller's array
        x = gev_quantile(GevParams(2, 1, 0.2), np.random.default_rng(8).uniform(size=(60, 4)))
        if build == "from_matrix":
            scheme, unused = (ObservationScheme.from_matrix(x) for _ in range(2))
        else:
            offsets = [0, 5, 0, 12]
            scheme, unused = (
                ObservationScheme(tuple(
                    SiteSeries(f"s{j}", a, x[a:, j]) for j, a in enumerate(offsets)
                ))
                for _ in range(2)
            )

        def outputs(scheme):
            shape = regional_shape(scheme)
            tail = regional_tail_fit(scheme)
            dependence = TailDependence.from_scheme(scheme, tail.k)
            return [shape.xi, shape.weights, sigma_r_hat(scheme, 4), tail.gamma, tail.gammas,
                    tail.thresholds, dependence.matrix(np.full(4, 0.5))]

        before = outputs(scheme)
        x[:30] *= 1.5
        for got in (outputs(scheme), outputs(unused)):
            for a, b in zip(got, before):
                np.testing.assert_array_equal(a, b)
        for site in scheme.sites:
            with pytest.raises(ValueError, match="read-only"):
                site.values[0] = 7.0


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
        matrix = sigma_r_hat(scheme, 1)
        data = np.column_stack([s.values for s in scheme.sites])
        np.testing.assert_allclose(matrix, np.cov(data.T, ddof=1), rtol=1e-10)

    def test_single_site_variance(self):
        scheme = ObservationScheme((SiteSeries("a", 0, np.array([1.0, 2, 3, 4, 5])),))
        matrix = sigma_r_hat(scheme, 1)
        assert matrix[0, 0] == pytest.approx(2.5)

    def test_two_site_hand_case(self):
        scheme = ObservationScheme(
            (
                SiteSeries("a", 0, np.array([1.0, 2, 3, 4, 5])),
                SiteSeries("b", 2, np.array([2.0, 1, 3])),
            )
        )
        matrix = sigma_r_hat(scheme, 1)
        # overlap years 3..5 pair (3,4,5) with (2,1,3): cov = 0.5,
        # prefactor min(1, .6)/(1*.6) = 1
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[1, 0] == pytest.approx(0.5)
        assert matrix[0, 0] == pytest.approx(2.5)
        # own block of the short site: var(2,1,3) = 1, prefactor 1/0.6
        assert matrix[1, 1] == pytest.approx(1.0 / 0.6)

    def test_symmetry_with_k3(self):
        scheme = make_scheme(d=4, n=70, offsets=[0, 0, 15, 30])
        matrix = sigma_r_hat(scheme, 3)
        np.testing.assert_array_equal(matrix, matrix.T)
        assert matrix.shape == (12, 12)

    @pytest.mark.parametrize("K", [3, 4])
    def test_matches_per_pair_loop_on_staggered_scheme(self, K):
        # rows centred over each site's own record give the blocks of centring
        # afresh over every pair's overlap: exactly on the equal-length scheme,
        # within PWM_COV_RTOL of the largest entry on the staggered, tied and
        # 40-site staggered ones (the overlap mean cancels only in exact
        # arithmetic); the matrix is symmetric bit for bit on every scheme
        for scheme in _reference_schemes():
            matrix, expected = sigma_r_hat(scheme, K), _sigma_r_per_pair(scheme, K)
            np.testing.assert_array_equal(matrix, matrix.T)
            if scheme.offsets.any():
                atol = PWM_COV_RTOL * np.abs(expected).max()
                np.testing.assert_allclose(matrix, expected, rtol=0, atol=atol)
            else:
                np.testing.assert_array_equal(matrix, expected)


# Largest change of a PWM covariance entry against the per-pair reference, as a
# share of the matrix's largest entry: 1.4e-16 measured on the reference schemes
PWM_COV_RTOL = 1e-15


def _reference_schemes():
    staggered = make_scheme(seed=3, d=6, n=75, offsets=[0, 0, 12, 25, 25, 40])
    tied = ObservationScheme(
        tuple(SiteSeries(s.site_id, s.offset, np.round(s.values, 1)) for s in staggered.sites)
    )
    wide_offsets = [0] + np.random.default_rng(8).integers(0, 45, size=39).tolist()
    return [
        staggered,
        tied,
        make_scheme(seed=4, d=5, n=40),
        make_scheme(seed=5, d=40, n=60, offsets=wide_offsets),
    ]


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
    @pytest.mark.parametrize("method", ["L", "TL"])
    def test_matches_per_pair_reference(self, method):
        # entry (j, l) is g_j @ block_jl @ g_l, symmetrized, on every scheme:
        # exactly on the equal-length scheme, elsewhere within the PWM
        # covariance tolerance carried through the gradients,
        # |g_j|_1 |g_l|_1 PWM_COV_RTOL max|Sigma_R|
        spec = _moment_method(method)
        K = spec.order
        for scheme in _reference_schemes():
            pwms = [sample_pwm_unbiased(s.values, K - 1) for s in scheme.sites]
            grads = [spec.shape_gradient(pwm) for pwm in pwms]
            cov = _sigma_r_per_pair(scheme, K)
            expected = np.empty((scheme.d, scheme.d))
            for j in range(scheme.d):
                for l in range(scheme.d):
                    block = cov[j * K : (j + 1) * K, l * K : (l + 1) * K]
                    expected[j, l] = grads[j] @ block @ grads[l]
            expected = 0.5 * (expected + expected.T)
            xi_hats, sigma = sigma_tail_hat(scheme, method)
            if scheme.offsets.any():
                g1 = np.abs(grads).sum(axis=1)
                atol = PWM_COV_RTOL * np.abs(cov).max() * np.outer(g1, g1)
                assert np.all(np.abs(sigma - expected) <= atol)
            else:
                np.testing.assert_array_equal(sigma, expected)
            np.testing.assert_array_equal(xi_hats, [spec.shape(pwm) for pwm in pwms])

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
        # so are an empty covariance and fallbacks of the wrong length or with a
        # zero or overflowing sum
        for sigma, fallback in ((np.zeros((0, 0)), None), (np.eye(3), [1, 1]),
                                (np.ones((3, 3)), [0, 0, 0]), (np.ones((3, 3)), [1e308] * 3)):
            with pytest.raises(ParameterError):
                optimal_weights(sigma, fallback)

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

    def test_keeps_the_shape_system(self):
        scheme = make_scheme(d=4, n=60, offsets=[0, 5, 5, 20])
        result = regional_shape(scheme, "TL", pwm_estimator="plugin")
        spec = _moment_method("TL")
        pwms = [sample_pwm(s.values, 3) for s in scheme.sites]
        np.testing.assert_array_equal([p.values for p in result.pwms], [p.values for p in pwms])
        np.testing.assert_array_equal(
            result.shape_gradients, [spec.shape_gradient(p) for p in pwms]
        )
        np.testing.assert_array_equal(result.pwm_covariance, sigma_r_hat(scheme, 4))
        assert "pwm_covariance" not in repr(result)

    @pytest.mark.parametrize("pwm_estimator", ["unbiased", "plugin"])
    def test_constant_site_rejected(self, pwm_estimator):
        # an all-equal site has no shape: unbiased PWMs gave xi_hat = 14.9 from
        # rounding, plug-in PWMs a bare division by zero
        data = _gumbel_region()
        data[:, 1] = 5.0
        scheme = ObservationScheme.from_matrix(data)
        for call in (
            lambda: regional_shape(scheme, "TL", pwm_estimator),
            lambda: fit_gev_regional(scheme, "site1", "L", pwm_estimator),
            lambda: homogeneity_test(scheme, "TL", pwm_estimator),
            lambda: fit_seasonal_regional(scheme, scheme, "site3", "TL", pwm_estimator),
        ):
            with pytest.raises(DataError, match="site 'site2'"):
                call()

    def test_non_finite_shape_covariance_rejected(self):
        # the shape gradients would overflow at this scale: the square of their
        # ratio denominator underflows to 0, which the gradient itself reports
        scheme = ObservationScheme.from_matrix(_gumbel_region() * 1e-300)
        for call in (regional_shape, homogeneity_test, sigma_tail_hat,
                     lambda s: fit_gev_regional(s, "site1")):
            with pytest.raises(NumericError, match="site 'site1'.*floating-point range"):
                call(scheme)

    def test_huge_scale_overflows_the_shape_covariance(self):
        # finite data can still overflow the PWM covariance (from 1e153 here), which
        # sigma_r_hat used to return with inf entries and an overflow warning; from
        # 1e155 on the site's own shape fit overflows first
        for scale, message in ((1e153, "not finite"), (1e300, "site 'site1'")):
            scheme = ObservationScheme.from_matrix(_gumbel_region() * scale)
            with pytest.raises(NumericError, match=message):
                regional_shape(scheme)
            with pytest.raises(NumericError, match="PWM covariance is not finite"):
                sigma_r_hat(scheme, 4)

    def test_overflowing_pwms_raise_numeric_error(self):
        # finite data near the float limit overflow the PWM sums themselves: the
        # sample PWMs, influence rows and regional shape came back non-finite or
        # raised only after a bare overflow warning
        data = _gumbel_region() * 1e307
        scheme = ObservationScheme.from_matrix(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: sample_pwm(data[:, 0], 3),
                         lambda: sample_pwm_unbiased(data[:, 0], 3),
                         lambda: zhat_vectors(data[:, 0], 4),
                         lambda: regional_shape(scheme, "TL", "plugin"),
                         lambda: regional_shape(scheme)):
                with pytest.raises(NumericError, match="overflows the sample PWMs"):
                    call()

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


class TestChi2Tail:
    """The homogeneity p-value's chi-square tail against scipy.special.chdtrc."""

    def test_matches_scipy(self):
        rng = np.random.default_rng(400)
        for df in range(1, 401):
            xs = np.concatenate([np.linspace(0.0, 3 * df + 50, 25), rng.uniform(0, 3 * df + 50, 5)])
            ours = [regional_module._chi2_tail(df, x) for x in xs.tolist()]
            np.testing.assert_allclose(ours, chdtrc(df, xs), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1e-300, -1.0, -np.inf])
    def test_no_positive_statistic_gives_one(self, x):
        assert regional_module._chi2_tail(3, x) == 1.0
        assert regional_module._chi2_tail(4, x) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 2000])
    def test_nan_stays_nan(self, df):
        assert np.isnan(regional_module._chi2_tail(df, np.nan))

    @pytest.mark.parametrize("df", [1, 2, 1999, 2000])
    def test_large_df_neither_overflows_nor_breaks(self, df):
        assert regional_module._chi2_tail(df, 2000.0) == pytest.approx(
            float(chdtrc(df, 2000.0)), rel=1e-12
        )
        assert regional_module._chi2_tail(df, 1e6) == 0.0
        assert regional_module._chi2_tail(df, np.inf) == 0.0


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

    @pytest.mark.parametrize("method", ["L", "TL"])
    @pytest.mark.parametrize("scale", [1e-6, 1e-2, 1e3])
    def test_covariance_follows_the_data_units(self, method, scale):
        # (mu, sigma) carry the data's units and xi none, so scaling the data by
        # s scales the covariance by D = diag(s, s, 1) on both sides; a step of
        # fixed size for small PWMs broke this below s = 1
        data = gev_quantile(GevParams(2, 1, 0.2), np.random.default_rng(0).uniform(size=(60, 5)))
        base = fit_gev_regional(ObservationScheme.from_matrix(data), "site1", method)
        moved = fit_gev_regional(ObservationScheme.from_matrix(scale * data), "site1", method)
        units = np.diag([scale, scale, 1.0])
        np.testing.assert_allclose(moved.covariance, units @ base.covariance @ units, rtol=1e-6)

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


def _degenerate_schemes(seed, d, n, short_last, scale, decimals, constant, bad):
    """Winter, summer and annual schemes of GEV draws with the degeneracies asked for:
    a last site observed ``short_last`` (2) years only, rounding ties, a constant
    first site, an overall scale and one non-finite ``bad`` winter value."""
    rng = np.random.default_rng(seed)
    seasons = [gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=(n, d))) for _ in range(2)]
    for x in seasons:
        if decimals is not None:
            x[:] = np.round(x, decimals)
        if constant:
            x[:, 0] = 3.0
        x *= scale
    if bad is not None:
        seasons[0][-1, -1] = bad
    offsets = [0] * (d - 1) + [n - short_last if short_last else 0]

    def scheme(x):
        return ObservationScheme(
            tuple(SiteSeries(f"site{j + 1}", a, x[a:, j]) for j, a in enumerate(offsets))
        )

    return tuple(map(scheme, (*seasons, np.maximum(*seasons))))


def _estimates(winter, summer, annual):
    """Every regional entry point on one region, as (label, call returning numbers)."""
    target = annual.site_ids[0]
    calls = []
    for method in ("L", "TL"):
        for pwm in ("plugin", "unbiased"):
            calls.append((f"fit_gev_regional {method} {pwm}", lambda m=method, e=pwm: astuple(
                fit_gev_regional(annual, target, m, pwm_estimator=e).theta)))
        calls.append((f"homogeneity_test {method}", lambda m=method: homogeneity_test(annual, m)))
        calls.append((f"seasonal {method} interval", lambda m=method: astuple(twocomp_quantile_ci(
            fit_seasonal_regional(winter, summer, target, m), 0.99, 0.05))))
    for dependence in DEPENDENCE_METHODS:
        fit = partial(regional_tail_fit, annual, None, dependence)
        calls.append((f"regional_tail_fit {dependence}", lambda f=fit: f().gamma))
        calls.append((f"regional_tail_fit {dependence} interval",
                      lambda f=fit: astuple(f().interval(target, 0.99, 0.05))))
    schemes = SeasonalSchemes(winter, summer, annual)
    for name in ESTIMATOR_NAMES:
        calls.append((f"quantile_function {name}", lambda nm=name: quantile_function(
            nm, schemes, target)(0.99)))
    return calls


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    d=st.integers(1, 3),
    n=st.sampled_from([3, 4, 6, 12, 30]),
    short_last=st.sampled_from([None, 2]),
    scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
    decimals=st.sampled_from([None, 0, 1]),
    constant=st.booleans(),
    bad=st.sampled_from([None, None, None, np.nan, np.inf]),
)
def test_degenerate_input_gives_finite_estimates_or_package_errors(
    seed, d, n, short_last, scale, decimals, constant, bad
):
    # ties, a constant site, n = 3, a 2-year overlap, extreme scales, non-finite values
    try:
        schemes = _degenerate_schemes(seed, d, n, short_last, scale, decimals, constant, bad)
    except RegfloodError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, call in _estimates(*schemes):
            try:
                values = np.asarray(call(), dtype=float)
            except RegfloodError:
                continue
            assert np.all(np.isfinite(values)), (label, values)


# --------------------------------------------------------------------------
# Per-site oracle for the one-ranking kernel: each site sorted and ranked on
# its own with np.sort and searchsorted, as the sample functions once were
# --------------------------------------------------------------------------


def _per_site_pwm(x, k_max):
    xs = np.sort(x)
    ecdf = np.searchsorted(xs, x, side="right") / len(x)
    ks = np.arange(k_max + 1)
    return np.mean(x[:, None] * ecdf[:, None] ** ks[None, :], axis=0)


def _per_site_pwm_unbiased(x, k_max):
    xs = np.sort(x)
    n = len(xs)
    idx = np.arange(1, n + 1, dtype=float)
    betas = np.empty(k_max + 1)
    weights = np.ones(n)
    betas[0] = xs.mean()
    for k in range(1, k_max + 1):
        weights = weights * (idx - k) / (n - k)
        betas[k] = float(np.mean(weights * xs))
    return betas


def _per_site_zhat(x, K):
    n = len(x)
    xs = np.sort(x)
    ecdf_x = np.searchsorted(xs, x, side="right") / n
    ecdf_s = np.searchsorted(xs, xs, side="right") / n
    out = np.empty((n, K))
    out[:, 0] = x
    pos = np.searchsorted(xs, x, side="left")
    for k in range(1, K):
        v = xs * ecdf_s ** (k - 1)
        suffix = np.concatenate([np.cumsum(v[::-1])[::-1], [0.0]])
        out[:, k] = x * ecdf_x**k + (k / n) * suffix[pos]
    return out


def _per_site_block(padded, order, pad, K, pwm_estimator=None):
    """The kernel's result assembled site by site from the references above, each
    site's sample read off the padded rows and sorted on its own (``order`` unused)."""
    samples = [row[a:] for row, a in zip(padded, pad.tolist())]
    if pwm_estimator is not None:
        per_site = {"plugin": _per_site_pwm, "unbiased": _per_site_pwm_unbiased}[pwm_estimator]
        return np.array([per_site(np.asarray(x), K - 1) for x in samples])
    n = max(len(x) for x in samples)
    rows = np.zeros((n, len(samples), K))
    for j, x in enumerate(samples):
        rows[n - len(x):, j] = _per_site_zhat(np.asarray(x), K)
    return rows


def _oracle_scheme(seed):
    """A staggered scheme of 1-14 sites rounded to one decimal (ties), the first
    opening with a run of four equal values; every third has a 2-year late site."""
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(1, 15)), int(rng.integers(6, 90))
    offsets = [0] + rng.integers(0, n - 5, size=d - 1).tolist()
    if d > 1 and seed % 3 == 0:
        offsets[-1] = n - 2
    values = [np.round(gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=n - a)), 1)
              for a in offsets]
    values[0][:4] = values[0][0]
    return ObservationScheme(
        tuple(SiteSeries(f"s{j}", a, v) for j, (a, v) in enumerate(zip(offsets, values)))
    )


def _fit_outcome(scheme, target, method, pwm_estimator):
    """The fit's shape system and estimate, or the package error it raised."""
    try:
        fit = fit_gev_regional(scheme, target, method, pwm_estimator)
    except RegfloodError as exc:
        return type(exc), str(exc)
    shape = fit.shape
    return (np.array([p.values for p in shape.pwms]), shape.pwm_covariance,
            shape.diagnostics["sigma_tail"], np.array(astuple(fit.theta)), fit.covariance)


def test_one_ranking_matches_per_site_sorts_bit_for_bit(monkeypatch):
    for seed in range(200):
        scheme = _oracle_scheme(seed)
        target = scheme.site_ids[seed % scheme.d]
        for method in ("L", "TL"):
            for pwm_estimator in ("plugin", "unbiased"):
                got = _fit_outcome(scheme, target, method, pwm_estimator)
                with monkeypatch.context() as patch:  # a new scheme: none of its own cache
                    patch.setattr(regional_module, "_ranked_block", _per_site_block)
                    expected = _fit_outcome(_oracle_scheme(seed), target, method, pwm_estimator)
                assert len(got) == len(expected), (seed, method, pwm_estimator)
                for a, b in zip(got, expected):
                    np.testing.assert_array_equal(a, b, err_msg=f"{seed} {method} {pwm_estimator}")


def test_one_ranking_per_scheme(monkeypatch):
    # the region-wide pipeline, run twice, sorts the staggered scheme once
    sorted_shapes = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        sorted_shapes.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    scheme = make_scheme(d=6, n=70, offsets=[0, 10, 0, 25, 40, 5])
    monkeypatch.setattr(np, "argsort", counting)
    for _ in range(2):
        stat, p_value = homogeneity_test(scheme, "TL")
        fit = fit_gev_regional(scheme, "s1", "TL")
        gev_quantile_ci(fit, 0.99, 0.05)
        regional_tail_fit(scheme).interval("s1", 0.99, 0.05)
    assert sorted_shapes == [(6, 70)]


def _region_pipeline(scheme):
    """The benchmark's region-wide pipeline at the scheme's first site: its 12 values
    and the moment fit."""
    target = scheme.site_ids[0]
    stat, p_value = homogeneity_test(scheme, "TL")
    fit = fit_gev_regional(scheme, target, "TL")
    gev_ci = gev_quantile_ci(fit, 0.99, 0.05)
    tail_fit = regional_tail_fit(scheme, dependence_method="empirical")
    w_ci = weissman_ci(
        scheme, TailConfig(k=tail_fit.k, weights=tail_fit.weights), target, 0.99, 0.05
    )
    values = [stat, p_value, *astuple(fit.theta), gev_ci.estimate, gev_ci.lower, gev_ci.upper,
              tail_fit.gamma, w_ci.estimate, w_ci.lower, w_ci.upper]
    return values, fit


def test_one_pwm_covariance_and_one_rank_count_per_scheme(monkeypatch):
    # the region-wide pipeline, run twice, takes the staggered scheme's PWM covariance
    # once per order and counts its per-start ranks once; each used to run 4 times
    calls = []
    for name, key in (("_pwm_covariance", lambda rows: rows.shape[-1]),
                      ("_start_ranks", lambda order: order.shape)):
        def counting(first, *args, _kernel=getattr(regional_module, name), _name=name, _key=key):
            calls.append((_name, _key(first)))
            return _kernel(first, *args)

        monkeypatch.setattr(regional_module, name, counting)
    scheme = make_scheme(d=6, n=70, offsets=[0, 10, 0, 25, 40, 5])
    for _ in range(2):
        _region_pipeline(scheme)
    assert sorted(calls) == [("_pwm_covariance", 4), ("_start_ranks", (6, 70))]
    for method in ("L", "L", "TL"):  # a new order adds its own matrix
        homogeneity_test(scheme, method)
    assert sorted(calls) == [("_pwm_covariance", 3), ("_pwm_covariance", 4),
                             ("_start_ranks", (6, 70))]


def _region_wide_scheme(monkeypatch, seed):
    """Region 0 of the benchmark's seeded region-wide pool: 40 staggered sites over
    100 years, drawn without the package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look it up
    spec.loader.exec_module(gen)
    region = gen.staggered_region(seed, 0)
    return ObservationScheme(tuple(
        SiteSeries(*site) for site in zip(region.site_ids, region.offsets, region.values)
    ))


# The region-wide pipeline's values before the scheme kept its PWM covariance
# and rank tables, per pool seed
REGION_PIPELINE_VALUES = {
    1: [98.6767356863223, 4.468183897943973e-07, 8.295757333789728, 2.7204570693821104,
        0.19305963824717892, 28.453541347526787, 24.0548805211088, 32.852202173944775,
        0.24648642740883778, 27.82525452299816, 20.56665611513715, 35.08385293085917],
    4000: [204.025694745775, 3.1580617577089124e-24, 12.197950887369132, 3.2248440506422473,
           0.1845702871394781, 35.56571183431201, 30.508450966400826, 40.622972702223194,
           0.21432919199992695, 32.08074043793018, 24.9622468581222, 39.19923401773816],
    20250810: [122.09098079631995, 1.7086783354849308e-10, 14.791995617671208,
               4.3140760959244515, 0.23414661947578017, 50.46548747381982, 43.506005578915406,
               57.424969368724234, 0.2643392356730153, 50.1693656941209, 35.5514524126191,
               64.7872789756227],
}


@pytest.mark.parametrize("seed", sorted(REGION_PIPELINE_VALUES))
def test_the_scheme_tables_change_no_value(monkeypatch, seed):
    # bit for bit: a second run reads the tables the first left on the scheme
    scheme = _region_wide_scheme(monkeypatch, seed)
    first, fit = _region_pipeline(scheme)
    again, _ = _region_pipeline(scheme)
    fresh, _ = _region_pipeline(ObservationScheme(scheme.sites))
    assert first == again == fresh == REGION_PIPELINE_VALUES[seed]
    assert fit.shape.pwm_covariance is sigma_r_hat(scheme, 4)


def test_one_column_calls_match_per_site_sorts_bit_for_bit():
    rng = np.random.default_rng(16)
    for i in range(600):
        n, K = int(rng.integers(2, 300)), int(rng.integers(1, 6))
        x = gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=n))
        if i % 2:
            x = np.round(x, i % 3)
        np.testing.assert_array_equal(sample_pwm(x, K - 1).values, _per_site_pwm(x, K - 1))
        np.testing.assert_array_equal(zhat_vectors(x, K), _per_site_zhat(x, K))
        if K <= n:
            np.testing.assert_array_equal(
                sample_pwm_unbiased(x, K - 1).values, _per_site_pwm_unbiased(x, K - 1)
            )
