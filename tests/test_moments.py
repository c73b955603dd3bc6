"""PWM, (trimmed) L-moment and parameter-recovery tests."""

import math
import warnings
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize
from scipy.special import gamma as gamma_fn

from regflood import moments
from regflood.errors import DataError, NumericError, ParameterError, RegfloodError
from regflood.gev import GevParams, gev_quantile
from regflood.ingest import MonthlyTable, seasonal_maxima
from regflood.moments import (
    PwmVector,
    gev_from_lmoments,
    gev_from_tlmoments,
    gev_fit_gradient,
    pwm_of_gev,
    sample_pwm,
    sample_pwm_unbiased,
    shape_from_lmoments,
    shape_from_tlmoments,
    shape_gradient_lmoments,
    shape_gradient_tlmoments,
)
from regflood.regional import ObservationScheme, sigma_r_hat, zhat_vectors
from regflood.tail import (
    hill,
    pickands_cfg,
    tail_dependence_empirical,
    tail_prob,
    weissman_quantile,
)


def closed_form_pwm(params: GevParams, k: int) -> float:
    """Independent oracle: the textbook GEV PWM formula."""
    if abs(params.xi) < 1e-9:
        return (params.mu + params.sigma * (np.euler_gamma + math.log(k + 1))) / (k + 1)
    return (
        params.mu
        + params.sigma * ((k + 1) ** params.xi * gamma_fn(1 - params.xi) - 1) / params.xi
    ) / (k + 1)


def exact_pwms(params: GevParams, order: int = 4) -> PwmVector:
    return PwmVector([closed_form_pwm(params, k) for k in range(order)])


def exact_shape_l(pwm: PwmVector) -> float:
    """Reference shape: the root of the L-moment ratio equation
    (3^xi - 1)/(2^xi - 1) = (3b2 - b0)/(2b1 - b0)."""
    b0, b1, b2 = pwm[0], pwm[1], pwm[2]
    rhs = (3 * b2 - b0) / (2 * b1 - b0)

    def lhs(xi):
        if abs(xi) < 1e-9:
            return math.log(3) / math.log(2)
        return (3.0**xi - 1.0) / (2.0**xi - 1.0)

    return optimize.brentq(lambda xi: lhs(xi) - rhs, -10.0, 1.0 - 1e-10, xtol=1e-13)


def exact_shape_tl(pwm: PwmVector) -> float:
    """Reference shape: the root of the (0,1)-trimmed ratio equation."""
    b0, b1, b2, b3 = pwm[0], pwm[1], pwm[2], pwm[3]
    rhs = 2.0 * (18 * b2 - 9 * b1 + b0 - 10 * b3) / (4 * b1 - b0 - 3 * b2)

    def lhs(xi):
        if abs(xi) < 1e-9:
            return (19 * math.log(2) - 12 * math.log(3)) / (math.log(3) - 2 * math.log(2))
        return (5 * 4.0**xi - 12 * 3.0**xi + 9 * 2.0**xi - 2.0) / (
            3.0**xi - 2.0 ** (xi + 1) + 1.0
        )

    return optimize.brentq(lambda xi: lhs(xi) - rhs, -5.0, 1.0 - 1e-10, xtol=1e-13)


class TestPwmOfGev:
    def test_gumbel_mean_is_euler_gamma(self):
        assert pwm_of_gev(GevParams(0, 1, 0.0), 0) == pytest.approx(
            np.euler_gamma, abs=1e-10
        )

    def test_beta0_is_mean(self):
        params = GevParams(3, 2, 0.3)
        mean, _ = integrate.quad(
            lambda u: gev_quantile(params, u), 0, 1, epsabs=1e-12, limit=300
        )
        assert pwm_of_gev(params, 0) == pytest.approx(mean, abs=1e-9)

    def test_two_quadratures_agree(self):
        # tanh-sinh quadrature from a different library as the second,
        # independent rule (it handles the u -> 1 endpoint singularity)
        import mpmath

        params = GevParams(0, 1, 0.2)
        mpmath.mp.dps = 25

        def integrand(u):
            y = -mpmath.log(u)
            return (mpmath.power(y, -0.2) - 1) / 0.2 * u

        val = float(mpmath.quad(integrand, [0, 1]))
        assert pwm_of_gev(params, 1) == pytest.approx(val, abs=1e-8)

    @pytest.mark.parametrize("xi", [-0.4, -0.1, 0.1, 0.3, 0.6])
    def test_matches_closed_form(self, xi):
        params = GevParams(1.5, 0.7, xi)
        for k in range(4):
            assert pwm_of_gev(params, k) == pytest.approx(
                closed_form_pwm(params, k), abs=1e-9
            )

    def test_divergent_shape_rejected(self):
        with pytest.raises(ParameterError):
            pwm_of_gev(GevParams(0, 1, 1.0), 0)


class TestSamplePwm:
    def test_beta0_is_sample_mean(self):
        data = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert sample_pwm(data, 0)[0] == pytest.approx(data.mean())

    def test_hand_case(self):
        # (1/3)(1*(1/3) + 2*(2/3) + 3*1) = 14/9
        assert sample_pwm([1.0, 2.0, 3.0], 1)[1] == pytest.approx(14.0 / 9.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        data = rng.gamma(2, size=40)
        a = sample_pwm(data, 3).values
        b = sample_pwm(rng.permutation(data), 3).values
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_consistency_on_large_sample(self):
        rng = np.random.default_rng(7)
        params = GevParams(2, 1, 0.2)
        data = gev_quantile(params, rng.uniform(size=200_000))
        betas = sample_pwm(data, 2)
        for k in range(3):
            assert betas[k] == pytest.approx(pwm_of_gev(params, k), rel=5e-3)

    def test_short_sample_rejected(self):
        with pytest.raises(DataError):
            sample_pwm([1.0], 2)


class TestMomentMaps:
    def test_linearity_and_shift(self):
        # shifting a distribution by c moves its PWMs by c/(k+1); both
        # recovery maps must then move the location only
        theta = GevParams(2, 1, 0.2)
        base_pwm = exact_pwms(theta)
        c = 5.0
        shifted_pwm = PwmVector(base_pwm.values + c / np.arange(1, 5))
        for recover in (gev_from_lmoments, gev_from_tlmoments):
            base, shifted = recover(base_pwm), recover(shifted_pwm)
            assert shifted.mu == pytest.approx(base.mu + c)
            assert shifted.sigma == pytest.approx(base.sigma)
            assert shifted.xi == pytest.approx(base.xi)
        # positive scaling is exact even for plug-in sample PWMs
        rng = np.random.default_rng(3)
        data = rng.gamma(3, size=60)
        np.testing.assert_allclose(
            sample_pwm(3.0 * data, 3).values, 3.0 * sample_pwm(data, 3).values, rtol=1e-13
        )

    def test_point_mass_trimmed_scale_vanishes(self):
        # all plug-in PWMs of a constant sample equal the constant, so its
        # second trimmed L-moment is zero and the trimmed fit refuses it
        pwm = sample_pwm(np.full(6, 4.2), 3)
        np.testing.assert_allclose(pwm.values, 4.2, rtol=1e-14)
        with pytest.raises(DataError, match="second trimmed L-moment"):
            gev_from_tlmoments(pwm)

    def test_insufficient_order(self):
        with pytest.raises(ParameterError):
            gev_from_lmoments(PwmVector([1.0, 0.5]))
        with pytest.raises(ParameterError):
            gev_from_tlmoments(PwmVector([1.0, 0.5, 0.4]))


class TestGevFromLmoments:
    def test_gumbel_shape_recovered_exactly(self):
        # exact Gumbel PWMs give 2b1-b0 = sigma*log2 and 3b2-b0 =
        # sigma*log3, so the ratio offset vanishes identically
        pwm = exact_pwms(GevParams(0, 1, 0.0), order=3)
        fit = gev_from_lmoments(pwm)
        assert fit.xi == pytest.approx(0.0, abs=1e-12)
        assert fit.sigma == pytest.approx(1.0, abs=1e-9)
        assert fit.mu == pytest.approx(0.0, abs=1e-9)
        # and the quadrature oracle reproduces the same conclusion
        pwm_q = PwmVector([pwm_of_gev(GevParams(0, 1, 1e-12), k) for k in range(3)])
        assert gev_from_lmoments(pwm_q).xi == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("xi", [-0.4, -0.2, 0.0, 0.1, 0.2, 0.3, 0.4])
    def test_shape_error_bound(self, xi):
        pwm = exact_pwms(GevParams(0, 1, xi if xi else 1e-13), order=3)
        fit = gev_from_lmoments(pwm)
        assert abs(fit.xi - xi) <= 0.0009

    def test_exact_inversion_recovers(self, monkeypatch):
        # with the exact shape in place of the polynomial, the location and
        # scale equations invert the closed-form PWMs to rounding level
        monkeypatch.setattr(moments, "shape_from_lmoments", exact_shape_l)
        pwm = exact_pwms(GevParams(2, 1, 0.3), order=3)
        fit = gev_from_lmoments(pwm)
        assert fit.xi == pytest.approx(0.3, abs=1e-10)
        assert fit.sigma == pytest.approx(1.0, abs=1e-9)
        assert fit.mu == pytest.approx(2.0, abs=1e-9)

    def test_scale_equivariance_on_samples(self):
        # positive scaling leaves the empirical cdf untouched, so the
        # plug-in PWMs scale exactly
        rng = np.random.default_rng(11)
        data = gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=300))
        base = gev_from_lmoments(sample_pwm(data, 2))
        moved = gev_from_lmoments(sample_pwm(3.0 * data, 2))
        assert moved.xi == pytest.approx(base.xi, abs=1e-10)
        assert moved.sigma == pytest.approx(3.0 * base.sigma, rel=1e-10)
        assert moved.mu == pytest.approx(3.0 * base.mu, rel=1e-10)

    def test_affine_equivariance_of_map(self):
        # beta_k -> a*beta_k + b/(k+1) is the affine action on PWMs
        a, b = 3.0, 7.0
        pwm = exact_pwms(GevParams(2, 1, 0.2), order=3)
        moved = PwmVector(a * pwm.values + b / np.arange(1, 4))
        base_fit = gev_from_lmoments(pwm)
        moved_fit = gev_from_lmoments(moved)
        assert moved_fit.xi == pytest.approx(base_fit.xi, abs=1e-12)
        assert moved_fit.sigma == pytest.approx(a * base_fit.sigma, rel=1e-12)
        assert moved_fit.mu == pytest.approx(a * base_fit.mu + b, rel=1e-12)

    def test_shift_equivariance_is_first_order_in_samples(self):
        # the plug-in empirical cdf breaks exact shift equivariance by
        # O(1/n); verify the deviation shrinks at that rate
        shift = 50.0
        devs = []
        for n in (200, 800):
            rng = np.random.default_rng(17)
            data = gev_quantile(GevParams(2, 1, 0.2), rng.uniform(size=n))
            base = gev_from_lmoments(sample_pwm(data, 2))
            moved = gev_from_lmoments(sample_pwm(data + shift, 2))
            devs.append(abs(moved.xi - base.xi))
        assert devs[1] < devs[0]
        assert devs[0] < 0.5 * shift / 200

    def test_degenerate_sample(self):
        # lambda_2 = 0: the spacing information has collapsed
        with pytest.raises(DataError):
            gev_from_lmoments(PwmVector([1.0, 0.5, 1.0 / 3.0]))
        with pytest.raises(DataError):
            gev_from_lmoments(sample_pwm(np.zeros(5), 2))

    def test_shape_pole_rejected(self):
        # a moment ratio implying a shape at or beyond the Gamma pole
        from regflood.errors import NumericError

        assert gev_from_lmoments(PwmVector([1.0, 0.75, 2.0 / 3.0 + 1e-4])).xi < 1
        with pytest.raises(NumericError, match="infinite"):
            gev_from_lmoments(PwmVector([1.0, 0.76, 0.69]))


class TestGevFromTlmoments:
    def test_round_trip_tolerance(self):
        pwm = exact_pwms(GevParams(2, 1, 0.2))
        fit = gev_from_tlmoments(pwm)
        assert abs(fit.xi - 0.2) <= 0.005
        assert fit.sigma == pytest.approx(1.0, abs=0.01)
        assert fit.mu == pytest.approx(2.0, abs=0.01)

    def test_exact_inversion_recovers(self, monkeypatch):
        monkeypatch.setattr(moments, "shape_from_tlmoments", exact_shape_tl)
        for theta in [GevParams(2, 1, 0.2), GevParams(1.5, 1, 0.4), GevParams(0, 1, -0.2)]:
            fit = gev_from_tlmoments(exact_pwms(theta))
            assert fit.xi == pytest.approx(theta.xi, abs=1e-9)
            assert fit.sigma == pytest.approx(theta.sigma, abs=1e-8)
            assert fit.mu == pytest.approx(theta.mu, abs=1e-8)

    @pytest.mark.parametrize("xi", [-0.4, -0.2, -0.05, 0.1, 0.3, 0.5])
    def test_polynomial_close_to_exact_inversion(self, xi):
        pwm = exact_pwms(GevParams(0, 1, xi))
        approx = gev_from_tlmoments(pwm).xi
        exact = exact_shape_tl(pwm)
        assert exact == pytest.approx(xi, abs=1e-9)
        assert abs(approx - exact) <= 0.01

    def test_gumbel_limit_branch(self):
        # near-zero shapes go through the analytic limit of the equations;
        # cross-check continuity against +-1e-4 evaluations
        pwm0 = exact_pwms(GevParams(1, 2, 1e-12))
        fit0 = gev_from_tlmoments(pwm0)
        for xi in (1e-4, -1e-4):
            fit = gev_from_tlmoments(exact_pwms(GevParams(1, 2, xi)))
            assert fit.sigma == pytest.approx(fit0.sigma, abs=2e-3)
            assert fit.mu == pytest.approx(fit0.mu, abs=2e-3)

    def test_affine_equivariance_of_map(self):
        a, b = 2.0, -1.0
        pwm = exact_pwms(GevParams(2, 1, 0.3))
        moved = PwmVector(a * pwm.values + b / np.arange(1, 5))
        base_fit = gev_from_tlmoments(pwm)
        moved_fit = gev_from_tlmoments(moved)
        assert moved_fit.xi == pytest.approx(base_fit.xi, abs=1e-12)
        assert moved_fit.sigma == pytest.approx(a * base_fit.sigma, rel=1e-12)
        assert moved_fit.mu == pytest.approx(a * base_fit.mu + b, rel=1e-9)

    def test_scale_equivariance_on_samples(self):
        rng = np.random.default_rng(13)
        data = gev_quantile(GevParams(2, 1, 0.3), rng.uniform(size=300))
        base = gev_from_tlmoments(sample_pwm(data, 3))
        moved = gev_from_tlmoments(sample_pwm(2.0 * data, 3))
        assert moved.xi == pytest.approx(base.xi, abs=1e-10)
        assert moved.sigma == pytest.approx(2.0 * base.sigma, rel=1e-10)
        assert moved.mu == pytest.approx(2.0 * base.mu, rel=1e-9)


class TestGradients:
    @pytest.mark.parametrize("method", ["L", "TL"])
    def test_shape_gradient_matches_fd(self, method):
        pwm = exact_pwms(GevParams(2, 1, 0.25))
        k = 3 if method == "L" else 4
        grad_fn = shape_gradient_lmoments if method == "L" else shape_gradient_tlmoments
        fit_fn = gev_from_lmoments if method == "L" else gev_from_tlmoments
        grad = grad_fn(pwm)
        for i in range(k):
            h = 1e-7 * max(1.0, abs(pwm[i]))
            up = pwm.values[:k].copy()
            dn = pwm.values[:k].copy()
            up[i] += h
            dn[i] -= h
            fd = (fit_fn(PwmVector(up)).xi - fit_fn(PwmVector(dn)).xi) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("method", ["L", "TL"])
    def test_full_map_gradient_matches_fd(self, method):
        pwm = exact_pwms(GevParams(1.5, 1, 0.4))
        k = 3 if method == "L" else 4
        fit_fn = gev_from_lmoments if method == "L" else gev_from_tlmoments
        grad = gev_fit_gradient(pwm, method)
        assert grad.shape == (3, k)
        for i in range(k):
            h = 1e-6 * max(1.0, abs(pwm[i]))
            up = pwm.values[:k].copy()
            dn = pwm.values[:k].copy()
            up[i] += h
            dn[i] -= h
            tu = fit_fn(PwmVector(up)).as_array()
            td = fit_fn(PwmVector(dn)).as_array()
            fd = (tu - td) / (2 * h)
            np.testing.assert_allclose(grad[:, i], fd, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("method", ["L", "TL"])
    def test_full_map_gradient_matches_fd_at_zero_mean(self, method):
        # beta_0, the mean, is 1e-13 while the spread is 1: a step of 1e-6 times
        # beta_0 alone vanished in 2 b1 - b0 and left the location column 0
        xi = 0.4
        pwm = exact_pwms(GevParams(1e-13 - (gamma_fn(1 - xi) - 1) / xi, 1, xi))
        assert 0 < pwm[0] < 1e-12
        k = 3 if method == "L" else 4
        fit_fn = gev_from_lmoments if method == "L" else gev_from_tlmoments
        grad = gev_fit_gradient(pwm, method)
        for i in range(k):
            up = pwm.values[:k].copy()
            dn = pwm.values[:k].copy()
            up[i] += 1e-6
            dn[i] -= 1e-6
            fd = (fit_fn(PwmVector(up)).as_array() - fit_fn(PwmVector(dn)).as_array()) / 2e-6
            np.testing.assert_allclose(grad[:, i], fd, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("method", ["L", "TL"])
    @pytest.mark.parametrize("shift", ["mean-1e-13", 1e2])
    def test_gradient_ignores_a_shift_of_the_data(self, method, shift):
        # adding c to the data adds c/(k+1) to beta_k and c to mu only, so the
        # gradient at the shifted PWMs is the gradient at the original ones (up to
        # the central differences' error, which grows with the step, 1e-6 |beta_k|)
        pwm = exact_pwms(GevParams(1.5, 1, 0.4))
        c = 1e-13 - pwm[0] if shift == "mean-1e-13" else shift
        moved = PwmVector(pwm.values + c / np.arange(1, 5))
        np.testing.assert_allclose(
            gev_fit_gradient(moved, method), gev_fit_gradient(pwm, method), rtol=1e-4, atol=1e-8
        )

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError, match="unknown moment method"):
            gev_fit_gradient(exact_pwms(GevParams(1.5, 1, 0.4)), "X")


@pytest.mark.parametrize("recover", [gev_from_lmoments, gev_from_tlmoments])
def test_infinite_pwms_rejected(recover):
    # inf - inf leaves a NaN second (trimmed) L-moment, which must not reach the shape map
    with pytest.raises(DataError, match="not positive"):
        recover(PwmVector(np.array([np.inf] * 4)))


@given(
    xi=st.floats(-0.4, 0.55),
    mu=st.floats(-10, 10),
    sigma=st.floats(0.1, 10),
)
@settings(max_examples=100, deadline=None)
def test_round_trip_property(xi, mu, sigma):
    theta = GevParams(mu, sigma, xi if abs(xi) > 1e-9 else 1e-9)
    pwm = exact_pwms(theta)
    fit_l = gev_from_lmoments(pwm)
    assert abs(fit_l.xi - theta.xi) < 0.002
    fit_tl = gev_from_tlmoments(pwm)
    assert abs(fit_tl.xi - theta.xi) < 0.006


NON_FINITE_ENTRY_POINTS = {
    "sample_pwm": lambda x: sample_pwm(x, 3),
    "sample_pwm_unbiased": lambda x: sample_pwm_unbiased(x, 3),
    "zhat_vectors": lambda x: zhat_vectors(x, 4),
    "hill": lambda x: hill(x, 3),
    "weissman_quantile": lambda x: weissman_quantile(x, 3, 0.99, 0.5),
    "tail_prob": lambda x: tail_prob(20.0, x, 3, 0.5),
    "pickands_cfg": lambda x: pickands_cfg(np.column_stack([x, x[::-1]])),
    "tail_dependence_empirical":
        lambda x: tail_dependence_empirical(np.column_stack([x, x[::-1]]), 3, 1.0, 1.0),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_rejected(entry, bad):
    # one bad value among 12 used to give NaN, or a finite but wrong value
    x = np.arange(1.0, 13.0)
    x[4] = bad
    with pytest.raises(DataError, match="finite"):
        NON_FINITE_ENTRY_POINTS[entry](x)


def test_excess_threshold_needs_a_1d_sample():
    with pytest.raises(DataError, match="1-D"):
        hill(np.arange(1.0, 13.0).reshape(6, 2), 3)


def test_vanishing_shape_ratio_denominator_rejected():
    # a constant sample's unbiased PWMs keep a rounding-level second trimmed L-moment
    # but an exactly zero ratio denominator
    pwm = sample_pwm_unbiased(np.full(12, 3e-300), 3)
    with pytest.raises(DataError, match="zero denominator"):
        gev_from_tlmoments(pwm)


# each method's shape, shape gradient and parameter recovery maps
_METHOD_MAPS = {
    "L": (shape_from_lmoments, shape_gradient_lmoments, gev_from_lmoments),
    "TL": (shape_from_tlmoments, shape_gradient_tlmoments, gev_from_tlmoments),
}


def _as_values(result):
    """A map's result (float, array or GevParams) as a float array."""
    return np.asarray(astuple(result) if isinstance(result, GevParams) else result, dtype=float)


def _pwm_maps():
    """Every public map of a PwmVector in the moments module, as (method, label, call)."""
    for method, fns in _METHOD_MAPS.items():
        for fn in fns:
            yield method, fn.__name__, fn
        yield method, f"gev_fit_gradient {method}", partial(gev_fit_gradient, method=method)


_GEV_PWMS = exact_pwms(GevParams(2, 1, 0.2)).values
PWM_BATTERY = {
    # 3b2 - b0 = 0 and 9b2 - b0 - 8b3 = 0, both numerators positive
    "zero-denominator": ([3.0, 2.0, 1.0, 0.75], DataError),
    "too-short": ([1.0, 0.5], ParameterError),
    "nan": ([np.nan, 0.6, 0.4, 0.3], DataError),
    "inf": ([np.inf, 2.0, 1.0, 0.5], DataError),
    "scale-1e-300": (1e-300 * _GEV_PWMS, None),
    "scale-1e300": (1e300 * _GEV_PWMS, None),
    # finite, nonzero num and den whose ratio overflows: the shape used to be -inf
    # (L) or nan (TL); a 3-vector has no trimmed ratio
    "ratio-overflow": ([0.0, 1e300, 1e-300, 0.0], NumericError),
    "ratio-overflow-L": ([0.0, 1e300, 1e-300], {"L": NumericError, "TL": ParameterError}),
}


@pytest.mark.parametrize("case", sorted(PWM_BATTERY))
def test_pwm_maps_give_finite_values_or_package_errors(case):
    # degenerate PWM vectors reach every map; the shape gradients used to divide by
    # a squared denominator that underflows to 0 (a bare ZeroDivisionError) or
    # overflows (a bare OverflowError)
    values, errors = PWM_BATTERY[case]
    pwm = PwmVector(np.array(values))
    raised = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method, label, call in _pwm_maps():
            error = errors.get(method) if isinstance(errors, dict) else errors
            if error is not None:
                with pytest.raises(error) as info:
                    call(pwm)
                raised[label] = str(info.value)
                continue
            try:
                result = _as_values(call(pwm))
            except RegfloodError as exc:
                # only the gradients' squared denominator leaves the float range
                assert isinstance(exc, NumericError) and "floating-point range" in str(exc), label
                continue
            assert np.all(np.isfinite(result)), (label, result)
    if errors is DataError:
        # one ratio check serves both: the gradient raises what the shape raises
        for shape, gradient, _ in _METHOD_MAPS.values():
            assert raised[gradient.__name__] == raised[shape.__name__]


@pytest.mark.parametrize("call", [
    lambda k: sample_pwm(np.arange(1.0, 9.0), k).values,
    lambda k: sample_pwm_unbiased(np.arange(1.0, 9.0), k).values,
    lambda k: zhat_vectors(np.arange(1.0, 9.0), k),
    lambda k: sigma_r_hat(ObservationScheme.from_matrix(np.arange(1.0, 17.0).reshape(8, 2)), k),
    lambda k: pwm_of_gev(GevParams(0, 1, 0.1), k),
], ids=["sample_pwm", "sample_pwm_unbiased", "zhat_vectors", "sigma_r_hat", "pwm_of_gev"])
def test_orders_must_be_integers(call):
    # 2.5 used to give 4 PWMs, or a bare TypeError; an integral float is its int
    np.testing.assert_array_equal(call(2.0), call(2))
    for bad in (2.5, "2", True):
        with pytest.raises(ParameterError, match=f"must be an integer, got {bad!r}"):
            call(bad)


def _degenerate_sample(seed, n, scale, decimals, constant, bad):
    """n x 12 GEV draws with the degeneracies asked for: rounding ties, a constant
    first column, an overall scale and one non-finite ``bad`` value in it."""
    x = gev_quantile(GevParams(2, 1, 0.2), np.random.default_rng(seed).uniform(size=(n, 12)))
    if decimals is not None:
        x = np.round(x, decimals)
    if constant:
        x[:, 0] = 3.0
    x *= scale
    if bad is not None:
        x[-1, 0] = bad
    return x


def _sample_calls(x, gamma):
    """Every sample-level entry point on one degenerate draw, as (label, call)."""
    sample, pairs = x[:, 0], x[:, :2]
    n = len(sample)
    k = max(2, n // 3)
    calls = [
        ("sample_pwm", lambda: sample_pwm(sample, 3).values),
        ("sample_pwm_unbiased", lambda: sample_pwm_unbiased(sample, min(3, n - 1)).values),
        ("zhat_vectors", lambda: zhat_vectors(sample, 4)),
        ("hill", lambda: hill(sample, k)),
        ("weissman_quantile", lambda: weissman_quantile(sample, k, 0.999, gamma)),
        ("tail_prob", lambda: tail_prob(np.max(sample), sample, k, gamma)),
        ("pickands_cfg", lambda: pickands_cfg(pairs)),
        ("tail_dependence_empirical", lambda: tail_dependence_empirical(pairs, k, 1.0, 0.5)),
    ]
    for pwm_fn in (sample_pwm, sample_pwm_unbiased):
        for method, name, fn in _pwm_maps():
            calls.append((f"{name} {pwm_fn.__name__}",
                          lambda f=pwm_fn, m=fn, o={"L": 2, "TL": 3}[method]:
                          _as_values(m(f(sample, o)))))

    def aggregated():
        # one site observed in every month of n calendar years, x[i, m] in month m + 1
        table = MonthlyTable(("A",), np.zeros(x.size, dtype=int),
                             np.repeat(2000 + np.arange(n), 12), np.tile(np.arange(1, 13), n),
                             x.ravel())
        schemes = seasonal_maxima(table)
        return np.concatenate([s.values for scheme in (schemes.winter, schemes.summer,
                                                       schemes.annual) for s in scheme.sites])

    calls.append(("seasonal_maxima", aggregated))
    return calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    n=st.sampled_from([2, 3, 4, 12, 30]),
    scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
    decimals=st.sampled_from([None, 0, 1]),
    constant=st.booleans(),
    bad=st.sampled_from([None, None, np.nan, np.inf, -np.inf]),
    gamma=st.sampled_from([0.0, 0.5, 2.0]),
)
def test_degenerate_samples_give_finite_values_or_package_errors(
    seed, n, scale, decimals, constant, bad, gamma
):
    # ties, a constant sample, n = 2-3, extreme scales, non-finite values
    x = _degenerate_sample(seed, n, scale, decimals, constant, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, call in _sample_calls(x, gamma):
            try:
                values = np.asarray(call(), dtype=float)
            except RegfloodError:
                continue
            assert np.all(np.isfinite(values)), (label, values)
