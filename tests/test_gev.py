"""Distribution-function, quantile and projection tests for the GEV core."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from regflood import gev
from regflood.errors import DomainError, NumericError, ParameterError, RegfloodError
from regflood.gev import (
    GevParams,
    TwoComponentGev,
    brentq,
    gev_cdf,
    gev_cdf_jacobian,
    gev_pdf,
    gev_quantile,
    gev_quantile_gradient,
    kl_project_gev,
    twocomp_cdf,
    twocomp_pdf,
    twocomp_quantile,
)
from regflood.simlab import BlockMaxMargin, blockmax_cdf, blockmax_quantile

STD_HEAVY = GevParams(2.0, 1.0, 0.2)
STD_SUMMER = GevParams(1.5, 1.0, 0.4)
MODEL = TwoComponentGev(STD_HEAVY, STD_SUMMER)

params_strategy = st.builds(
    GevParams,
    mu=st.floats(-5, 5),
    sigma=st.floats(0.1, 10),
    xi=st.floats(-0.45, 0.9).filter(lambda x: abs(x) > 1e-7),
)


class TestGevCdf:
    def test_at_location_is_inv_e(self):
        # x = mu gives exponent 1 for every sigma and shape
        for xi in (-0.3, 0.0, 0.2, 0.5):
            assert gev_cdf(GevParams(0, 1, xi), 0.0) == pytest.approx(math.exp(-1))

    def test_frozen_value(self):
        # high-precision evaluation of the closed form at (2,1,0.2), x=10
        assert gev_cdf(STD_HEAVY, 10.0) == pytest.approx(0.9916187862857585, abs=1e-12)

    def test_outside_support_limits(self):
        heavy = GevParams(0, 1, 0.5)     # support (-2, inf)
        bounded = GevParams(0, 1, -0.5)  # support (-inf, 2)
        assert gev_cdf(heavy, -3.0) == 0.0
        assert gev_cdf(bounded, 3.0) == 1.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ParameterError):
            GevParams(0, -1, 0.1)
        with pytest.raises(ParameterError):
            GevParams(0, 0.0, 0.1)

    def test_vectorized(self):
        x = np.linspace(-1, 20, 50)
        vals = gev_cdf(STD_HEAVY, x)
        assert vals.shape == x.shape
        assert np.all(np.diff(vals) >= 0)


class TestGevPdf:
    def test_at_location(self):
        assert gev_pdf(GevParams(0, 1, 0.5), 0.0) == pytest.approx(math.exp(-1))
        assert gev_pdf(GevParams(0, 2, 0.5), 0.0) == pytest.approx(math.exp(-1) / 2)

    def test_zero_outside_support(self):
        assert gev_pdf(GevParams(0, 1, 0.5), -5.0) == 0.0

    def test_frozen_value(self):
        assert gev_pdf(STD_HEAVY, 10.0) == pytest.approx(3.209997233309828e-3, rel=1e-12)

    def test_matches_cdf_derivative(self):
        for x in np.linspace(0.0, 12.0, 25):
            h = 1e-6
            fd = (gev_cdf(STD_HEAVY, x + h) - gev_cdf(STD_HEAVY, x - h)) / (2 * h)
            assert gev_pdf(STD_HEAVY, x) == pytest.approx(fd, rel=1e-6)


class TestGevQuantile:
    def test_inverse_of_unit_exponent(self):
        for params in (STD_HEAVY, GevParams(-3, 2.5, -0.2)):
            assert gev_quantile(params, math.exp(-1)) == pytest.approx(params.mu)

    def test_frozen_value(self):
        assert gev_quantile(STD_HEAVY, 0.99) == pytest.approx(9.546826408585783, abs=1e-9)

    def test_round_trip_grid(self):
        for xi in (-0.4, -0.1, 0.0, 0.2, 0.5):
            params = GevParams(1.0, 2.0, xi)
            for p in (0.01, 0.3, 0.6, 0.95, 0.999):
                assert gev_cdf(params, gev_quantile(params, p)) == pytest.approx(
                    p, abs=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gev_quantile(STD_HEAVY, 0.0)
        with pytest.raises(DomainError):
            gev_quantile(STD_HEAVY, 1.0)

    def test_overflow_is_a_numeric_error(self):
        heavy, p = GevParams(0, 1, 20.0), 1 - 1e-16
        wide = TwoComponentGev(GevParams(0, 1e300, 0.99), GevParams(0, 1, 0.1))
        # 1e306 * expm1(6) overflows even when divided by xi first
        broad, q = GevParams(0, 1e307, 10.0), math.exp(-math.exp(-0.6))
        for call in (lambda: gev_quantile(heavy, p), lambda: gev_quantile(heavy, np.array([p])),
                     lambda: gev_quantile_gradient(heavy, p), lambda: twocomp_quantile(wide, p),
                     lambda: gev_quantile(broad, q), lambda: gev_quantile(broad, np.array([q]))):
            with pytest.raises(NumericError, match="overflows"):
                call()

    @pytest.mark.parametrize("params, p", [(GevParams(0, 1e-300, 20.0), 1 - 1e-16),
                                           (GevParams(3.0, 1e-300, -200.0), 1e-300),
                                           (GevParams(0, 1e307, 10.0), math.exp(-math.exp(-0.5)))],
                             ids=["upper-tail", "lower-tail", "scale-product"])
    def test_overflowing_intermediate_with_a_finite_quantile(self, params, p):
        # y**(-xi), or sigma * expm1(t) before the division by xi, exceeds the
        # float range; sigma/xi * y**(-xi) does not
        import mpmath

        with mpmath.workdps(50):
            y = -mpmath.log(p)
            expected = float(params.mu + params.sigma * mpmath.expm1(-params.xi * mpmath.log(y))
                             / params.xi)
        assert gev_quantile(params, p) == pytest.approx(expected, rel=1e-12)
        # finite entries of the array path are untouched; the others take the scalar path
        levels = gev_quantile(params, np.array([0.5, p]))
        assert levels[0] == gev_quantile(params, np.array([0.5]))[0]
        assert levels[1] == gev_quantile(params, p)

    def test_nan_level_in_an_array_rejected(self):
        # the array path must reject NaN like the scalar path
        with pytest.raises(DomainError):
            gev_quantile(STD_HEAVY, np.array([0.5, math.nan]))

    def test_gumbel_continuity(self):
        # |xi| = 1e-9 must agree with the xi = 0 formulas to 1e-6
        base = GevParams(1.0, 2.0, 0.0)
        for xi in (1e-9, -1e-9):
            near = GevParams(1.0, 2.0, xi)
            for p in (0.05, 0.5, 0.99):
                assert gev_quantile(near, p) == pytest.approx(
                    gev_quantile(base, p), abs=1e-6
                )
            for x in (-1.0, 1.0, 6.0):
                assert gev_cdf(near, x) == pytest.approx(gev_cdf(base, x), abs=1e-6)
                assert gev_pdf(near, x) == pytest.approx(gev_pdf(base, x), abs=1e-6)


class TestJacobian:
    def test_mu_derivative_is_minus_density(self):
        for x in (1.0, 4.0, 10.0):
            jac = gev_cdf_jacobian(STD_HEAVY, x)
            assert jac[0] == pytest.approx(-gev_pdf(STD_HEAVY, x), rel=1e-12)

    def test_sigma_derivative_vanishes_at_location(self):
        assert gev_cdf_jacobian(STD_HEAVY, STD_HEAVY.mu)[1] == 0.0

    @pytest.mark.parametrize(
        "params",
        [STD_HEAVY, STD_SUMMER, GevParams(0, 1, -0.3), GevParams(5, 3, 0.05)],
    )
    def test_matches_central_differences(self, params):
        lo, hi = params.support()
        grid = np.linspace(
            max(lo, params.mu - 2) + 0.3, min(hi - 0.3, params.mu + 6), 20
        )
        step = 1e-5
        for x in grid:
            jac = gev_cdf_jacobian(params, float(x))
            for i, name in enumerate(["mu", "sigma", "xi"]):
                up = [params.mu, params.sigma, params.xi]
                dn = up.copy()
                up[i] += step
                dn[i] -= step
                fd = (
                    gev_cdf(GevParams(*up), float(x))
                    - gev_cdf(GevParams(*dn), float(x))
                ) / (2 * step)
                assert jac[i] == pytest.approx(fd, rel=1e-6, abs=1e-12), (name, x)

    def test_near_gumbel_continuity(self):
        # the FD oracle is unusable this close to zero shape (the tiny
        # perturbation is amplified by 1/xi in the exponent), so compare
        # against the limit-branch formulas instead
        limit = GevParams(5, 3, 0.0)
        for xi in (1e-7, -1e-7):
            near = GevParams(5, 3, xi)
            for x in (2.0, 5.0, 9.0):
                np.testing.assert_allclose(
                    gev_cdf_jacobian(near, x),
                    gev_cdf_jacobian(limit, x),
                    rtol=1e-5,
                    atol=1e-12,
                )

    def test_outside_support_raises(self):
        for x in (-5.0, math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                gev_cdf_jacobian(GevParams(0, 1, 0.5), x)


class TestTwoComponent:
    def test_equal_components_square(self):
        same = TwoComponentGev(STD_HEAVY, STD_HEAVY)
        for x in (2.0, 5.0, 9.0):
            assert twocomp_cdf(same, x) == pytest.approx(gev_cdf(STD_HEAVY, x) ** 2)

    def test_below_both_endpoints(self):
        assert twocomp_cdf(MODEL, -5.0) == 0.0

    def test_published_quantile_point(self):
        # the reference product model has its 0.99 quantile at 15.692
        assert twocomp_cdf(MODEL, 15.692) == pytest.approx(0.99, abs=1e-3)
        assert twocomp_quantile(MODEL, 0.99) == pytest.approx(15.692, abs=1e-3)

    def test_equal_component_shortcut(self):
        same = TwoComponentGev(STD_HEAVY, STD_HEAVY)
        assert twocomp_quantile(same, 0.99) == pytest.approx(
            gev_quantile(STD_HEAVY, math.sqrt(0.99)), abs=1e-12
        )

    def test_round_trip(self):
        for p in (0.05, 0.5, 0.9, 0.99, 0.9999):
            q = twocomp_quantile(MODEL, p)
            assert twocomp_cdf(MODEL, q) == pytest.approx(p, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            twocomp_quantile(MODEL, 1.5)

    def test_pdf_is_cdf_derivative(self):
        for x in (2.0, 8.0, 16.0):
            h = 1e-6
            fd = (twocomp_cdf(MODEL, x + h) - twocomp_cdf(MODEL, x - h)) / (2 * h)
            assert twocomp_pdf(MODEL, x) == pytest.approx(fd, rel=1e-6)

    @given(
        p=st.floats(0.01, 0.999),
        w=params_strategy,
        s=params_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_quantile_round_trip_property(self, p, w, s):
        q = twocomp_quantile(TwoComponentGev(w, s), p)
        assert twocomp_cdf(TwoComponentGev(w, s), q) == pytest.approx(p, abs=1e-9)


def _solve(solver, f, a, b, **kwargs):
    """The points ``solver`` evaluates and its root (hex) or exception."""
    xs = []

    def traced(x):
        xs.append(x.hex())
        return f(x)

    try:
        return xs, solver(traced, a, b, **kwargs).hex()
    except (ValueError, RuntimeError) as exc:
        return xs, (type(exc), str(exc))


def _random_params(rng) -> GevParams:
    return GevParams(rng.uniform(-5, 5), rng.uniform(0.1, 10), rng.uniform(-0.45, 0.9))


class TestBrentq:
    """The in-package solver takes SciPy's iterates, bit for bit."""

    def test_matches_scipy_on_product_quantile_brackets(self):
        rng = np.random.default_rng(20250810)
        for _ in range(3000):
            model = TwoComponentGev(_random_params(rng), _random_params(rng))
            p = float(rng.choice([0.05, 0.5, 0.9, 0.99, 0.999, 0.9999]))
            sq = math.sqrt(p)
            lo = max(gev_quantile(model.winter, p), gev_quantile(model.summer, p))
            hi = max(gev_quantile(model.winter, sq), gev_quantile(model.summer, sq))

            def residual(x):
                return twocomp_cdf(model, x) - p

            expected = _solve(optimize.brentq, residual, lo, hi, xtol=1e-13, maxiter=200)
            assert _solve(brentq, residual, lo, hi, xtol=1e-13, maxiter=200) == expected

    def test_matches_scipy_on_random_smooth_functions(self):
        rng = np.random.default_rng(1973)
        shapes = [
            lambda x, c, r: c[0] * (x - r) + c[1] * (x - r) ** 3 + 0.1 * c[2] * math.sin(3 * x),
            lambda x, c, r: abs(c[0]) * math.tanh(5 * (x - r)) + 1e-3 * c[1] * (x - r) ** 2,
            lambda x, c, r: math.expm1(c[0] * (x - r)),
            lambda x, c, r: 1e3 * abs(c[0]) * (x - r) ** 5 + 1e-9 * c[1],
            # subnormal values and flat steps drive the extrapolation into
            # divisions by zero, which must fall back to bisection as in C
            lambda x, c, r: 1e-310 * (x - r) * (1.0 + c[0] * (x - r) ** 2),
            lambda x, c, r: round((x - r) ** 3 + c[1] * (x - r), 4),
        ]
        for i in range(12000):
            c, r = rng.normal(size=3), rng.uniform(-2, 2)
            shape = shapes[i % len(shapes)]

            def f(x):
                return shape(x, c, r)

            a, b = r - rng.uniform(0.01, 3), r + rng.uniform(0.01, 3)
            kwargs = {
                "xtol": float(rng.choice([1e-300, 1e-13, 2e-12, 1e-6, 1e-3])),
                "maxiter": int(rng.choice([5, 10, 100])),
            }
            assert _solve(brentq, f, a, b, **kwargs) == _solve(optimize.brentq, f, a, b, **kwargs)

    @pytest.mark.parametrize(
        "f, kwargs, exc_type, text",
        [
            (lambda x: 1e-200, {}, ValueError, "f(a) and f(b) must have different signs"),
            (
                lambda x: math.nan if x > 0.5 else x - 0.7,
                {},
                ValueError,
                "The function value at x=1.0 is NaN; solver cannot continue.",
            ),
            (
                lambda x: x**3 - 0.3,
                {"maxiter": 2},
                RuntimeError,
                "Failed to converge after 2 iterations.",
            ),
        ],
        ids=["sign", "nan", "max-iterations"],
    )
    def test_failures_raise_scipys_exceptions(self, f, kwargs, exc_type, text):
        for solver in (optimize.brentq, brentq):
            with pytest.raises(exc_type) as info:
                solver(f, 0.0, 1.0, **kwargs)
            assert str(info.value) == text

    @pytest.mark.parametrize(
        "failure, cause",
        [("sign", "different signs"), ("nan", "is NaN"), ("max-iterations", "converge")],
    )
    def test_twocomp_quantile_wraps_solver_failures(self, monkeypatch, failure, cause):
        p = 0.99
        exact = gev.twocomp_cdf
        calls = []

        def cdf(model, x):
            # the first two calls are twocomp_quantile's own bracket checks
            calls.append(x)
            if failure == "sign" and len(calls) > 2:
                return 1.0
            if failure == "nan" and len(calls) > 4:
                return math.nan
            return exact(model, x)

        monkeypatch.setattr(gev, "twocomp_cdf", cdf)
        if failure == "max-iterations":
            monkeypatch.setattr(gev, "_QUANTILE_MAX_ITER", 1)
        with pytest.raises(NumericError, match="product-quantile inversion failed") as info:
            twocomp_quantile(MODEL, p)
        assert isinstance(info.value.__cause__, (ValueError, RuntimeError))
        assert cause in str(info.value)


class TestKlProjection:
    def test_family_member_is_fixed_point(self):
        target = GevParams(1.0, 2.0, 0.25)
        proj = kl_project_gev(lambda x: gev_pdf(target, x), target.support())
        assert proj.mu == pytest.approx(target.mu, abs=5e-3)
        assert proj.sigma == pytest.approx(target.sigma, abs=5e-3)
        assert proj.xi == pytest.approx(target.xi, abs=5e-3)

    @pytest.mark.parametrize("target", [GevParams(5.0, 1.0, -0.2), GevParams(135.0, 20.0, -0.05),
                                        GevParams(135.0, 20.0, 0.0), GevParams(-2000.0, 20.0, 0.0)],
                             ids=["bounded-above", "bounded-above-far", "gumbel-far",
                                  "gumbel-far-left"])
    def test_far_family_member_is_fixed_point(self, target):
        # the density is invisible at and left of 0 for the first three, at and right
        # of 0 for the last; the searches used to start at 0 and report "density not
        # detectable"
        proj = kl_project_gev(lambda x: gev_pdf(target, x), target.support())
        np.testing.assert_allclose(proj.as_array(), target.as_array(), rtol=1e-5, atol=1e-6)

    def test_product_target_published_minimizer(self):
        proj = kl_project_gev(lambda x: twocomp_pdf(MODEL, x), (-1.0, math.inf))
        assert proj.mu == pytest.approx(2.554, abs=0.01)
        assert proj.sigma == pytest.approx(1.235, abs=0.01)
        assert proj.xi == pytest.approx(0.305, abs=0.01)

    def test_component_order_irrelevant(self):
        swapped = TwoComponentGev(MODEL.summer, MODEL.winter)
        a = kl_project_gev(lambda x: twocomp_pdf(MODEL, x), (-1.0, math.inf))
        b = kl_project_gev(lambda x: twocomp_pdf(swapped, x), (-1.0, math.inf))
        assert a.mu == pytest.approx(b.mu, abs=1e-6)
        assert a.sigma == pytest.approx(b.sigma, abs=1e-6)
        assert a.xi == pytest.approx(b.xi, abs=1e-6)

    def test_support_truncation_is_mirror_symmetric(self):
        # both unbounded ends are found by one search, stepping right or left
        def dens(x):
            return gev_pdf(GevParams(0.0, 1.0, 0.0), x)

        line = (-math.inf, math.inf)
        lo, hi = gev._effective_bounds(dens, line, 1e-12)
        assert gev._effective_bounds(lambda x: dens(-x), line, 1e-12) == (-hi, -lo)

    def test_unnormalized_density_rejected(self):
        with pytest.raises(ParameterError):
            kl_project_gev(
                lambda x: 2.0 * gev_pdf(STD_HEAVY, x), STD_HEAVY.support()
            )

    @pytest.mark.parametrize("target, mass", [(GevParams(0.0, 1e-300, 0.2), 1.0),
                                              (GevParams(0.0, 1e300, 0.2), 1.0),
                                              (GevParams(0.0, 1.0, 0.99), 1.0),
                                              (GevParams(0.0, 1.0, -0.99), 1.0),
                                              (GevParams(0.0, 1.0, 0.2), 2.0)],
                             ids=["sigma-1e-300", "sigma-1e300", "xi-0.99", "xi-minus-0.99",
                                  "mass-2"])
    def test_extreme_target_gives_finite_params_or_package_error(self, target, mass):
        try:
            proj = kl_project_gev(lambda x: mass * gev_pdf(target, x), target.support())
        except RegfloodError:
            return
        assert all(math.isfinite(v) for v in (proj.mu, proj.sigma, proj.xi)) and proj.sigma > 0


def _outcome(call):
    """``call()`` as a float array, or the class of the package error it raised."""
    try:
        return np.asarray(call(), dtype=float)
    except RegfloodError as exc:
        return type(exc)


_gev_params = st.builds(
    GevParams,
    mu=st.one_of(st.just(0.0), st.floats(-1e300, 1e300)),
    sigma=st.one_of(st.sampled_from([1e-300, 1.0, 1e300]), st.floats(1e-300, 1e300)),
    xi=st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, -1.0, -50.0, 50.0]), st.floats(-50, 50)),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    params=_gev_params,
    other=_gev_params,
    offsets=st.lists(st.floats(-1e3, 1e3), max_size=4),
    raw=st.lists(st.floats(), max_size=3),
    levels=st.lists(
        st.one_of(st.sampled_from([5e-324, 0.5, 1 - 2**-53]),
                  st.floats(0, 1, exclude_min=True, exclude_max=True)),
        min_size=1,
        max_size=4,
    ),
    b=st.sampled_from([2, 12]),
)
def test_degenerate_parameters_give_finite_values_or_package_errors(
    params, other, offsets, raw, levels, b
):
    # NaN, infinite and far-out arguments, support endpoints, scales 1e-300 to
    # 1e300 and shapes from -50 to 50; kl_project_gev takes seconds per call
    # and is left out
    edges = [e for e in params.support() if math.isfinite(e)]
    xs = [params.mu + params.sigma * o for o in offsets] + edges + raw
    xs += [math.nan, math.inf, -math.inf]
    model = TwoComponentGev(params, other)
    margin = BlockMaxMargin(params.mu, params.sigma, abs(params.xi) or 1.0, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # cdfs and densities: finite, and NaN exactly at a NaN argument; the
        # GEV ones map their scalar kernels, so their arrays equal the scalar calls
        for f, dist, mapped in [(gev_cdf, params, True), (gev_pdf, params, True),
                                (twocomp_cdf, model, True), (twocomp_pdf, model, True),
                                (blockmax_cdf, margin, False)]:
            entries = [_outcome(lambda x=x: f(dist, x)) for x in xs]
            whole = _outcome(lambda: f(dist, np.array(xs)))
            errors = [e for e in entries if isinstance(e, type)]
            if errors:
                assert isinstance(whole, type) and whole in errors, (f.__name__, dist, xs, whole)
                continue
            if mapped:
                np.testing.assert_array_equal(whole, entries, err_msg=f"{f.__name__} {dist}")
            for values in (np.array(entries), whole):
                np.testing.assert_array_equal(np.isnan(values), np.isnan(xs), f.__name__)
                assert np.all(np.isfinite(values[~np.isnan(xs)])), (f.__name__, dist, xs, values)
        # quantiles on both paths, Jacobians and gradients: finite or a package error
        calls = [(f, dist, p) for p in levels + [np.array(levels)]
                 for f, dist in [(gev_quantile, params), (blockmax_quantile, margin)]]
        calls += [(f, dist, p) for p in levels
                  for f, dist in [(gev_quantile_gradient, params), (twocomp_quantile, model)]]
        calls += [(gev_cdf_jacobian, params, x) for x in xs]
        for f, dist, arg in calls:
            value = _outcome(lambda: f(dist, arg))
            assert isinstance(value, type) or np.all(np.isfinite(value)), (f.__name__, dist, arg)
