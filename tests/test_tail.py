"""Tail-index, extrapolation, dependence and regional combination tests."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from regflood.errors import DataError, DomainError, NumericError, ParameterError
from regflood.regional import ObservationScheme, SiteSeries
from regflood.simlab import gumbel_copula_sample
from regflood.tail import (
    PICKANDS_T_GRID,
    TailConfig,
    TailDependence,
    _hill_threshold,
    _ordinal_ranks,
    default_k,
    hill,
    pickands_cfg,
    regional_tail_fit,
    seasonal_weissman_quantile,
    semi_sigma,
    tail_dependence_empirical,
    tail_prob,
    weissman_ci,
    weissman_quantile,
)

HAND_DATA = np.array([1.0, 2.0, 4.0, 8.0, 16.0])


# every function that takes an excess threshold from (data, k)
THRESHOLD_FNS = (
    hill,
    lambda data, k: weissman_quantile(data, k, 0.99, 0.5),
    lambda data, k: tail_prob(20.0, data, k, 0.5),
)


def pareto_sample(gamma, n, rng):
    return rng.uniform(size=n) ** (-gamma)


def make_tail_scheme(seed=0, d=4, n=200, gamma=0.4, theta=2.0):
    rng = np.random.default_rng(seed)
    u = gumbel_copula_sample(theta, d, rng, size=n)
    data = u ** (-gamma)
    return ObservationScheme.from_matrix(data)


def staggered_tail_scheme():
    """Five staggered sites (overlaps 50-120 years) with ties at site 2."""
    rng = np.random.default_rng(21)
    offsets = [0, 0, 25, 40, 70]
    data = gumbel_copula_sample(2.0, len(offsets), rng, size=120) ** -0.4
    data[50:90:4, 2] = data[50, 2]
    scheme = ObservationScheme(
        tuple(SiteSeries(f"s{j}", a, data[a:, j]) for j, a in enumerate(offsets))
    )
    return scheme, data, offsets


def distinct_starts_tail_scheme():
    """60 sites each starting in a different year over 130 years, negative values
    rounded to one decimal (ties); enough pair rows for the matrix to count in slices."""
    rng = np.random.default_rng(22)
    offsets = rng.permutation(60)
    data = np.round(np.log(gumbel_copula_sample(2.0, len(offsets), rng, size=130)), 1)
    scheme = ObservationScheme(
        tuple(SiteSeries(f"s{j}", a, data[a:, j]) for j, a in enumerate(offsets))
    )
    return scheme, data, offsets


# tail-copula arguments: unit, around 1 on both sides, with zero entries
ARGUMENT_VECTORS = [
    np.ones(5),
    np.array([0.4, 1.7, 2.5, 0.3, 1.0]),
    np.array([1.3, 0.0, 0.8, 1.0, 3.1]),
    np.array([0.9, 1.1, 0.05, 1.6, 0.6]),
    np.array([0.0, 1.2, 0.7, 0.0, 2.0]),
]


class TestHill:
    def test_hand_case(self):
        assert hill(HAND_DATA, 2) == pytest.approx(1.5 * math.log(2))

    def test_geometric_progression(self):
        # top order statistics u*exp(c*(k-i+1)) give mean c*(k+1)/2
        c, k, u = 0.3, 6, 2.0
        tail = u * np.exp(c * np.arange(k + 1))  # includes the threshold at i=k+1
        data = np.concatenate([np.linspace(0.1, u * 0.9, 20), tail])
        assert hill(data, k) == pytest.approx(c * (k + 1) / 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        data = pareto_sample(0.4, 100, rng)
        assert hill(7.5 * data, 20) == pytest.approx(hill(data, 20), rel=1e-12)

    def test_range_validation(self):
        for fn in THRESHOLD_FNS:
            with pytest.raises(ParameterError):
                fn(HAND_DATA, 1)
            with pytest.raises(ParameterError):
                fn(HAND_DATA, 5)
            # fractional, non-finite or int64-overflowing lengths are rejected,
            # not truncated or wrapped, and the message names the value given
            for k in (2.5, 3.7, np.nan, np.inf, 1e300):
                with pytest.raises(ParameterError, match="integers") as info:
                    fn(HAND_DATA, k)
                assert str(k) in str(info.value)
            assert fn(HAND_DATA, 2.0) == fn(HAND_DATA, 2)

    def test_nonpositive_threshold(self):
        data = np.array([-3.0, -1.0, 0.5, 2.0])
        for fn in THRESHOLD_FNS:
            with pytest.raises(DomainError):
                fn(data, 3)
        # the target site of a seasonal pair has the same non-positive threshold
        scheme = ObservationScheme.from_matrix(np.column_stack([data, [1.0, 2.0, 3.0, 4.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DomainError):
                seasonal_weissman_quantile(scheme, scheme, "site1", 0.999, k=3)

    def test_pareto_mean_and_variance(self):
        # on exact power-law samples the log excesses are exponential:
        # the estimate is unbiased with replication variance gamma^2/k
        gamma, n, k, reps = 0.4, 1000, 50, 1000
        rng = np.random.default_rng(123)
        est = np.array([hill(pareto_sample(gamma, n, rng), k) for _ in range(reps)])
        assert abs(est.mean() - gamma) < 3 * gamma / math.sqrt(reps * k)
        assert est.var(ddof=1) == pytest.approx(gamma**2 / k, rel=0.2)


class TestDefaultK:
    def test_reference_values(self):
        assert default_k(100, 8) == 21
        assert default_k(50, 10) == 12

    def test_clamping_warns(self):
        with pytest.warns(UserWarning):
            assert default_k(4, 1000) == 2

    def test_validation(self):
        with pytest.raises(ParameterError):
            default_k(2, 1)
        # a bool or fractional count used to be read as a number (27, 20, 21)
        for n, d in ((math.nan, 10), (math.inf, 10), (30, math.nan), (50, True), (50, 2.5),
                     (50.5, 2), ("50", 2)):
            with pytest.raises(ParameterError):
                default_k(n, d)


class TestWeissman:
    def test_zero_gamma_returns_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert weissman_quantile(HAND_DATA, 2, 0.99, 0.0) == 4.0
        # the inverse needs a positive index
        with pytest.raises(ParameterError, match="positive"):
            tail_prob(20.0, HAND_DATA, 2, 0.0)

    def test_boundary_level_returns_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val = weissman_quantile(HAND_DATA, 2, 1 - 2 / 5, 1.0)
        assert val == pytest.approx(4.0)

    def test_hand_case(self):
        gamma = 1.5 * math.log(2)
        expected = 4.0 * (2 / (5 * 0.01)) ** gamma
        assert weissman_quantile(HAND_DATA, 2, 0.99, gamma) == pytest.approx(expected)
        assert expected == pytest.approx(185.2486451810377, rel=1e-12)

    def test_p_one_rejected(self):
        with pytest.raises(DomainError):
            weissman_quantile(HAND_DATA, 2, 1.0, 0.4)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.1])
    def test_invalid_tail_index_rejected(self, gamma):
        with pytest.raises(ParameterError, match="tail index"):
            weissman_quantile(HAND_DATA, 2, 0.99, gamma)
        with pytest.raises(ParameterError, match="tail index"):
            tail_prob(20.0, HAND_DATA, 2, gamma)

    def test_warns_inside_data_range(self):
        with pytest.warns(UserWarning, match="extrapolation"):
            weissman_quantile(HAND_DATA, 2, 0.5, 0.4)

    def test_round_trip_with_tail_prob(self):
        gamma = 0.7
        for p in (0.97, 0.99, 0.9999):
            q = weissman_quantile(HAND_DATA, 2, p, gamma)
            assert tail_prob(q, HAND_DATA, 2, gamma) == pytest.approx(p, abs=1e-12)

    def test_overflowing_quantile_rejected(self):
        with pytest.raises(NumericError, match="overflows"):
            weissman_quantile(np.array([1e300, 2e300, 3e300, 4e300]), 2, 0.999, 3.0)

    def test_tail_prob_at_threshold(self):
        assert tail_prob(4.0, HAND_DATA, 2, 0.5) == pytest.approx(1 - 2 / 5)

    def test_tail_prob_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            tail_prob(3.0, HAND_DATA, 2, 0.5)
        with pytest.raises(DomainError):
            tail_prob(np.nan, HAND_DATA, 2, 0.5)


class TestTailDependence:
    def test_zero_arguments(self):
        pairs = np.random.default_rng(0).uniform(size=(50, 2))
        assert tail_dependence_empirical(pairs, 10, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("xy", [(-0.5, 1.0), (1.0, np.nan)])
    def test_invalid_arguments(self, xy):
        pairs = np.random.default_rng(0).uniform(size=(50, 2))
        with pytest.raises(DomainError):
            tail_dependence_empirical(pairs, 10, *xy)

    def test_comonotone_limit(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=10_000)
        pairs = np.column_stack([x, x])
        k = 200
        for xy in [(1.0, 1.0), (0.5, 1.0), (1.0, 0.3)]:
            lam = tail_dependence_empirical(pairs, k, *xy)
            assert lam == pytest.approx(min(xy), abs=0.05)

    def test_independent_limit(self):
        rng = np.random.default_rng(2)
        pairs = rng.uniform(size=(10_000, 2))
        assert tail_dependence_empirical(pairs, 200, 1.0, 1.0) < 0.1

    def test_insufficient_data(self):
        with pytest.raises(DataError):
            tail_dependence_empirical(np.ones((1, 2)), 1, 1.0, 1.0)

    @pytest.mark.parametrize("k", ["3", math.nan, True, 2.5])
    def test_non_integer_k_rejected(self, k):
        # these used to raise a bare TypeError or return nan, 0.0 and 0.4
        pairs = np.random.default_rng(0).uniform(size=(50, 2))
        with pytest.raises(ParameterError, match="k must be an integer"):
            tail_dependence_empirical(pairs, k, 1.0, 1.0)

    def test_from_scheme_matches_pairwise_reference(self):
        # staggered scheme with ties, one with every site starting in a different
        # year (ties, 60 sites) and an equal-length one: the matrix, counted from
        # one ranking per site, must reproduce the reference on every pair's
        # overlap rows, including a zero argument and arguments around 1
        staggered = staggered_tail_scheme()
        distinct = distinct_starts_tail_scheme()
        equal = make_tail_scheme(seed=23, d=6, n=80)
        equal_data = np.column_stack([s.values for s in equal.sites])
        cases = [
            (*staggered, np.array([12, 9, 15, 10, 7])),
            (*distinct, np.random.default_rng(24).integers(2, 70, size=60)),
            (equal, equal_data, [0] * 6, np.array([8, 3, 11, 5, 8, 20])),
        ]
        for scheme, data, offsets, ks in cases:
            n, d = data.shape
            dep = TailDependence.from_scheme(scheme, ks, "empirical")
            for x in (np.resize(x, d) for x in ARGUMENT_VECTORS):
                lam = dep.matrix(x)
                np.testing.assert_array_equal(np.diag(lam), x)
                for l in range(d):
                    for m in range(d):
                        if l == m:
                            continue
                        start = max(offsets[l], offsets[m])
                        pairs = np.column_stack([data[start:, l], data[start:, m]])
                        k_pair = int(min(ks[l], ks[m], n - start - 1))
                        assert lam[l, m] == tail_dependence_empirical(pairs, k_pair, x[l], x[m])

    def test_pickands_matrix_matches_pairwise_reference(self):
        # per-pair table and interpolation loop, with t = x_m / (x_l + x_m)
        scheme, data, offsets = staggered_tail_scheme()
        n, d = data.shape
        dep = TailDependence.from_scheme(scheme, 10, "pickands_cfg")
        for x in ARGUMENT_VECTORS:
            lam = dep.matrix(x)
            np.testing.assert_array_equal(np.diag(lam), x)
            for l in range(d):
                for m in range(l + 1, d):
                    start = max(offsets[l], offsets[m])
                    pairs = np.column_stack([data[start:, l], data[start:, m]])
                    a_vals = pickands_cfg(pairs)
                    if x[l] == 0 or x[m] == 0:
                        ref = 0.0
                    else:
                        t = x[m] / (x[l] + x[m])
                        ref = (x[l] + x[m]) * (1.0 - np.interp(t, PICKANDS_T_GRID, a_vals))
                    assert lam[l, m] == ref
                    assert lam[m, l] == ref

    @staticmethod
    def pickands_cases():
        """Pickands schemes with their data and offsets: staggered with ties at one
        site, equal-length, and equal-length with every value rounded to one decimal
        (ties at every site)."""
        equal = make_tail_scheme(seed=23, d=6, n=80)
        equal_data = np.column_stack([s.values for s in equal.sites])
        tied_data = np.round(equal_data, 1)
        return [staggered_tail_scheme(), (equal, equal_data, [0] * 6),
                (ObservationScheme.from_matrix(tied_data), tied_data, [0] * 6)]

    def test_pickands_matrix_on_grid_points_and_zero_arguments(self):
        # ratios 1:1, 1:3 and 3:1 give t = 0.5, 0.75 and 0.25, which are grid
        # points; a zero argument gives t = 0 or 1 and a zero entry
        for scheme, data, offsets in self.pickands_cases():
            d = scheme.d
            dep = TailDependence.from_scheme(scheme, 10, "pickands_cfg")
            for x in ([1.0, 1.0, 3.0, 1.0, 0.0, 3.0], [0.0, 2.0, 2.0, 6.0, 0.5, 0.0]):
                x = np.resize(x, d)
                lam = dep.matrix(x)
                for l in range(d):
                    for m in range(l + 1, d):
                        start = max(offsets[l], offsets[m])
                        a_vals = pickands_cfg(np.column_stack([data[start:, l], data[start:, m]]))
                        ref = 0.0
                        if x[l] > 0 and x[m] > 0:
                            t = x[m] / (x[l] + x[m])
                            ref = (x[l] + x[m]) * (1.0 - np.interp(t, PICKANDS_T_GRID, a_vals))
                        assert lam[l, m] == lam[m, l] == ref

    def test_pickands_reads_the_grid_as_np_interp_does(self):
        # at both ends, on grid points and between them, for every pair
        rng = np.random.default_rng(31)
        ts = np.concatenate([[0.0, 1.0], PICKANDS_T_GRID[[1, 50, 99, 100, 199]],
                             rng.uniform(0, 1, 6), np.nextafter(PICKANDS_T_GRID[[3, 7]], 1)])
        for scheme, data, offsets in self.pickands_cases():
            dep = TailDependence.from_scheme(scheme, 10, "pickands_cfg")
            l, m = np.triu_indices(scheme.d, 1)
            refs = [pickands_cfg(np.column_stack([data[max(offsets[i], offsets[j]):, i],
                                                  data[max(offsets[i], offsets[j]):, j]]))
                    for i, j in zip(l, m)]
            for t in ts:
                a = dep._pickands_at(l, m, np.full(len(l), t))
                assert a.tolist() == [np.interp(t, PICKANDS_T_GRID, ref) for ref in refs]

    def test_pickands_overlap_under_ten_years_rejected(self):
        scheme, _, _ = staggered_tail_scheme()
        sites = (*scheme.sites[:4], SiteSeries("short", 111, scheme.sites[4].values[-9:]))
        with pytest.raises(DataError, match="needs >= 10 pairs, got 9"):
            TailDependence.from_scheme(ObservationScheme(sites), 5, "pickands_cfg")
        TailDependence.from_scheme(ObservationScheme(sites), 5, "empirical")

    def test_constant_matrices(self):
        x = np.array([0.5, 2.0, 0.0, 1.0])
        np.testing.assert_array_equal(TailDependence.independent(4).matrix(x), np.diag(x))
        np.testing.assert_array_equal(
            TailDependence.comonotone(4).matrix(x), np.minimum.outer(x, x)
        )

    @pytest.mark.parametrize("x", [[1.0, -0.5, 1.0], [1.0, np.nan, 1.0], [np.inf, 1.0, 1.0]])
    def test_matrix_rejects_invalid_arguments(self, x):
        with pytest.raises(DomainError):
            TailDependence.comonotone(3).matrix(x)


def pickands_cfg_loop(pairs, t_grid):
    """Per-t loop form of the dependence-function estimate (reference)."""
    arr = np.asarray(pairs, dtype=float)
    m = arr.shape[0]
    t = np.asarray(t_grid, dtype=float)
    u = _ordinal_ranks(arr[:, 0]) / (m + 1)
    v = _ordinal_ranks(arr[:, 1]) / (m + 1)
    lu = -np.log(u)
    lv = -np.log(v)

    def log_a_raw(ti: float) -> float:
        with np.errstate(divide="ignore"):
            left = lu / (1.0 - ti) if ti < 1.0 else np.full(m, np.inf)
            right = lv / ti if ti > 0.0 else np.full(m, np.inf)
        return -np.euler_gamma - float(np.mean(np.log(np.minimum(left, right))))

    raw = np.array([log_a_raw(ti) for ti in t])
    a0 = log_a_raw(0.0)
    a1 = log_a_raw(1.0)
    corrected = raw - (1.0 - t) * a0 - t * a1
    a_vals = np.exp(corrected)
    return np.clip(a_vals, np.maximum(t, 1.0 - t), 1.0)


class TestPickands:
    @pytest.mark.parametrize("m", [10, 57, 400])
    @pytest.mark.parametrize("grid", ["default", "interior"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_per_t_loop(self, m, grid, ties):
        rng = np.random.default_rng(m)
        pairs = gumbel_copula_sample(2.0, 2, rng, size=m)
        if ties:
            pairs = np.round(pairs, 1)
        if grid == "default":
            t = np.linspace(0.0, 1.0, 201)
            a = pickands_cfg(pairs)
        else:
            t = np.sort(rng.uniform(0.01, 0.99, size=37))
            a = pickands_cfg(pairs, t)
        np.testing.assert_array_equal(a, pickands_cfg_loop(pairs, t))

    def test_endpoints_and_bounds(self):
        rng = np.random.default_rng(3)
        pairs = rng.uniform(size=(500, 2))
        t = np.linspace(0, 1, 101)
        a = pickands_cfg(pairs, t)
        assert a[0] == pytest.approx(1.0, abs=1e-12)
        assert a[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(a <= 1.0 + 1e-12)
        assert np.all(a >= np.maximum(t, 1 - t) - 1e-12)

    def test_independence_is_flat_one(self):
        rng = np.random.default_rng(4)
        pairs = rng.uniform(size=(10_000, 2))
        a = pickands_cfg(pairs)
        assert np.max(np.abs(a - 1.0)) < 0.05

    def test_strong_dependence_dips(self):
        rng = np.random.default_rng(5)
        u = gumbel_copula_sample(4.0, 2, rng, size=5000)
        a = pickands_cfg(u)
        # Gumbel dependence function at t=1/2 is 2**(1/theta - 1)
        assert a[100] == pytest.approx(2 ** (1 / 4.0 - 1), abs=0.05)

    def test_small_sample_rejected(self):
        with pytest.raises(DataError):
            pickands_cfg(np.ones((5, 2)))

    @pytest.mark.parametrize("t", [-0.1, 1.1, np.nan])
    def test_grid_outside_unit_interval_rejected(self, t):
        pairs = np.random.default_rng(6).uniform(size=(50, 2))
        with pytest.raises(DomainError, match="t grid"):
            pickands_cfg(pairs, [0.5, t])


class TestSemiSigma:
    def test_diagonal_is_exactly_c(self):
        config = TailConfig(k=np.array([20, 10, 5]))
        dep = TailDependence.independent(3)
        sigma = semi_sigma(config, np.ones(3), dep)
        np.testing.assert_allclose(np.diag(sigma), [1.0, 2.0, 4.0])

    def test_independent_sites_give_diagonal(self):
        config = TailConfig(k=np.array([10, 10]))
        sigma = semi_sigma(config, np.ones(2), TailDependence.independent(2))
        assert sigma[0, 1] == 0.0

    def test_comonotone_unit_entries(self):
        config = TailConfig(k=np.array([10, 10, 10]))
        sigma = semi_sigma(config, np.ones(3), TailDependence.comonotone(3))
        np.testing.assert_allclose(sigma, np.ones((3, 3)))

    @pytest.mark.parametrize("method", ["empirical", "pickands_cfg"])
    def test_matches_per_pair_loop(self, method):
        # c_l c_m min(r_l, r_m) Lambda_lm, multiplied in this order
        scheme, _, _ = staggered_tail_scheme()
        ks = np.array([12, 9, 15, 10, 7])
        dep = TailDependence.from_scheme(scheme, ks, method)
        r = scheme.ratios
        sigma = semi_sigma(TailConfig(k=ks), r, dep)
        c = ks[0] / ks.astype(float)
        lam = dep.matrix(1.0 / (r * c))
        for l in range(5):
            assert sigma[l, l] == c[l]
            for m in range(5):
                if l != m:
                    assert sigma[l, m] == c[l] * c[m] * min(r[l], r[m]) * lam[l, m]

    @pytest.mark.parametrize("r", [[1.0, np.nan], [1.0, 0.0], [1.0, 1.5], [np.inf, 1.0]])
    def test_invalid_ratios_rejected(self, r):
        with pytest.raises(ParameterError):
            semi_sigma(TailConfig(k=[10, 10]), r, TailDependence.comonotone(2))

    @pytest.mark.parametrize("d", [1, 3])
    def test_dependence_of_other_size_rejected(self, d):
        with pytest.raises(ParameterError):
            semi_sigma(TailConfig(k=[10, 10]), np.ones(2), TailDependence.comonotone(d))

    def test_symmetry_and_psd_on_simulated_tables(self):
        scheme = make_tail_scheme(seed=8, d=3, n=5000)
        ks = np.array([default_k(5000, 3)] * 3)
        dep = TailDependence.from_scheme(scheme, ks, "empirical")
        sigma = semi_sigma(TailConfig(k=ks), scheme.ratios, dep)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-8


class TestRegionalGamma:
    def test_pickands_needs_ten_overlap_years(self):
        rng = np.random.default_rng(9)
        data = gumbel_copula_sample(2.0, 3, rng, size=60) ** -0.4
        offsets = [0, 0, 52]  # the last site has 8 years
        scheme = ObservationScheme(
            tuple(SiteSeries(f"s{j}", a, data[a:, j]) for j, a in enumerate(offsets))
        )
        regional_tail_fit(scheme, dependence_method="empirical")
        with pytest.raises(DataError, match=">= 10 pairs"):
            regional_tail_fit(scheme, dependence_method="pickands_cfg")

    def test_a_site_whose_top_values_tie_is_rejected(self):
        # top k values that all equal the threshold give a Hill index of exactly 0,
        # which would pool into a regional index as if it were estimated
        data = np.stack([s.values for s in make_tail_scheme(seed=9, d=3, n=200).sites], axis=1)
        ranked, k = np.sort(data[:, 1]), 20
        data[:, 1] = np.minimum(data[:, 1], ranked[-k])  # the top k tie above the threshold
        assert regional_tail_fit(ObservationScheme.from_matrix(data), k).gammas[1] > 0
        data[:, 1] = np.minimum(data[:, 1], ranked[-k - 1])  # ... and at it
        with pytest.raises(DataError, match="site 'site2': its top 20 values are all equal"):
            regional_tail_fit(ObservationScheme.from_matrix(data), k)

    def test_single_site_is_local(self):
        scheme = make_tail_scheme(d=1, n=300)
        fit = regional_tail_fit(scheme)
        assert fit.gamma == pytest.approx(hill(scheme.sites[0].values, int(fit.k[0])))

    def test_optimal_weights_grid_check(self):
        # the closed-form weights minimize w' Sigma w over the simplex line
        scheme = make_tail_scheme(seed=10, d=3, n=2000)
        fit = regional_tail_fit(scheme)
        best = fit.weights @ fit.sigma @ fit.weights
        for w1 in np.linspace(0, 1, 21):
            for w2 in np.linspace(0, 1 - w1, 11):
                w = np.array([w1, w2, 1 - w1 - w2])
                assert best <= w @ fit.sigma @ w + 1e-10

    def test_identical_sites_fall_back_to_length_proportional(self):
        # two copies of one site: the tail covariance is singular
        scheme = make_tail_scheme(seed=9, d=2, n=200)
        values = scheme.sites[0].values
        twins = ObservationScheme(
            (SiteSeries("a", 0, values), SiteSeries("b", 0, values.copy()))
        )
        fit = regional_tail_fit(twins)
        assert fit.weights_source == "length-proportional"
        np.testing.assert_array_equal(fit.weights, [0.5, 0.5])

    @pytest.mark.parametrize(
        "weights",
        [[1.0, 1.0], [1.0, np.inf, 0.0], [1.0, -1.0, 0.0], [1e308, 1e308, 1.0]],
        ids=["wrong-length", "non-finite", "zero-sum", "overflowing-sum"],
    )
    def test_invalid_user_weights_rejected(self, weights):
        scheme = make_tail_scheme(seed=9, d=3, n=200)
        with pytest.raises(ParameterError):
            regional_tail_fit(scheme, weights=weights)

    def test_non_integral_k_rejected(self):
        scheme = make_tail_scheme(seed=9, d=3, n=200)
        for k in (10.7, [10, 10.5, 12], np.nan, "ten"):
            with pytest.raises(ParameterError, match="integers"):
                regional_tail_fit(scheme, k=k)
        with pytest.raises(ParameterError, match="integers"):
            TailConfig(k=[10.5, 10, 10])
        assert regional_tail_fit(scheme, k=10.0).gamma == regional_tail_fit(scheme, k=10).gamma
        np.testing.assert_array_equal(TailConfig(k=[10.0, 12.0]).k, [10, 12])

    def test_unknown_dependence_method_rejected_alike(self):
        scheme = make_tail_scheme(seed=9, d=3, n=200)
        texts = set()
        for call in (
            lambda: TailConfig(k=[10, 10, 10], dependence_method="pickands"),
            lambda: TailDependence.from_scheme(scheme, 10, "pickands"),
            lambda: regional_tail_fit(scheme, dependence_method="pickands"),
        ):
            with pytest.raises(ParameterError, match="unknown dependence method") as info:
                call()
            texts.add(str(info.value))
        assert len(texts) == 1, texts

    @pytest.mark.parametrize("method", ["empirical", "pickands_cfg"])
    def test_read_offs_match_the_standalone_functions(self, method):
        scheme, _, _ = staggered_tail_scheme()
        fit = regional_tail_fit(scheme, dependence_method=method)
        config = TailConfig(fit.k, fit.weights, fit.dependence_method)
        for j, site in enumerate(scheme.sites):
            _, threshold = _hill_threshold(site.values, fit.k[j])
            assert fit.thresholds[j] == threshold
            for p in (0.99, 0.999):
                q = weissman_quantile(site.values, int(fit.k[j]), p, fit.gamma)
                assert fit.quantile(site.site_id, p) == q
                ci = fit.interval(site.site_id, p, 0.1)
                ref = weissman_ci(scheme, config, site.site_id, p, 0.1)
                assert ci.estimate == q
                assert ci.lower == pytest.approx(ref.lower, rel=1e-12)
                assert ci.upper == pytest.approx(ref.upper, rel=1e-12)

    def test_optimal_beats_uniform_on_dependent_region(self):
        # staggered records make site informativeness unequal; optimal
        # weighting beats uniform weights over replications
        reps = 2000
        opt_est, uni_est = [], []
        for r in range(reps):
            rng = np.random.default_rng(3000 + r)
            n, d = 240, 3
            u = gumbel_copula_sample(2.5, d, rng, size=n)
            data = u**-0.4
            sites = [
                SiteSeries("a", 0, data[:, 0]),
                SiteSeries("b", 120, data[120:, 1]),
                SiteSeries("c", 160, data[160:, 2]),
            ]
            scheme = ObservationScheme(tuple(sites))
            fit = regional_tail_fit(scheme)
            opt_est.append(fit.gamma)
            uni = np.full(d, 1 / d)
            uni_est.append(float(uni @ fit.gammas))
        assert np.var(opt_est) < np.var(uni_est)


class TestWeissmanCi:
    @pytest.mark.parametrize("user_weights", [False, True])
    @pytest.mark.parametrize("method", ["empirical", "pickands_cfg"])
    def test_matches_regional_tail_fit(self, user_weights, method):
        scheme = make_tail_scheme(seed=20, d=4, n=200)
        k = np.array([25, 20, 30, 25])
        weights = np.array([0.1, 0.2, 0.3, 0.4]) if user_weights else None
        p, alpha = 0.995, 0.1
        ci = weissman_ci(scheme, TailConfig(k, weights, method), "site2", p, alpha)
        fit = regional_tail_fit(scheme, k, method, weights)
        q = weissman_quantile(scheme.sites[1].values, 20, p, fit.gamma)
        var = fit.gamma**2 / k[0] * (fit.weights @ fit.sigma @ fit.weights)
        half = norm.ppf(1 - alpha / 2) * math.sqrt(var) * math.log(20 / (200 * (1 - p)))
        assert ci.estimate == q
        # the shared q -/+ z (q s |log r|) keeps the relative form q (1 -/+ z s |log r|)
        assert ci.lower == pytest.approx(q * (1 - half), rel=1e-15)
        assert ci.upper == pytest.approx(q * (1 + half), rel=1e-15)

    @pytest.mark.parametrize(
        "weights", [[np.nan, 0.5, 0.5], [np.inf, -np.inf, 1.0], [0.5, 0.4, 0.0]]
    )
    def test_config_rejects_invalid_weights(self, weights):
        with pytest.raises(ParameterError):
            TailConfig(k=np.array([10] * 3), weights=weights)

    def test_weights_of_wrong_length_rejected(self):
        scheme = make_tail_scheme(seed=11, d=3, n=200)
        config = TailConfig(k=np.array([10] * 3), weights=np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            weissman_ci(scheme, config, "site1", 0.995, 0.05)

    def test_interval_brackets_estimate(self):
        scheme = make_tail_scheme(seed=11, d=4, n=200)
        config = TailConfig(k=np.array([25] * 4))
        ci = weissman_ci(scheme, config, "site1", 0.995, 0.05)
        assert ci.lower < ci.estimate < ci.upper

    def test_interval_ordered_inside_data_range(self):
        # at p <= 1 - k/n the log extrapolation ratio is negative; the
        # s.d. of log q it scales is not
        rng = np.random.default_rng(5)
        scheme = ObservationScheme.from_matrix(pareto_sample(0.4, (50, 3), rng))
        fit = regional_tail_fit(scheme, k=10)
        with pytest.warns(UserWarning, match="extrapolation"):
            ci = fit.interval("site1", 0.5, 0.05)
        assert ci.lower < ci.estimate < ci.upper

    def test_alpha_one_degenerates(self):
        scheme = make_tail_scheme(seed=12, d=3, n=200)
        config = TailConfig(k=np.array([25] * 3))
        ci = weissman_ci(scheme, config, "site1", 0.995, 1 - 1e-12)
        assert ci.upper - ci.lower == pytest.approx(0.0, abs=1e-6)

    def test_coverage_on_exact_powerlaw_regions(self):
        # simulation oracle: independent sites with exact power tails,
        # where the extrapolation formula is unbiased; first-order
        # intervals should cover close to nominal
        gamma, d, n, p = 0.4, 5, 100, 0.99
        q_true = (1 - p) ** (-gamma)
        k = default_k(n, d)
        hits = 0
        reps = 400
        for stream in np.random.SeedSequence(2718).spawn(reps):
            rng = np.random.default_rng(stream)
            data = rng.uniform(size=(n, d)) ** (-gamma)
            scheme = ObservationScheme.from_matrix(data)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ci = weissman_ci(scheme, TailConfig(k=np.full(d, k)), "site1", p, 0.05)
            hits += ci.lower <= q_true <= ci.upper
        assert 0.85 <= hits / reps <= 0.99

    def test_width_linear_in_log_extrapolation(self):
        scheme = make_tail_scheme(seed=13, d=3, n=200)
        config = TailConfig(k=np.array([25] * 3))
        j = scheme.site_index("site1")
        n1 = scheme.sites[j].length
        widths = []
        logs = []
        for p in (0.99, 0.999, 0.9999):
            ci = weissman_ci(scheme, config, "site1", p, 0.05)
            widths.append((ci.upper - ci.lower) / (2 * ci.estimate))
            logs.append(math.log(25 / (n1 * (1 - p))))
        ratios = [w / l for w, l in zip(widths, logs)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-9)


class TestSeasonalWeissman:
    def test_not_recommended_warning(self):
        scheme_w = make_tail_scheme(seed=14, d=3, n=200)
        scheme_s = make_tail_scheme(seed=15, d=3, n=200)
        with pytest.warns(UserWarning, match="not recommended"):
            seasonal_weissman_quantile(scheme_w, scheme_s, "site1", 0.999)

    def test_identical_schemes_square_root_level(self):
        scheme = make_tail_scheme(seed=16, d=3, n=200)
        p = 0.999
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q = seasonal_weissman_quantile(scheme, scheme, "site1", p)
            fit = regional_tail_fit(scheme)
            j = scheme.site_index("site1")
            expected = weissman_quantile(
                scheme.sites[j].values, int(fit.k[j]), math.sqrt(p), fit.gamma
            )
        assert q == pytest.approx(expected, rel=1e-9)

    def test_zero_pooled_index_rejected(self):
        # a constant season has a Hill index of exactly 0 at every site
        const = ObservationScheme.from_matrix(np.full((50, 3), 2.0))
        heavy = make_tail_scheme(seed=19, d=3, n=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for winter, summer in ((const, heavy), (heavy, const)):
                with pytest.raises(DataError, match="site 'site1': its top 18 values are all"):
                    seasonal_weissman_quantile(winter, summer, "site1", 0.99)

    def test_negative_pooled_index_rejected(self):
        # the Lagrange weights of a staggered region can be negative, so positive
        # local indices can pool to a negative one, where the tail cdf is undefined
        rng = np.random.default_rng(37)
        x = rng.pareto(1.0, size=(30, 4)) + 1
        common = rng.uniform(size=(30, 4)) < 0.5
        x[common] = (x[:, :1] * rng.uniform(0.5, 2.0, size=(30, 4)))[common]
        offsets, k = [0, 10, 13, 13], [26, 17, 4, 11]
        negative = ObservationScheme(
            tuple(SiteSeries(f"site{j + 1}", a, x[a:, j]) for j, a in enumerate(offsets))
        )
        fit = regional_tail_fit(negative, k)
        assert (fit.gammas > 0).all() and fit.weights.min() < 0 and fit.gamma < 0
        heavy = make_tail_scheme(seed=19, d=4, n=30)
        assert regional_tail_fit(heavy, k).gamma > 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for winter, summer in ((negative, heavy), (heavy, negative)):
                with pytest.raises(NumericError, match="not positive"):
                    seasonal_weissman_quantile(winter, summer, "site1", 0.99, k=k)

    def test_level_below_threshold_coverage_rejected(self):
        scheme_w = make_tail_scheme(seed=17, d=3, n=200)
        scheme_s = make_tail_scheme(seed=18, d=3, n=200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DomainError):
                seasonal_weissman_quantile(scheme_w, scheme_s, "site1", 0.2)
