"""Tests for the recursive truncated-normal moment approximation."""

import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from skewt_estim._linalg import symmetrize
from skewt_estim.bench.experiments import _random_case, _random_order_trunc
from skewt_estim.exceptions import (
    DegenerateDirectionError,
    EstimationError,
    NumericalFailureError,
    OracleInfeasibleError,
)
from skewt_estim.truncnorm import (
    _minimax_tilt,
    _rec_trunc_row,
    _rec_trunc_rows,
    _tilted_draws,
    hazard,
    rec_trunc,
    select_next,
    tmnd_oracle,
)

from reference import rec_trunc_stepwise, truncated_univariate_moments

HALF_NORMAL_MEAN = np.sqrt(2.0 / np.pi)
HALF_NORMAL_VAR = 1.0 - 2.0 / np.pi


def truncate_in(order, mean, cov, truncated, seed=None):
    """rec_trunc's steps in an order as rec_trunc_stepwise names it:
    "greedy" is rec_trunc, "random" the ordering studies'
    _random_order_trunc at seed, and an index sequence one one-index
    rec_trunc call per index, in that order."""
    if order == "greedy":
        return rec_trunc(mean, cov, truncated)
    if order == "random":
        return _random_order_trunc(mean, cov, truncated, seed)
    for k in order:
        mean, cov = rec_trunc(mean, cov, [k])
    return mean, cov


class TestHazard:
    def test_at_zero(self):
        mean_coeff, cov_coeff, underflowed = hazard(0.0)
        assert mean_coeff == pytest.approx(2.0 * norm.pdf(0.0), abs=1e-12)
        assert cov_coeff == pytest.approx(2.0 / np.pi, abs=1e-12)
        assert not underflowed

    def test_deep_underflow_limits(self):
        mean_coeff, cov_coeff, underflowed = hazard(-50.0)
        assert underflowed
        assert mean_coeff == 50.0
        assert cov_coeff == 1.0

    def test_inactive_constraint(self):
        mean_coeff, cov_coeff, _ = hazard(8.0)
        assert mean_coeff < 1e-12
        assert abs(cov_coeff) < 1e-12

    def test_cov_coeff_bounds(self):
        for xi in np.linspace(-36.9, 30.0, 200):
            _, cov_coeff, _ = hazard(xi)
            assert 0.0 <= cov_coeff <= 1.0

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, xi):
        with pytest.raises(NumericalFailureError):
            hazard(xi)


class TestTruncateOnce:
    """rec_trunc with one index is the single step z_k >= 0."""

    def test_standard_half_normal(self):
        mean, cov = rec_trunc([0.0], [[1.0]], [0])
        assert mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=1e-12)
        assert cov[0, 0] == pytest.approx(HALF_NORMAL_VAR, abs=1e-12)

    def test_independent_coordinate_untouched(self):
        mean, cov = rec_trunc([0.0, 0.0], np.eye(2), [0])
        np.testing.assert_allclose(
            mean, [HALF_NORMAL_MEAN, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            cov, np.diag([HALF_NORMAL_VAR, 1.0]), atol=1e-12
        )

    def test_inactive_constraint(self):
        mean, cov = rec_trunc([10.0], [[1.0]], [0])
        assert mean[0] == pytest.approx(10.0, abs=1e-8)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_off_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = rng.uniform(-3.0, 3.0)
            var = rng.uniform(0.1, 4.0)
            mean, cov = rec_trunc([mu], [[var]], [0])
            ref_mean, ref_var = truncated_univariate_moments(mu, var)
            assert mean[0] == pytest.approx(ref_mean, abs=1e-10)
            assert cov[0, 0] == pytest.approx(ref_var, abs=1e-10)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_out_of_range_index_rejected(self, k):
        with pytest.raises(ValueError, match="out of range for dim 2"):
            rec_trunc(np.zeros(2), np.eye(2), [k])

    @pytest.mark.parametrize(
        "var, msg",
        [
            (0.0, "direction 1 has variance 0.000e+00 <= tolerance 0.000e+00"),
            (-1e-16, "direction 1 has variance -1.000e-16 <= tolerance -1.000e-30"),
        ],
    )
    def test_degenerate_direction_rejected(self, var, msg):
        """A nonpositive variance is at most 1e-14 times itself."""
        with pytest.raises(DegenerateDirectionError, match=re.escape(msg)):
            rec_trunc([0.0, 0.0], np.diag([1.0, var]), [1])


class TestSelectNext:
    def test_unit_variance_argmin(self):
        assert select_next([1.0, -2.0, 0.5], np.eye(3), {0, 1, 2}) == 1

    def test_ratio_comparison(self):
        assert select_next([1.0, 1.0], np.diag([1.0, 100.0]), {0, 1}) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert select_next([0.0, 0.0], np.eye(2), {0, 1}) == 0

    @pytest.mark.parametrize("remaining", [[-1], [5]], ids=["negative", "past_end"])
    def test_out_of_range_index_rejected(self, remaining):
        with pytest.raises(ValueError, match="out of range for dim 2"):
            select_next(np.zeros(2), np.eye(2), remaining)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            select_next([0.0], [[1.0]], set())

    def test_minimizes_truncated_probability(self):
        # The greedy pick maximizes removed mass: smallest Phi(ratio).
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            mean = rng.normal(0.0, 2.0, dim)
            var = rng.uniform(0.2, 3.0, dim)
            k = select_next(mean, np.diag(var), range(dim))
            cdfs = norm.cdf(mean / np.sqrt(var))
            assert cdfs[k] == cdfs.min()


class TestRecTrunc:
    def test_independent_product_of_half_normals(self):
        mean, cov = rec_trunc([0.0, 0.0], np.eye(2), {0, 1})
        np.testing.assert_allclose(
            mean, [HALF_NORMAL_MEAN] * 2, atol=1e-12
        )
        np.testing.assert_allclose(
            cov, np.eye(2) * HALF_NORMAL_VAR, atol=1e-12
        )

    def test_empty_truncation_is_identity(self):
        mean, cov = np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]])
        out_mean, out_cov = rec_trunc(mean, cov, set())
        assert out_mean is mean and out_cov is cov

    def test_correlated_close_to_oracle(self):
        mean, cov = [0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]]
        approx, _ = rec_trunc(mean, cov, {0, 1})
        oracle, _ = tmnd_oracle(mean, cov, {0, 1}, 1_000_000, seed=7)
        np.testing.assert_allclose(approx, oracle, atol=0.05)

    def test_optimal_policy_bit_reproducible(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        mean, cov = rng.normal(size=5), a @ a.T + np.eye(5)
        r1 = rec_trunc(mean, cov, {0, 2, 4})
        r2 = rec_trunc(mean, cov, {0, 2, 4})
        assert np.array_equal(r1[0], r2[0])
        assert np.array_equal(r1[1], r2[1])

    def test_out_of_range_indices_rejected(self):
        for indices in ({1}, {-1}):
            with pytest.raises(ValueError, match="out of range for dim 1"):
                rec_trunc([0.0], [[1.0]], indices)
            with pytest.raises(ValueError, match="out of range for dim 1"):
                _rec_trunc_rows(np.zeros((2, 1)), np.ones((2, 1, 1)), indices)

    @pytest.mark.parametrize("indices", [[0.7], [np.float64(0.0)], [0, 1.0]], ids=["float", "numpy_float", "mixed"])
    def test_non_integer_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="truncated indices must be integers"):
            rec_trunc([-1.0, 2.0], np.eye(2), indices)
        with pytest.raises(ValueError, match="truncated indices must be integers"):
            _rec_trunc_rows(np.zeros((2, 2)), np.stack([np.eye(2)] * 2), indices)

    def test_numpy_integer_indices_accepted(self):
        mean, cov = [-1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]]
        want = rec_trunc(mean, cov, [0, 1])
        for got in (rec_trunc(mean, cov, np.array([0, 1])), rec_trunc(mean, cov, [np.int32(0), np.int64(1)])):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_diagonal_matches_univariate_closed_form(self):
        # On diagonal covariances the recursion is exact per coordinate.
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            mean = rng.uniform(-3.0, 3.0, dim)
            var = rng.uniform(0.1, 5.0, dim)
            subset = [i for i in range(dim) if rng.random() < 0.7]
            out_mean, out_cov = rec_trunc(mean, np.diag(var), subset)
            exp_mean = mean.copy()
            exp_var = var.copy()
            for i in subset:
                exp_mean[i], exp_var[i] = truncated_univariate_moments(
                    mean[i], var[i]
                )
            np.testing.assert_allclose(out_mean, exp_mean, atol=1e-10)
            np.testing.assert_allclose(out_cov, np.diag(exp_var), atol=1e-10)

    def test_order_irrelevant_on_diagonal(self):
        rng = np.random.default_rng(13)
        mean = rng.uniform(-2.0, 2.0, 5)
        var = rng.uniform(0.2, 3.0, 5)
        cov = np.diag(var)
        ref_mean, ref_cov = rec_trunc(mean, cov, range(5))
        for _ in range(5):
            order = tuple(rng.permutation(5))
            out_mean, out_cov = truncate_in(order, mean, cov, range(5))
            np.testing.assert_allclose(out_mean, ref_mean, atol=1e-10)
            np.testing.assert_allclose(out_cov, ref_cov, atol=1e-10)

    def test_truncated_variance_never_increases(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T + 0.1 * np.eye(dim)
            mean = rng.normal(0.0, 2.0, dim)
            k = int(rng.integers(dim))
            _, out_cov = rec_trunc(mean, cov, [k])
            assert out_cov[k, k] <= cov[k, k] + 1e-12

    def test_inactive_limit_leaves_moments(self):
        mean, cov = [9.0, 0.5], [[1.0, 0.4], [0.4, 2.0]]
        out_mean, out_cov = rec_trunc(mean, cov, [0])  # ratio 9 > 8
        np.testing.assert_allclose(out_mean, mean, rtol=1e-10)
        np.testing.assert_allclose(out_cov, cov, rtol=1e-10)

    def test_random_order_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        mean, cov = rng.normal(size=4), a @ a.T + np.eye(4)
        r1, _ = _random_order_trunc(mean, cov, range(4), seed=5)
        r2, _ = _random_order_trunc(mean, cov, range(4), seed=5)
        assert np.array_equal(r1, r2)


class TestScalarLoop:
    """rec_trunc's order and coefficients run on Python floats, with each
    remaining direction's variance checked at every step against 1e-14
    times its own variance at the input."""

    # var_1 = 1e-9 is 1e-15 of the trace, and step one, deep in z_0's
    # tail, zeroes var_0.
    SMALL_BESIDE_LARGE = (np.array([-4e4, 0.0]), np.diag([1e6, 1e-9]))
    # z_0 is healthy beside a variance of 1e40 that dominates the trace.
    HEALTHY_BESIDE_HUGE = (np.array([-1.0, 0.0]), np.diag([1.0, 1e40]))

    @pytest.mark.parametrize("case", ["SMALL_BESIDE_LARGE", "HEALTHY_BESIDE_HUGE"])
    @pytest.mark.parametrize("order", ["greedy", (0, 1)])
    def test_small_variance_beside_large_one_is_truncated(self, case, order):
        mean, cov = getattr(self, case)
        out_mean, out_cov = truncate_in(order, mean, cov, [0, 1])
        ref_mean, ref_cov = rec_trunc_stepwise(mean, cov, [0, 1], order)
        np.testing.assert_array_equal(out_mean, ref_mean)
        np.testing.assert_array_equal(out_cov, ref_cov)
        assert out_cov[1, 1] < cov[1, 1]
        rows_mean, rows_cov, failed = _rec_trunc_rows(mean[None], cov[None], [0, 1])
        assert failed == {}
        np.testing.assert_array_equal(rows_mean[0], ref_mean)
        np.testing.assert_array_equal(rows_cov[0], ref_cov)

    @pytest.mark.parametrize(
        "mean, cov, msg",
        [
            (np.array([0.0, -1.0]), np.diag([1.0, 0.0]), "direction 1 has variance 0.000e+00 <= tolerance 0.000e+00"),
            # Step one, deep in z_0's tail, takes z_1's variance with it.
            (np.array([-40.0, 0.0]), np.ones((2, 2)), "direction 1 has variance 0.000e+00 <= tolerance 1.000e-14"),
            # Step one leaves 1.1e-15 of z_2's variance, 1 + 1e-15.
            (np.array([-40.0, 0.0, 0.0]), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0 + 1e-15]]), "direction 2 has variance 1.110e-15 <= tolerance 1.000e-14"),
        ],
    )
    def test_variance_under_own_tolerance_raises(self, mean, cov, msg):
        dim = mean.size
        truncated = [0, dim - 1]
        with pytest.raises(DegenerateDirectionError, match=re.escape(msg)):
            rec_trunc(mean, cov, truncated)
        *_, failed = _rec_trunc_rows(
            np.stack([np.zeros(dim), mean]), np.stack([np.eye(dim), cov]), truncated
        )
        assert list(failed) == [1]  # the stacked kernel returns the row's error
        assert isinstance(failed[1], DegenerateDirectionError) and str(failed[1]) == msg

    def test_greedy_pick_is_numpy_argmin_with_non_finite_means(self):
        rng = np.random.default_rng(29)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        for _ in range(500):
            dim = int(rng.integers(1, 9))
            mean = rng.choice([-1.0, 0.0, 1.0], dim) * rng.integers(1, 3, dim)
            hit = rng.random(dim) < 0.3
            mean[hit] = rng.choice(specials, hit.sum())
            var = rng.choice([1.0, 4.0, np.inf], dim, p=[0.45, 0.45, 0.1])
            remaining = sorted({int(i) for i in rng.integers(0, dim, dim)})
            infinite = [i for i in remaining if var[i] == np.inf]
            if infinite:  # inf <= 1e-14 * inf, and no finite moments follow
                msg = f"direction {infinite[0]} has variance inf <= tolerance inf"
                with pytest.raises(DegenerateDirectionError, match=re.escape(msg)):
                    select_next(mean, np.diag(var), remaining)
                continue
            with np.errstate(invalid="ignore"):
                ratios = mean[remaining] / np.sqrt(var[remaining])
            assert select_next(mean, np.diag(var), remaining) == remaining[int(np.argmin(ratios))]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_fails_typed(self, value):
        mean = np.array([0.5, value, -0.2])
        msg = f"truncation distance is not finite, got {value!r}"
        for order, seed in (("greedy", None), ("random", 3), ((1, 0, 2), None)):
            with pytest.raises(NumericalFailureError, match=re.escape(msg)):
                truncate_in(order, mean, np.eye(3), range(3), seed)
        *_, failed = _rec_trunc_rows(
            np.stack([np.zeros(3), mean]), np.stack([np.eye(3)] * 2), range(3)
        )
        assert list(failed) == [1]  # the stacked kernel returns the row's error
        assert isinstance(failed[1], NumericalFailureError) and str(failed[1]) == msg


@st.composite
def truncation_cases(draw):
    """Symmetric SPD moments of dim 1-16 (standardized means down into the
    Phi-underflow range), a truncated index set, an order as
    rec_trunc_stepwise names it and the random order's seed."""
    dim = draw(st.integers(1, 16))
    entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim * dim,
                            max_size=dim * dim))
    a = np.array(entries).reshape(dim, dim)
    cov = a @ a.T + draw(st.floats(0.1, 2.0)) * np.eye(dim)
    cov = 0.5 * (cov + cov.T)
    ratios = np.array(draw(st.lists(st.floats(-40.0, 10.0), min_size=dim,
                                    max_size=dim)))
    truncated = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    kind = draw(st.sampled_from(["greedy", "random", "fixed"]))
    seed = None
    if kind == "greedy":
        order = "greedy"
    elif kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        order = "random"
    else:
        order = draw(st.permutations(truncated))
    return ratios * np.sqrt(np.diag(cov)), cov, truncated, order, seed


class TestRecTruncProperties:
    @settings(deadline=None, max_examples=300)
    @given(truncation_cases())
    def test_bit_identical_to_stepwise_reference(self, case):
        mean, cov, truncated, order, seed = case
        ref_mean, ref_cov = rec_trunc_stepwise(
            mean, cov, truncated, order, seed
        )
        out_mean, out_cov = truncate_in(order, mean, cov, truncated, seed)
        np.testing.assert_array_equal(out_mean, ref_mean)
        np.testing.assert_array_equal(out_cov, ref_cov)

    @settings(deadline=None, max_examples=300)
    @given(truncation_cases())
    def test_psd_and_variances_never_increase(self, case):
        mean, cov, truncated, order, seed = case
        _, out_cov = truncate_in(order, mean, cov, truncated, seed)
        np.testing.assert_array_equal(out_cov, out_cov.T)
        assert np.linalg.eigvalsh(out_cov).min() >= -1e-12 * np.trace(cov)
        assert np.all(out_cov.diagonal() <= cov.diagonal())


@st.composite
def kernel_cases(draw):
    """Symmetric SPD moments of dim 1-12 with standardized means down to
    -45 (Phi underflows below -37), a truncated index set, and at most
    one anomaly in a truncated direction: a degenerate variance (zero,
    or tiny with its row and column zeroed) or a NaN mean, whose
    truncation distance is NaN."""
    dim = draw(st.integers(1, 12))
    entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=dim * dim, max_size=dim * dim))
    a = np.array(entries).reshape(dim, dim)
    cov = a @ a.T + draw(st.floats(0.1, 2.0)) * np.eye(dim)
    cov = 0.5 * (cov + cov.T)
    ratios = np.array(draw(st.lists(st.floats(-45.0, 10.0), min_size=dim, max_size=dim)))
    mean = ratios * np.sqrt(np.diag(cov))
    truncated = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    k = draw(st.sampled_from(truncated))
    anomaly = draw(st.sampled_from(["none", "zero variance", "tiny variance", "nan mean"]))
    if anomaly == "nan mean":
        mean[k] = np.nan
    elif anomaly != "none":
        cov[k, :] = cov[:, k] = 0.0
        cov[k, k] = 0.0 if anomaly == "zero variance" else 1e-20
    return mean, cov, truncated


def outcome(call):
    """The (mean, cov) a call returns, or the type and message of the
    EstimationError it raises."""
    try:
        return call()
    except EstimationError as err:
        return type(err), str(err)


class TestOneRowKernel:
    """_rec_trunc_row, which the filter's one-row update calls without
    rec_trunc's input checks, is rec_trunc's greedy steps bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(kernel_cases())
    def test_bit_equal_to_rec_trunc_and_to_each_stacked_row(self, case):
        mean, cov, truncated = case
        with np.errstate(all="ignore"):
            got = outcome(lambda: _rec_trunc_row(mean.copy(), symmetrize(cov), truncated))
            want = outcome(lambda: rec_trunc(mean, cov, truncated))
            benign = np.zeros(mean.size), np.eye(mean.size)
            *rows, failed = _rec_trunc_rows(
                np.stack([benign[0], mean]), np.stack([benign[1], cov]), truncated
            )
        if isinstance(want[0], type):
            assert got == want
            assert list(failed) == [1]  # the stacked kernel returns the row's error
            assert (type(failed[1]), str(failed[1])) == want
            return
        assert failed == {}
        for g, w, r in zip(got, want, rows):
            np.testing.assert_array_equal(g, w)
            np.testing.assert_array_equal(r[1], w)

    def test_works_in_place(self):
        mean = np.array([-1.0, 0.5, 2.0])
        cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.5]])
        want_mean, want_cov = rec_trunc(mean, cov, range(3))
        out_mean, out_cov = _rec_trunc_row(mean, cov, range(3))
        assert out_mean is mean and out_cov is cov
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(cov, want_cov)


def criterion_3_case(i):
    """The (mean, cov) of case i of truncnorm_comparison(dims=(3, 8),
    seed=5), criterion 3's cases."""
    rng = np.random.default_rng(5)
    for _ in range(i + 1):
        mean, cov = _random_case(rng, int(rng.integers(3, 9)))
    return mean, cov


THIN = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # THIN @ THIN.T has rank 2


def assert_mean_within(mean, cov, n_samples, want, n_se=4.0):
    """Each oracle mean within n_se standard errors of want."""
    se = np.sqrt(np.diagonal(cov) / n_samples)
    assert np.all(np.abs(mean - want) <= n_se * se), (mean, want, se)


@pytest.mark.filterwarnings("error")
class TestOracle:
    def test_half_normal_high_precision(self):
        mean, _ = tmnd_oracle([0.0], [[1.0]], {0}, 10_000_000, seed=2)
        assert mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=3e-4)

    def test_no_truncation_gives_plain_moments(self):
        mean, cov = [1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]
        out_mean, out_cov = tmnd_oracle(mean, cov, set(), 200_000, seed=4)
        np.testing.assert_allclose(out_mean, mean, atol=0.02)
        np.testing.assert_allclose(out_cov, cov, atol=0.05)

    def test_deep_tail_mean(self):
        # Plain rejection would accept ~1e-198; the inverse-hazard asymptote
        # gives the mean.
        mean, _ = tmnd_oracle([-30.0], [[1.0]], {0}, 10_000, seed=3)
        assert mean[0] == pytest.approx(1.0 / 30.0, rel=0.10)

    def test_deterministic_given_seed(self):
        mean, cov = [0.0, -0.5], [[1.0, 0.3], [0.3, 1.0]]
        a = tmnd_oracle(mean, cov, {0, 1}, 50_000, seed=9)
        b = tmnd_oracle(mean, cov, {0, 1}, 50_000, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            tmnd_oracle([0.0], [[1.0]], {0}, 999, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected(self, value):
        with pytest.raises(ValueError, match="mean must be finite"):
            tmnd_oracle([0.0, value], np.eye(2), {1}, 1000, seed=0)

    def test_bivariate_orthant_mean_is_exact(self):
        # E[z_i | z >= 0] of N(0, [[1, rho], [rho, 1]]) is
        # (1 + rho) / sqrt(2 pi) / 2 over the orthant mass
        # 1/4 + arcsin(rho) / (2 pi).
        rho, n = 0.9, 1_000_000
        want = (1.0 + rho) / np.sqrt(2.0 * np.pi) / 2.0 / (0.25 + np.arcsin(rho) / (2.0 * np.pi))
        assert want == pytest.approx(0.885054, abs=1e-6)
        mean, cov = tmnd_oracle([0.0, 0.0], [[1.0, rho], [rho, 1.0]], {0, 1}, n, seed=7)
        assert_mean_within(mean, cov, n, want)

    def test_far_tail_one_dimension(self):
        # N(-1e3, 1) above 0 is nearly exponential of rate 1e3: the mean is
        # 1/a - 2/a**3 + ... at a = 1e3, and the sd equals it to 1e-6.
        n = 100_000
        mean, cov = tmnd_oracle([-1e3], [[1.0]], {0}, n, seed=3)
        assert_mean_within(mean, cov, n, 1e-3 - 2e-9)
        assert np.sqrt(cov[0, 0]) == pytest.approx(1e-3, rel=0.02)

    def test_far_tail_correlated(self):
        # At mean -m (1, 1) the density on the orthant is exp(-m 1^T P z)
        # to relative order 1/m**2 (P the precision): independent
        # exponentials of rate m / (1 + rho), whose mean is (1 + rho) / m.
        rho, m, n = 0.5, 1e3, 100_000
        mean, cov = tmnd_oracle([-m, -m], [[1.0, rho], [rho, 1.0]], {0, 1}, n, seed=3)
        assert_mean_within(mean, cov, n, (1.0 + rho) / m)
        assert abs(cov[0, 1]) <= 4.0 * cov[0, 0] / np.sqrt(n)

    # The criterion-3 cases of least acceptance.
    @pytest.mark.parametrize("case", [34, 86, 91])
    def test_log_weights_never_exceed_psi_star(self, case):
        """The accept step is exact: at the solved tilt no draw's
        log-weight exceeds psi*."""
        mean, cov = criterion_3_case(case)
        *_, ls, lo, mu, psi_star = _minimax_tilt(symmetrize(cov), -mean)
        _, logw = _tilted_draws(np.random.default_rng(case), ls, lo, mu, 20_000)
        assert logw.max() <= psi_star + 1e-9 * abs(psi_star)
        assert np.mean(np.exp(logw - psi_star)) > 0.05

    @pytest.mark.parametrize(
        "cov",
        [np.ones((2, 2)), np.diag([1.0, 0.0]), THIN @ THIN.T],
        ids=["rank_one", "zero_variance", "rank_two_of_three"],
    )
    @pytest.mark.parametrize("truncated", [set(), {0, 1}])
    def test_singular_covariance_raises(self, cov, truncated):
        with pytest.raises(OracleInfeasibleError, match="not positive definite"):
            tmnd_oracle(np.zeros(len(cov)), cov, truncated, 1000, seed=0)

    def test_unsolved_tilt_raises(self, monkeypatch):
        real_root = scipy.optimize.root

        def stopped_early(*args, **kwargs):
            return real_root(*args, **kwargs, options={"maxfev": 2})

        monkeypatch.setattr(scipy.optimize, "root", stopped_early)
        mean, cov = criterion_3_case(86)
        with pytest.raises(OracleInfeasibleError, match="minimax tilt not solved"):
            tmnd_oracle(mean, cov, range(len(mean)), 1000, seed=0)


class TestShapeCheck:
    """Every entry point of the truncation API takes a mean vector and a
    covariance matrix, and rejects them when their shapes disagree."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda mean, cov: rec_trunc(mean, cov, {0}),
            lambda mean, cov: rec_trunc(mean, cov, set()),
            lambda mean, cov: rec_trunc(mean, cov, [0]),
            lambda mean, cov: select_next(mean, cov, {0}),
            lambda mean, cov: tmnd_oracle(mean, cov, {0}, 1000, seed=0),
        ],
        ids=["rec_trunc", "rec_trunc_empty", "rec_trunc_list", "select_next", "tmnd_oracle"],
    )
    def test_shape_mismatch_rejected(self, call):
        with pytest.raises(ValueError, match=re.escape("inconsistent shapes: mean (2,), cov (3, 3)")):
            call([0.0, 1.0], np.eye(3))
