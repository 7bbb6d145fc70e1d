"""Tests for the recursive truncated-normal moment approximation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from skewt_estim._linalg import symmetrize
from skewt_estim.exceptions import DegenerateDirectionError, EstimationError, NumericalFailureError
from skewt_estim.truncnorm import (
    OPTIMAL,
    FixedOrder,
    RandomOrder,
    _rec_trunc_row,
    _rec_trunc_rows,
    hazard,
    rec_trunc,
    select_next,
    tmnd_oracle,
    truncate_once,
)

from reference import rec_trunc_stepwise, truncated_univariate_moments

HALF_NORMAL_MEAN = np.sqrt(2.0 / np.pi)
HALF_NORMAL_VAR = 1.0 - 2.0 / np.pi


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
    def test_standard_half_normal(self):
        mean, cov = truncate_once([0.0], [[1.0]], 0)
        assert mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=1e-12)
        assert cov[0, 0] == pytest.approx(HALF_NORMAL_VAR, abs=1e-12)

    def test_independent_coordinate_untouched(self):
        mean, cov = truncate_once([0.0, 0.0], np.eye(2), 0)
        np.testing.assert_allclose(
            mean, [HALF_NORMAL_MEAN, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            cov, np.diag([HALF_NORMAL_VAR, 1.0]), atol=1e-12
        )

    def test_inactive_constraint(self):
        mean, cov = truncate_once([10.0], [[1.0]], 0)
        assert mean[0] == pytest.approx(10.0, abs=1e-8)
        assert cov[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_off_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = rng.uniform(-3.0, 3.0)
            var = rng.uniform(0.1, 4.0)
            mean, cov = truncate_once([mu], [[var]], 0)
            ref_mean, ref_var = truncated_univariate_moments(mu, var)
            assert mean[0] == pytest.approx(ref_mean, abs=1e-10)
            assert cov[0, 0] == pytest.approx(ref_var, abs=1e-10)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_out_of_range_index_rejected(self, k):
        with pytest.raises(ValueError, match="out of range for dim 2"):
            truncate_once(np.zeros(2), np.eye(2), k)

    def test_degenerate_direction_rejected(self):
        with pytest.raises(DegenerateDirectionError):
            truncate_once([0.0, 0.0], np.diag([1.0, 1e-16]), 1)


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

    def test_fixed_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            rec_trunc(np.zeros(3), np.eye(3), {0, 1}, FixedOrder((0, 2)))

    def test_out_of_range_indices_rejected(self):
        for indices in ({1}, {-1}):
            with pytest.raises(ValueError, match="out of range for dim 1"):
                rec_trunc([0.0], [[1.0]], indices)
            with pytest.raises(ValueError, match="out of range for dim 1"):
                _rec_trunc_rows(np.zeros((2, 1)), np.ones((2, 1, 1)), indices)

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
        ref_mean, ref_cov = rec_trunc(mean, cov, range(5), OPTIMAL)
        for _ in range(5):
            order = tuple(rng.permutation(5))
            out_mean, out_cov = rec_trunc(mean, cov, range(5), FixedOrder(order))
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
            _, out_cov = truncate_once(mean, cov, k)
            assert out_cov[k, k] <= cov[k, k] + 1e-12

    def test_inactive_limit_leaves_moments(self):
        mean, cov = [9.0, 0.5], [[1.0, 0.4], [0.4, 2.0]]
        out_mean, out_cov = truncate_once(mean, cov, 0)  # ratio 9 > 8
        np.testing.assert_allclose(out_mean, mean, rtol=1e-10)
        np.testing.assert_allclose(out_cov, cov, rtol=1e-10)

    def test_random_order_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        mean, cov = rng.normal(size=4), a @ a.T + np.eye(4)
        r1, _ = rec_trunc(mean, cov, range(4), RandomOrder(seed=5))
        r2, _ = rec_trunc(mean, cov, range(4), RandomOrder(seed=5))
        assert np.array_equal(r1, r2)


class TestScalarLoop:
    """rec_trunc's order and coefficients run on Python floats, with the
    degeneracy tolerance of the first step's trace checked against the
    current trace only when a variance falls below it."""

    # Step one truncates z_0 deep in the tail, which zeroes its variance
    # and drops the trace from 1e6 + 1e-9 to 1e-9: then 1e-14 * trace <
    # var_1 = 1e-9 <= 1e-14 times the first trace.
    SHRINKING = (np.array([-4e4, 0.0]), np.diag([1e6, 1e-9]))

    @pytest.mark.parametrize("policy, order", [(OPTIMAL, "greedy"), (FixedOrder((0, 1)), (0, 1))])
    def test_variance_under_first_tolerance_only_is_truncated(self, policy, order):
        mean, cov = self.SHRINKING
        out_mean, out_cov = rec_trunc(mean, cov, [0, 1], policy)
        ref_mean, ref_cov = rec_trunc_stepwise(mean, cov, [0, 1], order)
        np.testing.assert_array_equal(out_mean, ref_mean)
        np.testing.assert_array_equal(out_cov, ref_cov)
        assert out_cov[1, 1] < cov[1, 1]
        rows_mean, rows_cov = _rec_trunc_rows(mean[None], cov[None], [0, 1])
        np.testing.assert_array_equal(rows_mean[0], ref_mean)
        np.testing.assert_array_equal(rows_cov[0], ref_cov)

    @pytest.mark.parametrize(
        "mean, cov, msg",
        [
            (np.array([0.0, -1.0]), np.diag([1.0, 1e-16]), "direction 1 has variance 1.000e-16 <= tolerance 1.000e-14"),
            # Fails at step two, against the trace after step one.
            (np.array([-40.0, 0.0, 0.0]), np.diag([1.0, 1.0, 1e-15]), "direction 2 has variance 1.000e-15 <= tolerance 1.000e-14"),
        ],
    )
    def test_variance_under_current_tolerance_raises(self, mean, cov, msg):
        dim = mean.size
        truncated = [0, dim - 1]
        with pytest.raises(DegenerateDirectionError, match=re.escape(msg)):
            rec_trunc(mean, cov, truncated)
        with pytest.raises(DegenerateDirectionError, match=re.escape(msg)) as info:
            _rec_trunc_rows(np.stack([np.zeros(dim), mean]), np.stack([np.eye(dim), cov]), truncated)
        assert info.value.row == 1

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
            with np.errstate(invalid="ignore"):
                ratios = mean[remaining] / np.sqrt(var[remaining])
            assert select_next(mean, np.diag(var), remaining) == remaining[int(np.argmin(ratios))]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_fails_typed(self, value):
        mean = np.array([0.5, value, -0.2])
        msg = f"truncation distance is not finite, got {value!r}"
        for policy in (OPTIMAL, RandomOrder(3), FixedOrder((1, 0, 2))):
            with pytest.raises(NumericalFailureError, match=re.escape(msg)):
                rec_trunc(mean, np.eye(3), range(3), policy)
        with pytest.raises(NumericalFailureError, match=re.escape(msg)) as info:
            _rec_trunc_rows(np.stack([np.zeros(3), mean]), np.stack([np.eye(3)] * 2), range(3))
        assert info.value.row == 1


@st.composite
def truncation_cases(draw):
    """Symmetric SPD moments of dim 1-16 (standardized means down into the
    Phi-underflow range), a truncated index set and an ordering policy."""
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
    if kind == "greedy":
        policy, order = OPTIMAL, "greedy"
    elif kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        policy, order = RandomOrder(seed), "random"
    else:
        order = draw(st.permutations(truncated))
        policy = FixedOrder(order)
    return ratios * np.sqrt(np.diag(cov)), cov, truncated, policy, order


class TestRecTruncProperties:
    @settings(deadline=None, max_examples=300)
    @given(truncation_cases())
    def test_bit_identical_to_stepwise_reference(self, case):
        mean, cov, truncated, policy, order = case
        seed = policy.seed if isinstance(policy, RandomOrder) else None
        ref_mean, ref_cov = rec_trunc_stepwise(
            mean, cov, truncated, order, seed
        )
        out_mean, out_cov = rec_trunc(mean, cov, truncated, policy)
        np.testing.assert_array_equal(out_mean, ref_mean)
        np.testing.assert_array_equal(out_cov, ref_cov)

    @settings(deadline=None, max_examples=300)
    @given(truncation_cases())
    def test_psd_and_variances_never_increase(self, case):
        mean, cov, truncated, policy, _ = case
        _, out_cov = rec_trunc(mean, cov, truncated, policy)
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
            want = outcome(lambda: rec_trunc(mean, cov, truncated, OPTIMAL))
            benign = np.zeros(mean.size), np.eye(mean.size)
            rows = outcome(lambda: _rec_trunc_rows(
                np.stack([benign[0], mean]), np.stack([benign[1], cov]), truncated
            ))
        if isinstance(want[0], type):
            assert got == want
            assert rows == want
            return
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


class TestOracle:
    def test_half_normal_high_precision(self):
        mean, _ = tmnd_oracle([0.0], [[1.0]], {0}, 10_000_000, seed=2)
        assert mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=3e-4)

    def test_no_truncation_gives_plain_moments(self):
        mean, cov = [1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]
        out_mean, out_cov = tmnd_oracle(mean, cov, set(), 200_000, seed=4)
        np.testing.assert_allclose(out_mean, mean, atol=0.02)
        np.testing.assert_allclose(out_cov, cov, atol=0.05)

    def test_deep_tail_uses_gibbs(self):
        # Acceptance is ~1e-198; the inverse-hazard asymptote gives the mean.
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


class TestShapeCheck:
    """Every entry point of the truncation API takes a mean vector and a
    covariance matrix, and rejects them when their shapes disagree."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda mean, cov: rec_trunc(mean, cov, {0}),
            lambda mean, cov: rec_trunc(mean, cov, set()),
            lambda mean, cov: truncate_once(mean, cov, 0),
            lambda mean, cov: select_next(mean, cov, {0}),
            lambda mean, cov: tmnd_oracle(mean, cov, {0}, 1000, seed=0),
        ],
        ids=["rec_trunc", "rec_trunc_empty", "truncate_once", "select_next", "tmnd_oracle"],
    )
    def test_shape_mismatch_rejected(self, call):
        with pytest.raises(ValueError, match=re.escape("inconsistent shapes: mean (2,), cov (3, 3)")):
            call([0.0, 1.0], np.eye(3))
