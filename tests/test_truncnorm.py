"""Tests for the recursive truncated-normal moment approximation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from skewt_estim.exceptions import DegenerateDirectionError
from skewt_estim.truncnorm import (
    OPTIMAL,
    FixedOrder,
    MomentPair,
    RandomOrder,
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
        h = hazard(0.0)
        assert h.epsilon == pytest.approx(2.0 * norm.pdf(0.0), abs=1e-12)
        assert h.mean_coeff == h.epsilon
        assert h.cov_coeff == pytest.approx(2.0 / np.pi, abs=1e-12)
        assert not h.underflowed

    def test_deep_underflow_limits(self):
        h = hazard(-50.0)
        assert h.underflowed
        assert h.mean_coeff == 50.0
        assert h.cov_coeff == 1.0

    def test_inactive_constraint(self):
        h = hazard(8.0)
        assert h.epsilon < 1e-12
        assert abs(h.cov_coeff) < 1e-12

    def test_cov_coeff_bounds(self):
        for xi in np.linspace(-36.9, 30.0, 200):
            h = hazard(xi)
            assert 0.0 <= h.cov_coeff <= 1.0

    @pytest.mark.parametrize("xi", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, xi):
        with pytest.raises(ValueError):
            hazard(xi)


class TestTruncateOnce:
    def test_standard_half_normal(self):
        out = truncate_once(MomentPair([0.0], [[1.0]]), 0)
        assert out.mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=1e-12)
        assert out.cov[0, 0] == pytest.approx(HALF_NORMAL_VAR, abs=1e-12)

    def test_independent_coordinate_untouched(self):
        out = truncate_once(MomentPair([0.0, 0.0], np.eye(2)), 0)
        np.testing.assert_allclose(
            out.mean, [HALF_NORMAL_MEAN, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            out.cov, np.diag([HALF_NORMAL_VAR, 1.0]), atol=1e-12
        )

    def test_inactive_constraint(self):
        out = truncate_once(MomentPair([10.0], [[1.0]]), 0)
        assert out.mean[0] == pytest.approx(10.0, abs=1e-8)
        assert out.cov[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_closed_form_off_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = rng.uniform(-3.0, 3.0)
            var = rng.uniform(0.1, 4.0)
            out = truncate_once(MomentPair([mu], [[var]]), 0)
            ref_mean, ref_var = truncated_univariate_moments(mu, var)
            assert out.mean[0] == pytest.approx(ref_mean, abs=1e-10)
            assert out.cov[0, 0] == pytest.approx(ref_var, abs=1e-10)

    def test_degenerate_direction_rejected(self):
        m = MomentPair([0.0, 0.0], np.diag([1.0, 1e-16]))
        with pytest.raises(DegenerateDirectionError):
            truncate_once(m, 1)


class TestSelectNext:
    def test_unit_variance_argmin(self):
        m = MomentPair([1.0, -2.0, 0.5], np.eye(3))
        assert select_next(m, {0, 1, 2}) == 1

    def test_ratio_comparison(self):
        m = MomentPair([1.0, 1.0], np.diag([1.0, 100.0]))
        assert select_next(m, {0, 1}) == 1

    def test_tie_breaks_to_lowest_index(self):
        m = MomentPair([0.0, 0.0], np.eye(2))
        assert select_next(m, {0, 1}) == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            select_next(MomentPair([0.0], [[1.0]]), set())

    def test_minimizes_truncated_probability(self):
        # The greedy pick maximizes removed mass: smallest Phi(ratio).
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            mean = rng.normal(0.0, 2.0, dim)
            var = rng.uniform(0.2, 3.0, dim)
            m = MomentPair(mean, np.diag(var))
            k = select_next(m, range(dim))
            cdfs = norm.cdf(mean / np.sqrt(var))
            assert cdfs[k] == cdfs.min()


class TestRecTrunc:
    def test_independent_product_of_half_normals(self):
        out = rec_trunc(MomentPair([0.0, 0.0], np.eye(2)), {0, 1})
        np.testing.assert_allclose(
            out.mean, [HALF_NORMAL_MEAN] * 2, atol=1e-12
        )
        np.testing.assert_allclose(
            out.cov, np.eye(2) * HALF_NORMAL_VAR, atol=1e-12
        )

    def test_empty_truncation_is_identity(self):
        m = MomentPair([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        out = rec_trunc(m, set())
        assert out is m

    def test_correlated_close_to_oracle(self):
        m = MomentPair([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        approx = rec_trunc(m, {0, 1})
        oracle = tmnd_oracle(m, {0, 1}, 1_000_000, seed=7)
        np.testing.assert_allclose(approx.mean, oracle.mean, atol=0.05)

    def test_optimal_policy_bit_reproducible(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        m = MomentPair(rng.normal(size=5), a @ a.T + np.eye(5))
        r1 = rec_trunc(m, {0, 2, 4})
        r2 = rec_trunc(m, {0, 2, 4})
        assert np.array_equal(r1.mean, r2.mean)
        assert np.array_equal(r1.cov, r2.cov)

    def test_fixed_order_must_be_permutation(self):
        m = MomentPair(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            rec_trunc(m, {0, 1}, FixedOrder((0, 2)))

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            rec_trunc(MomentPair([0.0], [[1.0]]), {1})

    def test_diagonal_matches_univariate_closed_form(self):
        # On diagonal covariances the recursion is exact per coordinate.
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            mean = rng.uniform(-3.0, 3.0, dim)
            var = rng.uniform(0.1, 5.0, dim)
            subset = [i for i in range(dim) if rng.random() < 0.7]
            out = rec_trunc(MomentPair(mean, np.diag(var)), subset)
            exp_mean = mean.copy()
            exp_var = var.copy()
            for i in subset:
                exp_mean[i], exp_var[i] = truncated_univariate_moments(
                    mean[i], var[i]
                )
            np.testing.assert_allclose(out.mean, exp_mean, atol=1e-10)
            np.testing.assert_allclose(out.cov, np.diag(exp_var), atol=1e-10)

    def test_order_irrelevant_on_diagonal(self):
        rng = np.random.default_rng(13)
        mean = rng.uniform(-2.0, 2.0, 5)
        var = rng.uniform(0.2, 3.0, 5)
        m = MomentPair(mean, np.diag(var))
        ref = rec_trunc(m, range(5), OPTIMAL)
        for _ in range(5):
            order = tuple(rng.permutation(5))
            out = rec_trunc(m, range(5), FixedOrder(order))
            np.testing.assert_allclose(out.mean, ref.mean, atol=1e-10)
            np.testing.assert_allclose(out.cov, ref.cov, atol=1e-10)

    def test_truncated_variance_never_increases(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T + 0.1 * np.eye(dim)
            m = MomentPair(rng.normal(0.0, 2.0, dim), cov)
            k = int(rng.integers(dim))
            out = truncate_once(m, k)
            assert out.cov[k, k] <= m.cov[k, k] + 1e-12

    def test_inactive_limit_leaves_moments(self):
        m = MomentPair([9.0, 0.5], [[1.0, 0.4], [0.4, 2.0]])
        out = truncate_once(m, 0)  # ratio 9 > 8
        np.testing.assert_allclose(out.mean, m.mean, rtol=1e-10)
        np.testing.assert_allclose(out.cov, m.cov, rtol=1e-10)

    def test_random_order_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((4, 4))
        m = MomentPair(rng.normal(size=4), a @ a.T + np.eye(4))
        r1 = rec_trunc(m, range(4), RandomOrder(seed=5))
        r2 = rec_trunc(m, range(4), RandomOrder(seed=5))
        assert np.array_equal(r1.mean, r2.mean)


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
    m = MomentPair(ratios * np.sqrt(np.diag(cov)), cov)
    return m, truncated, policy, order


class TestRecTruncProperties:
    @settings(deadline=None, max_examples=300)
    @given(truncation_cases())
    def test_bit_identical_to_stepwise_reference(self, case):
        m, truncated, policy, order = case
        seed = policy.seed if isinstance(policy, RandomOrder) else None
        ref_mean, ref_cov = rec_trunc_stepwise(
            m.mean, m.cov, truncated, order, seed
        )
        out = rec_trunc(m, truncated, policy)
        np.testing.assert_array_equal(out.mean, ref_mean)
        np.testing.assert_array_equal(out.cov, ref_cov)

    @settings(deadline=None, max_examples=300)
    @given(truncation_cases())
    def test_psd_and_variances_never_increase(self, case):
        m, truncated, policy, _ = case
        out = rec_trunc(m, truncated, policy)
        np.testing.assert_array_equal(out.cov, out.cov.T)
        assert np.linalg.eigvalsh(out.cov).min() >= -1e-12 * np.trace(m.cov)
        assert np.all(out.cov.diagonal() <= m.cov.diagonal())


class TestOracle:
    def test_half_normal_high_precision(self):
        out = tmnd_oracle(MomentPair([0.0], [[1.0]]), {0}, 10_000_000, seed=2)
        assert out.mean[0] == pytest.approx(HALF_NORMAL_MEAN, abs=3e-4)

    def test_no_truncation_gives_plain_moments(self):
        m = MomentPair([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        out = tmnd_oracle(m, set(), 200_000, seed=4)
        np.testing.assert_allclose(out.mean, m.mean, atol=0.02)
        np.testing.assert_allclose(out.cov, m.cov, atol=0.05)

    def test_deep_tail_uses_gibbs(self):
        # Acceptance is ~1e-198; the inverse-hazard asymptote gives the mean.
        out = tmnd_oracle(MomentPair([-30.0], [[1.0]]), {0}, 10_000, seed=3)
        assert out.mean[0] == pytest.approx(1.0 / 30.0, rel=0.10)

    def test_deterministic_given_seed(self):
        m = MomentPair([0.0, -0.5], [[1.0, 0.3], [0.3, 1.0]])
        a = tmnd_oracle(m, {0, 1}, 50_000, seed=9)
        b = tmnd_oracle(m, {0, 1}, 50_000, seed=9)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            tmnd_oracle(MomentPair([0.0], [[1.0]]), {0}, 999, seed=0)


class TestMomentPair:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MomentPair([0.0, 1.0], np.eye(3))
