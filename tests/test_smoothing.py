"""Tests for the iterated VB smoother."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skewt_estim.filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _linear_source,
    stf_update,
)
from skewt_estim.smoothing import (
    _sts_run_rows,
    backward_pass,
    forward_pass,
    sts_run,
    update_lambda,
)

from reference import augmented_predictions, backward_pass_augmented, kalman_filter, rts_smooth
from test_filtering import random_model, simulate_linear


def run_vb(model, ys, cfg):
    """The outputs of sts_run's one-row call of the smoother
    (_sts_run_rows): the smoothed stacks, the next mixing precisions, the
    iteration counts, the convergence flags and the row outcomes."""
    return _sts_run_rows(model, *_linear_source(model, ys), cfg)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, ys: forward_pass(m, ys, [np.ones(2), np.zeros(2)]), "lambdas[1] must be positive"),
        (lambda m, ys: forward_pass(m, ys, [np.ones(2), [1.0, -0.5]]), "lambdas[1] must be positive"),
        (lambda m, ys: forward_pass(m, ys, [np.ones(2), [1.0, np.nan]]), "lambdas[1] must be positive"),
        (lambda m, ys: forward_pass(m, ys, [np.ones(2), [np.inf, 1.0]]), "lambdas[1] must be positive"),
        (
            lambda m, ys: update_lambda(GaussianBelief(np.zeros(3), np.eye(3)), ys[0], m),
            "smoothed belief has dim 3, expected 5",
        ),
    ],
    ids=["zero-lambda", "negative-lambda", "nan-lambda", "inf-lambda", "belief-dimension"],
)
def test_smoothing_input_checks(call, message):
    """forward_pass and update_lambda reject inputs that do not fit the
    model (3 states, 2 components) with their own message: a mixing
    precision must be finite and positive."""
    rng = np.random.default_rng(3)
    model = random_model(rng, 3, 2, delta=1.0, nu=4.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(model, simulate_linear(model, rng, 2))


def assert_matches_augmented_reference(model, filtered, u_var):
    """backward_pass of the filtered beliefs equals the full augmented
    gain (reference.backward_pass_augmented) fed the predictions that
    reference.augmented_predictions builds from them, with the u
    variances u_var[k] (K - 1, n_y) of step k + 1.

    The two differ by rounding, which scales with the entries, so the
    bound is 1e-12 absolute plus 1e-12 relative: the same bound for
    entries up to 1, and about 500 eps on entries of a few hundred, where
    the seed=16385, n_x=3, n_y=4, n_steps=11 sequence of the hypothesis
    test below differs by up to 1.3e-12 (at most 6.4e-15 relative)."""
    pairs = [(b.mean, b.cov) for b in filtered]
    ref = backward_pass_augmented(
        pairs, augmented_predictions(pairs, model.A, model.Q, u_var), model.A
    )
    for got, (mean, cov) in zip(backward_pass(filtered, model), ref):
        np.testing.assert_allclose(got.mean, mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.cov, cov, rtol=1e-12, atol=1e-12)


class TestForwardPass:
    def test_single_step_matches_first_filter_iterate(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, 3, 2, delta=3.0, nu=4.0)
        y = np.array([2.0, -0.7])
        filtered = forward_pass(model, [y], [np.ones(2)])
        post, _ = stf_update(
            model, model.prior_belief(), y, VBConfig(max_iterations=1, tol=1e-12)
        )
        np.testing.assert_array_equal(filtered[0].mean[:3], post.mean)
        np.testing.assert_array_equal(filtered[0].cov[:3, :3], post.cov)

    def test_reduces_to_kalman_forward(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, 3, 2, delta=0.0, nu=1e8)
        ys = simulate_linear(model, rng, 20)
        filtered = forward_pass(model, ys, [np.ones(2)] * 20)
        means, covs, _, _ = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        for k in range(20):
            np.testing.assert_allclose(
                filtered[k].mean[:3], means[k], rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                filtered[k].cov[:3, :3], covs[k], rtol=1e-6, atol=1e-8
            )

    def test_uniform_precision_equals_rescaled_model(self):
        # With all mixing precisions fixed at 4, the innovation sees
        # (Delta Delta^T + R) / 4; halving Delta and quartering R with unit
        # precisions produces the identical x marginal.
        rng = np.random.default_rng(33)
        model = random_model(rng, 3, 2, delta=2.0, nu=4.0)
        ys = simulate_linear(model, rng, 5)
        f_scaled = forward_pass(model, ys, [np.full(2, 4.0)] * 5)
        rescaled = StateSpaceModel(
            A=model.A, Q=model.Q, C=model.C,
            R=model.R / 4.0, Delta=model.Delta / 2.0, nu=model.nu,
            prior_mean=model.prior_mean, prior_cov=model.prior_cov,
        )
        f_unit = forward_pass(rescaled, ys, [np.ones(2)] * 5)
        for fs, fu in zip(f_scaled, f_unit):
            np.testing.assert_allclose(fs.mean[:3], fu.mean[:3], atol=1e-12)
            np.testing.assert_allclose(
                fs.cov[:3, :3], fu.cov[:3, :3], atol=1e-12
            )

    def test_lambda_length_validated(self):
        rng = np.random.default_rng(34)
        model = random_model(rng, 2, 3)
        for ys, lambdas, match in (
            ([np.zeros(3)], [np.ones(3)] * 2, "got 2 lambdas for 1 steps"),
            ([np.zeros(3)] * 4, [2.0] * 4, r"lambdas\[0\] must have shape \(3,\)"),
            ([np.zeros(3), np.zeros(2)], [np.ones(3)] * 2, r"ys\[1\] must have shape \(3,\)"),
            ([np.zeros(3)] * 2, [np.ones(3), np.ones(4)], r"lambdas\[1\] must have shape"),
        ):
            with pytest.raises(ValueError, match=match):
                forward_pass(model, ys, lambdas)


class TestBackwardPass:
    def test_single_step_is_identity(self):
        rng = np.random.default_rng(35)
        model = random_model(rng, 3, 2, delta=1.0, nu=4.0)
        filtered = forward_pass(model, [np.array([0.5, 0.1])], [np.ones(2)])
        smoothed = backward_pass(filtered, model)
        assert smoothed[0] is filtered[0]

    def test_reduces_to_classical_smoother(self):
        rng = np.random.default_rng(36)
        model = random_model(rng, 3, 2, delta=0.0, nu=1e8)
        ys = simulate_linear(model, rng, 25)
        filtered = forward_pass(model, ys, [np.ones(2)] * 25)
        smoothed = backward_pass(filtered, model)
        means, covs, pred_means, pred_covs = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        sm, sp = rts_smooth(model.A, means, covs, pred_means, pred_covs)
        for k in range(25):
            np.testing.assert_allclose(
                smoothed[k].mean[:3], sm[k], rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                smoothed[k].cov[:3, :3], sp[k], rtol=1e-6, atol=1e-8
            )

    @pytest.mark.parametrize("n_x,n_y", [(1, 1), (3, 2), (4, 5)])
    def test_matches_full_augmented_gain(self, n_x, n_y):
        rng = np.random.default_rng(38 + n_x)
        model = random_model(rng, n_x, n_y, delta=2.0, nu=4.0)
        ys = simulate_linear(model, rng, 20)
        lambdas = rng.uniform(0.2, 1.5, (20, n_y))
        filtered = forward_pass(model, ys, lambdas)
        assert_matches_augmented_reference(model, filtered, 1.0 / lambdas[1:])

    @settings(deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_x=st.integers(1, 4),
        n_y=st.integers(1, 4),
        n_steps=st.integers(1, 12),
    )
    @example(seed=16385, n_x=3, n_y=4, n_steps=11)
    def test_arbitrary_filtered_sequence_matches_augmented_reference(
        self, seed, n_x, n_y, n_steps
    ):
        """backward_pass needs only the filtered beliefs: on random [x; u]
        sequences that no forward pass produced, with random PSD
        covariances, a non-identity A and a full Q, it equals the full
        augmented gain fed predictions built in plain numpy, for any
        positive u variances, which A_z = blockdiag(A, 0) keeps out of
        the gain."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_x, n_y)
        n = n_x + n_y
        roots = rng.standard_normal((n_steps, n, n))
        filtered = [
            GaussianBelief(m, c)
            for m, c in zip(
                rng.standard_normal((n_steps, n)),
                roots @ roots.swapaxes(1, 2) / n + 0.05 * np.eye(n),
            )
        ]
        u_var = rng.uniform(0.1, 10.0, (n_steps - 1, n_y))
        assert_matches_augmented_reference(model, filtered, u_var)

    def test_smoothing_reduces_variance_on_scalar_walk(self):
        model = StateSpaceModel(
            A=[[1.0]], Q=[[0.5]], C=[[1.0]], R=[1.0], Delta=[2.0], nu=[4.0],
            prior_mean=[0.0], prior_cov=[[1.0]],
        )
        rng = np.random.default_rng(37)
        ys = rng.normal(0.0, 2.0, (15, 1))
        filtered = forward_pass(model, ys, [np.ones(1)] * 15)
        smoothed = backward_pass(filtered, model)
        for k in range(14):
            assert smoothed[k].cov[0, 0] <= filtered[k].cov[0, 0] + 1e-12


class TestLambdaUpdate:
    def test_perfect_fit_gives_three_halves(self):
        model = StateSpaceModel(
            A=np.eye(2), Q=np.eye(2), C=np.eye(2), R=[1.0, 1.0],
            Delta=[0.5, 0.5], nu=[4.0, 4.0],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        z = np.array([0.3, -0.2, 0.0, 0.0])  # u = 0
        cz = np.hstack([model.C, np.diag(model.Delta)])
        y = cz @ z
        smoothed = GaussianBelief(z, np.zeros((4, 4)))
        np.testing.assert_array_equal(
            update_lambda(smoothed, y, model), [1.5, 1.5]
        )

    def test_direct_substitution(self):
        # residual statistic equal to the dof gives (4+2)/(4+4) = 0.75
        model = StateSpaceModel(
            A=np.eye(1), Q=np.eye(1), C=np.eye(1), R=[1.0],
            Delta=[0.0], nu=[4.0],
            prior_mean=np.zeros(1), prior_cov=np.eye(1),
        )
        smoothed = GaussianBelief([0.0, 0.0], np.zeros((2, 2)))
        lam = update_lambda(smoothed, np.array([2.0]), model)  # psi = 4
        np.testing.assert_allclose(lam, [0.75], atol=1e-15)

    def test_huge_residual_downweighted(self):
        model = StateSpaceModel(
            A=np.eye(1), Q=np.eye(1), C=np.eye(1), R=[1.0],
            Delta=[0.0], nu=[4.0],
            prior_mean=np.zeros(1), prior_cov=np.eye(1),
        )
        smoothed = GaussianBelief([0.0, 0.0], np.zeros((2, 2)))
        lam = update_lambda(smoothed, np.array([1000.0]), model)  # psi = 1e6
        assert lam[0] == pytest.approx(6e-6, rel=1e-4)

    @pytest.mark.parametrize("y, shape", [(np.zeros(3), "(3,)"), (np.zeros(1), "(1,)"), (0.0, "(1,)")])
    def test_measurement_length_validated(self, y, shape):
        # A length-1 y would be broadcast over every component.
        model = random_model(np.random.default_rng(1), 3, 2)
        smoothed = GaussianBelief(np.zeros(5), np.eye(5))
        with pytest.raises(ValueError, match=re.escape(f"y must have shape (2,), got {shape}")):
            update_lambda(smoothed, y, model)


class TestSmootherRun:
    def test_reduces_to_kalman_rts(self):
        rng = np.random.default_rng(38)
        model = random_model(rng, 3, 2, delta=0.0, nu=1e8)
        ys = simulate_linear(model, rng, 30)
        beliefs = sts_run(model, ys)
        means, covs, pred_means, pred_covs = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        sm, sp = rts_smooth(model.A, means, covs, pred_means, pred_covs)
        for k in range(30):
            np.testing.assert_allclose(
                beliefs[k].mean, sm[k], rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                beliefs[k].cov, sp[k], rtol=1e-6, atol=1e-8
            )

    def test_single_step_equals_filter_update(self):
        rng = np.random.default_rng(39)
        model = random_model(rng, 3, 2, delta=3.0, nu=4.0)
        y = np.array([1.5, -2.0])
        smoothed = sts_run(model, [y])
        post, _ = stf_update(model, model.prior_belief(), y)
        np.testing.assert_allclose(smoothed[0].mean, post.mean, atol=1e-12)
        np.testing.assert_allclose(smoothed[0].cov, post.cov, atol=1e-12)

    def test_measurement_length_validated(self):
        model = random_model(np.random.default_rng(39), 3, 2)
        with pytest.raises(ValueError, match=r"ys\[1\] must have shape \(2,\), got \(3,\)"):
            sts_run(model, [np.zeros(2), np.zeros(3)])

    def test_empty_sequence(self):
        rng = np.random.default_rng(40)
        model = random_model(rng, 2, 2)
        assert sts_run(model, []) == []

    def test_smoothed_variance_below_filtered(self):
        rng = np.random.default_rng(41)
        model = random_model(rng, 3, 3, delta=3.0, nu=4.0)
        ys = simulate_linear(model, rng, 20)
        # One pass at the smoother's final mixing precisions.
        _, _, lambdas, _, _, _ = run_vb(model, ys, VBConfig())
        filtered = forward_pass(model, ys, lambdas[0])
        smoothed = backward_pass(filtered, model)
        for filt, smth in zip(filtered, smoothed):
            assert np.trace(smth.cov[:3, :3]) <= np.trace(filt.cov[:3, :3]) + 1e-10

    def test_converged_lambda_stable(self):
        rng = np.random.default_rng(42)
        model = random_model(rng, 2, 2, delta=4.0, nu=4.0)
        ys = simulate_linear(model, rng, 10)
        cfg = VBConfig(max_iterations=300, tol=1e-10)
        _, _, lambdas, _, converged, _ = run_vb(model, ys, cfg)
        assert converged[0]
        # One extra plain outer iteration leaves the mixing weights put.
        filtered = forward_pass(model, ys, lambdas[0])
        smoothed = backward_pass(filtered, model)
        for k in range(len(ys)):
            fresh = update_lambda(smoothed[k], ys[k], model)
            np.testing.assert_allclose(
                fresh, lambdas[0, k], rtol=1e-6
            )

    # The five-iteration RMSE saturation property runs on the benchmark
    # scenarios; see test_bench.TestSmootherIterations.
