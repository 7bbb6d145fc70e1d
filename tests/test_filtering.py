"""Tests for the VB filter."""

import re
from dataclasses import replace

import numpy as np
import pytest

from skewt_estim.exceptions import NumericalFailureError
from skewt_estim.filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _augmented_update,
    expected_mixing_precision,
    predict,
    stf_run,
    stf_update,
)
from skewt_estim.skewt import SkewTComponent, log_pdf

from reference import kalman_filter


def random_model(rng, n_x, n_y, delta=0.0, nu=1e8):
    a = rng.standard_normal((n_x, n_x))
    a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
    q = rng.standard_normal((n_x, n_x))
    q = q @ q.T / n_x + 0.1 * np.eye(n_x)
    return StateSpaceModel(
        A=a,
        Q=q,
        C=rng.standard_normal((n_y, n_x)),
        R=rng.uniform(0.5, 2.0, n_y),
        Delta=np.full(n_y, delta),
        nu=np.full(n_y, nu),
        prior_mean=rng.standard_normal(n_x),
        prior_cov=2.0 * np.eye(n_x),
    )


def simulate_linear(model, rng, n_steps):
    x = model.prior_mean + np.linalg.cholesky(model.prior_cov) @ rng.standard_normal(
        model.n_x
    )
    lq = np.linalg.cholesky(model.Q)
    ys = np.zeros((n_steps, model.n_y))
    for k in range(n_steps):
        ys[k] = model.C @ x + np.sqrt(model.R) * rng.standard_normal(model.n_y)
        x = model.A @ x + lq @ rng.standard_normal(model.n_x)
    return ys


class TestPredict:
    def test_identity_dynamics(self):
        model = StateSpaceModel(
            A=np.eye(2), Q=np.zeros((2, 2)), C=np.eye(2), R=[1.0, 1.0],
            Delta=[0.0, 0.0], nu=[4.0, 4.0],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        b = GaussianBelief([1.0, -2.0], [[2.0, 0.1], [0.1, 1.0]])
        out = predict(model, b)
        np.testing.assert_array_equal(out.mean, b.mean)
        np.testing.assert_allclose(out.cov, b.cov, atol=1e-15)

    def test_additive_noise(self):
        model = StateSpaceModel(
            A=np.eye(2), Q=np.eye(2), C=np.eye(2), R=[1.0, 1.0],
            Delta=[0.0, 0.0], nu=[4.0, 4.0],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        out = predict(model, GaussianBelief(np.zeros(2), np.eye(2)))
        np.testing.assert_allclose(out.cov, 2.0 * np.eye(2), atol=1e-15)

    def test_deterministic_state_gets_process_noise(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 4, 2)
        out = predict(model, GaussianBelief(np.ones(4), np.zeros((4, 4))))
        np.testing.assert_allclose(out.cov, model.Q, atol=1e-12)


class TestMeasurementUpdate:
    def test_reduces_to_kalman_update(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 3, 2, delta=0.0, nu=1e8)
        prior = model.prior_belief()
        y = np.array([0.7, -1.2])
        post, diag = stf_update(model, prior, y)
        means, covs, _, _ = kalman_filter(
            model.A, model.Q, model.C, model.R,
            prior.mean, prior.cov, [y],
        )
        np.testing.assert_allclose(post.mean, means[0], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(post.cov, covs[0], rtol=1e-6, atol=1e-9)
        assert diag.converged

    def test_mixing_precision_identity(self):
        np.testing.assert_array_equal(
            expected_mixing_precision(np.array([4.0]), np.array([0.0])), [1.5]
        )

    def test_posterior_mean_matches_importance_sampling(self):
        # Prior three times wider than the noise spread: the posterior is
        # likelihood-dominated, where the factorized approximation tracks
        # the true mean closely (with much vaguer priors the inherent
        # mean-field bias grows to several tenths).
        model = StateSpaceModel(
            A=[[1.0]], Q=[[0.0]], C=[[1.0]], R=[1.0], Delta=[5.0], nu=[4.0],
            prior_mean=[0.0], prior_cov=[[9.0]],
        )
        y = 1.0
        post, _ = stf_update(model, model.prior_belief(), [y])

        rng = np.random.default_rng(29)
        xs = 3.0 * rng.standard_normal(100_000)
        logw = log_pdf(model.noise_model()[0], y - xs)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        oracle_mean = float(w @ xs)
        assert post.mean[0] == pytest.approx(oracle_mean, abs=0.05)

    def test_innovation_not_positive_definite(self):
        model = StateSpaceModel(
            A=[[1.0]], Q=[[0.0]], C=[[1.0]], R=[1.0], Delta=[0.0], nu=[4.0],
            prior_mean=[0.0], prior_cov=[[1.0]],
        )
        bad_prior = GaussianBelief([0.0], [[-5.0]])
        with pytest.raises(NumericalFailureError) as exc:
            stf_update(model, bad_prior, [0.0])
        assert exc.value.smallest_eigenvalue < 0.0

    def test_dimension_checks(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, 2)
        with pytest.raises(ValueError, match=r"y must have shape \(2,\), got \(3,\)"):
            stf_update(model, model.prior_belief(), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            stf_update(model, GaussianBelief([0.0], [[1.0]]), [1.0, 2.0])

    def test_posterior_psd_at_every_iteration_count(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 3, delta=4.0, nu=4.0)
        prior = model.prior_belief()
        y = np.array([8.0, -1.0, 0.3])
        for n_iter in range(1, 9):
            post, _ = stf_update(
                model, prior, y, VBConfig(max_iterations=n_iter, tol=1e-12)
            )
            eig = np.linalg.eigvalsh(post.cov)
            assert eig.min() >= -1e-10 * np.trace(post.cov)

    # The default loop converges; cut off after two iterations it does not.
    @pytest.mark.parametrize("cfg", [VBConfig(), VBConfig(max_iterations=2, tol=1e-12)])
    def test_lambda_diag_reproduces_returned_belief(self, cfg):
        rng = np.random.default_rng(8)
        model = random_model(rng, 3, 3, delta=4.0, nu=4.0)
        prior = model.prior_belief()
        y = np.array([8.0, -1.0, 0.3])
        post, diag = stf_update(model, prior, y, cfg)
        assert diag.converged == (cfg.max_iterations > 2)
        cz = np.hstack([model.C, np.diag(model.Delta)])
        mean, cov, failed = _augmented_update(
            prior.mean, prior.cov, y, model.C, cz, model.Delta, model.R, diag.lambda_diag
        )
        assert failed == {}
        np.testing.assert_array_equal(mean[: model.n_x], post.mean)
        np.testing.assert_array_equal(mean[model.n_x :], diag.u_mean)
        np.testing.assert_array_equal(cov[model.n_x :, model.n_x :], diag.u_cov)

    def test_outlier_discounting_monotone(self):
        # Larger positive residuals must never get a larger mixing weight.
        model = StateSpaceModel(
            A=[[1.0]], Q=[[0.0]], C=[[1.0]], R=[1.0], Delta=[5.0], nu=[4.0],
            prior_mean=[0.0], prior_cov=[[1.0]],
        )
        sigma = np.sqrt(27.0)  # noise standard deviation
        cfg = VBConfig(max_iterations=200, tol=1e-10)
        lams = []
        for r in np.linspace(0.0, 50.0, 26):
            _, diag = stf_update(model, model.prior_belief(), [r * sigma], cfg)
            lams.append(diag.lambda_diag[0])
        lams = np.array(lams)
        assert np.all(np.diff(lams) <= 1e-8)
        assert np.all(lams > 0.0)


class TestFilterRun:
    def test_empty_sequence(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 2, 2)
        assert stf_run(model, []) == []

    def test_single_step_equals_update(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 2, delta=2.0, nu=4.0)
        y = np.array([1.0, -0.5])
        run_out = stf_run(model, [y])
        upd_out = stf_update(model, model.prior_belief(), y)
        np.testing.assert_array_equal(run_out[0][0].mean, upd_out[0].mean)
        np.testing.assert_array_equal(run_out[0][0].cov, upd_out[0].cov)

    def test_reduces_to_kalman_filter_trajectory(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 4, 3, delta=0.0, nu=1e8)
        ys = simulate_linear(model, rng, 50)
        out = stf_run(model, ys)
        means, covs, _, _ = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        for k in range(50):
            np.testing.assert_allclose(
                out[k][0].mean, means[k], rtol=1e-6, atol=1e-8
            )
            np.testing.assert_allclose(
                out[k][0].cov, covs[k], rtol=1e-6, atol=1e-8
            )

    def test_update_contracts_total_variance(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 3, delta=3.0, nu=4.0)
        ys = simulate_linear(model, rng, 40)
        belief = model.prior_belief()
        for y in ys:
            post, diag = stf_update(model, belief, y)
            assert np.trace(post.cov) <= np.trace(belief.cov) + 1e-10
            assert np.all(diag.lambda_diag > 0.0)
            assert np.all(diag.psi_diag >= 0.0)
            belief = predict(model, post)

    def test_failure_carries_step_index(self):
        model = StateSpaceModel(
            A=[[1.0]], Q=[[-10.0]], C=[[1.0]], R=[1.0], Delta=[0.0], nu=[4.0],
            prior_mean=[0.0], prior_cov=[[1.0]],
        )
        with pytest.raises(NumericalFailureError, match="time step 1"):
            stf_run(model, [[0.0], [0.0]])

    def test_measurement_length_validated(self):
        model = random_model(np.random.default_rng(8), 3, 2)
        with pytest.raises(ValueError, match=r"ys\[1\] must have shape \(2,\), got \(3,\)"):
            stf_run(model, [np.zeros(2), np.zeros(3)])


class TestBeliefValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianBelief([0.0, 0.0], np.eye(3))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            StateSpaceModel(
                A=np.eye(2), Q=np.eye(2), C=np.eye(2), R=[1.0, -1.0],
                Delta=[0.0, 0.0], nu=[4.0, 4.0],
                prior_mean=np.zeros(2), prior_cov=np.eye(2),
            )
        with pytest.raises(ValueError):
            StateSpaceModel(
                A=np.eye(2), Q=np.eye(3), C=np.eye(2), R=[1.0, 1.0],
                Delta=[0.0, 0.0], nu=[4.0, 4.0],
                prior_mean=np.zeros(2), prior_cov=np.eye(2),
            )

    def test_model_needs_a_measurement_component(self):
        with pytest.raises(ValueError, match="at least one measurement component"):
            StateSpaceModel(
                A=np.eye(1), Q=np.eye(1), C=np.zeros((0, 1)), R=np.zeros(0),
                Delta=np.zeros(0), nu=np.zeros(0), prior_mean=[0.0], prior_cov=[[1.0]],
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(C=np.ones((3, 3))), "C shape (3, 3) inconsistent with A"),
            (dict(R=np.ones(2)), "R must have length 3"),
            (dict(Delta=np.zeros(4)), "Delta must have length 3"),
            (dict(nu=np.full(2, 4.0)), "nu must have length 3"),
            (dict(prior_mean=np.zeros(3)), "prior dimensions inconsistent with A"),
            (dict(prior_cov=np.eye(3)), "prior dimensions inconsistent with A"),
            (dict(nu=[4.0, 0.0, 4.0]), "nu entries must be positive"),
            (dict(nu=[4.0, 4.0, -1.0]), "nu entries must be positive"),
        ],
    )
    def test_model_input_checks(self, change, message):
        """Each inconsistent field of a 2-state, 3-component model is
        rejected with its own message."""
        model = random_model(np.random.default_rng(0), 2, 3, nu=4.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(model, **change)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field", ["A", "Q", "C", "R", "Delta", "nu", "prior_mean", "prior_cov"]
    )
    def test_model_rejects_non_finite_entry(self, field, value):
        """A non-finite entry of any field, even one that passes the sign
        checks (R = inf, nu = inf), is rejected naming the field."""
        model = random_model(np.random.default_rng(0), 2, 3, nu=4.0)
        bad = getattr(model, field).copy()
        bad.flat[-1] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            replace(model, **{field: bad})

    def test_noise_model_is_component_tuple(self):
        model = StateSpaceModel(
            A=np.eye(2), Q=np.eye(2), C=np.eye(2), R=[1.0, 2.0],
            Delta=[0.5, -1.0], nu=[4.0, 1.2],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        assert model.noise_model() == (
            SkewTComponent(spread_sq=1.0, shape=0.5, dof=4.0),
            SkewTComponent(spread_sq=2.0, shape=-1.0, dof=1.2),
        )

    def test_vb_config_validation(self):
        with pytest.raises(ValueError):
            VBConfig(max_iterations=0)
        with pytest.raises(ValueError):
            VBConfig(tol=0.0)

    @pytest.mark.parametrize("value", [2.5, 30.0, "30", True, None])
    def test_vb_config_max_iterations_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            VBConfig(max_iterations=value)
        assert VBConfig(max_iterations=np.int32(30)) == VBConfig()
