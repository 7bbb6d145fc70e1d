"""Tests for the gated Kalman baselines and the bootstrap particle filter."""

import numpy as np
import pytest
from scipy.stats import chi2

import skewt_estim.baselines as baselines
from skewt_estim.baselines import (
    GatingConfig,
    kf_gated_run,
    kf_gated_update,
    pf_run,
    rtss_gated_run,
)
from skewt_estim.exceptions import DegeneracyError
from skewt_estim.filtering import GaussianBelief, StateSpaceModel

from reference import kalman_filter, rts_smooth, wls_pool
from test_filtering import random_model, simulate_linear


class TestGatingConfig:
    def test_threshold_is_chi2_quantile(self):
        g = GatingConfig(gate_probability=0.99)
        assert g.threshold == pytest.approx(chi2.ppf(0.99, df=1), abs=1e-12)
        assert g.threshold == pytest.approx(6.635, abs=1e-3)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            GatingConfig(gate_probability=1.0)


class TestGatedUpdate:
    def test_all_inlying_equals_kalman(self):
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        c = np.eye(2)
        y = np.array([0.5, -0.3])
        out = kf_gated_update(c, np.ones(2), prior, y)
        means, covs, _, _ = kalman_filter(
            np.eye(2), np.zeros((2, 2)), c, np.ones(2),
            prior.mean, prior.cov, [y],
        )
        np.testing.assert_allclose(out.mean, means[0], atol=1e-12)
        np.testing.assert_allclose(out.cov, covs[0], atol=1e-12)

    def test_outlier_component_discarded(self):
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        c = np.eye(2)
        y = np.array([0.5, 20.0])  # second component at >10 sigma
        gated = kf_gated_update(c, np.ones(2), prior, y)
        only_first = kf_gated_update(
            c[:1], np.ones(1), prior, y[:1]
        )
        np.testing.assert_allclose(gated.mean, only_first.mean, atol=1e-12)
        np.testing.assert_allclose(gated.cov, only_first.cov, atol=1e-12)

    def test_posterior_never_exceeds_prior(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n_x, n_y = 3, 4
            a = rng.standard_normal((n_x, n_x))
            prior = GaussianBelief(
                rng.standard_normal(n_x), a @ a.T + 0.5 * np.eye(n_x)
            )
            c = rng.standard_normal((n_y, n_x))
            out = kf_gated_update(
                c, rng.uniform(0.5, 2.0, n_y), prior, rng.normal(0, 3, n_y)
            )
            diff = prior.cov - out.cov
            np.linalg.cholesky(diff + 1e-9 * np.eye(n_x))


class TestGatedSmoother:
    def test_matches_classical_smoother_without_gating(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, 3, 2, delta=0.0, nu=1e8)
        ys = simulate_linear(model, rng, 20)
        smoothed = rtss_gated_run(model, ys)
        means, covs, pred_means, pred_covs = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        sm, sp = rts_smooth(model.A, means, covs, pred_means, pred_covs)
        for k in range(20):
            np.testing.assert_allclose(smoothed[k].mean, sm[k], atol=1e-8)
            np.testing.assert_allclose(smoothed[k].cov, sp[k], atol=1e-8)

    def test_single_step_equals_update(self):
        rng = np.random.default_rng(53)
        model = random_model(rng, 2, 2, delta=0.0, nu=1e8)
        y = np.array([0.4, 0.2])
        smoothed = rtss_gated_run(model, [y])
        upd = kf_gated_update(model.C, model.R, model.prior_belief(), y)
        np.testing.assert_allclose(smoothed[0].mean, upd.mean, atol=1e-12)

    def test_static_state_fully_pooled(self):
        rng = np.random.default_rng(54)
        n_steps = 12
        model = StateSpaceModel(
            A=np.eye(2), Q=np.zeros((2, 2)),
            C=np.array([[1.0, 0.2], [0.3, 1.0]]), R=[0.8, 1.2],
            Delta=[0.0, 0.0], nu=[1e8, 1e8],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        truth = np.array([0.4, -0.6])
        ys = truth @ model.C.T + 0.3 * rng.standard_normal((n_steps, 2))
        smoothed = rtss_gated_run(model, ys)
        for b in smoothed[1:]:
            np.testing.assert_allclose(b.mean, smoothed[0].mean, atol=1e-8)
        c_rows = list(model.C) * n_steps
        variances = list(model.R) * n_steps
        mean_ref, _ = wls_pool(
            c_rows, variances, model.prior_mean, model.prior_cov, ys.ravel()
        )
        np.testing.assert_allclose(smoothed[0].mean, mean_ref, atol=1e-8)

    def test_zero_dynamics_keeps_filtered_beliefs(self):
        # A = 0, Q = 0 makes every prediction covariance exactly zero, so
        # the backward gain is zero and smoothing changes nothing.
        model = StateSpaceModel(
            A=np.zeros((2, 2)), Q=np.zeros((2, 2)), C=np.eye(2), R=[1.0, 1.0],
            Delta=[0.0, 0.0], nu=[1e8, 1e8],
            prior_mean=np.zeros(2), prior_cov=np.eye(2),
        )
        ys = [np.array([0.3, -0.2]), np.array([0.1, 0.4]), np.array([-0.5, 0.0])]
        smoothed = rtss_gated_run(model, ys)
        filtered, _ = kf_gated_run(model, ys)
        for s, f in zip(smoothed, filtered):
            np.testing.assert_array_equal(s.mean, f.mean)
            np.testing.assert_array_equal(s.cov, f.cov)


class TestParticleFilter:
    def test_matches_kalman_in_gaussian_limit(self):
        model = StateSpaceModel(
            A=[[0.95]], Q=[[0.3]], C=[[1.0]], R=[1.0], Delta=[0.0], nu=[1e8],
            prior_mean=[0.0], prior_cov=[[2.0]],
        )
        rng = np.random.default_rng(55)
        ys = simulate_linear(model, rng, 10)
        out = pf_run(model, ys, 100_000, seed=56)
        means, _, _, _ = kalman_filter(
            model.A, model.Q, model.C, model.R,
            model.prior_mean, model.prior_cov, ys,
        )
        for k in range(10):
            assert out[k].mean[0] == pytest.approx(means[k][0], abs=0.05)

    def test_empty_sequence(self):
        rng = np.random.default_rng(57)
        model = random_model(rng, 2, 2)
        assert pf_run(model, [], 1000, seed=0) == []

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(58)
        model = random_model(rng, 2, 2, delta=2.0, nu=4.0)
        ys = simulate_linear(model, rng, 5)
        a = pf_run(model, ys, 2000, seed=59)
        b = pf_run(model, ys, 2000, seed=59)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.mean, bb.mean)
            assert np.array_equal(ba.cov, bb.cov)

    def test_particle_floor(self):
        rng = np.random.default_rng(60)
        model = random_model(rng, 2, 2)
        with pytest.raises(ValueError):
            pf_run(model, [np.zeros(2)], 99, seed=0)

    def test_nonlinear_measurement_function(self):
        # A PF on ranges to three beacons localizes a static 2-D point.
        model = StateSpaceModel(
            A=np.eye(2), Q=np.zeros((2, 2)), C=np.zeros((3, 2)),
            R=[0.01, 0.01, 0.01], Delta=[0.0, 0.0, 0.0], nu=[1e8, 1e8, 1e8],
            prior_mean=np.zeros(2), prior_cov=4.0 * np.eye(2),
        )
        beacons = np.array([[5.0, 0.0], [0.0, 5.0], [-4.0, -3.0]])
        truth = np.array([1.0, 0.5])

        def h(states):
            return np.linalg.norm(
                beacons[None, :, :] - states[:, None, :], axis=2
            )

        y = h(truth[None, :])[0]
        out = pf_run(model, [y], 200_000, seed=61, measurement_fn=h)
        np.testing.assert_allclose(out[0].mean, truth, atol=0.05)

    def test_degeneracy_reported_with_step(self, monkeypatch):
        rng = np.random.default_rng(62)
        model = random_model(rng, 2, 2)
        monkeypatch.setattr(
            baselines,
            "_component_log_likelihoods",
            lambda m, r: np.full_like(r, -np.inf),
        )
        with pytest.raises(DegeneracyError, match="time step 0"):
            pf_run(model, [np.zeros(2)], 1000, seed=0)
