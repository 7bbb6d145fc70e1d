"""Tests for the GNSS benchmark harness and CLI."""

import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest, norm

from skewt_estim import cli, filtering
from skewt_estim._linalg import psd_sqrt
from skewt_estim.baselines import _component_log_likelihoods, _stacked_tables, pf_run
from skewt_estim.bench import (
    CSV_HEADER,
    ScenarioConfig,
    Trajectory,
    linearize,
    likelihood_contour_grid,
    make_constellation,
    nees,
    parse_config,
    rmse,
    run_experiment,
    scenario_model,
    simulate,
)
from skewt_estim.bench import experiments
from skewt_estim.bench.contours import CONTOUR_HEADER
from skewt_estim.bench.experiments import STATIC_PF_PARTICLES, _stf_rows, run_estimator
from skewt_estim.bench.gnss import (
    ORBIT_RADIUS_M,
    RECEIVER_NOMINAL_M,
    _linearize_rows,
    pseudoranges,
)
from skewt_estim.cli import main
from skewt_estim.exceptions import (
    ConfigError,
    DegeneracyError,
    DegenerateDirectionError,
    GeometryError,
    NumericalFailureError,
)
from skewt_estim.filtering import VBConfig
from skewt_estim.skewt import SkewTComponent, moments
from skewt_estim.smoothing import _sts_run_rows

from reference import augmented_posterior, simulate_loop, static_ordering_study


def small_config(**overrides):
    base = dict(
        q=5.0, delta=5.0, rho=100.0, nu=4.0, K=10, n_mc=2, seed=1,
        estimators=("stf", "kf"), name="small",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConstellation:
    def test_orbit_radius(self):
        sats = make_constellation(8, seed=1)
        assert sats.shape == (8, 3)
        np.testing.assert_allclose(
            np.linalg.norm(sats, axis=1), ORBIT_RADIUS_M, atol=1.0
        )

    def test_elevation_mask(self):
        sats = make_constellation(12, seed=2)
        up = RECEIVER_NOMINAL_M / np.linalg.norm(RECEIVER_NOMINAL_M)
        los = sats - RECEIVER_NOMINAL_M
        elev = np.degrees(
            np.arcsin(los @ up / np.linalg.norm(los, axis=1))
        )
        assert np.all(elev > 10.0)

    def test_minimum_satellites(self):
        with pytest.raises(ValueError):
            make_constellation(3, seed=1)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            make_constellation(8, seed=3), make_constellation(8, seed=3)
        )


class TestSimulate:
    def test_frozen_horizontal_walk(self):
        cfg = small_config(q=0.0, K=50)
        traj = simulate(cfg, 0)
        # q scales only the horizontal channels; vertical walks with a
        # fixed 0.2 m step and the clock bias stays constant.
        assert np.ptp(traj.states[:, 0]) == 0.0
        assert np.ptp(traj.states[:, 1]) == 0.0
        assert np.ptp(traj.states[:, 3]) == 0.0
        z_steps = np.diff(traj.states[:, 2])
        assert 0.05 < z_steps.std() < 0.5
        assert z_steps.std() == pytest.approx(0.2, rel=0.35)

    def test_normal_limit_residuals(self):
        cfg = small_config(delta=0.0, nu=1e8, K=200, n_sats=8)
        traj = simulate(cfg, 0)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        ranges = np.linalg.norm(
            sats[None, :, :] - traj.states[:, None, :3], axis=2
        )
        resid = (traj.measurements - ranges - traj.states[:, 3:4]).ravel()
        assert kstest(resid, norm.cdf).pvalue > 0.01

    def test_skewed_residual_mean(self):
        cfg = small_config(delta=5.0, nu=4.0, K=1000, n_sats=8)
        resid = []
        for rep in range(10):
            traj = simulate(cfg, rep)
            sats = make_constellation(cfg.n_sats, cfg.seed)
            ranges = np.linalg.norm(
                sats[None, :, :] - traj.states[:, None, :3], axis=2
            )
            resid.append(
                (traj.measurements - ranges - traj.states[:, 3:4]).ravel()
            )
        resid = np.concatenate(resid)  # 8e4 draws
        mean, _ = moments(SkewTComponent(1.0, 5.0, 4.0))
        assert resid.mean() == pytest.approx(mean, rel=0.01)

    def test_deterministic_per_replication(self):
        cfg = small_config()
        a = simulate(cfg, 3)
        b = simulate(cfg, 3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurements, b.measurements)
        c = simulate(cfg, 4)
        assert not np.array_equal(a.measurements, c.measurements)

    @pytest.mark.parametrize("n_steps", [1, 2, 100])
    def test_bit_equal_to_per_step_walk(self, n_steps):
        cfg = replace(small_config(), K=n_steps)
        for rep in (0, 5):
            traj = simulate(cfg, rep)
            states, meas = simulate_loop(cfg, rep)
            assert np.array_equal(traj.states, states)
            assert np.array_equal(traj.measurements, meas)


class TestLinearize:
    def test_axis_aligned_geometry(self):
        sats = np.array([[1e7, 0.0, 0.0]])
        c, y0 = linearize(sats, np.zeros(4))
        np.testing.assert_allclose(c[0], [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert y0[0] == pytest.approx(1e7)

    def test_bias_column_is_ones(self):
        sats = make_constellation(8, seed=4)
        c, _ = linearize(sats, np.array([10.0, -5.0, 2.0, 1.5]))
        np.testing.assert_array_equal(c[:, 3], np.ones(8))

    def test_far_field_stability(self):
        sats = make_constellation(6, seed=5)
        c_near, _ = linearize(sats, np.zeros(4))
        c_far, _ = linearize(2.0 * sats, np.zeros(4))
        assert np.abs(c_near - c_far).max() < 1e-4

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(GeometryError):
            linearize(np.array([[0.0, 0.0, 0.1]]), np.zeros(4))

    @pytest.mark.parametrize(
        "sats_shape, state_shape",
        [((4, 3), (3,)), ((4, 2), (4,)), ((4, 3), (2, 5)), ((4, 3), ()), ((3,), (4,))],
    )
    def test_input_shapes_checked(self, sats_shape, state_shape):
        """pseudoranges, linearize and its stacked form take (n_sats, 3)
        satellites and a state or stack of states (..., 4), and name both
        shapes otherwise, where numpy's broadcasting or indexing failed or
        a single satellite was taken as a stack of one."""
        sats, states = np.ones(sats_shape), np.zeros(state_shape)
        message = f"need sats (n, 3) and states (..., 4), got {sats_shape}, {state_shape}"
        for call in (pseudoranges, linearize, _linearize_rows):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(sats, states)


class TestPseudoranges:
    def test_batch_rows_equal_single_state_and_linearization(self):
        cfg = small_config(K=20)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        states = simulate(cfg, 0).states
        batch = pseudoranges(sats, states)
        assert batch.shape == (cfg.K, cfg.n_sats)
        for row, state in zip(batch, states):
            np.testing.assert_array_equal(row, pseudoranges(sats, state))
            np.testing.assert_array_equal(row, linearize(sats, state)[1])

    @pytest.mark.parametrize("batch", [(), (20,), (4, 5)])
    def test_satellite_major_layout_keeps_the_per_satellite_bits(self, batch):
        """Computed satellite-major, the pseudoranges of (4,), (K, 4) and
        (B, K, 4) states are the per-satellite formula's, bit for bit, and
        on a particle stack (n_p, 4) their transpose is the C-contiguous
        (n_sats, n_p) array that the PF's lookup takes."""
        sats = make_constellation(8, seed=3)
        rng = np.random.default_rng(68)
        states = np.append(RECEIVER_NOMINAL_M, 0.0) + 10.0 * rng.standard_normal(batch + (4,))
        got = pseudoranges(sats, states)
        assert got.shape == batch + (8,)
        for i, sat in enumerate(sats):
            d = sat - states[..., :3]
            want = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])
            np.testing.assert_array_equal(got[..., i], want + states[..., 3])
        particles = rng.standard_normal((1000, 4))
        assert pseudoranges(sats, particles).T.flags.c_contiguous

    def test_stacked_linearization_rows_equal_single_state(self):
        cfg = small_config(K=20)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        states = simulate(cfg, 0).states
        c_mat, y0 = linearize(sats, states.reshape(4, 5, 4))
        assert c_mat.shape == (4, 5, cfg.n_sats, 4) and y0.shape == (4, 5, cfg.n_sats)
        for i, state in enumerate(states):
            c_one, y_one = linearize(sats, state)
            np.testing.assert_array_equal(c_mat[i // 5, i % 5], c_one)
            np.testing.assert_array_equal(y0[i // 5, i % 5], y_one)

    def test_stacked_degenerate_geometry_names_the_row(self):
        """The sweep's stacked form returns the error as the outcome of
        row 2, its key, with finite outputs, and the other rows' own
        linearizations; the public linearize raises that error."""
        sats = make_constellation(6, seed=5)
        nominal = np.zeros((3, 4))
        nominal[2, :3] = sats[4]
        with pytest.raises(GeometryError, match="coincides with a satellite") as info:
            linearize(sats, nominal)
        c_mat, y0, failed = _linearize_rows(sats, nominal)
        assert list(failed) == [2] and str(failed[2]) == str(info.value)
        assert np.isfinite(c_mat).all() and np.isfinite(y0).all()
        for b in range(2):
            np.testing.assert_array_equal(c_mat[b], linearize(sats, nominal[b])[0])
            np.testing.assert_array_equal(y0[b], linearize(sats, nominal[b])[1])

    @settings(deadline=None, max_examples=100)
    @given(
        st.sampled_from([(), (1,), (7,), (1000,), (3, 5)]),
        st.floats(-3.0, 7.0),
        st.integers(0, 2**32 - 1),
    )
    def test_ranges_bit_equal_to_norm(self, batch, log_scale, seed):
        # The explicit range sum has the bits of np.linalg.norm on the
        # last axis, for pseudoranges and linearize alike, on any stack.
        rng = np.random.default_rng(seed)
        sats = make_constellation(8, seed=seed % 97)
        nominal = np.append(RECEIVER_NOMINAL_M, 0.0)
        states = nominal * rng.random() + 10.0**log_scale * rng.standard_normal(batch + (4,))
        diff = sats - states[..., None, :3]
        ranges = np.linalg.norm(diff, axis=-1)
        np.testing.assert_array_equal(
            pseudoranges(sats, states), ranges + states[..., 3:4]
        )
        c_mat, y0 = linearize(sats, states)
        np.testing.assert_array_equal(y0, ranges + states[..., 3:4])
        np.testing.assert_array_equal(c_mat[..., :3], -diff / ranges[..., None])
        np.testing.assert_array_equal(c_mat[..., 3], np.ones(batch + (8,)))


class TestMetrics:
    def test_rmse_exact_match(self):
        xs = np.random.default_rng(0).normal(size=(20, 3))
        assert rmse(xs, xs) == 0.0

    def test_rmse_constant_offset(self):
        truth = np.zeros((30, 3))
        est = truth.copy()
        est[:, 0] += 1.0
        assert rmse(est, truth) == pytest.approx(1.0, abs=1e-12)

    def test_rmse_against_direct_formula(self):
        rng = np.random.default_rng(6)
        est = rng.normal(size=(40, 3))
        truth = rng.normal(size=(40, 3))
        direct = np.sqrt(
            sum(np.sum((e - t) ** 2) for e, t in zip(est, truth)) / 40.0
        )
        assert rmse(est, truth) == pytest.approx(direct, abs=1e-12)

    def test_nees_zero_error(self):
        covs = np.stack([np.eye(3)] * 5)
        xs = np.ones((5, 3))
        np.testing.assert_array_equal(nees(xs, covs, xs), np.zeros(5))

    def test_nees_unit_example(self):
        covs = np.stack([np.eye(3)])
        assert nees(np.ones((1, 3)), covs, np.zeros((1, 3)))[0] == pytest.approx(3.0)

    def test_nees_bit_equal_to_per_step_solve(self):
        # Random SPD 4x4 covariances, of which nees reads the position
        # block, one of them with a position block of condition ~1e12.
        rng = np.random.default_rng(8)
        n = 200
        a = rng.standard_normal((n, 4, 4))
        covs = a @ a.swapaxes(1, 2) + 0.1 * np.eye(4)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        covs[7, :3, :3] = (q * [1e6, 1.0, 1e-6]) @ q.T
        est = rng.standard_normal((n, 4)) * 10.0
        truth = rng.standard_normal((n, 4))
        expected = np.array([
            (e - t) @ np.linalg.solve(p[:3, :3], e - t)
            for e, t, p in zip(est[:, :3], truth[:, :3], covs)
        ])
        assert np.linalg.cond(covs[7, :3, :3]) > 1e11
        np.testing.assert_array_equal(nees(est, covs, truth), expected)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: rmse(np.zeros((5, 3)), np.zeros((4, 3))), "shape mismatch: (5, 3) vs (4, 3)"),
            (lambda: rmse(np.zeros((5, 2)), np.zeros((5, 3))), "shape mismatch: (5, 2) vs (5, 3)"),
            (lambda: nees(np.zeros((5, 3)), np.zeros((4, 3, 3)), np.zeros((5, 3))),
             "covs must be (K, n, n) aligned with estimates"),
            (lambda: nees(np.zeros((1, 3)), np.eye(3), np.zeros((1, 3))),
             "covs must be (K, n, n) aligned with estimates"),
            (lambda: nees(np.zeros((1, 3)), np.eye(3)[None], np.zeros((4, 3))),
             "shape mismatch: (1, 3) vs (4, 3)"),
            (lambda: nees(np.zeros((4, 3)), np.stack([np.eye(3)] * 4), np.zeros((4, 2))),
             "shape mismatch: (4, 3) vs (4, 2)"),
        ],
        ids=["rmse-steps", "rmse-columns", "nees-steps", "nees-unstacked-covs", "nees-truth-steps",
             "nees-truth-columns"],
    )
    def test_metrics_input_checks(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_nees_calibrated_estimator(self):
        rng = np.random.default_rng(7)
        n = 10_000
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        chol = np.linalg.cholesky(cov)
        errs = rng.standard_normal((n, 3)) @ chol.T
        vals = nees(errs, np.stack([cov] * n), np.zeros((n, 3)))
        assert 2.9 < vals.mean() < 3.1


class TestConfigParsing:
    GOOD = """
    # benchmark scenario
    name = demo
    q = 5.0
    delta = 5.0
    rho = 100.0
    nu = 4.0
    K = 10
    n_mc = 2
    seed = 1
    estimators = stf, kf
    """

    def test_roundtrip(self):
        cfg = parse_config(self.GOOD)
        assert cfg.name == "demo"
        assert cfg.q == 5.0
        assert cfg.estimators == ("stf", "kf")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(self.GOOD + "\nbogus = 1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(self.GOOD.replace("q = 5.0", "q = five"))

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config("q = 1.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(self.GOOD + "\nq = 2.0")

    @pytest.mark.parametrize("name", ["a,b", "../x", "x/y", ".hidden", "a b", "a\tb"])
    def test_name_outside_file_name_characters_rejected(self, name):
        """A name is one CSV field and one file name: a comma, a path
        separator, a space or a leading "." is a ConfigError."""
        with pytest.raises(ConfigError, match="name must be letters, digits"):
            parse_config(self.GOOD.replace("name = demo", f"name = {name}"))

    @pytest.mark.parametrize("name", ["q0.5", "q5.0", "run-1", "a_b", "7"])
    def test_name_of_file_name_characters_accepted(self, name):
        assert parse_config(self.GOOD.replace("name = demo", f"name = {name}")).name == name

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(self.GOOD.replace("stf, kf", "stf, bogus"))

    def test_repeated_estimator_rejected(self):
        with pytest.raises(ConfigError, match=r"repeated estimators \['kf'\]"):
            parse_config(self.GOOD.replace("stf, kf", "kf, stf, kf"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("q 5.0", "line 1: expected 'key = value', got 'q 5.0'"),
            ("# comment\n\nname: demo", "line 3: expected 'key = value', got 'name: demo'"),
            ("q = 5.0\n  K  # = 10", "line 2: expected 'key = value', got '  K  # = 10'"),
        ],
    )
    def test_line_without_equals_rejected(self, text, message):
        """A line that is not a comment and holds no '=' (before any '#')
        is rejected, naming its line number and its text."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)

    @pytest.mark.parametrize("key, value", [("q", "5.0"), ("delta", "5.0"), ("rho", "100.0"),
                                            ("nu", "4.0")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_value_rejected(self, key, value, bad):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            parse_config(self.GOOD.replace(f"{key} = {value}", f"{key} = {bad}"))


class TestRunExperiment:
    def test_empty_monte_carlo_writes_header(self, tmp_path):
        cfg = small_config(n_mc=0)
        out = tmp_path / "records.csv"
        records = run_experiment(cfg, out_path=out)
        assert records == []
        assert out.read_text() == CSV_HEADER + "\n"

    def test_no_estimators_gives_simulation_rows(self, tmp_path):
        cfg = small_config(estimators=())
        records = run_experiment(cfg)
        assert len(records) == cfg.n_mc
        assert all(r.status == "simulated" for r in records)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = small_config(K=5, n_mc=2, estimators=("stf", "kf", "rtss"))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_experiment(cfg, out_path=out1)
        run_experiment(cfg, out_path=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_records_sorted_and_ok(self):
        cfg = small_config(K=5, n_mc=2)
        records = run_experiment(cfg)
        keys = [(r.scenario, r.estimator, r.replication) for r in records]
        assert keys == sorted(keys)
        assert all(r.status == "ok" for r in records)
        assert all(r.rmse >= 0.0 and r.mean_nees >= 0.0 for r in records)

    @pytest.mark.parametrize("nu", [1.2, 1e6])
    @pytest.mark.parametrize("rho", [1e-4, 1e6])
    @pytest.mark.parametrize("delta", [0.0, 50.0])
    @pytest.mark.parametrize("q", [0.0, 50.0])
    def test_pf_finishes_on_extreme_scenarios(self, q, delta, rho, nu):
        cfg = small_config(
            q=q, delta=delta, rho=rho, nu=nu, K=30, n_sats=5, estimators=("pf",)
        )
        sats = make_constellation(cfg.n_sats, cfg.seed)
        run = run_estimator("pf", cfg, sats, simulate(cfg, 0))
        assert np.all(np.isfinite(run.positions))
        assert np.all(np.isfinite(run.position_covs))

    @pytest.mark.parametrize("nu", [1.2, 1e6])
    @pytest.mark.parametrize("rho", [1e-4, 1e6])
    @pytest.mark.parametrize("delta", [0.0, 50.0])
    @pytest.mark.parametrize("q", [0.0, 50.0])
    def test_vb_and_gaussian_estimators_on_extreme_scenarios(
        self, q, delta, rho, nu
    ):
        grid = dict(q=q, delta=delta, rho=rho, nu=nu, K=30, n_sats=5)
        gaussian = ("kf", "rtss")
        if nu <= 2.0:
            # Moment matching needs a finite noise variance.
            for est in gaussian:
                with pytest.raises(ConfigError):
                    small_config(estimators=(est,), **grid)
            gaussian = ()
        cfg = small_config(estimators=("stf", "sts") + gaussian, **grid)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        traj = simulate(cfg, 0)
        for est in cfg.estimators:
            run = run_estimator(est, cfg, sats, traj)
            assert np.all(np.isfinite(run.positions)), est
            assert np.all(np.isfinite(run.position_covs)), est

    def test_estimation_error_gives_failed_record(self, monkeypatch):
        """The pseudorange source of the sweep fails the row at step 3: the
        "stf" and "kf" records fail with its error and step."""
        real_source = experiments._pseudorange_source

        def failing_source(*args):
            n_rows, n_steps, measure = real_source(*args)

            def failing(k, rows, x):
                *terms, failed = measure(k, rows, x)
                if k == 3:
                    failed = {0: NumericalFailureError("not positive definite")}
                return (*terms, failed)
            return n_rows, n_steps, failing

        monkeypatch.setattr(experiments, "_pseudorange_source", failing_source)
        records = run_experiment(small_config(K=4, n_mc=1))
        assert [r.status for r in records] == ["failed", "failed"]
        assert [r.reason for r in records] == [
            "not positive definite (time step 3)"
        ] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimator", ["pf", "stf", "sts", "kf", "rtss"])
    def test_nonfinite_measurement_gives_failed_record(self, monkeypatch, bad, estimator):
        real_simulate = experiments.simulate

        def corrupted(cfg, rep):
            traj = real_simulate(cfg, rep)
            if rep:
                return traj
            meas = traj.measurements.copy()
            meas[2, 0] = bad
            return replace(traj, measurements=meas)

        monkeypatch.setattr(experiments, "simulate", corrupted)
        records = run_experiment(small_config(K=3, n_mc=2, estimators=(estimator,)))
        assert [r.status for r in records] == ["failed", "ok"]
        if estimator == "pf":
            assert records[0].reason == "all particle weights vanished (time step 2)"
        else:
            assert records[0].reason == "pseudorange is not finite (time step 2)"

    def test_non_finite_truncation_distance_fails_its_replications(self):
        """At nu=0.02 the augmented update overflows and the truncation
        meets a NaN boundary distance: a typed error that fails the
        replication at its step instead of aborting the sweep."""
        cfg = ScenarioConfig(
            q=0.5, delta=5.0, rho=100.0, nu=0.02, K=10, n_mc=4, seed=1,
            estimators=("stf", "sts"),
        )
        with np.errstate(all="ignore"):
            records = run_experiment(cfg)
        assert len(records) == 8
        for r in records:
            assert r.status == "failed"
            assert "truncation distance is not finite" in r.reason
            assert "(time step " in r.reason

    def test_update_failure_carries_time_step(self, monkeypatch):
        real_update = filtering._stf_update_rows
        calls = []

        def fail_on_fourth(*args, **kwargs):
            calls.append(None)
            *out, failed = real_update(*args, **kwargs)
            if len(calls) == 4:
                failed = {0: NumericalFailureError("not positive definite")}
            return (*out, failed)

        monkeypatch.setattr(filtering, "_stf_update_rows", fail_on_fourth)
        cfg = small_config(estimators=("stf",))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        with pytest.raises(NumericalFailureError) as info:
            run_estimator("stf", cfg, sats, simulate(cfg, 0))
        assert info.value.step == 3

    def test_truncation_failure_carries_time_step(self, monkeypatch):
        """A DegenerateDirectionError at the first truncation of step 3
        keeps its type, gains the step, and the record's reason names it."""
        cfg = small_config(n_mc=1, estimators=("stf",))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        traj = simulate(cfg, 0)
        real = filtering._rec_trunc_row
        seen = []

        def spy(mean, *args):
            seen.append(mean.copy())
            return real(mean, *args)

        monkeypatch.setattr(filtering, "_rec_trunc_row", spy)
        marker = seen[int(run_estimator("stf", cfg, sats, traj).vb_iterations[:3].sum())]

        def fail_at_marker(mean, *args):
            if np.array_equal(mean, marker):
                raise DegenerateDirectionError("injected")
            return real(mean, *args)

        monkeypatch.setattr(filtering, "_rec_trunc_row", fail_at_marker)
        with pytest.raises(DegenerateDirectionError) as info:
            run_estimator("stf", cfg, sats, traj)
        assert info.value.step == 3
        (record,) = run_experiment(cfg)
        assert record.status == "failed"
        assert record.reason == str(info.value)
        assert record.reason.endswith("(time step 3)")

    @pytest.mark.parametrize("family", ["stf", "kf"])
    def test_geometry_failure_carries_time_step(self, monkeypatch, family):
        """A GeometryError of the relinearization at step 3 gains the step."""
        cfg = small_config(n_mc=1)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        trajs = [simulate(cfg, 0)]
        real = experiments._linearize_rows
        calls = []

        def fail_on_fourth(*args):
            calls.append(None)
            c_mat, y0, failed = real(*args)
            if len(calls) == 4:
                failed = {0: GeometryError("injected")}
            return c_mat, y0, failed

        monkeypatch.setattr(experiments, "_linearize_rows", fail_on_fourth)
        with pytest.raises(GeometryError, match=r"injected \(time step 3\)$") as info:
            if family == "stf":
                runs = _stf_rows(model, sats, trajs)
            else:
                runs = experiments._kf_rows(model, cfg, sats, trajs)[0]
            raise runs[0]  # the row's outcome
        assert info.value.step == 3

    @pytest.mark.parametrize("name", ["ekf", "STF", "", "stf "])
    def test_run_estimator_unknown_name(self, name):
        """run_estimator rejects a name outside KNOWN_ESTIMATORS before it
        looks at its other arguments."""
        with pytest.raises(ValueError, match=re.escape(f"unknown estimator {name!r}")):
            run_estimator(name, small_config(), None, None)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(experiments, "run_estimator", broken)
        monkeypatch.setattr(experiments, "_kf_rows", broken)  # the lockstep "kf"
        with pytest.raises(TypeError):
            run_experiment(small_config(K=3, n_mc=1))


class TestSmootherIterations:
    def test_rmse_settles_after_five_outer_iterations(self):
        cfg = small_config(q=5.0, delta=5.0, K=60, estimators=())
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        for rep in range(3):
            traj = simulate(cfg, rep)
            # The smoother linearizes on its own first forward pass; a
            # tolerance no change meets makes the cap end both runs.
            source = experiments._pseudorange_source(sats, [traj])
            rmses = []
            for n in (5, 30):
                capped = VBConfig(max_iterations=n, tol=1e-300)
                means, _, _, iterations, _, failed = _sts_run_rows(model, *source, capped)
                assert (iterations[0], failed) == (n, {})
                rmses.append(rmse(means[0, :, :3], traj.states))
            r5, r30 = rmses
            assert abs(r5 - r30) <= 0.01 * r30


class TestStaticOrdering:
    """The truncation order on the single-epoch posterior of the static
    experiment's draws (reference.static_ordering_study): at nu = 1e8 the
    skew-t noise is skew-normal, so one update is the whole filter and the
    truncation order is its only moving part.  The posterior of [x; u]
    under the linearized model is a normal truncated to u >= 0, whose x
    mean tmnd_oracle gives exactly, up to its Monte Carlo error."""

    def test_greedy_truncation_no_worse_than_random_ordering(self):
        """In median over 500 replications, the greedy-order posterior
        mean is at least as close to the exact mean as the random-order
        one (oracle of 10,000 draws; at delta=5 the medians are 0.0085 and
        0.0110 m, most of both the oracle's error).  At delta=0 the offset
        block decouples and both are the exact mean.  The filter truncates
        in greedy order: its VB update lands within 1e-6 m of the greedy
        truncation (its mixing precisions differ from 1 by about 1e-8)."""
        for delta in (0.0, 5.0):
            greedy, random, exact, filtered = static_ordering_study(
                delta, n_replications=500, seed=11, oracle_samples=10_000,
            )
            dist_opt = np.linalg.norm(greedy - exact, axis=1)
            dist_rand = np.linalg.norm(random - exact, axis=1)
            med_opt, med_rand = np.median(dist_opt), np.median(dist_rand)
            assert med_opt <= med_rand + 1e-12, (delta, med_opt, med_rand)
            if delta == 0.0:
                np.testing.assert_allclose(dist_opt, dist_rand, atol=1e-9)
            assert np.linalg.norm(filtered - greedy, axis=1).max() <= 1e-6

    def test_particle_filter_agrees_with_exact_mean(self):
        """The 100,000-particle PF of run_static_experiment, on the
        pseudorange model itself, agrees with the exact x mean of the
        linearized model within a bound derived from its effective sample
        size.

        The PF mean is a self-normalized importance sampling estimate
        from prior draws: its error has covariance about Sigma / ESS
        (Kong 1992), Sigma the posterior covariance (the PF's own) and
        ESS = 1 / sum(w_i^2) of its normalized weights, which the test
        recomputes from the PF's particles and likelihood.  The exact mean
        z_x + G (mean of n_o oracle draws of u - z_u), G = Z_xu Z_uu^-1,
        has error covariance G Cov(u | u >= 0) G^T / n_o, at most
        Z_xu Z_uu^-1 Z_ux / n_o: a normal restricted to a convex set has
        no larger covariance (Brascamp-Lieb).  Linearizing the pseudoranges
        over metre offsets at 2e7 m ranges moves the mean by under 1e-6 m.
        The two errors are independent, so their sum has a covariance of
        trace at most s^2 = tr(Sigma) / ESS + tr(Z_xu Z_uu^-1 Z_ux) / n_o
        on the position block, and its norm exceeds 4 s with probability
        under 1e-4 (for normal errors; the worst case puts all of s on one
        axis).  Here ESS is 5e4-7e4 and s about 0.006 m.
        """
        n_rep, seed, n_oracle = 5, 11, 100_000
        _, _, exact, _ = static_ordering_study(5.0, n_rep, seed, n_oracle)
        draws = experiments._static_replications(5.0, 1e8, 1.0, n_rep, seed)
        for rep, (sats, model, _, y, y_lin) in enumerate(draws):
            pf_seed = experiments._tagged_seed(seed, rep, 0x5054)
            pf = pf_run(
                model, [y], STATIC_PF_PARTICLES, seed=pf_seed,
                measurement_fn=partial(pseudoranges, sats),
            )[0]
            # The PF's particles and normalized weights, as _pf_moments draws them.
            rng = np.random.default_rng(pf_seed)
            states = model.prior_mean + rng.standard_normal(
                (STATIC_PF_PARTICLES, model.n_x)
            ) @ psd_sqrt(model.prior_cov).T
            log_w = _component_log_likelihoods(
                _stacked_tables(model.noise_model()), y[:, None] - pseudoranges(sats, states).T
            ).sum(axis=0)
            w = np.exp(log_w - log_w.max())
            w /= w.sum()
            np.testing.assert_allclose(w @ states, pf.mean, rtol=0, atol=1e-9)
            ess = 1.0 / np.sum(w**2)
            _, cov = augmented_posterior(model, y_lin)
            z_xu, z_uu = cov[:model.n_x, model.n_x:], cov[model.n_x:, model.n_x:]
            oracle_var = np.trace((z_xu @ np.linalg.solve(z_uu, z_xu.T))[:3, :3])
            s = np.sqrt(np.trace(pf.cov[:3, :3]) / ess + oracle_var / n_oracle)
            assert np.linalg.norm(pf.mean[:3] - exact[rep]) <= 4.0 * s, (rep, ess, s)


class TestContours:
    def test_grid_structure(self):
        grid = likelihood_contour_grid(delta=3.0, nu=4.0, extent=8.0, n_grid=21)
        assert grid["normal"].shape == (21, 21)
        for key in ("normal", "student_t", "skew_t"):
            assert np.all(np.isfinite(grid[key]))

    def test_skewed_model_tolerates_outliers_better(self):
        # At the true position the two positive range outliers are better
        # explained by the asymmetric model than by the matched normal.
        grid = likelihood_contour_grid(delta=5.0, nu=4.0, extent=2.0, n_grid=3)
        center = (1, 1)
        assert grid["skew_t"][center] > grid["normal"][center]


class TestCli:
    def test_run_command(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(
            "name = clidemo\nq = 5.0\ndelta = 5.0\nrho = 100.0\nnu = 4.0\n"
            "K = 5\nn_mc = 1\nseed = 1\nestimators = stf\n"
        )
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_file), "--out", str(out_dir)])
        assert code == 0
        text = (out_dir / "clidemo.csv").read_text()
        assert text.splitlines()[0] == CSV_HEADER

    def test_run_sts_only_writes_the_sts_lines_of_a_full_run(self, tmp_path):
        """estimators = sts writes only sts lines, equal to the sts lines
        that the same scenario writes with stf, sts, kf and rtss."""
        lines = {}
        for run, estimators in (("sts", "sts"), ("all", "stf, sts, kf, rtss")):
            cfg_file = tmp_path / f"{run}.cfg"
            cfg_file.write_text(
                "name = stsdemo\nq = 5.0\ndelta = 5.0\nrho = 100.0\nnu = 4.0\n"
                f"K = 8\nn_mc = 3\nseed = 1\nestimators = {estimators}\n"
            )
            out_dir = tmp_path / run
            assert main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
            lines[run] = (out_dir / "stsdemo.csv").read_text().splitlines()
        assert lines["sts"][0] == CSV_HEADER
        assert [line.split(",")[1] for line in lines["sts"][1:]] == ["sts"] * 3
        assert lines["sts"][1:] == [
            line for line in lines["all"][1:] if line.split(",")[1] == "sts"
        ]

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n")
        code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a,b", "../escaped"])
    def test_run_rejects_name_that_breaks_csv_or_out_dir(self, tmp_path, capsys, name):
        """A name with a comma would add a CSV field, and one with "../"
        would write outside --out: exit code 1, and no CSV is written."""
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(
            f"name = {name}\nq = 5.0\ndelta = 5.0\nrho = 100.0\nnu = 4.0\n"
            "K = 2\nn_mc = 1\nseed = 1\nestimators = kf\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert "name must be letters, digits" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_run_missing_file_is_config_error(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_strict_mode_flags_estimator_failure(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise DegeneracyError("all particle weights vanished", step=0)

        monkeypatch.setattr(experiments, "_pf_moments", fail)
        cfg_file = tmp_path / "strict.cfg"
        cfg_file.write_text(
            "name = strictdemo\nq = 1.0\ndelta = 1.0\nrho = 10.0\nnu = 4.0\n"
            "K = 2\nn_mc = 1\nseed = 1\nestimators = pf\n"
        )
        out_dir = tmp_path / "out"
        assert main(
            ["run", "--config", str(cfg_file), "--out", str(out_dir)]
        ) == 0
        assert main(
            ["run", "--config", str(cfg_file), "--out", str(out_dir), "--strict"]
        ) == 2

    def test_strict_run_exits_2_on_failed_replications(self, tmp_path):
        """The nu=0.02 sweep fails every replication: exit code 2 with
        --strict and 0 without, and the CSV holds the failed rows."""
        cfg_file = tmp_path / "heavy.cfg"
        cfg_file.write_text(
            "name = heavy\nq = 0.5\ndelta = 5.0\nrho = 100.0\nnu = 0.02\n"
            "K = 10\nn_mc = 4\nseed = 1\nestimators = stf, sts\n"
        )
        out_dir = tmp_path / "out"
        args = ["run", "--config", str(cfg_file), "--out", str(out_dir)]
        with np.errstate(all="ignore"):
            assert main(args) == 0
            assert main(args + ["--strict"]) == 2
        lines = (out_dir / "heavy.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[1:3] for line in lines[1:]] == [
            [est, str(rep)] for est in ("stf", "sts") for rep in range(4)
        ]
        assert all(line.endswith(",failed") for line in lines[1:])

    def test_truncnorm_bench_command(self, tmp_path):
        code = main(
            [
                "truncnorm-bench", "--dims", "3..4", "--cases", "4",
                "--out", str(tmp_path), "--oracle-samples", "2000",
            ]
        )
        assert code == 0
        lines = (tmp_path / "truncnorm_bench.csv").read_text().splitlines()
        assert lines[0] == "case,dim,opt_dist,rand_dist"
        assert len(lines) == 5

    def test_truncnorm_bench_bad_dims(self, tmp_path):
        assert main(
            ["truncnorm-bench", "--dims", "8..3", "--out", str(tmp_path)]
        ) == 1

    @pytest.mark.parametrize("dims", ["a..8", "3..x", "3-8", "3.5..8"])
    def test_truncnorm_bench_non_numeric_dims(self, dims, tmp_path, capsys):
        """A --dims value that is not two integers around '..' is a
        ConfigError, which the command reports as its error, exit code 1."""
        message = f"bad --dims value {dims!r}, expected e.g. 3..8"
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli._parse_dims(dims)
        assert main(["truncnorm-bench", "--dims", dims, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["truncnorm-bench", "--cases", "0"], "n_cases must be >= 1, got 0"),
            (["truncnorm-bench", "--cases", "-3"], "n_cases must be >= 1, got -3"),
            (["contours", "--delta", "3", "--nu", "4", "--grid", "0"], "n_grid must be >= 2, got 0"),
            (["contours", "--delta", "3", "--nu", "4", "--grid", "1"], "n_grid must be >= 2, got 1"),
        ],
        ids=["cases-0", "cases-negative", "grid-0", "grid-1"],
    )
    def test_study_rejects_empty_size(self, tmp_path, capsys, args, message):
        """A study of no case or of a grid with fewer than two points per
        axis exits 1 with the reason, and writes no CSV."""
        out = tmp_path / ("out.csv" if args[0] == "contours" else "out")
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.rglob("*.csv")) == []

    def test_contours_command(self, tmp_path):
        out = tmp_path / "contours.csv"
        code = main(
            ["contours", "--delta", "3", "--nu", "4", "--out", str(out),
             "--grid", "5", "--extent", "4"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CONTOUR_HEADER
        assert len(lines) == 26


class TestScenarioValidation:
    @pytest.mark.parametrize("field", ["K", "n_mc", "n_sats", "seed", "pf_particles"])
    def test_counts_must_be_integers(self, field):
        """A count or seed that is not a Python or numpy integer is
        rejected at construction; a numpy integer is accepted."""
        valid = getattr(small_config(), field)
        for value in (valid + 0.5, float(valid), str(valid), True, None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                small_config(**{field: value})
        assert small_config(**{field: np.int64(valid)}) == small_config()

    def test_field_bounds(self):
        with pytest.raises(ValueError):
            small_config(K=0)
        with pytest.raises(ValueError):
            small_config(n_sats=3)
        with pytest.raises(ValueError):
            small_config(rho=0.0)
        with pytest.raises(ValueError):
            small_config(estimators=("bogus",))
        with pytest.raises(ValueError, match=r"repeated estimators \['kf', 'stf'\]"):
            small_config(estimators=("stf", "kf", "stf", "kf"))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: small_config(q=-1.0), "q and delta must be nonnegative"),
            (lambda: small_config(delta=-0.5), "q and delta must be nonnegative"),
            (lambda: small_config(n_mc=-1), "n_mc must be nonnegative"),
            (lambda: small_config(seed=-1), "seed must be an unsigned integer"),
            (lambda: Trajectory(np.zeros((5, 3)), np.zeros((5, 8))),
             "states must be (K, 4) with aligned measurements"),
            (lambda: Trajectory(np.zeros((5, 4)), np.zeros((4, 8))),
             "states must be (K, 4) with aligned measurements"),
        ],
        ids=["negative-q", "negative-delta", "negative-n_mc", "negative-seed",
             "three-state-columns", "misaligned-measurements"],
    )
    def test_gnss_input_checks(self, make, message):
        """ScenarioConfig and Trajectory reject out-of-range fields and
        misshapen arrays with their own message."""
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_estimator_applicability(self):
        small_config(nu=2.5, estimators=("kf", "rtss"))
        small_config(nu=1.2, estimators=("stf", "sts", "pf"))
        for est in ("kf", "rtss"):
            with pytest.raises(ConfigError):
                small_config(nu=2.0, estimators=("stf", est))
        small_config(pf_particles=100, estimators=("pf",))
        small_config(pf_particles=10, estimators=("stf",))
        with pytest.raises(ConfigError):
            small_config(pf_particles=99, estimators=("pf",))
