"""Tests for the GNSS benchmark harness and CLI."""

import numpy as np
import pytest
from scipy.stats import kstest, norm

from skewt_estim.bench import (
    CSV_HEADER,
    ScenarioConfig,
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
from skewt_estim.bench.experiments import _stf_rows, run_estimator
from skewt_estim.bench.gnss import ORBIT_RADIUS_M, RECEIVER_NOMINAL_M, pseudoranges
from skewt_estim.cli import main
from skewt_estim.exceptions import (
    ConfigError,
    DegeneracyError,
    GeometryError,
    NumericalFailureError,
)
from skewt_estim.filtering import VBConfig
from skewt_estim.skewt import SkewTComponent, moments
from skewt_estim.smoothing import _run_vb


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

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(self.GOOD.replace("stf, kf", "stf, bogus"))


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
        def fail(*args, **kwargs):
            raise NumericalFailureError("not positive definite", step=3)

        monkeypatch.setattr(experiments, "run_estimator", fail)
        monkeypatch.setattr(experiments, "_stf_rows", fail)  # the lockstep "stf"
        records = run_experiment(small_config(K=3, n_mc=1))
        assert [r.status for r in records] == ["failed", "failed"]
        assert [r.reason for r in records] == [
            "not positive definite (time step 3)"
        ] * 2

    def test_update_failure_carries_time_step(self, monkeypatch):
        real_update = experiments._stf_update_rows
        calls = []

        def fail_on_fourth(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise NumericalFailureError("not positive definite")
            return real_update(*args, **kwargs)

        monkeypatch.setattr(experiments, "_stf_update_rows", fail_on_fourth)
        cfg = small_config(estimators=("stf",))
        sats = make_constellation(cfg.n_sats, cfg.seed)
        with pytest.raises(NumericalFailureError) as info:
            run_estimator("stf", cfg, sats, simulate(cfg, 0))
        assert info.value.step == 3

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(experiments, "run_estimator", broken)
        with pytest.raises(TypeError):
            run_experiment(small_config(K=3, n_mc=1))


class TestSmootherIterations:
    def test_rmse_settles_after_five_outer_iterations(self):
        cfg = small_config(q=5.0, delta=5.0, K=60, estimators=())
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        for rep in range(3):
            traj = simulate(cfg, rep)
            _, c_rows, y_rows = _stf_rows(model, sats, [traj], VBConfig())
            c_seq, y_adj = c_rows[0], y_rows[0]
            res5 = _run_vb(
                model, y_adj, VBConfig(), measurement_matrices=c_seq,
                n_iterations=5,
            )
            res30 = _run_vb(
                model, y_adj, VBConfig(), measurement_matrices=c_seq,
                n_iterations=30,
            )
            pos5 = np.stack([s.mean[:3] for s in res5.smoothed])
            pos30 = np.stack([s.mean[:3] for s in res30.smoothed])
            r5 = rmse(pos5, traj.states)
            r30 = rmse(pos30, traj.states)
            assert abs(r5 - r30) <= 0.01 * r30


class TestStaticOrdering:
    def test_greedy_truncation_no_worse_than_random_ordering(self):
        """Single-epoch study in the skew-normal regime (huge dof, one
        effective update, so the truncation ordering is the only moving
        part): the greedy-order posterior mean is, in median over 500
        replications, at least as close to the particle reference as the
        random-order variant.  At delta=0 the offset block decouples and
        the two variants coincide exactly."""
        from skewt_estim.bench import run_static_experiment

        for delta in (0.0, 5.0):
            res = run_static_experiment(
                delta=delta, nu=1e8, rho=1.0, n_replications=500, seed=11,
                pf_particles=100_000,
            )
            med_opt = np.median(res.dist_stf)
            med_rand = np.median(res.dist_rand)
            assert med_opt <= med_rand + 1e-12, (delta, med_opt, med_rand)
            if delta == 0.0:
                np.testing.assert_allclose(res.dist_stf, res.dist_rand, atol=1e-9)


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

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n")
        code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_run_missing_file_is_config_error(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_strict_mode_flags_estimator_failure(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise DegeneracyError("all particle weights vanished", step=0)

        monkeypatch.setattr(experiments, "run_estimator", fail)
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
    def test_field_bounds(self):
        with pytest.raises(ValueError):
            small_config(K=0)
        with pytest.raises(ValueError):
            small_config(n_sats=3)
        with pytest.raises(ValueError):
            small_config(rho=0.0)
        with pytest.raises(ValueError):
            small_config(estimators=("bogus",))

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
