"""Lockstep kernels against the scalar kernels they batch, bit for bit.

run_experiment filters and smooths the replications of a scenario in
lockstep batches.  Every row of a batch must equal the same replication
run alone: the truncation, the augmented update, the VB filter update and
the smoother are checked row by row with np.array_equal, and a failing
batch must give the records of one-at-a-time runs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from skewt_estim import filtering
from skewt_estim.bench import (
    ScenarioConfig,
    make_constellation,
    run_experiment,
    scenario_model,
    simulate,
)
from skewt_estim.bench import experiments
from skewt_estim.bench.experiments import (
    LOCKSTEP_ROWS,
    _stf_rows,
    _sts_rows,
    run_estimator,
)
from skewt_estim.bench.gnss import linearize
from skewt_estim.exceptions import DegenerateDirectionError, NumericalFailureError
from skewt_estim.filtering import (
    GaussianBelief,
    StateSpaceModel,
    VBConfig,
    _AndersonMixer,
    _augmented_update,
    _augmented_update_rows,
    _stf_update_rows,
    predict,
    stf_update,
)
from skewt_estim.truncnorm import (
    OPTIMAL,
    UNDERFLOW_XI,
    MomentPair,
    _rec_trunc_rows,
    rec_trunc,
)

from reference import sts_run_scalar


@st.composite
def truncation_stacks(draw):
    """1-8 rows of SPD moments of one dim 1-16 sharing a truncated set.

    Standardized means reach down into the xi < -37 branch; optionally
    row 0 starts there for certain, and optionally one row has a
    truncated direction of zero variance.
    """
    n_rows = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 16))
    truncated = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-3.0, 3.0, (n_rows, dim, dim))
    cov = a @ a.swapaxes(1, 2) + rng.uniform(0.1, 2.0, (n_rows, 1, 1)) * np.eye(dim)
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    ratios = rng.uniform(-40.0, 10.0, (n_rows, dim))
    if draw(st.booleans()):
        ratios[0, truncated[0]] = -39.0
    degenerate = draw(st.none() | st.integers(0, n_rows - 1))
    if degenerate is not None:
        cov[degenerate, truncated[-1], :] = 0.0
        cov[degenerate, :, truncated[-1]] = 0.0
    mean = ratios * np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    return mean, cov, truncated, degenerate


class TestTruncationRows:
    @settings(deadline=None, max_examples=300)
    @given(truncation_stacks())
    def test_rows_bit_equal_to_rec_trunc(self, case):
        mean, cov, truncated, degenerate = case
        if degenerate is not None:
            with pytest.raises(DegenerateDirectionError):
                rec_trunc(MomentPair(mean[degenerate], cov[degenerate]), truncated)
            with pytest.raises(DegenerateDirectionError):
                _rec_trunc_rows(mean, cov, truncated)
            return
        out_mean, out_cov = _rec_trunc_rows(mean, cov, truncated)
        for b in range(len(mean)):
            ref = rec_trunc(MomentPair(mean[b], cov[b]), truncated, OPTIMAL)
            assert_array_equal(out_mean[b], ref.mean)
            assert_array_equal(out_cov[b], ref.cov)

    def test_underflow_branch_row_next_to_regular_rows(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 5, 5))
        cov = a @ a.swapaxes(1, 2) + np.eye(5)
        sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        mean = rng.uniform(-2.0, 2.0, (4, 5)) * sd
        mean[1, 2] = 1.5 * UNDERFLOW_XI * sd[1, 2]
        out_mean, out_cov = _rec_trunc_rows(mean, cov, range(5))
        for b in range(4):
            ref = rec_trunc(MomentPair(mean[b], cov[b]), range(5))
            assert_array_equal(out_mean[b], ref.mean)
            assert_array_equal(out_cov[b], ref.cov)
        # The deep row's first step takes the limits: its variance goes to 0.
        assert out_cov[1, 2, 2] < 1e-12 * cov[1, 2, 2]

    def test_input_left_untouched(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 4, 4))
        cov = a @ a.swapaxes(1, 2) + np.eye(4)
        mean = rng.standard_normal((3, 4))
        saved = mean.copy(), cov.copy()
        _rec_trunc_rows(mean, cov, [1, 3])
        assert_array_equal(mean, saved[0])
        assert_array_equal(cov, saved[1])


def random_rows(rng, n_rows, n_x, n_y):
    a = rng.standard_normal((n_rows, n_x, n_x))
    p = a @ a.swapaxes(1, 2) + 0.1 * np.eye(n_x)
    x = rng.standard_normal((n_rows, n_x))
    y = 5.0 * rng.standard_normal((n_rows, n_y))
    c = rng.standard_normal((n_rows, n_y, n_x))
    return x, p, y, c


class TestUpdateRows:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 5, 8])
    def test_augmented_update_rows_bit_equal(self, n_rows):
        rng = np.random.default_rng(n_rows)
        for n_x, n_y in ((1, 1), (2, 3), (4, 8)):
            x, p, y, c = random_rows(rng, n_rows, n_x, n_y)
            delta = 3.0 * rng.standard_normal(n_y)
            r = rng.uniform(0.5, 2.0, n_y)
            lam = rng.uniform(0.2, 1.5, (n_rows, n_y))
            stacks = _augmented_update_rows(x, p, y, c, delta, r, lam)
            for b in range(n_rows):
                post, prior = _augmented_update(
                    x[b], p[b], y[b], c[b], delta, r, lam[b], OPTIMAL
                )
                wanted = (post.mean, post.cov, prior.mean, prior.cov)
                for got, want in zip(stacks, wanted):
                    assert_array_equal(got[b], want)

    @pytest.mark.parametrize("nu", [1.2, 4.0])
    def test_stf_update_rows_bit_equal(self, nu):
        rng = np.random.default_rng(int(10 * nu))
        n_x, n_y, n_rows = 4, 8, 6
        x, p, y, c = random_rows(rng, n_rows, n_x, n_y)
        model = StateSpaceModel(
            A=np.eye(n_x), Q=np.eye(n_x), C=c[0], R=np.ones(n_y),
            Delta=np.full(n_y, 5.0), nu=np.full(n_y, nu),
            prior_mean=np.zeros(n_x), prior_cov=np.eye(n_x),
        )
        mean, cov, iterations, converged = _stf_update_rows(model, x, p, y, c)
        for b in range(n_rows):
            prior = GaussianBelief(x[b], p[b])
            post, diag = stf_update(replace(model, C=c[b]), prior, y[b])
            assert_array_equal(mean[b], post.mean)
            assert_array_equal(cov[b], post.cov)
            assert iterations[b] == diag.iterations
            assert converged[b] == diag.converged


class TestAndersonMixer:
    def test_push_keeps_history_when_caller_updates_in_place(self):
        upper = np.full(3, 10.0)
        mixer, reference = _AndersonMixer(upper), _AndersonMixer(upper)
        lam = np.ones(3)
        images = ([0.5, 0.8, 1.2], [0.6, 0.7, 1.1], [0.62, 0.74, 1.05])
        for g in map(np.array, images):
            want = reference.push(lam.copy(), g.copy())
            lam[:] = mixer.push(lam, g)  # in place, as a per-row loop does
            assert_array_equal(lam, want)


SWEEP = dict(delta=5.0, nu=4.0, rho=100.0, K=100, n_sats=8, n_mc=6)


def stf_reference(model, sats, traj, vb_cfg):
    """The skew-t filter of one trajectory, step by step on stf_update:
    the posteriors, VB iterations, [C_k] and [y_k]."""
    belief = model.prior_belief()
    filtered, iterations, c_seq, y_seq = [], [], [], []
    for y in traj.measurements:
        c_mat, y0 = linearize(sats, belief.mean)
        y_k = y - y0 + c_mat @ belief.mean
        post, diag = stf_update(replace(model, C=c_mat), belief, y_k, vb_cfg)
        filtered.append(post)
        iterations.append(diag.iterations)
        c_seq.append(c_mat)
        y_seq.append(y_k)
        belief = predict(model, post)
    return filtered, np.array(iterations, dtype=float), c_seq, y_seq


@pytest.mark.parametrize("seed", [1, 7340033])
@pytest.mark.parametrize("q", [0.5, 5.0])
def test_sweep_rows_equal_scalar_reference(q, seed):
    """Every lockstep row of both sweep scenarios equals the step-by-step
    reference filter and smoother on the same linearization."""
    cfg = ScenarioConfig(q=q, seed=seed, **SWEEP)
    sats = make_constellation(cfg.n_sats, cfg.seed)
    model = scenario_model(cfg, sats)
    vb_cfg = VBConfig()
    trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
    stf, c_seq, y_seq = _stf_rows(model, sats, trajs, vb_cfg)
    sts = _sts_rows(model, c_seq, y_seq, vb_cfg)
    for b, traj in enumerate(trajs):
        filtered, iters, c_ref, y_ref = stf_reference(model, sats, traj, vb_cfg)
        assert_array_equal(stf[b].positions, np.stack([f.mean[:3] for f in filtered]))
        assert_array_equal(
            stf[b].position_covs, np.stack([f.cov[:3, :3] for f in filtered])
        )
        assert_array_equal(stf[b].vb_iterations, iters)
        assert_array_equal(c_seq[b], np.stack(c_ref))
        assert_array_equal(y_seq[b], np.stack(y_ref))
        means, covs, n_outer, converged = sts_run_scalar(model, y_ref, vb_cfg, c_ref)
        assert_array_equal(sts[b].positions, means[:, :3])
        assert_array_equal(sts[b].position_covs, covs[:, :3, :3])
        assert sts[b].outer_iterations == n_outer
        assert sts[b].converged == converged
    # Batch invariance: a row run alone equals its row of the batch.
    alone, c_one, y_one = _stf_rows(model, sats, trajs[2:3], vb_cfg)
    assert_array_equal(alone[0].positions, stf[2].positions)
    alone_sts = _sts_rows(model, c_one, y_one, vb_cfg)
    assert_array_equal(alone_sts[0].positions, sts[2].positions)


def sweep_config(**overrides):
    base = dict(q=5.0, delta=5.0, rho=100.0, nu=4.0, K=8, n_mc=4, seed=1,
                estimators=("stf", "sts"), name="lockstep")
    base.update(overrides)
    return ScenarioConfig(**base)


def timeless(records):
    return [replace(r, wall_time=0.0) for r in records]


class TestRunExperimentLockstep:
    def test_stf_and_sts_share_one_filter_pass_per_chunk(self, monkeypatch):
        batches = []
        real = experiments._stf_rows

        def counting(model, sats, trajs, vb_cfg):
            batches.append(len(trajs))
            return real(model, sats, trajs, vb_cfg)

        monkeypatch.setattr(experiments, "_stf_rows", counting)
        cfg = sweep_config(K=5, n_mc=LOCKSTEP_ROWS + 2)
        both = run_experiment(cfg)
        assert batches == [LOCKSTEP_ROWS, 2]
        separate = sorted(
            run_experiment(replace(cfg, estimators=("stf",)))
            + run_experiment(replace(cfg, estimators=("sts",))),
            key=lambda r: (r.estimator, r.replication),
        )
        assert timeless(both) == timeless(separate)

    def test_records_equal_scalar_runs(self):
        cfg = sweep_config(n_mc=5)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        records = {(r.estimator, r.replication): r for r in run_experiment(cfg)}
        for rep in range(cfg.n_mc):
            traj = simulate(cfg, rep)
            for est in cfg.estimators:
                run = run_estimator(est, cfg, sats, traj, replication=rep)
                want = experiments._record(cfg, est, rep, traj, run, 0.0)
                assert replace(records[est, rep], wall_time=0.0) == want

    def test_sts_reports_outer_iterations_and_convergence(self):
        cfg = sweep_config(K=30, n_mc=3)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        model = scenario_model(cfg, sats)
        trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
        capped = VBConfig(max_iterations=2)
        run = run_estimator("sts", cfg, sats, trajs[0], vb_cfg=capped)
        assert (run.outer_iterations, run.converged) == (2, False)
        _, c_seq, y_seq = _stf_rows(model, sats, trajs, VBConfig())
        rows = _sts_rows(model, c_seq, y_seq, capped)
        assert [(r.outer_iterations, r.converged) for r in rows] == [(2, False)] * 3
        for record in run_experiment(replace(cfg, estimators=("sts",))):
            assert record.converged and 2 <= record.outer_iterations < 30

    def test_failed_replication_falls_back_to_scalar_runs(self, monkeypatch):
        """Replication 2 fails at time step 3 inside the batch: that batch
        reruns one replication at a time, so only replication 2 fails, with
        the scalar path's reason and step."""
        cfg = sweep_config(n_mc=4)
        sats = make_constellation(cfg.n_sats, cfg.seed)
        clean = timeless(run_experiment(cfg))

        # The innovation covariance of the first VB iteration at step 3.
        real_solve = filtering.solve_spd
        seen = []

        def record(s, b, what="matrix"):
            seen.append(s.copy())
            return real_solve(s, b, what)

        monkeypatch.setattr(filtering, "solve_spd", record)
        run = run_estimator("stf", cfg, sats, simulate(cfg, 2))
        marker = seen[int(run.vb_iterations[:3].sum())]

        def fail_at_marker(s, b, what="matrix"):
            if np.array_equal(s, marker):
                raise NumericalFailureError("injected failure")
            return real_solve(s, b, what)

        monkeypatch.setattr(filtering, "solve_spd", fail_at_marker)
        with pytest.raises(NumericalFailureError) as info:
            run_estimator("stf", cfg, sats, simulate(cfg, 2))
        assert info.value.step == 3
        records = timeless(run_experiment(cfg))
        failed = [r for r in records if r.status == "failed"]
        assert [(r.estimator, r.replication) for r in failed] == [("stf", 2), ("sts", 2)]
        assert all(r.reason == str(info.value) for r in failed)
        assert [r for r in records if r.status == "ok"] == [
            r for r in clean if r.replication != 2
        ]
