"""Benchmark orchestration: estimator runners, experiments, CSV records.

Besides the Monte Carlo trajectory benchmark this module hosts the two
single-shot studies used for validation: a static single-epoch positioning
experiment comparing posterior means against a large-sample particle
filter, and a moment-accuracy comparison of the greedy versus random
truncation orderings against the sampling oracle.
"""

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..baselines import GatingConfig, kf_gated_update, pf_run, rtss_gated_run
from ..exceptions import EstimationError, NumericalFailureError
from .._linalg import symmetrize
from ..filtering import StateSpaceModel, VBConfig, _stf_update_rows, predict, stf_update
from ..skewt import SkewTComponent, moment_match, moments, sample_rng
from ..smoothing import _run_vb_rows, sts_run
from ..truncnorm import OPTIMAL, MomentPair, RandomOrder, rec_trunc, tmnd_oracle
from .gnss import (
    ScenarioConfig,
    Trajectory,
    VERTICAL_WALK_STD_M,
    linearize,
    make_constellation,
    pseudoranges,
    simulate,
    trajectory_prior,
)
from .metrics import nees, rmse

__all__ = [
    "RunRecord",
    "EstimatorRun",
    "CSV_HEADER",
    "scenario_model",
    "run_estimator",
    "run_experiment",
    "write_records_csv",
    "StaticResult",
    "run_static_experiment",
    "TruncnormCase",
    "truncnorm_comparison",
]

CSV_HEADER = "scenario,estimator,replication,rmse_m,mean_nees,mean_vb_iters,wall_time_s,status"

# Static single-epoch prior: loose horizontal components scaled by rho,
# tight vertical and clock channels.
STATIC_VERTICAL_PRIOR_STD_M = 0.22
STATIC_BIAS_PRIOR_STD_M = 0.1

# Replications run_experiment filters and smooths in one lockstep batch;
# peak memory grows as rows * K * (4 + n_sats)^2.
LOCKSTEP_ROWS = 32


@dataclass(frozen=True)
class RunRecord:
    """One (scenario, estimator, replication) benchmark result."""

    scenario: str
    estimator: str
    replication: int
    rmse: float
    mean_nees: float
    mean_vb_iterations: float
    wall_time: float
    status: str
    # Not in the CSV: str() of the error of a "failed" run, and for "sts"
    # the outer VB iterations and whether they converged.
    reason: str = ""
    outer_iterations: int = 0
    converged: bool = True


@dataclass(frozen=True)
class EstimatorRun:
    """Raw per-step output of one estimator on one trajectory."""

    name: str
    positions: np.ndarray
    position_covs: np.ndarray
    vb_iterations: np.ndarray
    outer_iterations: int = 0  # "sts" only, as is converged
    converged: bool = True


def _tagged_seed(*parts) -> int:
    """Deterministic child seed decorrelated from the simulation stream."""
    return int(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts]).generate_state(1)[0])


def scenario_model(cfg: ScenarioConfig, sats: np.ndarray) -> StateSpaceModel:
    """State-space model of a trajectory scenario, linearized at the prior."""
    mean, cov = trajectory_prior(cfg)
    c0, _ = linearize(sats, mean)
    q_mat = np.diag([cfg.q**2, cfg.q**2, VERTICAL_WALK_STD_M**2, 0.0])
    return StateSpaceModel(
        A=np.eye(4),
        Q=q_mat,
        C=c0,
        R=np.ones(cfg.n_sats),
        Delta=np.full(cfg.n_sats, cfg.delta),
        nu=np.full(cfg.n_sats, cfg.nu),
        prior_mean=mean,
        prior_cov=cov,
    )


def _relinearized_run(model, sats, traj, update, noise_offset=0.0):
    """Forward filter with per-step relinearization at the predicted mean,
    for the Kalman baselines (_stf_rows is the skew-t filter's).

    `update(C_k, prior, y_k) -> (posterior, vb_iterations)` folds in the
    pseudoranges less `noise_offset`, shifted so that y_k ~= C_k x + noise.
    Returns (posteriors, iteration counts, [C_k], [y_k]); smoothers rerun
    on the last two.
    """
    belief = model.prior_belief()
    posteriors, iterations, c_seq, y_seq = [], [], [], []
    for k, y in enumerate(traj.measurements):
        c_mat, y0 = linearize(sats, belief.mean)
        y_k = y - y0 + c_mat @ belief.mean - noise_offset
        try:
            belief, n_iter = update(c_mat, belief, y_k)
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"measurement update failed: {err}", step=k
            ) from err
        posteriors.append(belief)
        iterations.append(n_iter)
        c_seq.append(c_mat)
        y_seq.append(y_k)
        belief = predict(model, belief)
    return posteriors, np.array(iterations, dtype=float), c_seq, y_seq


def _kf_step(model, cfg, gate):
    """Moment-matched Gaussian model of the Kalman baselines, its gated
    update for `_relinearized_run` and the noise mean to subtract."""
    comp = SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu)
    mean_off, _ = moments(comp)
    var, _, _ = moment_match(comp)
    gauss = replace(model, R=np.full(cfg.n_sats, var))

    def update(c_mat, prior, y_k):
        return kf_gated_update(c_mat, gauss.R, prior, y_k, gate), 0

    return gauss, update, mean_off


def _stf_rows(model, sats, trajs, vb_cfg):
    """Skew-t filter of B trajectories in lockstep, relinearized per step
    at each row's predicted mean; run_estimator("stf") is its one-row call.

    Returns the "stf" EstimatorRun of each trajectory, and the (B, K,
    n_sats, 4) linearizations and (B, K, n_sats) measurements the smoother
    reruns on.  Each row is bit-equal to the same trajectory filtered
    alone.
    """
    meas = np.stack([t.measurements for t in trajs])
    n_rows, n_steps, n_y = meas.shape
    n_x = model.n_x
    x = np.tile(model.prior_mean, (n_rows, 1))
    p = np.tile(model.prior_cov, (n_rows, 1, 1))
    c_seq = np.empty((n_rows, n_steps, n_y, n_x))
    y_seq = np.empty((n_rows, n_steps, n_y))
    means = np.empty((n_rows, n_steps, n_x))
    covs = np.empty((n_rows, n_steps, n_x, n_x))
    iterations = np.empty((n_rows, n_steps))
    for k in range(n_steps):
        for b in range(n_rows):
            c_seq[b, k], y0 = linearize(sats, x[b])
            y_seq[b, k] = meas[b, k] - y0 + c_seq[b, k] @ x[b]
        try:
            means[:, k], covs[:, k], iterations[:, k], _ = _stf_update_rows(
                model, x, p, y_seq[:, k], c_seq[:, k], vb_cfg
            )
        except NumericalFailureError as err:
            raise NumericalFailureError(
                f"measurement update failed: {err}", step=k
            ) from err
        x = (model.A @ means[:, k, :, None])[..., 0]
        p = symmetrize(model.A @ covs[:, k] @ model.A.T + model.Q)
    runs = [
        EstimatorRun("stf", m[:, :3], c[:, :3, :3], it)
        for m, c, it in zip(means, covs, iterations)
    ]
    return runs, c_seq, y_seq


def _sts_rows(model, c_seq, y_seq, vb_cfg):
    """The "sts" EstimatorRuns of B filtered trajectories (the c_seq and
    y_seq of _stf_rows), smoothed in lockstep."""
    rows = _run_vb_rows(model, y_seq, c_seq, vb_cfg)
    s_mean, s_cov = rows.smoothed
    covs = symmetrize(s_cov[..., : model.n_x, : model.n_x])
    return [
        EstimatorRun("sts", m[:, :3], c[:, :3, :3], np.zeros(0), int(n), bool(ok))
        for m, c, n, ok in zip(s_mean, covs, rows.iterations, rows.converged)
    ]


def _estimator_run(name, beliefs, vb_iterations=(), **outer):
    """EstimatorRun of the position block of per-step beliefs."""
    return EstimatorRun(
        name,
        np.stack([b.mean[:3] for b in beliefs]),
        np.stack([b.cov[:3, :3] for b in beliefs]),
        np.asarray(vb_iterations, dtype=float),
        **outer,
    )


def run_estimator(
    name: str,
    cfg: ScenarioConfig,
    sats: np.ndarray,
    traj: Trajectory,
    replication: int = 0,
    vb_cfg: VBConfig = VBConfig(),
    gate: GatingConfig = GatingConfig(),
) -> EstimatorRun:
    """Run one named estimator on a simulated trajectory.

    Measurements are relinearized per step at the running predicted mean;
    smoothers reuse the linearization points of their forward filter.
    "stf" and "sts" are the one-trajectory calls of the lockstep batch
    run_experiment runs.
    """
    model = scenario_model(cfg, sats)
    if name in ("stf", "sts"):
        filtered, c_seq, y_seq = _stf_rows(model, sats, [traj], vb_cfg)
        if name == "stf":
            return filtered[0]
        smoothed = sts_run(model, y_seq[0], vb_cfg, measurement_matrices=c_seq[0])
        return _estimator_run(
            name, smoothed,
            outer_iterations=smoothed.iterations, converged=smoothed.converged,
        )
    if name in ("kf", "rtss"):
        gauss, update, mean_off = _kf_step(model, cfg, gate)
        filtered, _, c_seq, y_seq = _relinearized_run(
            gauss, sats, traj, update, mean_off
        )
        if name == "kf":
            return _estimator_run(name, filtered)
        return _estimator_run(
            name, rtss_gated_run(gauss, y_seq, gate, measurement_matrices=c_seq)
        )
    if name == "pf":
        beliefs = pf_run(
            model, traj.measurements, cfg.pf_particles,
            seed=_tagged_seed(cfg.seed, replication, 0x5054),
            measurement_fn=partial(pseudoranges, sats),
        )
        return _estimator_run(name, beliefs)
    raise ValueError(f"unknown estimator {name!r}")


def _lockstep_runs(cfg, sats, trajs):
    """The "stf" and "sts" runs of run_experiment, filtered once and in
    lockstep, with per-row seconds.

    Returns {estimator: (runs, seconds)}; an estimator whose batch raised
    an EstimationError is absent, and so is "sts" when "stf" failed.
    """
    model = scenario_model(cfg, sats)
    vb_cfg = VBConfig()
    out = {}
    start = time.perf_counter()
    try:
        stf, c_seq, y_seq = _stf_rows(model, sats, trajs, vb_cfg)
        out["stf"] = (stf, (time.perf_counter() - start) / len(trajs))
        if "sts" in cfg.estimators:
            sts = _sts_rows(model, c_seq, y_seq, vb_cfg)
            out["sts"] = (sts, (time.perf_counter() - start) / len(trajs))
    except EstimationError:
        pass  # run_experiment reruns these replications one at a time
    return out


def _record(cfg, est, rep, traj, run, elapsed):
    step_nees = nees(run.positions, run.position_covs, traj.states)
    return RunRecord(
        cfg.name,
        est,
        rep,
        rmse(run.positions, traj.states),
        float(step_nees.mean()),
        float(run.vb_iterations.mean()) if run.vb_iterations.size else 0.0,
        elapsed,
        "ok",
        outer_iterations=run.outer_iterations,
        converged=run.converged,
    )


def run_experiment(cfg: ScenarioConfig, out_path=None, timing: bool = False) -> list:
    """Run all configured estimators over n_mc simulated replications.

    "stf" and "sts" run the replications in lockstep batches of up to
    LOCKSTEP_ROWS rows, and "sts" smooths the "stf" pass of its batch;
    the other estimators run one replication at a time.  If a batch
    raises an EstimationError, its replications rerun one at a time, so
    each record is the one a single-replication run gives.

    Returns the sorted RunRecord list and, when `out_path` is given, writes
    the CSV there.  By default the wall_time_s column is written as 0 so
    that identical configurations produce byte-identical files; pass
    timing=True to emit measured (non-reproducible) times, where a
    lockstep row's time is its batch time divided by the batch rows.
    Only an EstimationError makes a "failed" record; other exceptions
    propagate.
    """
    sats = make_constellation(cfg.n_sats, cfg.seed)
    lockstep = {"stf", "sts"} & set(cfg.estimators)
    records = []
    for first in range(0, cfg.n_mc, LOCKSTEP_ROWS):
        reps = range(first, min(first + LOCKSTEP_ROWS, cfg.n_mc))
        trajs = [simulate(cfg, rep) for rep in reps]
        if not cfg.estimators:
            records += [
                RunRecord(cfg.name, "", rep, float("nan"), float("nan"),
                          float("nan"), 0.0, "simulated")
                for rep in reps
            ]
            continue
        batch = _lockstep_runs(cfg, sats, trajs) if lockstep else {}
        for est in cfg.estimators:
            for i, (rep, traj) in enumerate(zip(reps, trajs)):
                if est in batch:
                    runs, elapsed = batch[est]
                    records.append(_record(cfg, est, rep, traj, runs[i], elapsed))
                    continue
                start = time.perf_counter()
                try:
                    run = run_estimator(est, cfg, sats, traj, replication=rep)
                    records.append(
                        _record(cfg, est, rep, traj, run, time.perf_counter() - start)
                    )
                except EstimationError as err:
                    elapsed = time.perf_counter() - start
                    records.append(
                        RunRecord(cfg.name, est, rep, float("nan"), float("nan"),
                                  float("nan"), elapsed, "failed", str(err))
                    )
    records.sort(key=lambda r: (r.scenario, r.estimator, r.replication))
    if out_path is not None:
        write_records_csv(records, out_path, timing=timing)
    return records


def write_records_csv(records, path, timing: bool = False) -> None:
    """Write RunRecords as CSV; deterministic bytes unless timing=True."""
    lines = [CSV_HEADER]
    for r in records:
        wall = r.wall_time if timing else 0.0
        lines.append(
            f"{r.scenario},{r.estimator},{r.replication},"
            f"{r.rmse:.9g},{r.mean_nees:.9g},{r.mean_vb_iterations:.9g},"
            f"{wall:.9g},{r.status}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class StaticResult:
    """Per-replication outputs of the static single-epoch experiment."""

    dist_stf: np.ndarray
    dist_rand: np.ndarray
    dist_prior: np.ndarray
    nees_stf: np.ndarray


def run_static_experiment(
    delta: float,
    nu: float,
    rho: float,
    n_replications: int,
    seed: int,
    n_sats: int = 8,
    pf_particles: int = 100_000,
    vb_cfg: VBConfig = VBConfig(),
) -> StaticResult:
    """Single-epoch positioning: posterior means versus a large-sample PF.

    Each replication draws one state from the static prior and one
    pseudorange vector, then compares the position estimates of the
    truncation-based update (greedy and random ordering) and of the prior
    against the particle filter reference.
    """
    sats = make_constellation(n_sats, seed)
    prior_mean = np.zeros(4)
    prior_cov = np.diag(
        [rho, rho, STATIC_VERTICAL_PRIOR_STD_M**2, STATIC_BIAS_PRIOR_STD_M**2]
    )
    c_mat, y0 = linearize(sats, prior_mean)
    model = StateSpaceModel(
        A=np.eye(4),
        Q=np.zeros((4, 4)),
        C=c_mat,
        R=np.ones(n_sats),
        Delta=np.full(n_sats, delta),
        nu=np.full(n_sats, nu),
        prior_mean=prior_mean,
        prior_cov=prior_cov,
    )
    dist_stf = np.zeros(n_replications)
    dist_rand = np.zeros(n_replications)
    dist_prior = np.zeros(n_replications)
    nees_stf = np.zeros(n_replications)
    prior_belief = model.prior_belief()
    for rep in range(n_replications):
        rng = np.random.default_rng(seed ^ rep)
        x = prior_mean + np.sqrt(np.diag(prior_cov)) * rng.standard_normal(4)
        noise_comp = SkewTComponent(spread_sq=1.0, shape=delta, dof=nu)
        y = pseudoranges(sats, x) + sample_rng(noise_comp, n_sats, rng)

        y_adj = y - y0
        post, _ = stf_update(model, prior_belief, y_adj, vb_cfg)
        post_rand, _ = stf_update(
            model, prior_belief, y_adj, vb_cfg,
            order_policy=RandomOrder(_tagged_seed(seed, rep, 0x52)),
        )
        pf = pf_run(
            model, [y], pf_particles,
            seed=_tagged_seed(seed, rep, 0x5054),
            measurement_fn=partial(pseudoranges, sats),
        )[0]

        dist_stf[rep] = np.linalg.norm(post.mean[:3] - pf.mean[:3])
        dist_rand[rep] = np.linalg.norm(post_rand.mean[:3] - pf.mean[:3])
        dist_prior[rep] = np.linalg.norm(prior_mean[:3] - pf.mean[:3])
        err = post.mean[:3] - x[:3]
        nees_stf[rep] = float(err @ np.linalg.solve(post.cov[:3, :3], err))
    return StaticResult(dist_stf, dist_rand, dist_prior, nees_stf)


@dataclass(frozen=True)
class TruncnormCase:
    """Distances of both truncation orderings from the sampling oracle."""

    dim: int
    dist_optimal: float
    dist_random: float


def _random_case(rng, dim):
    """Random correlated moments with at least one clearly negative
    standardized mean (the regime where ordering matters)."""
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T
    d = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    off = np.abs(corr - np.eye(dim)).max()
    if off > 0.8:
        s = 0.8 / off
        corr = s * corr + (1.0 - s) * np.eye(dim)
    std = rng.uniform(0.5, 2.0, dim)
    cov = corr * np.outer(std, std)
    ratios = rng.uniform(-3.0, 1.5, dim)
    if not np.any(ratios < -1.0):
        ratios[rng.integers(dim)] = rng.uniform(-3.0, -1.0)
    return MomentPair(ratios * std, cov)


def truncnorm_comparison(
    dims: tuple = (3, 8),
    n_cases: int = 200,
    seed: int = 0,
    oracle_samples: int = 10_000,
) -> list:
    """Compare greedy and random truncation orderings against the oracle.

    Each case truncates all coordinates of a random correlated normal to
    the positive orthant and records the Euclidean distances of both
    ordering policies' means from the sampling-oracle mean.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        dim = int(rng.integers(dims[0], dims[1] + 1))
        m = _random_case(rng, dim)
        idx = range(dim)
        opt = rec_trunc(m, idx, OPTIMAL)
        rand = rec_trunc(m, idx, RandomOrder(_tagged_seed(seed, i, 0x52)))
        oracle = tmnd_oracle(m, idx, oracle_samples, seed=_tagged_seed(seed, i, 0x6F))
        cases.append(
            TruncnormCase(
                dim=dim,
                dist_optimal=float(np.linalg.norm(opt.mean - oracle.mean)),
                dist_random=float(np.linalg.norm(rand.mean - oracle.mean)),
            )
        )
    return cases
