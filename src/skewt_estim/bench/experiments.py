"""Benchmark orchestration: estimator runners, experiments, CSV records.

Besides the Monte Carlo trajectory benchmark this module hosts the two
single-shot studies used for validation: a static single-epoch positioning
experiment comparing posterior means against a large-sample particle
filter, and a moment-accuracy comparison of the greedy versus random
truncation orderings against the sampling oracle.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from ..baselines import GatingConfig, kf_gated_update, pf_run, rtss_gated_run
from ..exceptions import EstimationError
from ..filtering import StateSpaceModel, VBConfig, predict, stf_update
from ..skewt import SkewTComponent, moment_match, moments, sample_rng
from ..smoothing import sts_run
from ..truncnorm import OPTIMAL, MomentPair, RandomOrder, rec_trunc, tmnd_oracle
from .gnss import (
    ScenarioConfig,
    Trajectory,
    VERTICAL_WALK_STD_M,
    linearize,
    make_constellation,
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


@dataclass(frozen=True)
class EstimatorRun:
    """Raw per-step output of one estimator on one trajectory."""

    name: str
    positions: np.ndarray
    position_covs: np.ndarray
    vb_iterations: np.ndarray


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


def _adjusted_measurement(y, sats, nominal):
    """Shift a pseudorange vector into the local linear model at `nominal`.

    Returns (C, y_adj) with y_adj ~= C x + noise for states x near the
    nominal point.
    """
    c_mat, y0 = linearize(sats, nominal)
    return c_mat, y - y0 + c_mat @ nominal


def _run_stf_gnss(model, cfg, sats, traj, vb_cfg):
    """Skew-t filter with per-step relinearization at the predicted mean."""
    belief = model.prior_belief()
    positions = np.zeros((cfg.K, 3))
    covs = np.zeros((cfg.K, 3, 3))
    iters = np.zeros(cfg.K)
    c_seq = []
    y_adj = np.zeros((cfg.K, cfg.n_sats))
    for k in range(cfg.K):
        c_mat, y_k = _adjusted_measurement(traj.measurements[k], sats, belief.mean)
        step_model = replace(model, C=c_mat)
        belief, diag = stf_update(step_model, belief, y_k, vb_cfg)
        positions[k] = belief.mean[:3]
        covs[k] = belief.cov[:3, :3]
        iters[k] = diag.iterations
        c_seq.append(c_mat)
        y_adj[k] = y_k
        belief = predict(model, belief)
    return positions, covs, iters, c_seq, y_adj


def _run_kf_gnss(model, cfg, sats, traj, gate):
    """Gated Kalman filter on the moment-matched Gaussian model."""
    comp = SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu)
    mean_off, _ = moments(comp)
    var, _, _ = moment_match(comp)
    gauss = replace(model, R=np.full(cfg.n_sats, var))
    belief = gauss.prior_belief()
    positions = np.zeros((cfg.K, 3))
    covs = np.zeros((cfg.K, 3, 3))
    c_seq = []
    y_adj = np.zeros((cfg.K, cfg.n_sats))
    for k in range(cfg.K):
        c_mat, y_k = _adjusted_measurement(traj.measurements[k], sats, belief.mean)
        y_k = y_k - mean_off
        belief = kf_gated_update(c_mat, gauss.R, belief, y_k, gate)
        positions[k] = belief.mean[:3]
        covs[k] = belief.cov[:3, :3]
        c_seq.append(c_mat)
        y_adj[k] = y_k
        belief = predict(gauss, belief)
    return positions, covs, gauss, c_seq, y_adj


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
    """
    model = scenario_model(cfg, sats)
    if name == "stf":
        positions, covs, iters, _, _ = _run_stf_gnss(model, cfg, sats, traj, vb_cfg)
        return EstimatorRun(name, positions, covs, iters)
    if name == "sts":
        _, _, _, c_seq, y_adj = _run_stf_gnss(model, cfg, sats, traj, vb_cfg)
        beliefs = sts_run(model, y_adj, vb_cfg, measurement_matrices=c_seq)
        positions = np.stack([b.mean[:3] for b in beliefs])
        covs = np.stack([b.cov[:3, :3] for b in beliefs])
        return EstimatorRun(name, positions, covs, np.array([]))
    if name == "kf":
        positions, covs, _, _, _ = _run_kf_gnss(model, cfg, sats, traj, gate)
        return EstimatorRun(name, positions, covs, np.array([]))
    if name == "rtss":
        _, _, gauss, c_seq, y_adj = _run_kf_gnss(model, cfg, sats, traj, gate)
        beliefs = rtss_gated_run(gauss, y_adj, gate, measurement_matrices=c_seq)
        positions = np.stack([b.mean[:3] for b in beliefs])
        covs = np.stack([b.cov[:3, :3] for b in beliefs])
        return EstimatorRun(name, positions, covs, np.array([]))
    if name == "pf":
        def measurement_fn(states):
            ranges = np.linalg.norm(
                sats[None, :, :] - states[:, None, :3], axis=2
            )
            return ranges + states[:, 3:4]

        beliefs = pf_run(
            model,
            traj.measurements,
            cfg.pf_particles,
            seed=_tagged_seed(cfg.seed, replication, 0x5054),
            measurement_fn=measurement_fn,
        )
        positions = np.stack([b.mean[:3] for b in beliefs])
        covs = np.stack([b.cov[:3, :3] for b in beliefs])
        return EstimatorRun(name, positions, covs, np.array([]))
    raise ValueError(f"unknown estimator {name!r}")


def run_experiment(cfg: ScenarioConfig, out_path=None, timing: bool = False) -> list:
    """Run all configured estimators over n_mc simulated replications.

    Returns the sorted RunRecord list and, when `out_path` is given, writes
    the CSV there.  By default the wall_time_s column is written as 0 so
    that identical configurations produce byte-identical files; pass
    timing=True to emit measured (non-reproducible) times.  Only an
    EstimationError makes a "failed" record; other exceptions propagate.
    """
    sats = make_constellation(cfg.n_sats, cfg.seed)
    records = []
    for rep in range(cfg.n_mc):
        traj = simulate(cfg, rep)
        if not cfg.estimators:
            records.append(
                RunRecord(cfg.name, "", rep, float("nan"), float("nan"),
                          float("nan"), 0.0, "simulated")
            )
            continue
        for est in cfg.estimators:
            start = time.perf_counter()
            try:
                run = run_estimator(est, cfg, sats, traj, replication=rep)
                elapsed = time.perf_counter() - start
                step_nees = nees(run.positions, run.position_covs, traj.states)
                records.append(
                    RunRecord(
                        cfg.name,
                        est,
                        rep,
                        rmse(run.positions, traj.states),
                        float(step_nees.mean()),
                        float(run.vb_iterations.mean()) if run.vb_iterations.size else 0.0,
                        elapsed,
                        "ok",
                    )
                )
            except EstimationError:
                elapsed = time.perf_counter() - start
                records.append(
                    RunRecord(cfg.name, est, rep, float("nan"), float("nan"),
                              float("nan"), elapsed, "failed")
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
    def measurement_fn(states):
        ranges = np.linalg.norm(sats[None, :, :] - states[:, None, :3], axis=2)
        return ranges + states[:, 3:4]

    dist_stf = np.zeros(n_replications)
    dist_rand = np.zeros(n_replications)
    dist_prior = np.zeros(n_replications)
    nees_stf = np.zeros(n_replications)
    prior_belief = model.prior_belief()
    for rep in range(n_replications):
        rng = np.random.default_rng(seed ^ rep)
        x = prior_mean + np.sqrt(np.diag(prior_cov)) * rng.standard_normal(4)
        ranges = np.linalg.norm(sats - x[:3], axis=1)
        noise_comp = SkewTComponent(spread_sq=1.0, shape=delta, dof=nu)
        y = ranges + x[3] + sample_rng(noise_comp, n_sats, rng)

        y_adj = y - y0
        post, _ = stf_update(model, prior_belief, y_adj, vb_cfg)
        post_rand, _ = stf_update(
            model, prior_belief, y_adj, vb_cfg,
            order_policy=RandomOrder(_tagged_seed(seed, rep, 0x52)),
        )
        pf = pf_run(
            model, [y], pf_particles,
            seed=_tagged_seed(seed, rep, 0x5054),
            measurement_fn=measurement_fn,
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
