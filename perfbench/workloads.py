"""The three benchmark workloads, their work sizes and their output checks.

Every workload drives only public entry points of the package and looks
them up on the module at call time, so a Tracer that rebinds them sees
the calls.  Timings are read from a clock of hostspeed.py: process CPU
time (BLAS runs on one thread), in end-to-end runs scaled to reference
seconds.  A workload enters the clock around its measured loop only.
"""

from dataclasses import dataclass, field, replace

import numpy as np

import hostspeed
from skewt_estim import bench, filtering
from skewt_estim.exceptions import EstimationError

# The two acceptance scenarios of the Monte Carlo sweep.
SWEEP_SCENARIOS = (
    dict(name="q0.5", q=0.5, delta=5.0, nu=4.0, rho=100.0, K=100, n_sats=8),
    dict(name="q5", q=5.0, delta=5.0, nu=4.0, rho=100.0, K=100, n_sats=8),
)
# One long receiver track: heavy tails and 12-dimensional truncation.
ONLINE_SCENARIO = dict(name="online", q=0.5, delta=5.0, nu=1.2, rho=100.0, n_sats=12)

TRACK_ESTIMATORS = ("stf", "sts", "rtss")
PF_ESTIMATORS = ("pf",)
WARMUP_K = 5
PREFIX_EPOCHS = 20
PREFIX_TOL = 1e-9

# Reference seconds (hostspeed.py) per unit of work at the parent commit:
# one replication of every estimator of the workload (both scenarios
# together), or one online epoch.  They turn --seconds into a fixed
# amount of work, so every output but the timings is a function of the
# seed alone.
COST_S = {"track_sweep": 4.5, "pf_sweep": 0.34, "online_heavy": 0.0102}


def work_size(workload, seconds):
    """Replications per scenario (sweeps) or epochs (online) for a run."""
    return max(1, round(seconds / COST_S[workload]))


@dataclass
class Outcome:
    """What one measured pass produced."""

    items: int  # trajectories (sweeps) or epochs (online) completed
    attempted: int
    failed: int
    seconds: float  # clock seconds of the measured loop
    named: dict  # named metric -> (value, unit, samples)
    problems: list = field(default_factory=list)
    post_check: object = None  # untimed check that calls the program again


def sweep_config(scenario, seed, reps, estimators):
    return bench.ScenarioConfig(n_mc=reps, seed=seed, estimators=estimators, **scenario)


def _finite(positions, covs):
    return bool(np.all(np.isfinite(positions)) and np.all(np.isfinite(covs)))


def _sweep(seed, reps, estimators, clock):
    records, stamps = [], []
    with clock:
        for scenario in SWEEP_SCENARIOS:
            for est in estimators:
                cfg = sweep_config(scenario, seed, reps, (est,))
                start = clock.now()
                records += bench.run_experiment(cfg)
                stamps.append((est, start, clock.now()))
    cpu = dict.fromkeys(estimators, 0.0)
    for est, start, end in stamps:
        cpu[est] += float(clock.seconds(start, end))
    ok = [r for r in records if r.status == "ok"]
    problems = [
        f"{r.scenario}/{r.estimator}/{r.replication}: non-finite rmse or nees"
        for r in ok if not (np.isfinite(r.rmse) and np.isfinite(r.mean_nees))
    ]
    named = {}
    for est in estimators:
        mine = [r for r in ok if r.estimator == est]
        named[f"{est}_traj_per_s"] = (len(mine) / cpu[est], "1/s", len(mine))
        named[f"{est}_rmse_m"] = (_mean([r.rmse for r in mine]), "m", len(mine))
    failed = len(records) - len(ok)
    named["fail_frac"] = (failed / len(records), "fraction", len(records))
    return Outcome(len(ok), len(records), failed, sum(cpu.values()), named, problems)


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


def track_sweep(seed, reps, clock):
    """STF, STS and RTSS over `reps` replications of both scenarios.

    The paper's ordering is checked on the means over the whole sweep:
    per scenario, with one to three replications, RTSS beats STS on about
    one q=0.5 trajectory in eight, which is sampling noise, not a fault.
    """
    outcome = _sweep(seed, reps, TRACK_ESTIMATORS, clock)
    means = {est: outcome.named[f"{est}_rmse_m"][0] for est in TRACK_ESTIMATORS}
    if not (means["sts"] < means["stf"] and means["sts"] < means["rtss"]):
        outcome.problems.append(f"RMSE ordering broken: {means}")
    return outcome


def pf_sweep(seed, reps, clock):
    """The bootstrap PF over `reps` replications of both scenarios."""
    return _sweep(seed, reps, PF_ESTIMATORS, clock)


def online_trajectory(seed, epochs):
    cfg = bench.ScenarioConfig(K=epochs, n_mc=1, seed=seed, **ONLINE_SCENARIO)
    sats = bench.make_constellation(cfg.n_sats, cfg.seed)
    return cfg, sats, bench.simulate(cfg, 0)


def step_epochs(cfg, sats, traj, epochs, clock=None):
    """Filter `epochs` epochs one at a time: linearize, stf_update, predict.

    Returns positions, position covariances, per-epoch clock seconds,
    VB iterations, convergence flags and the number of failed epochs; a
    failed epoch keeps its prediction and counts as failed.
    """
    clock = clock or hostspeed.RawClock()
    model = bench.scenario_model(cfg, sats)
    belief = model.prior_belief()
    positions = np.zeros((epochs, 3))
    covs = np.zeros((epochs, 3, 3))
    starts = np.zeros(epochs)
    ends = np.zeros(epochs)
    iterations = np.zeros(epochs)
    converged = np.zeros(epochs, dtype=bool)
    failed = 0
    with clock:
        for k in range(epochs):
            starts[k] = clock.now()
            c_mat, y0 = bench.linearize(sats, belief.mean)
            y = traj.measurements[k] - y0 + c_mat @ belief.mean
            try:
                belief, diag = filtering.stf_update(replace(model, C=c_mat), belief, y)
                iterations[k] = diag.iterations
                converged[k] = diag.converged
            except EstimationError:
                failed += 1
            positions[k] = belief.mean[:3]
            covs[k] = belief.cov[:3, :3]
            belief = filtering.predict(model, belief)
            ends[k] = clock.now()
    latency = clock.seconds(starts, ends)
    return positions, covs, latency, iterations, converged, failed


def online_heavy(seed, epochs, clock):
    """One long heavy-tailed track filtered epoch by epoch."""
    cfg, sats, traj = online_trajectory(seed, epochs)
    positions, covs, latency, iterations, converged, failed = step_epochs(
        cfg, sats, traj, epochs, clock)
    ms = latency * 1e3
    rmse = bench.rmse(positions, traj.states)
    named = {
        "epoch_ms_p50": (float(np.percentile(ms, 50)), "ms", epochs),
        "epoch_ms_p99": (float(np.percentile(ms, 99)), "ms", epochs),
        "stf_rmse_m": (rmse, "m", epochs),
        "vb_iters_mean": (float(iterations.mean()), "iterations", epochs),
        "converged_frac": (float(converged.mean()), "fraction", epochs),
        "fail_frac": (failed / epochs, "fraction", epochs),
    }
    problems = []
    if not _finite(positions, covs):
        problems.append("non-finite online position or covariance")
    return Outcome(epochs - failed, epochs, failed, float(latency.sum()), named, problems,
                   post_check=lambda: prefix_mismatch(cfg, sats, traj, positions))


def prefix_mismatch(cfg, sats, traj, positions):
    """Compare the epoch loop with run_estimator("stf") on a short prefix."""
    n = min(PREFIX_EPOCHS, len(positions))
    prefix = bench.Trajectory(traj.states[:n], traj.measurements[:n])
    run = bench.run_estimator("stf", replace(cfg, K=n), sats, prefix)
    gap = float(np.abs(run.positions - positions[:n]).max())
    return [] if gap <= PREFIX_TOL else [f"epoch loop differs from run_estimator by {gap:.3e} m"]


def warm_up(workload, seed):
    """Run each estimator of the workload once on a short trajectory.

    This pays for lazy set-up (imports, the PF density table) before
    anything is timed.  Returns a list of output problems.
    """
    if workload == "online_heavy":
        cfg, sats, traj = online_trajectory(seed, WARMUP_K)
        positions, covs, *_ = step_epochs(cfg, sats, traj, WARMUP_K)
        return [] if _finite(positions, covs) else ["non-finite warm-up output (online)"]
    estimators = TRACK_ESTIMATORS if workload == "track_sweep" else PF_ESTIMATORS
    cfg = replace(sweep_config(SWEEP_SCENARIOS[0], seed, 1, estimators), K=WARMUP_K)
    sats = bench.make_constellation(cfg.n_sats, cfg.seed)
    traj = bench.simulate(cfg, 0)
    problems = []
    for est in estimators:
        run = bench.run_estimator(est, cfg, sats, traj)
        if not _finite(run.positions, run.position_covs):
            problems.append(f"non-finite warm-up output ({est})")
    return problems


WORKLOADS = {"track_sweep": track_sweep, "pf_sweep": pf_sweep, "online_heavy": online_heavy}
