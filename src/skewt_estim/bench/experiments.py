"""Benchmark orchestration: estimator runners, experiments, CSV records.

The trajectory benchmark runs each estimator as the library's lockstep
family over all replications of a scenario (filtering._stf_run_rows,
smoothing._sts_run_rows, baselines._kf_gated_run_rows), the code behind
stf_run, sts_run and kf_gated_run, all on the one forward recursion
filtering._filter_rows.  It only supplies their measurement source,
_pseudorange_source, which relinearizes the pseudoranges at each row's
predicted mean (gnss._linearize_rows) and fails a row at its first
non-finite pseudorange or at a predicted position on a satellite, and
smooths the gated filter's pass for "rtss".  The smoother asks the source
only in its first forward pass and replays what it was handed in the
later ones.  A family returns the outcome of each row beside its stacks,
and a failed row's outcome is the error its one-row run raises; no
family raises for a row, and no batch runs twice.

Besides the Monte Carlo trajectory benchmark this module hosts the two
single-shot studies used for validation: a static single-epoch positioning
experiment comparing posterior means against a large-sample particle
filter, and a moment-accuracy comparison of the greedy truncation order
(rec_trunc) against a random one (_random_order_trunc, built from
one-index rec_trunc steps) and the sampling oracle.  The draws of the
static experiment (_static_replications) also feed the static ordering
study of the tests, which compares the same two orders on the
single-epoch posterior against its exact mean.
"""

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..baselines import _kf_gated_run_rows, _pf_moments, pf_run
from ..exceptions import EstimationError
from .._linalg import symmetrize
from ..filtering import StateSpaceModel, VBConfig, _finite, _stf_run_rows, stf_update
from ..skewt import SkewTComponent, moment_match, moments, sample_rng
from ..smoothing import _backward_rows, _sts_run_rows
from ..truncnorm import rec_trunc, select_next, tmnd_oracle
from .gnss import (
    KNOWN_ESTIMATORS,
    ScenarioConfig,
    Trajectory,
    VERTICAL_WALK_STD_M,
    _linearize_rows,
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
STATIC_N_SATS = 8
STATIC_PF_PARTICLES = 100_000


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
    # Not in the CSV: str() of the error of a "failed" run, the same as
    # its replication's one-row run raises (the row's outcome in its
    # batch, which went on with the other rows; "sts" linearizes on its
    # own first forward pass at lambda = 1, so a row failing in the STF no
    # longer fails its STS); for "sts" the outer VB iterations; for "stf"
    # and "sts" whether every VB loop converged.
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
    outer_iterations: int = 0  # "sts" only
    converged: bool = True  # "stf": every step's VB loop; "sts": the outer loop


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


def _pseudorange_source(sats, trajs, noise_offset=0.0) -> tuple:
    """The measurement source of the trajectories trajs for a lockstep
    family (filtering._filter_rows), with their row and step counts.

    At step k it linearizes the pseudorange map at each live row's
    predicted mean x, giving C_k and y0, and returns C_k and the row's
    pseudoranges less y0, plus C_k x, less `noise_offset`, so that
    y_k ~= C_k x + noise.  A non-finite pseudorange fails its row at its
    first step that has one, with a NumericalFailureError
    (filtering._finite), and a predicted position within 1 m of a
    satellite with a GeometryError (gnss._linearize_rows); the first
    error is the row's.
    """
    meas = np.stack([t.measurements for t in trajs])

    def measure(k, rows, x):
        y, failed = _finite(meas[rows, k], "pseudorange")
        c_k, y0, on_satellite = _linearize_rows(sats, x)
        # A row's first error is its outcome: the pseudorange's.
        return c_k, y - y0 + (c_k @ x[..., None])[..., 0] - noise_offset, {**on_satellite, **failed}

    return len(trajs), meas.shape[1], measure


def _stf_rows(model, sats, trajs, vb_cfg):
    """Skew-t filter of B trajectories in lockstep (filtering._stf_run_rows
    on their pseudoranges); run_estimator("stf") is its one-row call.

    Returns the outcome of each trajectory, its "stf" EstimatorRun or the
    EstimationError that failed it.  Each row is bit-equal to the same
    trajectory filtered alone.
    """
    means, covs, _, _, iters, conv, failed = _stf_run_rows(
        model, *_pseudorange_source(sats, trajs), vb_cfg
    )
    return [
        failed.get(b) or EstimatorRun("stf", m, c, it.astype(float), converged=bool(ok.all()))
        for b, (m, c, it, ok) in enumerate(zip(means[..., :3], covs[..., :3, :3], iters, conv))
    ]


def _sts_rows(model, sats, trajs, vb_cfg):
    """Skew-t smoother of B trajectories in lockstep
    (smoothing._sts_run_rows on their pseudoranges, linearized at each
    row's own predicted means in its first forward pass, at lambda = 1);
    run_estimator("sts") is its one-row call.  It never runs the skew-t
    filter.

    Returns the outcome of each trajectory, its "sts" EstimatorRun or the
    EstimationError that failed it, in the first pass or in the loop.
    """
    means, covs, _, iters, conv, failed = _sts_run_rows(
        model, *_pseudorange_source(sats, trajs), vb_cfg
    )
    return [
        failed.get(b) or EstimatorRun("sts", m, symmetrize(c), np.zeros(0), int(n), bool(ok))
        for b, (m, c, n, ok) in enumerate(zip(means[..., :3], covs[..., :3, :3], iters, conv))
    ]


def _kf_rows(model, cfg, sats, trajs):
    """Gated Kalman filter of B trajectories in lockstep
    (baselines._kf_gated_run_rows on their pseudoranges), against the
    moment-matched normal noise of the scenario less its mean.

    Returns the outcome of each trajectory ("kf" EstimatorRun or
    EstimationError), the smoothing input of _rtss_rows (the pass's
    filtered mean and covariance stacks, its outcomes and the model) and
    the gating decisions (B, K, n_sats), True where a component was used.
    Each row is bit-equal to the same trajectory filtered alone, with the
    same decisions.
    """
    comp = SkewTComponent(spread_sq=1.0, shape=cfg.delta, dof=cfg.nu)
    mean_off, _ = moments(comp)
    var, _, _ = moment_match(comp)
    gauss = replace(model, R=np.full(cfg.n_sats, var))
    means, covs, used, failed = _kf_gated_run_rows(
        gauss, *_pseudorange_source(sats, trajs, mean_off)
    )
    runs = [
        failed.get(b) or EstimatorRun("kf", m[:, :3], c[:, :3, :3], np.zeros(0))
        for b, (m, c) in enumerate(zip(means, covs))
    ]
    return runs, (means, covs, failed, gauss), used


def _rtss_rows(pass_rows):
    """The "rtss" outcomes (EstimatorRun or EstimationError): the forward
    pass of _kf_rows smoothed by the RTS recursion, for all rows at once;
    a row that failed in the pass fails with its error."""
    means, covs, failed = _backward_rows(*pass_rows)
    return [
        failed.get(b) or EstimatorRun("rtss", m[:, :3], c[:, :3, :3], np.zeros(0))
        for b, (m, c) in enumerate(zip(means, covs))
    ]


def _pf_rows(model, cfg, sats, trajs, reps):
    """Bootstrap PF of B trajectories, one row at a time through
    _pf_moments: the outcome of each trajectory, its "pf" EstimatorRun or
    the EstimationError that failed it.  Replication rep's particles are
    seeded by _tagged_seed(cfg.seed, rep, 0x5054)."""
    measure = partial(pseudoranges, sats)
    runs = []
    for traj, rep in zip(trajs, reps):
        seed = _tagged_seed(cfg.seed, rep, 0x5054)
        try:
            means, covs = _pf_moments(model, traj.measurements, cfg.pf_particles, seed, measure)
            runs.append(EstimatorRun("pf", means[:, :3], covs[:, :3, :3], np.zeros(0)))
        except EstimationError as err:
            runs.append(err)
    return runs


def run_estimator(
    name: str,
    cfg: ScenarioConfig,
    sats: np.ndarray,
    traj: Trajectory,
    replication: int = 0,
    vb_cfg: VBConfig = VBConfig(),
) -> EstimatorRun:
    """Run one named estimator on a simulated trajectory.

    Measurements are relinearized per step at the running predicted mean.
    "sts" linearizes on its own first forward pass, at lambda = 1, and
    reuses those points in its later passes, so it never runs the STF;
    "rtss" smooths the "kf" pass on the KF's linearization points; "pf"
    seeds its particles from cfg.seed and `replication`.  Each name is
    the one-row call of the batch run_experiment runs (_lockstep_rows),
    and raises the EstimationError that fails the trajectory.
    """
    if name not in KNOWN_ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}")
    (run,), _ = _lockstep_rows({name}, cfg, sats, [traj], vb_cfg, [replication])[name]
    if isinstance(run, EstimationError):
        run.row = 0
        raise run
    return run


def _lockstep_rows(names, cfg, sats, trajs, vb_cfg, reps) -> dict:
    """The runs of the estimators `names` on all trajs at once; reps[b]
    is the replication number of trajs[b], which seeds its PF.

    Each family runs once as one batch: the filter "stf"; the smoother
    "sts", which linearizes on its own first forward pass at lambda = 1
    (_sts_rows) and never runs the filter; "kf" with "rtss", which
    smooths the "kf" pass; and "pf", whose rows run one at a time
    (_pf_rows).  So an outcome is the same whatever else `names` holds.

    Each family returns the outcome of every row: a row leaves the loop
    it fails in with its error while the other rows go on
    (filtering._filter_rows, filtering._vb_loop, smoothing._backward_rows),
    so each row's outcome is that of its one-row run, and every batch
    runs to its end, even when all its rows fail.  A row that fails in
    "kf" fails in "rtss" with the same error, and the backward pass makes
    no solve for it; a row that fails only in "rtss" keeps its "kf" run.
    A row that fails in "stf" no longer fails its "sts".  Returns
    {estimator: (outcomes, seconds)}: outcomes[b] is the EstimatorRun of
    trajs[b] or the EstimationError that failed it, and seconds the
    family's measured time per row up to that estimator's end ("rtss"'s
    includes its filter's).
    """
    model = scenario_model(cfg, sats)
    out = {}
    for family in (("stf",), ("sts",), ("kf", "rtss"), ("pf",)):
        wanted = names & set(family)
        if not wanted:
            continue
        start = time.perf_counter()
        if family == ("stf",):
            runs = _stf_rows(model, sats, trajs, vb_cfg)
        elif family == ("sts",):
            runs = _sts_rows(model, sats, trajs, vb_cfg)
        elif family == ("pf",):
            runs = _pf_rows(model, cfg, sats, trajs, reps)
        else:
            runs, kf_pass, _ = _kf_rows(model, cfg, sats, trajs)
        out[family[0]] = runs, (time.perf_counter() - start) / len(trajs)
        if "rtss" in wanted:
            out["rtss"] = _rtss_rows(kf_pass), (time.perf_counter() - start) / len(trajs)
    return out


def _record(cfg, est, rep, traj, run, elapsed):
    """The RunRecord of an EstimatorRun, or the "failed" one of the
    EstimationError that failed the run."""
    if isinstance(run, EstimationError):
        nan = float("nan")
        return RunRecord(cfg.name, est, rep, nan, nan, nan, elapsed, "failed", str(run))
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

    All n_mc replications run as one batch per family (_lockstep_rows),
    which runs once: "stf", "sts" and "kf" with "rtss" in lockstep, and
    "pf" one row at a time.  "sts" linearizes on its own first forward
    pass at lambda = 1 and never runs the STF, so its records do not
    depend on whether "stf" is configured, and a replication failing in
    the STF no longer fails its STS; "rtss" smooths the "kf" pass.  A
    replication whose run meets an EstimationError leaves the loop it
    fails in with that error as its outcome, and the other rows go on in
    the same batch, so each record is the one a single-replication run
    gives.  At K=100 and 8 satellites, "stf", "sts", "kf" and "rtss"
    peak at about 0.9 MB per replication, 0.8 MB of it the "sts" batch
    (tracemalloc, q=5, n_mc = 50 and 100), and peak memory grows as
    n_mc * K * (4 + n_sats)^2.

    Returns the sorted RunRecord list and, when `out_path` is given, writes
    the CSV there.  By default the wall_time_s column is written as 0 so
    that identical configurations produce byte-identical files; pass
    timing=True to emit measured (non-reproducible) times, where every
    record's time is its family's batch time divided by n_mc, also when
    every row of the batch failed.  Only an EstimationError makes a
    "failed" record; other exceptions propagate.
    """
    sats = make_constellation(cfg.n_sats, cfg.seed)
    trajs = [simulate(cfg, rep) for rep in range(cfg.n_mc)]
    records = [] if cfg.estimators else [
        RunRecord(cfg.name, "", rep, float("nan"), float("nan"), float("nan"), 0.0, "simulated")
        for rep in range(cfg.n_mc)
    ]
    if trajs:  # _lockstep_rows takes one row or more
        batch = _lockstep_rows(set(cfg.estimators), cfg, sats, trajs, VBConfig(), range(cfg.n_mc))
        for est in cfg.estimators:
            runs, elapsed = batch[est]
            for rep, (traj, run) in enumerate(zip(trajs, runs)):
                records.append(_record(cfg, est, rep, traj, run, elapsed))
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
    """Per-replication outputs of the static single-epoch experiment: the
    position distances of the skew-t update and of the prior mean from the
    particle filter reference, and the NEES of the update."""

    dist_stf: np.ndarray
    dist_prior: np.ndarray
    nees_stf: np.ndarray


def _static_replications(delta, nu, rho, n_replications, seed):
    """The single-epoch positioning setup and its draws.

    The model has STATIC_N_SATS satellites of make_constellation(seed),
    the static prior and the pseudorange map linearized at the prior mean,
    where it gives y0.  Replication rep draws one state x from the prior
    and its pseudoranges y with skew-t noise, both from
    default_rng(seed ^ rep).  Yields (sats, model, x, y, y - y0) per
    replication, y - y0 being the measurement of the linearized model.
    """
    sats = make_constellation(STATIC_N_SATS, seed)
    prior_mean = np.zeros(4)
    prior_cov = np.diag(
        [rho, rho, STATIC_VERTICAL_PRIOR_STD_M**2, STATIC_BIAS_PRIOR_STD_M**2]
    )
    c_mat, y0 = linearize(sats, prior_mean)
    model = StateSpaceModel(
        A=np.eye(4),
        Q=np.zeros((4, 4)),
        C=c_mat,
        R=np.ones(STATIC_N_SATS),
        Delta=np.full(STATIC_N_SATS, delta),
        nu=np.full(STATIC_N_SATS, nu),
        prior_mean=prior_mean,
        prior_cov=prior_cov,
    )
    noise_comp = SkewTComponent(spread_sq=1.0, shape=delta, dof=nu)
    for rep in range(n_replications):
        rng = np.random.default_rng(seed ^ rep)
        x = prior_mean + np.sqrt(np.diag(prior_cov)) * rng.standard_normal(4)
        y = pseudoranges(sats, x) + sample_rng(noise_comp, STATIC_N_SATS, rng)
        yield sats, model, x, y, y - y0


def run_static_experiment(
    delta: float,
    nu: float,
    rho: float,
    n_replications: int,
    seed: int,
) -> StaticResult:
    """Single-epoch positioning: posterior means versus a large-sample PF.

    Each replication of _static_replications compares the position
    estimates of the skew-t update (stf_update, VBConfig()) and of the
    prior against the particle filter reference of STATIC_PF_PARTICLES
    particles on the pseudorange model itself.  The filter truncates in
    greedy order only; the orders are compared in the truncation layer,
    against the exact truncated-normal posterior of the linearized model.
    """
    dist_stf, dist_prior, nees_stf = np.zeros((3, n_replications))
    replications = _static_replications(delta, nu, rho, n_replications, seed)
    for rep, (sats, model, x, y, y_lin) in enumerate(replications):
        post, _ = stf_update(model, model.prior_belief(), y_lin)
        pf = pf_run(
            model, [y], STATIC_PF_PARTICLES,
            seed=_tagged_seed(seed, rep, 0x5054),
            measurement_fn=partial(pseudoranges, sats),
        )[0]
        dist_stf[rep] = np.linalg.norm(post.mean[:3] - pf.mean[:3])
        dist_prior[rep] = np.linalg.norm(model.prior_mean[:3] - pf.mean[:3])
        nees_stf[rep] = nees(post.mean[None], post.cov[None], x[None])[0]
    return StaticResult(dist_stf, dist_prior, nees_stf)


@dataclass(frozen=True)
class TruncnormCase:
    """Distances of both truncation orderings from the sampling oracle."""

    dim: int
    dist_optimal: float
    dist_random: float


def _random_case(rng, dim):
    """Random correlated (mean, cov) with at least one clearly negative
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
    return ratios * std, cov


def _random_order_trunc(mean, cov, truncated, seed: int) -> tuple:
    """The ordering studies' random-order baseline: rec_trunc's steps in a
    deliberately non-optimal order, one one-index rec_trunc call per step.

    Each step truncates one of the remaining constraints other than the
    greedy choice (select_next), drawn uniformly from a default_rng(seed)
    stream, and the greedy one only when it is the last left.  Returns the
    truncated (mean, cov).
    """
    rng = np.random.default_rng(seed)
    left = sorted(set(truncated))
    while left:
        k = select_next(mean, cov, left)
        if len(left) > 1:
            others = [i for i in left if i != k]
            k = others[rng.integers(len(others))]
        left.remove(k)
        mean, cov = rec_trunc(mean, cov, [k])
    return mean, cov


def truncnorm_comparison(
    dims: tuple = (3, 8),
    n_cases: int = 200,
    seed: int = 0,
    oracle_samples: int = 10_000,
) -> list:
    """Compare greedy and random truncation orderings against the oracle.

    Each case truncates all coordinates of a random correlated normal to
    the positive orthant and records the Euclidean distances from the
    sampling-oracle mean of the rec_trunc mean and of the
    _random_order_trunc mean.  n_cases must be at least 1.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        dim = int(rng.integers(dims[0], dims[1] + 1))
        mean, cov = _random_case(rng, dim)
        idx = range(dim)
        opt, _ = rec_trunc(mean, cov, idx)
        rand, _ = _random_order_trunc(mean, cov, idx, _tagged_seed(seed, i, 0x52))
        oracle, _ = tmnd_oracle(mean, cov, idx, oracle_samples, seed=_tagged_seed(seed, i, 0x6F))
        cases.append(
            TruncnormCase(
                dim=dim,
                dist_optimal=float(np.linalg.norm(opt - oracle)),
                dist_random=float(np.linalg.norm(rand - oracle)),
            )
        )
    return cases
