"""Print the SHA-256 digests that a bit-for-bit claim compares.

Run from the root of a checkout, once on each tree to compare:

    PYTHONPATH=src python3 tools/bitcheck.py

Each line is a name and the first 16 hex digits of the SHA-256 of:

  * records-q0.5-seed1 ... records-q5-seed7340033: repr of the RunRecords
    of run_experiment, wall time zeroed, on the two acceptance scenarios
    (q=0.5 and q=5; delta=5, rho=100, nu=4, K=100) at seeds 1 and
    7340033, 20 replications of all five estimators;
  * records-34-replications: the same of q=5, K=8, seed 1, 34 replications;
  * records-failing: the same of two heavy-tail sweeps of "stf" and
    "sts" (delta=5, rho=100, K=100), one list of records: nu=0.02,
    q=0.5, seed 1, 8 replications, where all 16 records fail (12 on a
    NaN truncation distance, 4 on a pseudorange that is not finite), then
    nu=0.05, q=5, seed 2, 12 replications, where all 24 records are ok;
    these runs may print RuntimeWarnings;
  * criterion-10-csv: the bytes of the CSV that criterion 10 writes;
  * criterion-9-arrays: the three arrays of run_static_experiment
    (dist_stf, dist_prior, nees_stf) at delta=5, nu=4, rho=1, 200
    replications, seed 11 (criterion 9);
  * online-epochs: the positions, position covariances, VB iterations and
    convergence flags of the online receiver loop (nu=1.2, 12 satellites;
    linearize, stf_update and predict per epoch) at seed 0, 600 epochs;
  * criterion-3-cases: the dims, greedy distances and random distances of
    the cases of truncnorm_comparison(dims=(3, 8), n_cases=200, seed=5,
    oracle_samples=10_000) (criterion 3), three arrays;
  * static-ordering: the distances of the greedy and of the random
    truncation order from the exact mean, two arrays, of the static
    ordering study of the tests (reference.static_ordering_study) at
    delta=5, 500 replications, seed 11, 10,000 oracle draws (the test's
    case at delta=5);
  * library-runs: the outputs of the library's sequence functions on 12
    random linear models of 30 steps at seed 0 (library_runs): every
    field of stf_run's pairs, sts_run's beliefs, iteration count and
    flag, and the filtered beliefs of kf_gated_run and the smoothed ones
    of rtss_gated_run;
  * library-passes: the outputs of the smoother's public passes on the
    same models (library_passes): the filtered beliefs of forward_pass
    at seeded positive mixing precisions, and the beliefs of
    backward_pass of them.

Two trees that print the same lines give the same bits on all of these.
It reads the static ordering study from tests/reference.py and the
random linear models from tests/test_filtering.py, so it runs in a full
checkout, and takes about 20 s of CPU time on one core.
"""

import hashlib
import sys
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from skewt_estim import baselines, bench, filtering, smoothing
from skewt_estim.exceptions import EstimationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference import static_ordering_study  # noqa: E402  (the tests' study)
from test_filtering import random_model, simulate_linear  # noqa: E402

ALL = ("stf", "sts", "kf", "rtss", "pf")
SCENARIO = dict(delta=5.0, rho=100.0, nu=4.0, estimators=ALL)
FAILING = dict(delta=5.0, rho=100.0, K=100, estimators=("stf", "sts"))
ONLINE = dict(name="online", q=0.5, delta=5.0, nu=1.2, rho=100.0, n_sats=12)


def digest(data: bytes) -> str:
    """The first 16 hex digits of the SHA-256 of data."""
    return hashlib.sha256(data).hexdigest()[:16]


def records_digest(*cfgs) -> str:
    """Of repr of the records of run_experiment of each of cfgs, in order,
    as one list, wall time zeroed."""
    records = [replace(r, wall_time=0.0) for cfg in cfgs for r in bench.run_experiment(cfg)]
    return digest(repr(records).encode())


def csv_digest(cfg) -> str:
    """Of the bytes of the default CSV of run_experiment(cfg)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.csv"
        bench.run_experiment(cfg, out_path=path)
        return digest(path.read_bytes())


def arrays_digest(*arrays) -> str:
    """Of the shapes, dtypes and bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in map(np.ascontiguousarray, arrays):
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def truncnorm_cases_digest(**kwargs) -> str:
    """Of the dims, dist_optimal and dist_random of the cases of
    truncnorm_comparison(**kwargs), as three arrays."""
    cases = bench.truncnorm_comparison(**kwargs)
    return arrays_digest(
        *(np.array([getattr(c, f) for c in cases]) for f in ("dim", "dist_optimal", "dist_random"))
    )


def static_ordering_digest(delta, n_replications, seed, oracle_samples) -> str:
    """Of the distances of the greedy and of the random order's position
    means from the exact mean, of static_ordering_study, as two arrays."""
    greedy, random, exact, _ = static_ordering_study(delta, n_replications, seed, oracle_samples)
    return arrays_digest(
        np.linalg.norm(greedy - exact, axis=1), np.linalg.norm(random - exact, axis=1)
    )


def linear_models(seed: int, n_models: int, n_steps: int):
    """Yields (model, ys) for n_models random linear models of the tests
    (random_model: n_x 2-4, n_y 1-4, delta in [-3, 3], nu 1.5, 4 and 30
    in turn), each with n_steps measurements of its own simulate_linear,
    all drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for i in range(n_models):
        n_x, n_y = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        delta, nu = float(rng.uniform(-3.0, 3.0)), (1.5, 4.0, 30.0)[i % 3]
        model = random_model(rng, n_x, n_y, delta=delta, nu=nu)
        yield model, simulate_linear(model, rng, n_steps)


def library_runs(seed: int, n_models: int, n_steps: int) -> list:
    """The arrays of stf_run, sts_run, kf_gated_run and rtss_gated_run on
    the linear_models(seed, n_models, n_steps).  Per model, in order: each
    step's posterior mean and covariance and every VBStepDiagnostics
    field of stf_run; each smoothed mean and covariance of sts_run, then
    its iterations and flag; the filtered means and covariances of
    kf_gated_run; the smoothed ones of rtss_gated_run."""
    arrays = []
    for model, ys in linear_models(seed, n_models, n_steps):
        for post, diag in filtering.stf_run(model, ys):
            arrays += [post.mean, post.cov, *map(np.asarray, astuple(diag))]
        track = smoothing.sts_run(model, ys)
        arrays += [a for b in track for a in (b.mean, b.cov)]
        arrays.append(np.array([track.iterations, track.converged]))
        beliefs = baselines.kf_gated_run(model, ys) + baselines.rtss_gated_run(model, ys)
        arrays += [a for b in beliefs for a in (b.mean, b.cov)]
    return arrays


def library_passes(seed: int, n_models: int, n_steps: int) -> list:
    """The arrays of forward_pass and backward_pass on the
    linear_models(seed, n_models, n_steps), at mixing precisions drawn
    uniformly from [0.1, 2] by default_rng(seed + 1), one (n_steps, n_y)
    draw per model.  Per model, in order: the means and covariances of
    the filtered beliefs of forward_pass, then those of backward_pass of
    them."""
    rng = np.random.default_rng(seed + 1)
    arrays = []
    for model, ys in linear_models(seed, n_models, n_steps):
        lambdas = rng.uniform(0.1, 2.0, (n_steps, model.n_y))
        filtered = smoothing.forward_pass(model, ys, lambdas)
        beliefs = filtered + smoothing.backward_pass(filtered, model)
        arrays += [a for b in beliefs for a in (b.mean, b.cov)]
    return arrays


def online_epochs(seed: int, epochs: int) -> tuple:
    """The online receiver loop: linearize at the belief, stf_update, then
    predict, epoch by epoch; a failed epoch keeps its prediction.  Returns
    the positions, position covariances, VB iterations and flags."""
    cfg = bench.ScenarioConfig(K=epochs, n_mc=1, seed=seed, **ONLINE)
    sats = bench.make_constellation(cfg.n_sats, cfg.seed)
    traj = bench.simulate(cfg, 0)
    model = bench.scenario_model(cfg, sats)
    belief = model.prior_belief()
    positions, covs = np.zeros((epochs, 3)), np.zeros((epochs, 3, 3))
    iterations, converged = np.zeros(epochs, dtype=int), np.zeros(epochs, dtype=bool)
    for k in range(epochs):
        c_mat, y0 = bench.linearize(sats, belief.mean)
        y = traj.measurements[k] - y0 + c_mat @ belief.mean
        try:
            belief, diag = filtering.stf_update(replace(model, C=c_mat), belief, y)
            iterations[k], converged[k] = diag.iterations, diag.converged
        except EstimationError:
            pass
        positions[k], covs[k] = belief.mean[:3], belief.cov[:3, :3]
        belief = filtering.predict(model, belief)
    return positions, covs, iterations, converged


def failing_configs() -> tuple:
    """The two heavy-tail sweeps of the records-failing digest."""
    return (
        bench.ScenarioConfig(name="s0.02", q=0.5, nu=0.02, n_mc=8, seed=1, **FAILING),
        bench.ScenarioConfig(name="s0.05", q=5.0, nu=0.05, n_mc=12, seed=2, **FAILING),
    )


def criterion_10_config():
    return bench.ScenarioConfig(
        q=5.0, delta=5.0, rho=100.0, nu=4.0, K=10, n_mc=2, seed=3,
        estimators=ALL, name="det", pf_particles=500,
    )


def main(argv) -> int:
    for seed in (1, 7340033):
        for q in (0.5, 5.0):
            cfg = bench.ScenarioConfig(q=q, K=100, n_mc=20, seed=seed, name=f"q{q}", **SCENARIO)
            print(f"records-q{q:g}-seed{seed} {records_digest(cfg)}", flush=True)
    cfg = bench.ScenarioConfig(q=5.0, K=8, n_mc=34, seed=1, name="q5", **SCENARIO)
    print(f"records-34-replications {records_digest(cfg)}", flush=True)
    failing = records_digest(*failing_configs())
    print(f"records-failing {failing}", flush=True)
    print(f"criterion-10-csv {csv_digest(criterion_10_config())}", flush=True)
    static = bench.run_static_experiment(
        delta=5.0, nu=4.0, rho=1.0, n_replications=200, seed=11
    )
    print(f"criterion-9-arrays {arrays_digest(*vars(static).values())}", flush=True)
    print(f"online-epochs {arrays_digest(*online_epochs(0, 600))}", flush=True)
    cases = truncnorm_cases_digest(dims=(3, 8), n_cases=200, seed=5, oracle_samples=10_000)
    print(f"criterion-3-cases {cases}", flush=True)
    ordering = static_ordering_digest(5.0, 500, 11, 10_000)
    print(f"static-ordering {ordering}", flush=True)
    print(f"library-runs {arrays_digest(*library_runs(0, 12, 30))}", flush=True)
    print(f"library-passes {arrays_digest(*library_passes(0, 12, 30))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
