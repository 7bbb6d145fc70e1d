"""tools/bitcheck.py prints the digests that bit-for-bit claims quote.
These tests pin what each digest covers, on tiny configurations."""

import hashlib
import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skewt_estim import bench
from skewt_estim.baselines import kf_gated_run, rtss_gated_run
from skewt_estim.filtering import stf_run
from skewt_estim.smoothing import backward_pass, forward_pass, sts_run

from reference import static_ordering_study

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny(**overrides):
    base = dict(q=5.0, delta=5.0, rho=100.0, nu=4.0, K=5, n_mc=2, seed=1,
                estimators=("stf", "sts", "kf", "rtss", "pf"), name="tiny", pf_particles=200)
    base.update(overrides)
    return bench.ScenarioConfig(**base)


def test_records_digest_is_of_the_records_without_wall_time(tool):
    cfg = tiny()
    records = [replace(r, wall_time=0.0) for r in bench.run_experiment(cfg)]
    want = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    assert tool.records_digest(cfg) == want
    assert tool.records_digest(tiny(seed=2)) != want


def test_csv_digest_is_of_the_default_csv(tool, tmp_path):
    cfg = tiny()
    path = tmp_path / "records.csv"
    bench.run_experiment(cfg, out_path=path)
    assert tool.csv_digest(cfg) == hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_arrays_digest_sees_values_shapes_and_order(tool):
    a, b = np.arange(4.0), np.zeros(4)
    digests = {
        tool.arrays_digest(a, b),
        tool.arrays_digest(b, a),
        tool.arrays_digest(a.reshape(2, 2), b),
        tool.arrays_digest(a + 1e-300, b),
    }
    assert len(digests) == 4
    assert tool.arrays_digest(a, b) == tool.arrays_digest(a.copy(), b.copy())


def test_online_epochs_is_the_filter_of_run_estimator(tool):
    """The epoch loop filters the online track as run_estimator("stf")
    does, one epoch at a time."""
    epochs = 8
    positions, covs, iterations, converged = tool.online_epochs(0, epochs)
    cfg = bench.ScenarioConfig(K=epochs, n_mc=1, seed=0, **tool.ONLINE)
    sats = bench.make_constellation(cfg.n_sats, cfg.seed)
    run = bench.run_estimator("stf", cfg, sats, bench.simulate(cfg, 0))
    np.testing.assert_allclose(positions, run.positions, rtol=0, atol=1e-9)
    np.testing.assert_allclose(covs, run.position_covs, rtol=1e-9, atol=0)
    np.testing.assert_array_equal(iterations, run.vb_iterations)
    assert converged.all() == run.converged


def test_truncnorm_cases_digest_is_of_the_case_arrays(tool):
    kwargs = dict(dims=(2, 3), n_cases=3, seed=5, oracle_samples=1000)
    cases = bench.truncnorm_comparison(**kwargs)
    want = tool.arrays_digest(
        np.array([c.dim for c in cases]),
        np.array([c.dist_optimal for c in cases]),
        np.array([c.dist_random for c in cases]),
    )
    assert tool.truncnorm_cases_digest(**kwargs) == want
    assert tool.truncnorm_cases_digest(**dict(kwargs, seed=6)) != want


def test_static_ordering_digest_is_of_the_two_distance_arrays(tool):
    """The digest covers the greedy and random distances from the exact
    mean of the tests' static ordering study, in that order."""
    args = (5.0, 4, 11, 1000)
    greedy, random, exact, _ = static_ordering_study(*args)
    want = tool.arrays_digest(
        np.linalg.norm(greedy - exact, axis=1), np.linalg.norm(random - exact, axis=1)
    )
    assert tool.static_ordering_digest(*args) == want
    assert tool.static_ordering_digest(5.0, 4, 12, 1000) != want


def test_library_runs_digest_is_of_the_sequence_functions(tool):
    """The digest covers, per random linear model, every field of
    stf_run's pairs, sts_run's beliefs, iteration count and flag, and the
    filtered beliefs of kf_gated_run and the smoothed ones of
    rtss_gated_run, in that order; the models take nu 1.5, 4 and 30 in
    turn."""
    args = (3, 4, 6)
    models = list(tool.linear_models(*args))
    assert [float(model.nu[0]) for model, _ in models] == [1.5, 4.0, 30.0, 1.5]
    assert all(2 <= model.n_x <= 4 and 1 <= model.n_y <= 4 for model, _ in models)
    want = []
    for model, ys in models:
        for post, diag in stf_run(model, ys):
            want += [post.mean, post.cov, diag.iterations, diag.lambda_diag, diag.psi_diag,
                     diag.u_mean, diag.u_cov, diag.converged]
        track = sts_run(model, ys)
        want += [a for b in track for a in (b.mean, b.cov)]
        want.append([track.iterations, track.converged])
        beliefs = kf_gated_run(model, ys) + rtss_gated_run(model, ys)
        want += [a for b in beliefs for a in (b.mean, b.cov)]
    digest = tool.arrays_digest(*tool.library_runs(*args))
    assert digest == tool.arrays_digest(*map(np.asarray, want))
    assert tool.arrays_digest(*tool.library_runs(4, 4, 6)) != digest


def test_library_passes_digest_is_of_the_smoother_passes(tool):
    """The digest covers, per random linear model, the filtered beliefs
    of forward_pass at mixing precisions drawn from [0.1, 2] by
    default_rng(seed + 1), then the beliefs of backward_pass of them, in
    that order."""
    args = (3, 4, 6)
    rng = np.random.default_rng(args[0] + 1)
    want = []
    for model, ys in tool.linear_models(*args):
        lambdas = rng.uniform(0.1, 2.0, (len(ys), model.n_y))
        filtered = forward_pass(model, ys, lambdas)
        beliefs = filtered + backward_pass(filtered, model)
        want += [a for b in beliefs for a in (b.mean, b.cov)]
    digest = tool.arrays_digest(*tool.library_passes(*args))
    assert digest == tool.arrays_digest(*want)
    assert tool.arrays_digest(*tool.library_passes(4, 4, 6)) != digest


def test_records_failing_digest_is_of_the_failing_sweeps(tool):
    """records-failing covers the records of both heavy-tail sweeps as one
    list, in order: every record of the nu=0.02 sweep fails, 7 STF and 5
    STS ones on a NaN truncation distance and the others on a pseudorange
    that is not finite, and every record of the nu=0.05 one is ok."""
    cfgs = tool.failing_configs()
    with np.errstate(all="ignore"):
        runs = [[replace(r, wall_time=0.0) for r in bench.run_experiment(cfg)] for cfg in cfgs]
        digest = tool.records_digest(*cfgs)
    assert [r.status for r in runs[0]] == ["failed"] * 16
    reasons = Counter((r.estimator, r.reason.split(" (")[0]) for r in runs[0])
    nan_distance = "truncation distance is not finite, got nan"
    inf_range = "pseudorange is not finite"
    assert reasons == {
        ("stf", nan_distance): 7,
        ("stf", inf_range): 1,
        ("sts", nan_distance): 5,
        ("sts", inf_range): 3,
    }
    assert [r.status for r in runs[1]] == ["ok"] * 24
    assert digest == hashlib.sha256(repr(runs[0] + runs[1]).encode()).hexdigest()[:16]
