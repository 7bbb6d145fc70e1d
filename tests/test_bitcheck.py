"""tools/bitcheck.py prints the digests that bit-for-bit claims quote.
These tests pin what each digest covers, on tiny configurations."""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skewt_estim import bench

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
