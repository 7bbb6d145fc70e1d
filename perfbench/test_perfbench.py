"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from skewt_estim import bench, filtering, truncnorm  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "interactions.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Short sweep trajectories and a single set-up process.

    30 epochs is about the least at which one replication still shows the
    paper's RMSE ordering that the track_sweep check asserts.
    """
    monkeypatch.setattr(
        workloads, "SWEEP_SCENARIOS", tuple(dict(s, K=30) for s in workloads.SWEEP_SCENARIOS)
    )
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    return lines[:-1], lines[-1]


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_and_checks(tiny, capsys, workload):
    diagnostics, res = _run(capsys, workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    named = next(d["named_metrics"] for d in diagnostics if "named_metrics" in d)
    for name, spec in DESIGN["named_metrics"].items():
        if workload in spec["workloads"]:
            assert named[name]["unit"] == spec["unit"]
            assert named[name]["samples"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(tiny, capsys, workload):
    diagnostics, res = _run(capsys, workload, 1)
    assert res["correct"]
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["trace.absent_names"]["value"] == 0
    if workload == "pf_sweep":
        assert metrics["truncnorm.rec_trunc.calls"]["value"] == 0
        assert metrics["baselines.pf_likelihood.self_s"]["value"] > 0
    else:
        assert metrics["skewt.log_pdf.calls"]["value"] == 0
        assert metrics["truncnorm.rec_trunc.calls"]["value"] > 0
    if workload == "track_sweep":
        assert 0.0 < metrics["truncnorm.rec_trunc.share_of_sts"]["value"] < 1.0
    # The tracer put every original function back.
    assert filtering.rec_trunc is truncnorm.rec_trunc
    assert bench.run_experiment is bench.experiments.run_experiment


def test_interaction_table_names_known_metrics():
    per_layer = set(_units("per_layer"))
    for row in DESIGN["interactions"]:
        assert set(row["per_layer"]) <= per_layer
        assert set(row["should_move"]) <= set(DESIGN["named_metrics"])


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.setattr(
        tracer, "WRAPPED",
        tracer.WRAPPED + (("skewt_estim.filtering", "no_such_layer", "filtering.gone"),
                          ("skewt_estim.no_such_module", "f", "gone.f")),
    )
    with tracer.Tracer() as t:
        cfg, sats, traj = workloads.online_trajectory(0, 3)
        workloads.step_epochs(cfg, sats, traj, 3)
    assert t.absent == ["skewt_estim.filtering.no_such_layer", "skewt_estim.no_such_module.f"]
    assert t.layer_stats()["filtering.stf_update"]["calls"] == 3
    assert not hasattr(filtering, "no_such_layer")


def test_host_clock_converts_at_the_sampled_speed():
    clock = hostspeed.HostClock("filter")
    reference = hostspeed.REFERENCE_S["filter"]
    # A host on which the kernel takes twice its reference time runs at
    # half speed, also before the first and after the last sample.
    clock._stamps = [1.0, 2.0, 3.0]
    clock._kernel_s = [2 * reference] * 3
    assert clock.seconds(0.0, 4.0) == pytest.approx(2.0)
    assert clock.seconds(np.array([1.5, 2.5]), np.array([2.0, 3.5])) == pytest.approx([0.25, 0.5])


def test_host_clock_times_the_kernel_at_its_reference_time():
    previous = signal.getsignal(signal.SIGPROF)
    with hostspeed.HostClock("filter") as clock:
        start = clock.now()
        for _ in range(20):
            hostspeed.filter_kernel()
        end = clock.now()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous
    assert clock.summary()["samples"] >= 2
    # The workload here is the kernel itself, so it takes about its
    # reference time per call, however fast the host is at the moment.
    assert 0.5 < clock.seconds(start, end) / (20 * hostspeed.REFERENCE_S["filter"]) < 2.0


def test_default_and_heldout_seeds_draw_different_trajectories():
    seeds = DESIGN["seeds"]

    def truth(seed):
        states = []
        for scenario in workloads.SWEEP_SCENARIOS:
            cfg = workloads.sweep_config(scenario, seed, 4, ("stf",))
            states += [bench.simulate(cfg, r).states for r in range(cfg.n_mc)]
        return states

    default, heldout = truth(seeds["default"]), truth(seeds["heldout"])
    assert not any(np.array_equal(a, b) for a in default for b in heldout)
    online = [workloads.online_trajectory(s, 10)[2].states for s in (seeds["default"], seeds["heldout"])]
    assert not np.array_equal(*online)


def test_cli_measures_setup_in_fresh_processes():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "online_heavy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.strip().splitlines()]
    assert lines[-1]["correct"]
    samples = next(d["setup_samples_s"] for d in lines if "setup_samples_s" in d)
    assert len(samples) == run.SETUP_RUNS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
