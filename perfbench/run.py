"""Benchmark of the skew-t filter and smoother package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload track_sweep --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  track_sweep   STF, STS and RTSS Monte Carlo sweep of both acceptance scenarios
  pf_sweep      the bootstrap PF on the same sweep
  online_heavy  one long heavy-tailed 12-satellite track, filtered epoch by epoch

With --trace 0 the run measures set-up and one pass of the workload and
reports the end-to-end metrics.  With --trace 1 it traces warm-up, then runs
a smaller pass three times, the middle one with the span tracer
installed, and reports the per-layer metrics.  Every line before the last is a JSON diagnostic; the
last line is the result object.  The program is imported from src/ of
the checkout and nowhere else.
"""

import os

# Pinned before numpy is imported, so one process runs on one thread.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("track_sweep", "pf_sweep", "online_heavy")
# The reference kernel of hostspeed.py whose instruction mix is closest
# to each workload's.
KERNELS = {"track_sweep": "filter", "pf_sweep": "particle", "online_heavy": "filter"}
# Set-up is measured in this many fresh processes (this one included) and
# reported as the median.
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 60
# Each of the three passes of a traced run does this share of a run's work.
TRACE_SHARE = 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def emit(obj):
    print(json.dumps(obj), flush=True)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, size):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_size": size,
        "clock": "process CPU time" if args.trace else "reference seconds (hostspeed.py)",
    }


def setup_samples(args, first):
    """Reference seconds from process start to the end of warm-up, per process."""
    samples, problems = [first], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    # One child at a time: two processes on the two vCPUs of a shared
    # core slow each other down.
    for _ in range(SETUP_RUNS - 1):
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        try:
            out, err = child.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()[-500:]}")
        reply = json.loads(out.strip().splitlines()[-1])
        samples.append(reply["setup_s"])
        problems += reply["problems"]
    return samples, problems


def result(outcome, problems, metrics):
    return {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def end_to_end(args, workloads, setup_first, problems):
    size = workloads.work_size(args.workload, args.seconds)
    emit({"meta": metadata(args, size)})
    setup, setup_problems = setup_samples(args, setup_first)
    clock = hostspeed.HostClock(KERNELS[args.workload])
    outcome = workloads.WORKLOADS[args.workload](args.seed, size, clock)
    problems += setup_problems + outcome.problems
    if outcome.post_check:
        problems += outcome.post_check()
    if not outcome.items:
        problems.append("no estimator run completed")
    setup_s = statistics.median(setup)
    named = {"setup_s": (setup_s, "s", len(setup)), **outcome.named}
    emit({"named_metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()}})
    emit({"setup_samples_s": setup, "host_speed": clock.summary(), "problems": problems})
    metrics = {"setup_s": (setup_s, "s"), "items_per_s": (outcome.items / outcome.seconds, "1/s")}
    return result(outcome, problems, metrics)


def traced(args, workloads):
    from tracer import Tracer, per_layer_metrics

    size = workloads.work_size(args.workload, args.seconds * TRACE_SHARE)
    emit({"meta": metadata(args, size)})
    run = workloads.WORKLOADS[args.workload]
    tracer = Tracer()
    # Warm-up is traced too, so set-up layers such as the PF density
    # table show.  The overhead compares the traced pass with plain passes
    # on either side of it, which cancels a steady drift of host speed.
    with tracer:
        problems = workloads.warm_up(args.workload, args.seed)
    before = run(args.seed, size, hostspeed.RawClock())
    with tracer:
        outcome = run(args.seed, size, hostspeed.RawClock())
    after = run(args.seed, size, hostspeed.RawClock())
    problems += before.problems + outcome.problems + after.problems
    if outcome.post_check:
        problems += outcome.post_check()
    overhead = 2.0 * outcome.seconds / (before.seconds + after.seconds) - 1.0
    metrics = per_layer_metrics(tracer, overhead)
    emit({"absent_names": tracer.absent, "problems": problems})
    return result(outcome, problems, metrics)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "skewt_estim" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.trace:
        import workloads

        emit(traced(args, workloads))
        return 0
    # Set-up runs under a HostClock too; the CPU time spent before its
    # first sample (importing numpy and scipy) is scaled like that sample.
    with hostspeed.HostClock(KERNELS[args.workload]) as clock:
        import workloads

        problems = workloads.warm_up(args.workload, args.seed)
        ready = clock.now()
    setup_s = float(clock.seconds(0.0, ready))
    if args.setup_only:
        emit({"setup_s": setup_s, "cpu_s": ready, "problems": problems})
    else:
        emit(end_to_end(args, workloads, setup_s, problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
