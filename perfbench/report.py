"""Run every workload once and print its named metrics in one table.

    python3 perfbench/report.py --seed 0 --seconds 25

Each workload runs in its own process through run.py, with tracing off,
so the output checks run as well; the exit code is 1 if any check failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    all_correct = True
    print(f"{'workload':<14} {'metric':<16} {'value':>12} {'unit':<10} samples")
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            print(f"{workload:<14} failed: {done.stderr.strip()[-500:]}")
            all_correct = False
            continue
        lines = [json.loads(line) for line in done.stdout.strip().splitlines()]
        named = next(line["named_metrics"] for line in lines if "named_metrics" in line)
        for name, m in named.items():
            print(f"{workload:<14} {name:<16} {m['value']:>12.5g} {m['unit']:<10} {m['samples']}")
        problems = next(line["problems"] for line in lines if "problems" in line)
        print(f"{workload:<14} {'checks':<16} {'pass' if lines[-1]['correct'] else 'FAIL'} {problems}")
        all_correct &= lines[-1]["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
