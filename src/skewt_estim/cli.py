"""Command-line interface.

Subcommands:
  run              Monte Carlo benchmark from a config file, CSV output.
  truncnorm-bench  Greedy vs random truncation ordering accuracy study.
  contours         Likelihood-contour grid data for the three noise models.

Exit codes: 0 on success, 1 on configuration errors, 2 when an estimator
failed at runtime and --strict was given.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench.config import load_config
from .bench.contours import likelihood_contour_grid, write_contour_csv
from .bench.experiments import run_experiment, truncnorm_comparison
from .exceptions import ConfigError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="skewt-estim",
        description="Robust state estimation benchmarks under skew-t noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark scenario")
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--timing", action="store_true",
        help="write measured wall times (breaks byte-reproducibility)",
    )
    p_run.add_argument(
        "--strict", action="store_true",
        help="exit with code 2 if any estimator run failed",
    )

    p_tb = sub.add_parser(
        "truncnorm-bench", help="truncation-order accuracy comparison"
    )
    p_tb.add_argument("--dims", default="3..8", help="dimension range, e.g. 3..8")
    p_tb.add_argument("--cases", type=int, default=200, help="number of cases")
    p_tb.add_argument("--out", required=True, help="output directory")
    p_tb.add_argument("--seed", type=int, default=0)
    p_tb.add_argument("--oracle-samples", type=int, default=10_000)

    p_ct = sub.add_parser("contours", help="likelihood contour grid data")
    p_ct.add_argument("--delta", type=float, required=True, help="skewness (m)")
    p_ct.add_argument("--nu", type=float, required=True, help="degrees of freedom")
    p_ct.add_argument("--out", required=True, help="output CSV file")
    p_ct.add_argument("--grid", type=int, default=81, help="grid points per axis")
    p_ct.add_argument("--extent", type=float, default=10.0, help="half-width (m)")
    return parser


def _parse_dims(text):
    try:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
    except ValueError as err:
        raise ConfigError(f"bad --dims value {text!r}, expected e.g. 3..8") from err
    if not 1 <= lo <= hi:
        raise ConfigError(f"bad --dims range {text!r}")
    return lo, hi


def _cmd_run(args):
    cfg = load_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{cfg.name}.csv"
    records = run_experiment(cfg, out_path=out_path, timing=args.timing)
    n_failed = sum(r.status == "failed" for r in records)
    print(f"wrote {out_path} ({len(records)} records, {n_failed} failed)")
    if n_failed and args.strict:
        return 2
    return 0


def _cmd_truncnorm_bench(args):
    dims = _parse_dims(args.dims)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = truncnorm_comparison(
        dims=dims, n_cases=args.cases, seed=args.seed,
        oracle_samples=args.oracle_samples,
    )
    out_path = out_dir / "truncnorm_bench.csv"
    lines = ["case,dim,opt_dist,rand_dist"]
    for i, c in enumerate(cases):
        lines.append(f"{i},{c.dim},{c.dist_optimal:.9g},{c.dist_random:.9g}")
    out_path.write_text("\n".join(lines) + "\n")
    med_opt = float(np.median([c.dist_optimal for c in cases]))
    med_rand = float(np.median([c.dist_random for c in cases]))
    print(f"wrote {out_path}")
    print(f"median distance to oracle: greedy {med_opt:.4f}, random {med_rand:.4f}")
    return 0


def _cmd_contours(args):
    grid = likelihood_contour_grid(
        args.delta, args.nu, extent=args.extent, n_grid=args.grid
    )
    write_contour_csv(grid, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "truncnorm-bench":
            return _cmd_truncnorm_bench(args)
        if args.command == "contours":
            return _cmd_contours(args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
