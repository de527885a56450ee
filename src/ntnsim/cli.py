"""Command-line entry point: run experiments, compare results, dump config."""

from __future__ import annotations

import argparse
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ntnsim",
        description="Heterogeneous UAV network simulator with two-timescale "
        "multi-agent actor-critic training.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one method over the configured seeds")
    runp.add_argument("--config", help="config file (defaults apply when omitted)")
    runp.add_argument("--method", choices=harness.METHODS, help="override run.method")
    runp.add_argument("--seed", type=int, help="override run.seeds with a single seed")
    runp.add_argument("--out", help="override run.out_dir")
    runp.add_argument("--episodes", type=int, help="override train.episodes")
    runp.add_argument(
        "--parallel", action="store_true", help="one process per seed, BLAS on one thread each"
    )
    runp.add_argument("--quiet", action="store_true", help="suppress progress lines")

    cmpp = sub.add_parser("compare", help="compare converged throughput across runs")
    cmpp.add_argument("dirs", nargs="+", help="two or more result directories")

    dump = sub.add_parser("dump-config", help="print the effective config")
    dump.add_argument("--config", help="config file to load before dumping")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
            if args.method:
                cfg.method = args.method
            if args.seed is not None:
                cfg.seeds = [args.seed]
            if args.out:
                cfg.out_dir = args.out
            if args.episodes is not None:
                cfg.train.episodes = args.episodes
            return harness.run(cfg, parallel=args.parallel, quiet=args.quiet)
        if args.command == "compare":
            summaries, gains = harness.compare(args.dirs)
            print(harness.format_comparison(summaries, gains))
            return 0
        cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
        print(harness.dump_config(cfg), end="")
        return 0
    except harness.ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
