"""Command-line entry point.

    hullsim run --config path/to/experiment.cfg [--seed S] [--out DIR]
                [--format csv|json|both] [--check]

The flags override config keys (see the README's config format); --check
sets diagnostics.step_bound and diagnostics.hitting. Exit codes: 0 success;
1 bad config, found before simulating (unknown key or parameter, bad value,
a body, x0 or probe that does not fit the grid); 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hullsim")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a convergence experiment from a config file")
    run.add_argument("--config", required=True, help="flat key=value config file")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument(
        "--format",
        choices=("csv", "json", "both"),
        default=None,
        help="which report files to write",
    )
    run.add_argument(
        "--check",
        action="store_true",
        help="also run the step-bound and hitting diagnostics",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.format is not None:
        overrides["format"] = "csv json" if args.format == "both" else args.format
    if args.check:
        overrides["diagnostics.step_bound"] = overrides["diagnostics.hitting"] = "true"
    try:
        config = harness.load_config(args.config, overrides)
        if config.out is None:
            raise harness.ConfigError("no output directory (set 'out' or pass --out)")
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = harness.run_experiment(config)
        paths = harness.emit_report(report, config.out, config.formats)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # simulation/solver/io failures
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    for j in config.j_indices:
        probe_indices = [-1] if report.dim == 1 else list(range(len(report.probes)))
        for p in probe_indices:
            medians = report.median_errors(j, p)
            tag = f"j={j}" if p == -1 else f"j={j} probe={p}"
            print(f"{config.label} {tag}: median errors {medians}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
