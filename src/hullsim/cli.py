"""Command-line entry point.

    hullsim run --config path/to/experiment.cfg [--seed S] [--out DIR]
                [--format csv|json|both] [--check]

The flags override config keys (see the README's config format); --check
sets diagnostics.step_bound and diagnostics.hitting. Exit codes: 0 success;
1 bad config, found before simulating (unknown key or parameter, bad value,
a body, x0 or probe that does not fit the grid, or diagnostic inputs the
step-bound check cannot evaluate); 2 runtime error. A run prints the median
errors, the files it wrote and a summary line: label, wall clock, meta.phases,
meta.stream_processes, the meta.stream counters and seconds, and the CSV
text's SHA-256. The reports are written before anything is printed, so a
reader that closes stdout early (hullsim run ... | head -1) is no error: the
rest of the output is dropped and the exit code is 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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
    try:
        for j in config.j_indices:
            probe_indices = [-1] if report.dim == 1 else list(range(len(report.probes)))
            for p in probe_indices:
                medians = report.median_errors(j, p)
                tag = f"j={j}" if p == -1 else f"j={j} probe={p}"
                print(f"{config.label} {tag}: median errors {medians}")
        for path in paths:
            print(f"wrote {path}")
        meta, stream = report.meta, report.meta["stream"]
        phases = " ".join(f"{k} {v:.1f}s" for k, v in meta["phases"].items())
        digest = hashlib.sha256(harness.render_csv(report).encode()).hexdigest()
        print(f"{config.label}: {meta['wall_clock_s']:.1f}s ({phases}; {meta['stream_processes']} stream processes, "
              f"helpers drew {stream['helper_block_share']:.0%} of blocks, "
              f"this process drew for {stream['caller_draw_s']:.1f}s and waited {stream['helper_wait_s']:.1f}s "
              f"for helpers, {stream['lookahead_joined']} look-aheads joined, {stream['lookahead_cancelled']} "
              f"cancelled, {stream['helpers_skipped']} unready helpers skipped) csv sha256 {digest}")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader stopped early, as `| head -1` does; the reports are written
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the exit flush of what is still buffered stays quiet
        os.close(devnull)
    return 0


def main(argv: list[str] | None = None) -> int:
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
