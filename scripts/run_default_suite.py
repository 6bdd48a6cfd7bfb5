#!/usr/bin/env python3
"""Run the four default convergence experiments and write their reports.

Usage: python scripts/run_default_suite.py [--out-root OUT] [--seed S]

Equivalent to `hullsim run --config configs/<name>.cfg` for each config, with
reports under <out-root>/<label>/. Each timing line gives the seconds spent in
the simulate, estimate, diagnostics and aggregate phases (meta.phases of
report.json), the number of processes that drew the increments
(meta.stream_processes), the share of increment blocks the helper processes
drew, the look-aheads joined and cancelled and the unready helpers passed over
(meta.stream), and ends with the SHA-256 of that report.csv, so
comparing e1-e4 byte for byte needs only this output. As
with `hullsim run`, a bad config prints one "error:" line and exits 1, and a
failure while simulating or writing prints one "runtime error:" line and
exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

from hullsim import harness

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = (
    "e1_interval_rate.cfg",
    "e2_state_sigma.cfg",
    "e3_shrinking_ball.cfg",
    "e4_square_hpoly.cfg",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-root", default="out")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    for name in CONFIGS:
        overrides = {"seed": args.seed} if args.seed is not None else None
        try:
            config = harness.load_config(CONFIG_DIR / name, overrides)
            t0 = time.perf_counter()
            report = harness.run_experiment(config)
            elapsed = time.perf_counter() - t0
            out_dir = Path(args.out_root) / config.label
            harness.emit_report(report, out_dir, config.formats)
        except harness.ConfigError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # simulation/solver/io failures
            print(f"runtime error: {name}: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2
        digest = hashlib.sha256((out_dir / "report.csv").read_bytes()).hexdigest()
        phases = " ".join(f"{k} {v:.1f}s" for k, v in report.meta["phases"].items())
        processes, stream = report.meta["stream_processes"], report.meta["stream"]
        print(f"{config.label}: {elapsed:.1f}s ({phases}; {processes} stream processes, "
              f"helpers drew {stream['helper_block_share']:.0%} of blocks, "
              f"{stream['lookahead_joined']} look-aheads joined, "
              f"{stream['lookahead_cancelled']} cancelled, "
              f"{stream['helpers_skipped']} unready helpers skipped) -> {out_dir} sha256 {digest}")
        probe_indices = [-1] if report.dim == 1 else range(len(report.probes))
        for j in config.j_indices:
            for p in probe_indices:
                medians = [f"{m:.5f}" for m in report.median_errors(j, p)]
                tag = f"j={j}" if p == -1 else f"j={j} probe={p}"
                print(f"  {tag}: median errors over N={report.n_grid}: {medians}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
