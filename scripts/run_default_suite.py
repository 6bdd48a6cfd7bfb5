#!/usr/bin/env python3
"""Run the four default convergence experiments and write their reports.

Usage: python scripts/run_default_suite.py [--out-root OUT] [--seed S]

Runs `hullsim run --config configs/<name>.cfg --out <out-root>/<name>` for
each config in turn (with --seed S when given) and stops at the first that
fails, with its exit code. What each run prints, and its exit codes, are those
of `hullsim run` (see hullsim.cli).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hullsim import cli

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

    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    for name in CONFIGS:
        out = Path(args.out_root) / Path(name).stem
        code = cli.main(["run", "--config", str(CONFIG_DIR / name), "--out", str(out), *seed])
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
