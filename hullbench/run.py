"""hullsim benchmark: end-to-end metrics, or a traced run with per-layer metrics.

    python3 hullbench/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]

Run from the repository root. Workloads are listed in workload.py; the seed
overrides each config's master seed (default: the frozen seed 20260808).
--seconds (default 20, the run_seconds of BENCHMARK.json) fixes the number of
repeats through workload.repeat_count, so the count never depends on how fast
the program is.

--trace 0 prints setup_s, run_s, unit_ms.p50, unit_ms.tail and peak_rss_mb.
--trace 1 prints the per-layer metrics of a traced process plus
trace.overhead_s, the traced minus the untraced median run_s.

Every workload process is a fresh single-threaded interpreter: BLAS and
OpenMP are pinned to one thread. Each run passes the correctness gate in
workload.check_csv, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workload import DEFAULT_SEED, WORKLOADS, repeat_count

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = Path(".hullbench")
SETUP_PROCESSES = 8  # half before and half after the workload process
TIME_LIMIT_S = 170  # the whole run, so that it ends within 180 s
DEADLINE = time.monotonic() + TIME_LIMIT_S
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "run_s": "s",
    "unit_ms.p50": "ms",
    "unit_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "dynamics.simulate_ensemble.self_s": "s",
    "dynamics.euler_step.self_s": "s",
    "dynamics.diffusion_at.s": "s",
    "dynamics.copy_steps": "count",
    "dynamics.array_bytes": "bytes",
    "geometry.project.s": "s",
    "geometry.project.points": "count",
    "geometry.project.moved_frac": "ratio",
    "geometry.convex_hull.s": "s",
    "geometry.convex_hull.vertices_mean": "count",
    "geometry.min_norm_point_distance.s": "s",
    "geometry.min_norm_point_distance.calls": "count",
    "geometry.min_norm_point_distance.generators_mean": "count",
    "estimation.hull_estimate.self_s": "s",
    "estimation.pointwise_error.self_s": "s",
    "estimation.hausdorff_error_1d.s": "s",
    "oracle.step1_bound_check.self_s": "s",
    "oracle.gaussian_increments.s": "s",
    "oracle.gaussian_increments.calls": "count",
    "oracle.hitting_frequency.s": "s",
    "harness.load_config.s": "s",
    "harness.build_multifunction.s": "s",
    "harness.resolve_probes.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.render_csv.s": "s",
    "harness.emit_report.s": "s",
    "harness.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile leaving ten samples above it.

    That is the (n - 10)-th smallest of n samples, at percentile 100 (n - 10) / n.
    None when there are ten samples or fewer.
    """
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def child(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run one workload.py process to completion and return its JSON result."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), mode,
           "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(DEADLINE - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} passed the {TIME_LIMIT_S} s limit") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def workload_run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    mode = "traced" if traced else "untraced"
    out = OUT_ROOT / workload / f"seed-{seed}" / mode
    repeats = repeat_count(WORKLOADS[workload], seconds)
    res = child("run", workload, seed, "--repeats", str(repeats),
                "--traced", str(int(traced)), "--out", str(out))
    expected = "span" if traced else "unit_clock"
    bad_hooks = {k: v for k, v in res["hooks"].items() if v != expected}
    if bad_hooks or (not traced and list(res["hooks"]) != ["dynamics.simulate_ensemble"]):
        raise BenchError(f"unexpected hooks in the {mode} run: {res['hooks']}")
    print(f"{workload} {mode}: {res['repeats']} repeats, report.csv sha256 "
          f"{', '.join(sorted(set(res['digests'])))}")
    return res


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    def setups(count):
        return [child("setup", workload, seed)["setup_s"] for _ in range(count)]

    before = setups(SETUP_PROCESSES // 2)
    res = workload_run(workload, seed, seconds, traced=False)
    setup_s = median(before + setups(SETUP_PROCESSES - len(before)))
    # A repeat that raises ends the run (it would raise again) and its units
    # count as failed; metrics that need a finished repeat are then left out.
    metrics = {}
    if res["run_s"]:
        metrics["run_s"] = median(res["run_s"])
    units = res["unit_ms"]
    if tail(units) is not None:
        tail_p, metrics["unit_ms.tail"] = tail(units)
        metrics["unit_ms.p50"] = median(units)
        print(f"unit_ms.tail is p{tail_p:.1f} of {len(units)} units at the largest N")
    print(f"setup_s is the median of {SETUP_PROCESSES} fresh processes")
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    return metrics, res


def traced_layers(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    base = workload_run(workload, seed, seconds / 2, traced=False)
    res = workload_run(workload, seed, seconds / 2, traced=True)
    if not base["run_s"] or not res["run_s"]:
        print("no repeat finished: per-layer metrics left out", file=sys.stderr)
        return {}, [base, res]
    if set(base["digests"]) != set(res["digests"]):
        print("traced and untraced report.csv differ", file=sys.stderr)
        res["failed"] = res["attempted"]
    layers = res["layers"]
    traced_run_s = median(res["run_s"])
    layers["trace.overhead_s"] = traced_run_s - median(base["run_s"])
    shares = ", ".join(
        f"{layer} {100 * s / traced_run_s:.1f}%"
        for layer, s in sorted(layers.pop("layer_self_s").items(), key=lambda kv: -kv[1])
    )
    print(f"self time by layer, share of traced run_s {traced_run_s:.4f} s: {shares}")
    absent = [name for name, unit in PER_LAYER_UNITS.items()
              if unit == "s" and name != "trace.overhead_s" and layers[name] == 0.0]
    if absent:
        print(f"not reached on {workload} (reported as 0): {', '.join(absent)}")
    return {name: layers[name] for name in PER_LAYER_UNITS}, [base, res]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    missing = [p for p in ("src/hullsim/__init__.py", wl.config) if not Path(p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"R = {wl.replications}, threads pinned to 1 ({', '.join(THREAD_VARS)}), "
          f"nproc {os.cpu_count()}")
    try:
        if args.trace:
            metrics, runs = traced_layers(args.workload, args.seed, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, run = end_to_end(args.workload, args.seed, args.seconds)
            runs, units = [run], END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_ratio = {failed / attempted!r} ({failed} of {attempted} units)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
