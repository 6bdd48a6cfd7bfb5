"""One benchmark process: set-up timing, or repeated runs of one workload.

    python3 hullbench/workload.py setup --workload NAME --seed S
    python3 hullbench/workload.py run --workload NAME --seed S --repeats K
                                      --traced 0|1 --out DIR

Run from the repository root with ``src`` on PYTHONPATH; run.py starts these
processes with BLAS/OpenMP pinned to one thread. Each prints one JSON object
as its last line of standard output. hullsim is imported only inside the
functions, so that ``setup`` times the import itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, median_low

import spans

DEFAULT_SEED = 20260808
CSV_HEADER = "N,replication,j,probe_index,error,scaled_error,seed"
MIN_REPEATS = 3
# A --check repeat has one slow unit at the largest N: replication 0, which
# also runs the oracle diagnostics. At most 7 repeats keep every such unit
# above unit_ms.tail (ten samples sit above it), with 3 ordinary units there too.
MAX_CHECK_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the repository root
    replications: int  # replaces the config's value; every other key stays frozen
    check: bool  # the README's `hullsim run --check`: step-bound and hitting diagnostics
    repeat_s: float  # nominal seconds per repeat; sets the repeat count from --seconds


WORKLOADS = {
    "interval-ou": Workload("configs/e1_interval_rate.cfg", 20, False, 1.7),
    "square-hpoly-check": Workload("configs/e4_square_hpoly.cfg", 10, True, 3.7),
    "ball3d-state-sigma": Workload("hullbench/ball3d_state_sigma.cfg", 16, False, 8.5),
}


def repeat_count(workload: Workload, seconds: float) -> int:
    """Repeats that take about `seconds` at the nominal repeat time.

    The count depends on the arguments only, never on measured speed, so a
    parent and a change time the same units and compare the same percentile.
    """
    count = max(MIN_REPEATS, round(seconds / workload.repeat_s))
    return min(count, MAX_CHECK_REPEATS) if workload.check else count


def overrides(workload: Workload, seed: int, out: str | None = None) -> dict:
    ov = {"seed": seed, "replications": workload.replications}
    if workload.check:
        ov["diagnostics.step_bound"] = "true"
        ov["diagnostics.hitting"] = "true"
    if out is not None:
        ov["out"] = out
        ov["format"] = "csv json"
    return ov


def setup(workload: Workload, seed: int) -> dict:
    """Time import, config load, model/body construction and probe resolution."""
    t0 = time.perf_counter()
    from hullsim import dynamics, harness

    config = harness.load_config(workload.config, overrides(workload, seed))
    model = harness.build_model(config)
    mf = harness.build_multifunction(config)
    if model.dim > 1:
        harness.resolve_probes(config, mf, dynamics.TimeGrid(config.horizon, config.steps))
    return {"setup_s": time.perf_counter() - t0}


def check_csv(text: str, config) -> tuple[int, int]:
    """Correctness gate on one report.csv: (units, failed units).

    A unit is one (N, replication). It fails unless it has |j| * probes rows,
    all with a finite, nonnegative error. A wrong header or a total row count
    other than sum over N of R * |j| * probes fails every unit.
    """
    dim = len(config.x0)
    probes = 1 if dim == 1 else (
        len(config.probes) if config.probes is not None else 3**dim - 1
    )
    per_unit = len(config.j_indices) * probes
    units = {(n, r): [0, True] for n in config.n_grid for r in range(config.replications)}
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) - 1 != len(units) * per_unit:
        return len(units), len(units)
    try:
        for line in lines[1:]:
            cells = line.split(",")
            entry = units[(int(cells[0]), int(cells[1]))]
            error = float(cells[4])
            entry[0] += 1
            entry[1] = entry[1] and math.isfinite(error) and error >= 0
    except (KeyError, IndexError, ValueError):
        return len(units), len(units)
    return len(units), sum(1 for count, ok in units.values() if count != per_unit or not ok)


def run(workload: Workload, seed: int, repeats: int, traced: bool, out: Path) -> dict:
    """Run load_config + run_experiment + emit_report `repeats` times."""
    from hullsim import harness

    out.mkdir(parents=True, exist_ok=True)
    patches = spans.Patches()
    tracer = spans.Tracer() if traced else None
    marks: list[float] = []
    if tracer is not None:
        tracer.install(patches)
    else:
        spans.install_unit_clock(patches, marks)
    hooks = spans.installed_hooks()

    run_s, top_units_ms, digests = [], [], []
    attempted = failed = 0
    try:
        while len(run_s) < repeats:
            if tracer is not None:
                tracer.run = len(run_s)
            marks.clear()
            config = harness.load_config(workload.config, overrides(workload, seed, str(out)))
            n_units = len(config.n_grid) * config.replications
            attempted += n_units
            try:
                t0 = time.perf_counter()
                report = harness.run_experiment(config)
                t_return = time.perf_counter()
                harness.emit_report(report, config.out, config.formats)
                t1 = time.perf_counter()
            except Exception:
                traceback.print_exc()
                entries = (
                    tracer.entries("dynamics.simulate_ensemble", len(run_s))
                    if tracer else len(marks)
                )
                failed += n_units - max(entries - 1, 0)
                break  # runs are deterministic: a repeat would raise again
            run_s.append(t1 - t0)
            csv_bytes = (out / "report.csv").read_bytes()
            digests.append(hashlib.sha256(csv_bytes).hexdigest())
            units, bad = check_csv(csv_bytes.decode(), config)
            failed += units if digests[-1] != digests[0] else bad
            if marks:
                ends = marks[1:] + [t_return]
                top = slice(len(marks) - config.replications, None)
                top_units_ms += [1e3 * (e - b) for b, e in zip(marks[top], ends[top])]
    finally:
        patches.restore()

    result = {
        "repeats": len(run_s),
        "attempted": attempted,
        "failed": failed,
        "run_s": run_s,
        "unit_ms": top_units_ms,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hooks": hooks,
    }
    if tracer is not None:
        tracer.write(out / "spans.tsv")
        result["layers"] = layer_metrics(tracer)
    return result


def layer_metrics(tracer: spans.Tracer) -> dict:
    """Per-layer metrics of one traced process: medians over repeats of per-repeat totals."""
    totals = spans.per_run_totals(tracer.spans)
    runs = sorted(totals)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0}

    def over_runs(name, field):
        return median([totals[r].get(name, empty)[field] for r in runs])

    # Counts are the same in every repeat; median_low keeps them whole numbers.
    def counted(key):
        return median_low([tracer.counts[r][key] for r in runs])

    def calls(name):
        return median_low([totals[r].get(name, empty)["calls"] for r in runs])

    def ratio(num, den):
        n, d = counted(num), counted(den)
        return n / d if d else 0.0

    out = {}
    for name in ("dynamics.simulate_ensemble", "dynamics.euler_step",
                 "estimation.hull_estimate", "estimation.pointwise_error",
                 "oracle.step1_bound_check", "harness.run_experiment"):
        out[f"{name}.self_s"] = over_runs(name, "self_s")
    for name in ("dynamics.diffusion_at", "geometry.project", "geometry.convex_hull",
                 "geometry.min_norm_point_distance", "estimation.hausdorff_error_1d",
                 "oracle.gaussian_increments", "oracle.hitting_frequency",
                 "harness.load_config", "harness.build_multifunction",
                 "harness.resolve_probes", "harness.render_csv", "harness.emit_report"):
        out[f"{name}.s"] = over_runs(name, "s")
    out["dynamics.copy_steps"] = counted("dynamics.copy_steps")
    out["dynamics.array_bytes"] = counted("dynamics.array_bytes")
    out["geometry.project.points"] = counted("geometry.project.points")
    out["geometry.project.moved_frac"] = ratio("geometry.project.moved", "geometry.project.points")
    out["geometry.convex_hull.vertices_mean"] = _mean_per_call(
        tracer, totals, "geometry.convex_hull", "geometry.convex_hull.vertices")
    out["geometry.min_norm_point_distance.calls"] = calls("geometry.min_norm_point_distance")
    out["geometry.min_norm_point_distance.generators_mean"] = _mean_per_call(
        tracer, totals, "geometry.min_norm_point_distance",
        "geometry.min_norm_point_distance.generators")
    out["oracle.gaussian_increments.calls"] = calls("oracle.gaussian_increments")
    out["harness.report_bytes"] = counted("harness.report_bytes")

    # Self time summed by layer (first part of the span name) per repeat, for
    # the shares of run_s; load_config runs outside run_s.
    layer_self = {}
    for r in runs:
        for name, entry in totals[r].items():
            if name != "harness.load_config":
                layer = name.split(".", 1)[0]
                layer_self.setdefault(layer, {}).setdefault(r, 0.0)
                layer_self[layer][r] += entry["self_s"]
    out["layer_self_s"] = {layer: median(list(v.values())) for layer, v in layer_self.items()}
    return out


def _mean_per_call(tracer, totals, name, key) -> float:
    calls = sum(totals[r].get(name, {}).get("calls", 0) for r in totals)
    return sum(tracer.counts[r][key] for r in totals) / calls if calls else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, help="required by run")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".hullbench/out")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.repeats is None:
        parser.error("run needs --repeats")
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        result = run(workload, args.seed, args.repeats, bool(args.traced), Path(args.out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
