"""Outside-in tracing of hullsim's layers for the benchmark.

Spans are recorded by wrapping public functions from outside the package: a
wrapper replaces the module attribute through which the caller looks the
function up, so nothing under src/ changes. Modules import each other's
functions by name, which is why e.g. the projection is wrapped as
``hullsim.dynamics.project`` (the name euler_step calls) and not as
``hullsim.geometry.project``.

``estimation.distance_to_hull`` is deliberately not wrapped: left inside
``estimation.pointwise_error``, the 2D polygon distance stays in that span's
self time while Frank-Wolfe (``geometry.min_norm_point_distance``) is a child
span and is excluded from it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import NamedTuple

HOOK_ATTR = "__hullbench_hook__"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    run: int  # repeat of the experiment the span belongs to


# Counters run after the wrapped call returns, inside a "trace.counters" span,
# so their cost is excluded from the self time of the enclosing layer.


def _count_ensemble(counts, args, result):
    ens = result
    counts["dynamics.copy_steps"] += ens.n_copies * ens.grid.steps
    # z (n, steps, m) float64 is drawn inside simulate_ensemble and not returned.
    z_bytes = ens.n_copies * ens.grid.steps * ens.dim * 8
    pre = ens.pre_projection
    nbytes = z_bytes + ens.states.nbytes + (pre.nbytes if pre is not None else 0)
    counts["dynamics.array_bytes"] = max(counts["dynamics.array_bytes"], nbytes)


def _count_projection(counts, args, result):
    h = args[1]
    rows = h.size // h.shape[-1]
    counts["geometry.project.points"] += rows
    moved = (result != h).reshape(rows, -1).any(axis=1)
    counts["geometry.project.moved"] += int(moved.sum())


def _count_hull(counts, args, result):
    counts["geometry.convex_hull.vertices"] += result.vertices.shape[0]


def _count_generators(counts, args, result):
    counts["geometry.min_norm_point_distance.generators"] += len(args[0])


def _count_report_bytes(counts, args, result):
    counts["harness.report_bytes"] += sum(path.stat().st_size for path in result)


# (module, attribute, span name, counter)
TARGETS = (
    ("hullsim.harness", "load_config", "harness.load_config", None),
    ("hullsim.harness", "run_experiment", "harness.run_experiment", None),
    ("hullsim.harness", "build_multifunction", "harness.build_multifunction", None),
    ("hullsim.harness", "resolve_probes", "harness.resolve_probes", None),
    ("hullsim.harness", "emit_report", "harness.emit_report", _count_report_bytes),
    ("hullsim.harness", "render_csv", "harness.render_csv", None),
    ("hullsim.dynamics", "simulate_ensemble", "dynamics.simulate_ensemble", _count_ensemble),
    ("hullsim.dynamics", "euler_step", "dynamics.euler_step", None),
    ("hullsim.dynamics", "diffusion_at", "dynamics.diffusion_at", None),
    ("hullsim.dynamics", "project", "geometry.project", _count_projection),
    ("hullsim.estimation", "hull_estimate", "estimation.hull_estimate", None),
    ("hullsim.estimation", "convex_hull", "geometry.convex_hull", _count_hull),
    ("hullsim.estimation", "hausdorff_error_1d", "estimation.hausdorff_error_1d", None),
    ("hullsim.estimation", "pointwise_error", "estimation.pointwise_error", None),
    ("hullsim.geometry", "min_norm_point_distance", "geometry.min_norm_point_distance",
     _count_generators),
    ("hullsim.oracle", "step1_bound_check", "oracle.step1_bound_check", None),
    ("hullsim.oracle", "gaussian_increments", "oracle.gaussian_increments", None),
    ("hullsim.oracle", "hitting_frequency", "oracle.hitting_frequency", None),
)

UNIT_ENTRY = ("hullsim.dynamics", "simulate_ensemble")


def installed_hooks() -> dict[str, str]:
    """Span name -> hook kind for every target attribute not currently the original."""
    hooks = {}
    for module, attr, name, _ in TARGETS:
        kind = getattr(getattr(importlib.import_module(module), attr), HOOK_ATTR, None)
        if kind is not None:
            hooks[name] = kind
    return hooks


class Patches:
    """Module attributes replaced by hooks; restore() puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_hook, kind: str) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        hook = functools.wraps(original)(make_hook(original))
        setattr(hook, HOOK_ATTR, kind)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, hook)

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def install_unit_clock(patches: Patches, marks: list[float]) -> None:
    """The untraced run's only hook: one clock read per entry into simulate_ensemble."""
    clock = time.perf_counter

    def make_hook(original):
        def unit_clock(*args, **kwargs):
            marks.append(clock())
            return original(*args, **kwargs)

        return unit_clock

    patches.replace(*UNIT_ENTRY, make_hook, "unit_clock")


class Tracer:
    """Records one span per wrapped call, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.run = 0
        self._stack = [-1]

    def install(self, patches: Patches) -> None:
        for module, attr, name, counter in TARGETS:
            patches.replace(module, attr, self._hook_factory(name, counter), "span")

    def _hook_factory(self, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make_hook(original):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = Span(name, start, end, parent, self.run)
                if counter is not None:
                    c0 = clock()
                    counter(self.counts[self.run], args, result)
                    spans.append(Span("trace.counters", c0, clock(), parent, self.run))
                return result

            return traced

        return make_hook

    def entries(self, name: str, run: int) -> int:
        return sum(1 for s in self.spans if s is not None and s.name == name and s.run == run)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                if s is not None:
                    fh.write(f"{idx}\t{s.run}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def per_run_totals(spans) -> dict[int, dict[str, dict[str, float]]]:
    """run -> span name -> {"s": total duration, "self_s": total self time, "calls": n}."""
    out: dict = defaultdict(lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}))
    for s, own in zip(spans, self_times(spans)):
        entry = out[s.run][s.name]
        entry["s"] += s.end - s.start
        entry["self_s"] += own
        entry["calls"] += 1
    return out
