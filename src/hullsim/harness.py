"""Experiment orchestration: convergence studies over a grid of copy counts.

A study is a plan, then its units in row order, then aggregation. The plan is
built once: model, bodies, grid, probes, checks and the error function (the
hull's Hausdorff error in dimension one, per-probe hull distances otherwise).
Each (N, replication) unit simulates one ensemble and scores its hull; units
share no state. Quantiles and a log-log rate fit aggregate the rows, and a CSV
plus a JSON report are emitted. Every ensemble seed derives from (master seed,
N, replication), so a run is deterministic given its config. A diagnostic is a
diagnostics.<name> key, a DIAGNOSTICS entry and its observer's entries(N).
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, estimation, geometry, increments, oracle


class ErrorRow(NamedTuple):
    """One error measurement; its fields are report.csv's columns and a report.json row's keys."""

    N: int
    replication: int
    j: int
    probe_index: int  # -1 in dimension one
    error: float
    scaled_error: float | None  # N * error in dimension one, None otherwise
    seed: int


CSV_HEADER = ",".join(ErrorRow._fields)
ROW_BYTES = 130  # memory one ErrorRow holds at least (tracemalloc, CPython 3.11: 141 B with its list slot in e3)


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@contextmanager
def _as_config_error(context: str = ""):
    """Re-raise model, geometry and oracle errors as ConfigError."""
    try:
        yield
    except (dynamics.ModelError, geometry.GeometryError, oracle.OracleError) as exc:
        raise ConfigError(f"{context}: {exc}" if context else str(exc)) from exc


# ---------------------------------------------------------------------------
# config schema: each parser takes the text of one value and raises ConfigError


def _numbers(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {text!r}") from exc
    if not values or not np.all(np.isfinite(values)):
        raise ConfigError(f"expected one or more finite numbers, got {text!r}")
    return values


def _integers(text: str) -> list[int]:
    values = _numbers(text)
    if any(v != int(v) for v in values):
        raise ConfigError(f"expected integers, got {text!r}")
    # integer tokens are read exactly: through float, 2**53 + 1 would round
    tokens = text.replace(",", " ").split()
    return [int(tok) if tok.lstrip("+-").isdigit() else int(v) for tok, v in zip(tokens, values)]


def _one(parse: Callable[[str], list]) -> Callable[[str], object]:
    def one(text: str):
        values = parse(text)
        if len(values) != 1:
            raise ConfigError(f"expected one value, got {text!r}")
        return values[0]
    return one


def _boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ConfigError(f"expected a boolean, got {text!r}")
    return lowered in ("true", "yes", "1", "on")


def _probes(text: str) -> np.ndarray | None:
    if text.strip().lower() == "auto":
        return None
    rows = [_numbers(chunk) for chunk in text.split(";") if chunk.strip()]
    if len({len(row) for row in rows}) != 1:
        raise ConfigError(f"expected 'auto' or points of equal length separated by ';', got {text!r}")
    return np.array(rows)


def _param(text: str) -> float | np.ndarray:
    values = _numbers(text)
    return values[0] if len(values) == 1 else np.array(values)


def _parse(key: str, parse: Callable[[str], object], text: str):
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _key(key: str, parse: Callable[[str], object], absent: str | None = None):
    """The field of config key `key`: parse reads its text, and absent is the text an
    absent key stands for (None: the key is required), parsed into the default."""
    metadata = {"key": key, "parse": parse, "absent": absent}
    if absent is None:
        return field(metadata=metadata)
    return field(default=_parse(key, parse, absent), metadata=metadata)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One convergence study; config files set each _key field by its key (SCHEMA)
    and the parameter dicts through PARAMS."""

    label: str = _key("label", str, "experiment")
    model_kind: str = _key("model.kind", str)
    mf_kind: str = _key("mf.kind", str)
    horizon: float = _key("grid.horizon", _one(_numbers))
    steps: int = _key("grid.steps", _one(_integers))
    n_grid: list[int] = _key("n_grid", _integers)
    replications: int = _key("replications", _one(_integers))
    seed: int = _key("seed", _one(_integers))
    j_indices: list[int] = _key("j_indices", _integers)
    probe_margin: float = _key("probe_margin", _one(_numbers), "0.01")
    x0: np.ndarray = _key("x0", _numbers)
    probes: np.ndarray | None = _key("probes", _probes, "auto")  # resolved lattice when None and dim > 1
    out: str | None = _key("out", lambda text: text or None, "")
    formats: tuple[str, ...] = _key("format", lambda text: tuple(text.replace(",", " ").split()), "csv json")
    run_step_bound: bool = _key("diagnostics.step_bound", _boolean, "false")
    run_hitting: bool = _key("diagnostics.hitting", _boolean, "false")
    model_params: dict = field(default_factory=dict)
    mf_params: dict = field(default_factory=dict)

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        if self.probes is not None:
            object.__setattr__(self, "probes", np.atleast_2d(np.asarray(self.probes, dtype=float)))
        with _as_config_error("grid"):
            dynamics.TimeGrid(self.horizon, self.steps)
        n, js = self.n_grid, self.j_indices
        if not (x0.ndim == 1 and x0.size > 0):
            raise ConfigError("x0 must hold one number per dimension")
        if not n or n[0] < 1 or any(b <= a for a, b in zip(n, n[1:])):
            raise ConfigError("n_grid must be strictly ascending positive copy counts")
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not js or not all(1 <= j <= self.steps for j in js):
            raise ConfigError(f"j_indices must be one or more grid nodes in 1..{self.steps}")
        if len(set(js)) != len(js):
            raise ConfigError(f"j_indices must not repeat a node, got {list(js)}")
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        unit_bytes = dynamics.ensemble_bytes(self.steps, x0.size, n[-1], len(js))
        if unit_bytes > memory:
            raise ConfigError(f"one ensemble's arrays would take {unit_bytes} bytes, more than physical memory")
        # one error row per unit, node and probe (default_probes' 3^m - 1 when not given)
        n_probes = 1 if x0.size == 1 else 3**x0.size - 1 if self.probes is None else len(self.probes)
        rows = len(n) * self.replications * len(js) * n_probes
        if rows * ROW_BYTES > memory:
            raise ConfigError("replications: the error rows would take more than physical memory")
        if not self.probe_margin > 0:
            raise ConfigError("probe_margin must be positive")
        if not self.formats or not set(self.formats) <= {"csv", "json"}:
            raise ConfigError(f"format must name csv, json or both, got {list(self.formats)}")


# (key, ExperimentConfig field, parser, text used when absent; None: required)
SCHEMA = tuple(
    (f.metadata["key"], f.name, f.metadata["parse"], f.metadata["absent"])
    for f in fields(ExperimentConfig) if "key" in f.metadata
)
# "<prefix>.<name> = numbers" sets parameter <name> of the model or body kind
# (dynamics.MODELS, dynamics.BODIES); the value is parsed by _param.
PARAMS = {"model": "model_params", "mf": "mf_params"}
_KEYS = {key for key, *_ in SCHEMA}
# config key diagnostics.<name> -> from the model, body family, grid and check probes, what makes
# replication 0's step observer from the unit's oracle.ProbeDistances; None where it does not apply
DIAGNOSTICS = {
    "diagnostics.step_bound": lambda model, mf, grid, probes: partial(
        oracle.StepBoundCheck, model, grid.delta, constants=oracle.step_bound_constants(model, mf, grid, probes)),
    "diagnostics.hitting": lambda model, mf, grid, probes: (  # needs m > 1
        partial(oracle.HittingCount, steps=grid.steps) if model.dim > 1 else None),
}


def build_model(config: ExperimentConfig) -> dynamics.SdeModel:
    with _as_config_error():
        return dynamics.make_model(config.model_kind, config.x0.size, config.x0, **config.model_params)


def _beyond_limit(values) -> bool:
    """Whether a coordinate is not finite or beyond dynamics.FINITE_LIMIT, whose square overflows."""
    return not np.all(np.abs(values) <= dynamics.FINITE_LIMIT)


def build_multifunction(config: ExperimentConfig) -> dynamics.Multifunction:
    """The body family (dynamics.BODIES), checked at every grid node and against x0, all
    within dynamics.FINITE_LIMIT."""
    if _beyond_limit(config.x0):
        raise ConfigError(f"x0 has a coordinate beyond {dynamics.FINITE_LIMIT:g}")
    with _as_config_error():
        builder, args = dynamics.resolve_params(
            "multifunction", dynamics.BODIES, config.mf_kind, config.x0.size, config.mf_params
        )
        mf = builder(**args)
    with _as_config_error(f"multifunction {config.mf_kind!r} on the time grid"):
        bodies = dynamics.bodies_at_nodes(mf, dynamics.TimeGrid(config.horizon, config.steps))
    for j, body in enumerate(bodies):
        if _beyond_limit(body.bounding_box()):
            raise ConfigError(f"the body at node {j} has a coordinate beyond {dynamics.FINITE_LIMIT:g}")
    start = bodies[0]
    if start.dim != config.x0.size:
        raise ConfigError(f"x0 has {config.x0.size} coordinates but the body is {start.dim}-dimensional")
    if not geometry.contains(start, config.x0):
        raise ConfigError("x0 must lie in the body at time zero")
    return mf


def default_probes(body: geometry.ConvexBody) -> np.ndarray:
    """Interior lattice ring: directions {-1,0,1}^m \\ {0}, normalized and
    scaled to 0.8 of the inradius about the Chebyshev center."""
    center, inradius = geometry.chebyshev_center(body)
    m = body.dim
    dirs = np.array(
        [v for v in np.ndindex(*([3] * m)) if any(c != 1 for c in v)], dtype=float
    ) - 1.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return center + 0.8 * inradius * dirs


def resolve_probes(
    config: ExperimentConfig,
    mf: dynamics.Multifunction,
    grid: dynamics.TimeGrid,
) -> np.ndarray:
    """Fixed probe points within dynamics.FINITE_LIMIT, validated interior to the body at every
    requested node."""
    probes = config.probes
    if probes is None:
        probes = default_probes(mf(grid.node(max(config.j_indices))))
    elif probes.shape[1:] != config.x0.shape:
        raise ConfigError(f"probe points need {config.x0.size} coordinates each")
    elif _beyond_limit(probes):
        raise ConfigError(f"a probe has a coordinate beyond {dynamics.FINITE_LIMIT:g}")
    for j in config.j_indices:
        body = mf(grid.node(j))
        margin = np.asarray(body.interior_margin(probes))
        if np.any(margin < config.probe_margin):
            raise ConfigError(
                f"probe {int(np.argmin(margin))} is within {config.probe_margin} of the "
                f"boundary (or outside) at node {j}"
            )
    return probes


@dataclass
class ConvergenceReport:
    config: dict
    dim: int
    n_grid: list[int]
    rows: list[ErrorRow]
    quantiles: dict  # (N, j, probe_index) -> {median, q10, q90, scaled_median}
    slopes: dict  # (j, probe_index) -> {slope, residual, n_used, excluded}
    probes: list | None
    diagnostics: dict
    meta: dict

    def to_dict(self) -> dict:
        """One report.json key per field, in order, with rows, quantiles and slopes as lists."""
        return dict(
            vars(self),
            rows=[row._asdict() for row in self.rows],
            quantiles=[
                {"N": n, "j": j, "probe_index": p, **vals}
                for (n, j, p), vals in sorted(self.quantiles.items())
            ],
            slopes=[
                {"j": j, "probe_index": p, **vals}
                for (j, p), vals in sorted(self.slopes.items())
            ],
        )

    def median_errors(self, j: int, probe_index: int = -1) -> list[float]:
        """Median error per copy count, in n_grid order."""
        return [self.quantiles[(n, j, probe_index)]["median"] for n in self.n_grid]

    def median_scaled_errors(self, j: int) -> list[float]:
        return [self.quantiles[(n, j, -1)]["scaled_median"] for n in self.n_grid]


def rate_fit(n_values, errors) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(N) with its residual.

    Zero errors (perfect estimation at finite N) are excluded with a warning;
    at least two positive points must remain.
    """
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if n_values.size < 3 or n_values.size != errors.size:
        raise ConfigError("rate fit needs at least three (N, error) pairs")
    if np.any(errors < 0):
        raise ConfigError("errors must be nonnegative")
    keep = errors > 0
    if np.count_nonzero(keep) < 2:
        raise ConfigError("rate fit needs at least two positive errors")
    if not np.all(keep):
        warnings.warn(
            f"rate_fit excluded {int(np.count_nonzero(~keep))} zero error(s)",
            stacklevel=2,
        )
    lx = np.log(n_values[keep])
    ly = np.log(errors[keep])
    coeffs, res, *_ = np.polyfit(lx, ly, 1, full=True)
    residual = float(res[0]) if res.size else 0.0
    return float(coeffs[0]), residual


class Plan(NamedTuple):
    """What every unit of a run shares; plan_experiment builds it once."""

    config: ExperimentConfig
    model: dynamics.SdeModel
    mf: dynamics.Multifunction
    grid: dynamics.TimeGrid
    probes: np.ndarray | None  # None in dimension one
    nodes: list[int]  # the nodes every unit keeps, ascending
    error: Callable  # (hull, j, N) -> a (probe_index, error, scaled_error) per row
    checks: dict  # diagnostic name -> what makes replication 0's step observer, for those on that apply
    check_probes: np.ndarray | None  # their probes, a unit's observers sharing one ProbeDistances; None when none is on


class Unit(NamedTuple):
    """What run_unit returns for one (N, replication) unit."""

    rows: list[ErrorRow]
    diagnostics: dict  # every DIAGNOSTICS name -> its observer's entries(N), empty unless it ran (replication 0)
    phases: dict  # seconds spent simulating, estimating and on diagnostics
    seconds: float  # wall seconds


def plan_experiment(config: ExperimentConfig) -> Plan:
    """A run's model, body family, grid, probes, error function and checks. Every
    ConfigError of the run is raised here, before any ensemble is simulated."""
    model = build_model(config)
    mf = build_multifunction(config)
    grid = dynamics.TimeGrid(horizon=config.horizon, steps=config.steps)
    probes = None if model.dim == 1 else resolve_probes(config, mf, grid)
    on = [key for key, field, *_ in SCHEMA if key in DIAGNOSTICS and getattr(config, field)]
    check_probes, checks = None, {}
    if on and probes is None:
        check_probes = _interval_probes(*dynamics.bodies_at_nodes(mf, grid)[1:])
    elif on:  # auto: the ring in the last step end's body, which every body family keeps inside the others
        check_probes = probes if config.probes is not None else default_probes(mf(grid.node(grid.steps)))
    for key in on:
        with _as_config_error(key):
            make = DIAGNOSTICS[key](model, mf, grid, check_probes)
        if make is not None:
            checks[key.removeprefix("diagnostics.")] = make
    error = (partial(_interval_errors, {j: mf(grid.node(j)) for j in config.j_indices}) if probes is None
             else partial(_probe_errors, probes))
    return Plan(config, model, mf, grid, probes, sorted(config.j_indices), error, checks, check_probes)


def _interval_errors(bodies: dict, hull, j: int, n: int) -> list[tuple]:
    """Dimension one: the hull's Hausdorff error from the interval at node j, and N times it."""
    err = estimation.hausdorff_error_1d(hull, bodies[j])
    return [(-1, err, n * err)]


def _probe_errors(probes: np.ndarray, hull, j: int, n: int) -> list[tuple]:
    """Dimension m > 1: the hull's distance from each probe, unscaled."""
    return [(p, err, None) for p, err in enumerate(estimation.pointwise_error(hull, probes).tolist())]


def run_unit(plan: Plan, n: int, r: int, then: tuple[int, int] | None = None) -> Unit:
    """Replication r at N = n: its ensemble, under the plan's checks (sharing one oracle.ProbeDistances)
    when r = 0, and its error rows at every requested node. then is the (N, seed) whose increments are
    drawn ahead (simulate_ensemble's next_ensemble). A failure raises one line, "experiment aborted at ..."."""
    t0 = time.perf_counter()
    seed = dynamics.derive_seed(plan.config.seed, n, r)
    checks = {}
    if r == 0 and plan.checks:
        distances = oracle.ProbeDistances(plan.check_probes)
        checks = {key: make(distances) for key, make in plan.checks.items()}
    timed = _TimedObservers(checks.values())
    rows, j = [], None
    try:
        ens = dynamics.simulate_ensemble(plan.model, plan.mf, plan.grid, n, seed, next_ensemble=then,
                                         nodes=plan.nodes, observers=[timed] if checks else ())
        t1 = time.perf_counter()
        for j in plan.config.j_indices:
            hull = estimation.hull_estimate(ens, j)
            rows.extend(ErrorRow(n, r, j, p, err, scaled, seed) for p, err, scaled in plan.error(hull, j, n))
        t2 = time.perf_counter()
    except (dynamics.ModelError, geometry.GeometryError,
            geometry.ProjectionSolverError, estimation.EstimationError) as exc:
        where = f"N={n}, replication={r}" + (f", j={j}" if j else "")
        raise RuntimeError(f"experiment aborted at {where}: {exc}") from exc
    diagnostics = {key.removeprefix("diagnostics."): [] for key in DIAGNOSTICS}
    diagnostics.update((name, _plain(check.entries(n))) for name, check in checks.items())
    t3 = time.perf_counter()
    phases = {"simulate": t1 - t0 - timed.seconds, "estimate": t2 - t1, "diagnostics": timed.seconds + t3 - t2}
    return Unit(rows, diagnostics, phases, t3 - t0)


def run_experiment(config: ExperimentConfig) -> ConvergenceReport:
    t_start = time.perf_counter()
    plan = plan_experiment(config)
    # units in row order; each names the next one's (N, seed), whose increments are drawn ahead
    units = [(n, r) for n in config.n_grid for r in range(config.replications)]
    thens = [(n, dynamics.derive_seed(config.seed, n, r)) for n, r in units[1:]] + [None]
    counts = increments.stream_counters()
    done = [run_unit(plan, n, r, then) for (n, r), then in zip(units, thens)]
    t0 = time.perf_counter()
    rows = [row for unit in done for row in unit.rows]
    diagnostics = {key: [e for unit in done for e in unit.diagnostics[key]] for key in done[0].diagnostics}
    phases = {key: sum(unit.phases[key] for unit in done) for key in done[0].phases}
    quantiles = _aggregate_quantiles(rows)
    slopes = _fit_slopes(config, quantiles)
    phases["aggregate"] = time.perf_counter() - t0
    meta = {
        "master_seed": config.seed,
        "wall_clock_s": time.perf_counter() - t_start,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "phases": phases,  # seconds per phase, summed over every ensemble
        "units": [unit.seconds for unit in done],  # wall seconds of each (N, replication) unit, in row order
        # the most one unit held: its kept states and two increment chunks
        "array_bytes": dynamics.ensemble_bytes(config.steps, plan.model.dim, config.n_grid[-1], len(plan.nodes)),
        "stream_processes": increments.stream_processes(),  # this one plus its live increment helpers
        "stream": _stream_meta(counts),
    }
    return ConvergenceReport(
        config=config_echo(config),
        dim=plan.model.dim,
        n_grid=list(config.n_grid),
        rows=rows,
        quantiles=quantiles,
        slopes=slopes,
        probes=plan.probes.tolist() if plan.probes is not None else None,
        diagnostics=diagnostics,
        meta=meta,
    )


class _TimedObservers:
    """One step observer that runs the given ones in order and sums the seconds they take,
    so run_unit counts them as diagnostics, not simulation."""

    def __init__(self, observers):
        self.observers = list(observers)
        self.seconds = 0.0

    def observe(self, *step):
        t0 = time.perf_counter()
        for observer in self.observers:
            observer.observe(*step)
        self.seconds += time.perf_counter() - t0


def _stream_meta(before: dict) -> dict:
    """This process's increment-stream counters since before (increments.COUNTERS),
    and the share of the drawn blocks that helpers drew."""
    counts = {k: v - before[k] for k, v in increments.stream_counters().items()}
    counts["helper_block_share"] = counts["helper_blocks"] / counts["blocks"] if counts["blocks"] else 0.0
    return counts


def _interval_probes(*bodies: geometry.ConvexBody) -> np.ndarray:
    """Five probes at 10-90% of the intersection of the intervals bodies, so in each when it is not empty."""
    lo, hi = np.array([np.concatenate(body.bounding_box()) for body in bodies]).T
    lo, hi = lo.max(), hi.min()
    return np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)[:, None]


def _aggregate_quantiles(rows: list[ErrorRow]) -> dict:
    grouped: dict[tuple[int, int, int], list[ErrorRow]] = {}
    for row in rows:
        grouped.setdefault((row.N, row.j, row.probe_index), []).append(row)
    out = {}
    for key, bucket in grouped.items():
        errs = np.array([b.error for b in bucket])
        vals = {
            "median": float(np.median(errs)),
            "q10": float(np.quantile(errs, 0.10)),
            "q90": float(np.quantile(errs, 0.90)),
        }
        if bucket[0].scaled_error is not None:
            vals["scaled_median"] = float(np.median([b.scaled_error for b in bucket]))
        out[key] = vals
    return out


def _fit_slopes(config: ExperimentConfig, quantiles: dict) -> dict:
    slopes = {}
    probe_indices = sorted({p for (_, _, p) in quantiles})
    for j in config.j_indices:
        for p in probe_indices:
            medians = np.array(
                [quantiles[(n, j, p)]["median"] for n in config.n_grid]
            )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    slope, residual = rate_fit(config.n_grid, medians)
            except ConfigError:
                slope = residual = None
            slopes[(j, p)] = {
                "excluded": int(np.count_nonzero(medians == 0)),
                "slope": slope,
                "residual": residual,
                "n_used": int(np.count_nonzero(medians > 0)),
            }
    return slopes


def config_echo(config: ExperimentConfig) -> dict:
    """Every schema key and every given model/body parameter, as report.json holds them."""
    echo = {key: getattr(config, field) for key, field, _, _ in SCHEMA}
    for prefix, field in PARAMS.items():
        echo.update({f"{prefix}.{k}": v for k, v in sorted(getattr(config, field).items())})
    return _plain(echo)


def _plain(value):
    """value as report.json reads it back, numpy arrays as lists."""
    return json.loads(json.dumps(value, default=np.ndarray.tolist))


# ---------------------------------------------------------------------------
# emission


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: ConvergenceReport) -> str:
    lines = [CSV_HEADER]
    for row in sorted(report.rows, key=lambda row: row[:4]):
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_report(
    report: ConvergenceReport, out: str | Path, formats: tuple[str, ...] = ("csv", "json")
) -> list[Path]:
    """Write report files under the output directory; returns the paths."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        if "csv" in formats:
            path = out_dir / "report.csv"
            path.write_text(render_csv(report))
            written.append(path)
        if "json" in formats:
            path = out_dir / "report.json"
            path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
            written.append(path)
        return written
    except OSError as exc:
        raise RuntimeError(f"failed to write report under {out_dir}: {exc}") from exc


# ---------------------------------------------------------------------------
# flat key-value config files


def parse_config_text(text: str) -> dict[str, str]:
    """Parse 'key = value' lines with # comments into a flat dict."""
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        flat[key] = value.strip()
    return flat


def config_from_flat(flat: dict[str, str], overrides: dict | None = None) -> ExperimentConfig:
    flat = dict(flat)
    if overrides:
        flat.update({k: str(v) for k, v in overrides.items() if v is not None})
    params: dict[str, dict] = {field: {} for field in PARAMS.values()}
    for key, text in flat.items():
        prefix, _, name = key.partition(".")
        if key in _KEYS:
            continue
        if prefix not in PARAMS or not name:
            raise ConfigError(f"unknown config key {key!r}")
        params[PARAMS[prefix]][name] = _parse(key, _param, text)
    fields = {}
    for key, field, parse, default in SCHEMA:
        if key not in flat and default is None:
            raise ConfigError(f"missing required config key {key!r}")
        fields[field] = _parse(key, parse, flat.get(key, default))
    return ExperimentConfig(**fields, **params)


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_flat(parse_config_text(text), overrides)
