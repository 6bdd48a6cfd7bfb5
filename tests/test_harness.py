import contextlib
import dataclasses
import fcntl
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullsim import cli, dynamics, estimation, geometry, harness, increments, oracle
from hullsim.increments import INCREMENT_BLOCK
from hullsim.harness import (
    CSV_HEADER,
    PARAMS,
    SCHEMA,
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    config_echo,
    config_from_flat,
    default_probes,
    emit_report,
    load_config,
    parse_config_text,
    rate_fit,
    render_csv,
    run_experiment,
)
from hullsim.geometry import Ball, HPolytope

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIG_DIR.parent / "src"


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        label="small",
        model_kind="ou",
        model_params={"theta": 1.0, "sigma": 0.5},
        x0=np.array([0.0]),
        mf_kind="constant_interval",
        mf_params={"lo": -1.0, "hi": 1.0},
        horizon=1.0,
        steps=10,
        n_grid=[20, 40, 80],
        replications=5,
        seed=7,
        j_indices=[5, 10],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIG_TEXT = """
# comment line
label = demo
model.kind = ou
model.theta = 1.0
model.sigma = 0.5
x0 = 0.0
mf.kind = constant_interval
mf.lo = -1.0
mf.hi = 1.0
grid.horizon = 1.0
grid.steps = 10
n_grid = 20 40 80
replications = 3
seed = 11
j_indices = 10
"""


BALL_CONFIG_TEXT = """
label = ball
model.kind = ou
model.theta = 1.0
model.sigma = 0.3
x0 = 0.0 0.0
mf.kind = shrinking_ball
mf.center = 0.0 0.0
mf.r0 = 1.0
mf.rate = 0.3
grid.horizon = 1.0
grid.steps = 10
n_grid = 10 20 40
replications = 2
seed = 1
j_indices = 10
"""

BASE_CONFIG_TEXTS = {"interval": CONFIG_TEXT, "ball": BALL_CONFIG_TEXT}


class TestRateFit:
    def test_inverse_law(self):
        n = [100, 1000, 10000]
        slope, residual = rate_fit(n, [5.0 / v for v in n])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-20)

    def test_inverse_sqrt_law(self):
        n = [100, 1000, 10000]
        slope, _ = rate_fit(n, [2.0 / np.sqrt(v) for v in n])
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_constant_errors(self):
        slope, _ = rate_fit([10, 100, 1000], [0.3, 0.3, 0.3])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_zero_errors_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            slope, _ = rate_fit([10, 100, 1000], [1.0, 0.1, 0.0])
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            rate_fit([10, 100], [1.0, 0.1])
        with pytest.raises(ConfigError):
            rate_fit([10, 100, 1000], [1.0, 0.0, 0.0])

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigError, match="^errors must be nonnegative$"):
            rate_fit([10, 100, 1000], [1.0, -0.1, 0.01])

    @given(
        st.floats(-2.0, -0.05),
        st.floats(0.1, 50.0),
        st.integers(3, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_recovers_exact_power_laws(self, exponent, coeff, n_points):
        n_values = np.logspace(2, 5, n_points)
        errors = coeff * n_values**exponent
        slope, residual = rate_fit(n_values, errors)
        assert slope == pytest.approx(exponent, abs=1e-9)
        assert residual == pytest.approx(0.0, abs=1e-16)


class TestConfigParsing:
    def test_round_trip(self):
        config = config_from_flat(parse_config_text(CONFIG_TEXT))
        assert config.label == "demo"
        assert config.model_params == {"theta": 1.0, "sigma": 0.5}
        assert config.n_grid == [20, 40, 80]
        assert config.j_indices == [10]

    def test_comment_and_blank_lines_ignored(self):
        flat = parse_config_text("a = 1\n\n# note\nb = 2  # trailing\n")
        assert flat == {"a": "1", "b": "2"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_flat(parse_config_text(CONFIG_TEXT + "\nbogus = 1\n"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            config_from_flat({"model.kind": "ou"})

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            config_from_flat(parse_config_text(CONFIG_TEXT.replace("seed = 11", "seed = abc")))

    def test_descending_n_grid_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_grid=[100, 50])

    def test_empty_x0_rejected(self):
        with pytest.raises(ConfigError, match="^x0 must hold one number per dimension$"):
            small_config(x0=np.array([]))

    def test_probe_list_parsing(self):
        text = CONFIG_TEXT + "probes = 0.1 0.2 ; -0.3 0.4\n"
        config = config_from_flat(parse_config_text(text))
        np.testing.assert_allclose(config.probes, [[0.1, 0.2], [-0.3, 0.4]])

    def test_overrides_win(self):
        config = config_from_flat(parse_config_text(CONFIG_TEXT), {"seed": 99})
        assert config.seed == 99

    @staticmethod
    def physical_memory(monkeypatch, megabytes):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": megabytes * 2**20 // 4096}
        monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)

    def test_row_guard_counts_one_row_per_probe(self, monkeypatch):
        # 2 * 1000 * 2 units and nodes hold 4000 rows; the eight default probes make 32000
        self.physical_memory(monkeypatch, 1)
        with pytest.raises(ConfigError, match="replications: the error rows"):
            small_config(
                model_params={"theta": 2.0, "sigma": 0.3}, x0=np.zeros(2), mf_kind="constant_ball",
                mf_params={"center": np.zeros(2), "radius": 1.0}, n_grid=[20, 40], replications=1000,
            )

    def test_unit_guard_counts_the_increments_and_the_look_ahead(self, monkeypatch):
        # at N = 10000 the stepped and the posted chunk of 4096 copies and 20 increment
        # steps each take 1.31072 MB, with the states at j_indices 5 and 10 1.47072 MB
        self.physical_memory(monkeypatch, 1)
        with pytest.raises(ConfigError, match="one ensemble's arrays would take 1470720 bytes"):
            small_config(steps=20, n_grid=[100, 10000])

    @pytest.mark.parametrize("diagnostic", ["run_step_bound", "run_hitting"])
    def test_unit_guard_counts_a_diagnostic_run_like_a_plain_one(self, monkeypatch, diagnostic):
        # the diagnostics read replication 0's steps as they are made, so it keeps no step
        # record: 2 MB holds its 1.47072 MB (states at j_indices 5 and 10, two chunks of 4096
        # copies and 20 steps), and at 1 MB the message counts those bytes
        self.physical_memory(monkeypatch, 2)
        small_config(steps=20, n_grid=[100, 10000], **{diagnostic: True})
        self.physical_memory(monkeypatch, 1)
        with pytest.raises(ConfigError) as caught:
            small_config(steps=20, n_grid=[100, 10000], **{diagnostic: True})
        assert str(caught.value) == "one ensemble's arrays would take 1470720 bytes, more than physical memory"


def plain(value):
    """A parsed config value as report.json holds it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


class TestSchema:
    def test_every_key_parses(self):
        flat = parse_config_text(CONFIG_TEXT)
        overrides = {key: default for key, _, _, default in SCHEMA if key not in flat}
        assert None not in overrides.values()  # CONFIG_TEXT sets every required key
        config = config_from_flat(flat, overrides)
        echo = config_echo(config)
        for key, field, parse, _ in SCHEMA:
            expected = plain(parse({**flat, **overrides}[key]))
            assert plain(getattr(config, field)) == expected
            assert echo[key] == expected

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("e*.cfg")))
    def test_echo_keeps_every_shipped_key_and_value(self, name):
        config = load_config(CONFIG_DIR / name)
        echo = config_echo(config)
        assert json.loads(json.dumps(echo)) == echo
        parsers = {key: parse for key, _, parse, _ in SCHEMA}
        for key, text in parse_config_text((CONFIG_DIR / name).read_text()).items():
            if key in parsers:
                assert echo[key] == plain(parsers[key](text))
            else:  # a model or body parameter: one number, or a list of them
                numbers = [float(tok) for tok in text.split()]
                assert echo[key] == (numbers[0] if len(numbers) == 1 else numbers)
        params = {f"{prefix}.{k}" for prefix, f in PARAMS.items() for k in getattr(config, f)}
        assert set(echo) == {key for key, *_ in SCHEMA} | params
        assert echo["probe_margin"] == 0.01 and echo["x0"] == [0.0] * config.x0.size

    def test_schema_lists_every_key_field_in_declaration_order(self):
        keyed = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in PARAMS.values()]
        assert [field for _, field, _, _ in SCHEMA] == keyed
        assert [key for key, *_ in SCHEMA] == [  # the key order of report.json's config
            "label", "model.kind", "mf.kind", "grid.horizon", "grid.steps", "n_grid", "replications",
            "seed", "j_indices", "probe_margin", "x0", "probes", "out", "format",
            "diagnostics.step_bound", "diagnostics.hitting",
        ]

    def test_diagnostics_are_the_schema_diagnostics_keys_in_order(self):
        assert list(harness.DIAGNOSTICS) == [key for key, *_ in SCHEMA if key.startswith("diagnostics.")]

    def test_absent_label_is_experiment_in_a_file_and_a_construction(self):
        flat = parse_config_text(CONFIG_TEXT)
        del flat["label"]
        built = small_config()
        given = {f.name: getattr(built, f.name) for f in dataclasses.fields(built)
                 if f.name not in ("label", "model_params", "mf_params")}
        constructed = ExperimentConfig(**given)
        assert config_from_flat(flat).label == constructed.label == "experiment"
        assert constructed.model_params == constructed.mf_params == {}

    def test_large_seed_is_exact(self):
        seed = 12345678901234567891  # above 2**53: a float would round it
        flat = parse_config_text(CONFIG_TEXT)
        assert config_from_flat(flat, {"seed": seed}).seed == seed
        assert config_from_flat({**flat, "seed": str(seed)}).seed == seed
        assert config_from_flat({**flat, "n_grid": "1e2 2.0e2"}).n_grid == [100, 200]
        with pytest.raises(ConfigError, match="seed: expected integers"):
            config_from_flat({**flat, "seed": "1.5"})


def readme_table(header: str) -> dict[str, list[str]]:
    """The README table under the row `header`: first cell (backticks dropped) -> the other cells."""
    lines = (CONFIG_DIR.parent / "README.md").read_text().splitlines()
    start = lines.index(header) + 2  # past the header and its separator
    rows = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        first, *rest = [cell.strip() for cell in line.strip("|").split("|")]
        rows[first.strip("`")] = rest
    return rows


def readme_params(cell: str) -> dict[str, tuple[float, bool]]:
    """`name = default` entries -> (default, per axis); "(per axis)" marks every entry since the last marker."""
    *per_axis, scalar = cell.split("(per axis)")
    return {name: (float(value), marked)
            for part, marked in [(p, True) for p in per_axis] + [(scalar, False)]
            for name, value in re.findall(r"`(\w+) = ([^`]+)`", part)}


class TestReadmeTables:
    def test_config_keys_and_absent_texts_match_the_schema(self):
        documented = {key: "required" if absent is None else "none" if absent == "" else f"`{absent}`"
                      for key, _, _, absent in SCHEMA}
        documented.update({f"{prefix}.<param>": "per kind" for prefix in PARAMS})
        table = readme_table("| key | default | value |")
        assert {key: cells[0] for key, cells in table.items()} == documented

    @pytest.mark.parametrize("header, registry", [
        ("| kind | parameters | drift, diffusion |", dynamics.MODELS),
        ("| kind | parameters | body at time t |", dynamics.BODIES),
    ])
    def test_kinds_and_default_parameters_match_the_registry(self, header, registry):
        table = readme_table(header)
        assert list(table) == list(registry)
        for kind, (defaults, _) in registry.items():
            expected = {name: (float(value), isinstance(value, dynamics.PerAxis)) for name, value in defaults.items()}
            assert readme_params(table[kind][0]) == expected, kind


class TestProbes:
    def test_default_ring_count_2d(self):
        probes = default_probes(Ball(np.zeros(2), 1.0))
        assert probes.shape == (8, 2)
        np.testing.assert_allclose(np.linalg.norm(probes, axis=1), 0.8, atol=1e-12)

    def test_default_ring_polytope(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        square = HPolytope(normals, np.ones(4))
        probes = default_probes(square)
        assert np.max(np.abs(probes)) <= 0.8 + 1e-9

    def test_exterior_probe_rejected(self):
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.array([0.0, 0.0]),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            probes=np.array([[0.999, 0.0]]),
        )
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_x0_outside_rejected(self):
        config = small_config(x0=np.array([3.0]))
        with pytest.raises(ConfigError):
            run_experiment(config)


class TestRunExperiment:
    def test_row_bookkeeping_1d(self):
        config = small_config()
        report = run_experiment(config)
        assert len(report.rows) == len(config.n_grid) * config.replications * len(config.j_indices)
        assert all(r.probe_index == -1 for r in report.rows)
        assert all(r.scaled_error == pytest.approx(r.N * r.error) for r in report.rows)

    def test_1d_ball_error_is_never_negative(self):
        # the copies pile up at both ends, which Ball.project rounds about 1 ulp
        # outside; the interval error used to read -2.2e-16 there at N = 10000
        config = small_config(
            model_params={"theta": 0.0, "sigma": 2.0},
            x0=np.array([0.1]),
            mf_kind="constant_ball",
            mf_params={"center": 0.1, "radius": 1.3},
            steps=20,
            n_grid=[100, 1000, 10000],
            j_indices=[20],
        )
        report = run_experiment(config)
        assert all(r.error >= 0 for r in report.rows)
        slope = report.slopes[(20, -1)]
        assert slope["excluded"] + slope["n_used"] == len(config.n_grid)

    def test_row_bookkeeping_2d(self):
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.array([0.0, 0.0]),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 40, 80],
            j_indices=[10],
        )
        report = run_experiment(config)
        n_probes = len(report.probes)
        assert n_probes == 8
        assert len(report.rows) == 3 * 5 * 1 * n_probes
        assert all(r.scaled_error is None for r in report.rows)

    def test_one_pointwise_error_call_per_estimate(self, monkeypatch):
        estimates, calls = [], []
        hull_estimate, pointwise_error = estimation.hull_estimate, estimation.pointwise_error

        def estimate_spy(ens, j):
            estimates.append((ens.n_copies, j, hull_estimate(ens, j)))
            return estimates[-1][2]

        def error_spy(hull, x):
            n, j, last = estimates[-1]
            assert hull is last
            calls.append((n, j, np.shape(x)))
            return pointwise_error(hull, x)

        monkeypatch.setattr(estimation, "hull_estimate", estimate_spy)
        monkeypatch.setattr(estimation, "pointwise_error", error_spy)
        config = small_config(
            x0=np.array([0.0, 0.0]),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            replications=2,
        )
        report = run_experiment(config)
        assert calls == [
            (n, j, (8, 2)) for n in config.n_grid for _ in range(2) for j in config.j_indices
        ]
        assert len(report.rows) == 8 * len(calls)
        assert all(type(r.error) is float for r in report.rows)

    def test_replications_use_distinct_streams(self):
        report = run_experiment(small_config())
        by_rep = {}
        for row in report.rows:
            by_rep.setdefault(row.replication, []).append(row.error)
        assert by_rep[0] != by_rep[1]

    def test_quantiles_ordered(self):
        report = run_experiment(small_config())
        for vals in report.quantiles.values():
            assert vals["q10"] <= vals["median"] <= vals["q90"]

    def test_deterministic_given_config(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert render_csv(a) == render_csv(b)

    def test_diagnostics_attached_when_enabled(self):
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.array([0.0, 0.0]),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 40],
            run_step_bound=True,
            run_hitting=True,
            j_indices=[10],
        )
        report = run_experiment(config)
        assert len(report.diagnostics["step_bound"]) == 2  # one per copy count
        assert len(report.diagnostics["hitting"]) == 2 * 8
        for entry in report.diagnostics["step_bound"]:
            assert entry["n_violations"] == 0

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_every_unit_keeps_only_the_estimated_nodes(self, monkeypatch, dims, check):
        # the diagnostics read replication 0's steps as they are made, so no unit keeps a
        # step record or a node it does not estimate
        simulate = harness.dynamics.simulate_ensemble
        kept = []

        def spy(*args, **kwargs):
            ens = simulate(*args, **kwargs)
            kept.append((ens.n_copies, ens.nodes, ens.pre_projection))
            return ens

        monkeypatch.setattr(harness.dynamics, "simulate_ensemble", spy)
        shape = {} if dims == 1 else dict(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.zeros(2),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
        )
        config = small_config(n_grid=[20, 40], replications=3, j_indices=[10, 5], run_step_bound=check,
                              run_hitting=check, **shape)
        report = run_experiment(config)
        assert kept == [(n, (5, 10), None) for n in (20, 40) for r in range(3)]
        assert len(report.diagnostics["step_bound"]) == (2 if check else 0)
        assert len(report.diagnostics["hitting"]) == (2 * 8 if check and dims == 2 else 0)

    def test_each_ensemble_is_dropped_before_the_next_is_simulated(self, monkeypatch):
        # so the caller never holds one unit's kept states and the next one's at once
        simulate = harness.dynamics.simulate_ensemble
        refs, alive = [], []

        def spy(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            ens = simulate(*args, **kwargs)
            refs.append(weakref.ref(ens))
            return ens

        monkeypatch.setattr(harness.dynamics, "simulate_ensemble", spy)
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.zeros(2),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 40],
            replications=2,
            run_step_bound=True,
            run_hitting=True,
        )
        run_experiment(config)
        assert alive == [0, 0, 0, 0]

    def test_meta_phases_account_for_run_time(self, tmp_path):
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.array([0.0, 0.0]),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 40],
            run_step_bound=True,
            run_hitting=True,
            j_indices=[10],
        )
        report = run_experiment(config)
        phases = report.meta["phases"]
        assert list(phases) == ["simulate", "estimate", "diagnostics", "aggregate"]
        assert all(v >= 0 for v in phases.values())
        assert phases["diagnostics"] > 0
        assert sum(phases.values()) <= report.meta["wall_clock_s"]
        emit_report(report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["meta"]["phases"] == phases
        assert "phases" not in (tmp_path / "report.csv").read_text()

    def test_meta_units_times_every_unit_in_row_order(self, tmp_path):
        # one wall time per (N, replication) unit, in report.json only
        report = run_experiment(small_config(replications=2, run_step_bound=True))
        units = report.meta["units"]
        assert len(units) == 3 * 2
        assert all(seconds > 0 for seconds in units)
        assert sum(units) <= report.meta["wall_clock_s"]
        emit_report(report, tmp_path)
        assert json.loads((tmp_path / "report.json").read_text())["meta"]["units"] == units
        assert "units" not in (tmp_path / "report.csv").read_text()

    def test_observer_time_counts_as_diagnostics(self, monkeypatch):
        # each observed step of replication 0 sleeps 2 ms inside the hitting count: that
        # time is in the diagnostics phase and, since the phases sum to at most the wall
        # clock, not in the simulate phase too
        observe, slept = oracle.HittingCount.observe, []

        def slow(self, *step):
            t0 = time.perf_counter()
            time.sleep(0.002)
            observe(self, *step)
            slept.append(time.perf_counter() - t0)

        monkeypatch.setattr(oracle.HittingCount, "observe", slow)
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.zeros(2),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 40],
            replications=2,
            run_hitting=True,
        )
        report = run_experiment(config)
        phases = report.meta["phases"]
        assert len(slept) == 2 * 10
        assert phases["diagnostics"] >= sum(slept) >= 0.04
        assert sum(phases.values()) <= report.meta["wall_clock_s"]

    @pytest.mark.parametrize("dims", [1, 2])
    def test_check_diagnostics_equal_the_record_functions(self, dims):
        # replication 0's diagnostics equal the public one-call checks on the same
        # ensemble simulated again, at an N of three chunks
        shape = {} if dims == 1 else dict(
            model_kind="tanh_sigma",
            model_params={"theta": 1.0, "sigma0": 0.4, "sigma1": 0.15},
            x0=np.zeros(2),
            mf_kind="constant_square_hpoly",
            mf_params={"half_width": 1.0},
        )
        big = 2 * dynamics.STEP_CHUNK + 17
        config = small_config(n_grid=[20, big], replications=2, run_step_bound=True, run_hitting=True,
                              **shape)
        report = run_experiment(config)
        model, mf = harness.build_model(config), harness.build_multifunction(config)
        grid = dynamics.TimeGrid(config.horizon, config.steps)
        probes = (harness._interval_probes(mf(grid.node(10))) if dims == 1
                  else harness.resolve_probes(config, mf, grid))
        constants = oracle.step_bound_constants(model, mf, grid, probes)
        step_bound, hitting = [], []
        for n in config.n_grid:
            seed = dynamics.derive_seed(config.seed, n, 0)
            rep = oracle.step1_bound_check(model, mf, grid, n, seed, probes, constants=constants)
            step_bound.append({"N": n, **harness._plain(dataclasses.asdict(rep))})
            if dims > 1:
                hits = oracle.hitting_frequency(model, mf, grid, n, seed, probes)
                hitting.extend({"N": n, "probe_index": p, **harness._plain(dataclasses.asdict(hit))}
                               for p, hit in enumerate(hits))
        assert report.diagnostics == {"step_bound": step_bound, "hitting": hitting}
        assert step_bound[-1]["n_checks"] == big * 10 * len(probes)

    def test_check_unit_reuses_the_two_shared_buffers(self, helper_pool):
        # the observers keep no view of a chunk's increments, so every chunk of the three-chunk
        # --check unit reuses the one generation's two buffers: a view of chunk 1's increments
        # kept past its steps would leave no free buffer for chunk 3, posted as chunk 2 is joined
        helper_pool(cpus=2)
        config = small_config(
            model_kind="tanh_sigma",
            model_params={"theta": 1.0, "sigma0": 0.4, "sigma1": 0.15},
            x0=np.zeros(2),
            mf_kind="constant_square_hpoly",
            mf_params={"half_width": 1.0},
            steps=5,
            j_indices=[5],
            n_grid=[3 * dynamics.STEP_CHUNK],
            replications=2,
            run_step_bound=True,
            run_hitting=True,
        )
        report = run_experiment(config)
        assert report.diagnostics["step_bound"] and report.diagnostics["hitting"]
        assert report.meta["stream"]["buffers_made"] == 2

    @pytest.mark.parametrize("check", [False, True])
    def test_meta_array_bytes_is_the_largest_unit(self, tmp_path, check):
        # N = 40, m = 2, 10 steps: 640 bytes for the kept node and 2 * 6400 for the stepped
        # and the posted chunk of increments (all 40 copies); the --check unit holds the same
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_CONFIG_TEXT)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)] + ["--check"] * check) == 0
        meta = json.loads((out / "report.json").read_text())["meta"]
        assert meta["array_bytes"] == 640 + 2 * 6400

    def test_meta_counts_stream_processes_and_the_csv_does_not_change(self, helper_pool, tmp_path):
        config = small_config(n_grid=[20, 40, 2 * INCREMENT_BLOCK], replications=2,
                              run_step_bound=True)
        outputs = []
        for cpus in (1, 2):
            helper_pool(cpus)
            report = run_experiment(config)
            emit_report(report, tmp_path / str(cpus))
            meta = json.loads((tmp_path / str(cpus) / "report.json").read_text())["meta"]
            assert meta["stream_processes"] == report.meta["stream_processes"] == cpus
            outputs.append((tmp_path / str(cpus) / "report.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_look_ahead_keeps_the_csv_of_a_2d_run(self, helper_pool, caller_draws_half, tmp_path):
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.zeros(2),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 2 * INCREMENT_BLOCK],
            replications=3,
            j_indices=[10],
            run_step_bound=True,
        )
        outputs, streams = [], []
        for cpus in (1, 2):
            helper_pool(cpus)
            emit_report(run_experiment(config), tmp_path / str(cpus))
            outputs.append((tmp_path / str(cpus) / "report.csv").read_bytes())
            streams.append(json.loads((tmp_path / str(cpus) / "report.json").read_text())["meta"]["stream"])
        assert outputs[0] == outputs[1]
        one, two = streams
        # the three units at N = 512 join the draws posted by the unit before each
        assert (one["lookahead_joined"], two["lookahead_joined"]) == (0, 3)
        assert one["lookahead_cancelled"] == two["lookahead_cancelled"] == 0
        assert one["helper_block_share"] == 0.0 < two["helper_block_share"] <= 1.0
        # every unit's blocks; the step-bound check reads replication 0's kept increments
        blocks = 3 * 1 + 3 * 2
        assert one["blocks"] == two["blocks"] == blocks
        assert two["helper_blocks"] <= blocks

    def test_stream_seconds_are_finite_and_leave_the_csv(self, helper_pool, caller_draws_half, tmp_path):
        config = small_config(n_grid=[20, 2 * INCREMENT_BLOCK], replications=3)
        outputs = []
        for cpus in (1, 2):
            helper_pool(cpus)
            report = run_experiment(config)
            emit_report(report, tmp_path / str(cpus))
            outputs.append((tmp_path / str(cpus) / "report.csv").read_bytes())
            stream = json.loads((tmp_path / str(cpus) / "report.json").read_text())["meta"]["stream"]
            assert stream == report.meta["stream"]
            for key in ("caller_draw_s", "helper_wait_s"):
                assert np.isfinite(stream[key]) and stream[key] >= 0
            assert 0 < stream["caller_draw_s"] <= report.meta["phases"]["simulate"]
            assert (stream["helper_blocks"] > 0) == (cpus == 2)
        assert outputs[0] == outputs[1] == render_csv(run_experiment(config)).encode()


class TestRunUnit:
    """run_experiment is plan_experiment, then run_unit per (N, replication) unit in row
    order; a unit's rows and diagnostics entries depend on nothing but the plan and (N, r)."""

    @staticmethod
    def config(dims):
        shape = {} if dims == 1 else dict(
            model_kind="tanh_sigma",
            model_params={"theta": 1.0, "sigma0": 0.4, "sigma1": 0.15},
            x0=np.zeros(2),
            mf_kind="constant_square_hpoly",
            mf_params={"half_width": 1.0},
        )
        return small_config(n_grid=[20, 40, 2 * INCREMENT_BLOCK], replications=2, j_indices=[10, 5],
                            run_step_bound=True, run_hitting=True, **shape)

    @staticmethod
    def written(report, n, r):
        """The rows and diagnostics entries report holds for unit (n, r): entries only at r = 0."""
        rows = [row for row in report.rows if (row.N, row.replication) == (n, r)]
        entries = {key: [e for e in listed if r == 0 and e["N"] == n] for key, listed in report.diagnostics.items()}
        return rows, entries

    @pytest.mark.parametrize("dims", [1, 2])
    def test_each_unit_returns_what_run_experiment_writes_for_it(self, dims):
        config = self.config(dims)
        report = run_experiment(config)
        plan = harness.plan_experiment(config)
        for n in config.n_grid:
            for r in range(config.replications):
                unit = harness.run_unit(plan, n, r)
                assert (unit.rows, unit.diagnostics) == self.written(report, n, r)
                assert unit.rows and (r > 0) == (unit.diagnostics["step_bound"] == [])
                assert list(unit.phases) == ["simulate", "estimate", "diagnostics"]
                assert sum(unit.phases.values()) == pytest.approx(unit.seconds)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_units_in_reverse_with_wrong_look_aheads_return_the_same(self, helper_pool, caller_draws_half, dims):
        # each unit names its row-order successor as the one to draw ahead, never the unit
        # run next: the two that name a unit at N = 512 post its first chunk (a smaller draw
        # posts nothing), and the unit run next ends it unjoined
        pool = helper_pool(cpus=2)
        config = self.config(dims)
        report = run_experiment(config)
        plan = harness.plan_experiment(config)
        units = [(n, r) for n in config.n_grid for r in range(config.replications)]
        before = increments.stream_counters()["lookahead_cancelled"]
        try:
            for i in reversed(range(len(units))):
                n, r = units[i]
                after = units[(i + 1) % len(units)]
                unit = harness.run_unit(plan, n, r, then=(after[0], dynamics.derive_seed(config.seed, *after)))
                assert (unit.rows, unit.diagnostics) == self.written(report, n, r)
        finally:
            if pool.posted is not None:
                pool.end(join=False)
        assert increments.stream_counters()["lookahead_cancelled"] - before == 2

    def test_the_plan_simulates_nothing(self, monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("the plan simulated an ensemble")

        monkeypatch.setattr(dynamics, "simulate_ensemble", simulated)
        plan = harness.plan_experiment(self.config(2))
        assert list(plan.checks) == ["step_bound", "hitting"]
        assert plan.nodes == [5, 10] and len(plan.probes) == 8

    @pytest.mark.parametrize("dims", [1, 2])
    def test_no_diagnostic_builds_no_check_probes(self, monkeypatch, dims):
        # without a diagnostic the plan builds neither the 1D check probes nor a second
        # auto ring: default_probes runs once, for the error probes
        calls = []

        def counting(name):
            function = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *args: calls.append(name) or function(*args))

        counting("_interval_probes")
        counting("default_probes")
        plan = harness.plan_experiment(dataclasses.replace(self.config(dims), run_step_bound=False, run_hitting=False))
        assert plan.checks == {} and plan.check_probes is None
        assert calls == ([] if dims == 1 else ["default_probes"])

    def test_hitting_alone_in_1d_builds_no_probe_distances(self, monkeypatch):
        # the hitting check needs m > 1, so replication 0 of a 1D run observes nothing, and
        # the plan builds no check probes
        made, probed = [], []
        monkeypatch.setattr(oracle, "ProbeDistances", made.append)
        monkeypatch.setattr(harness, "_interval_probes", lambda *bodies: probed.append(bodies))
        plan = harness.plan_experiment(dataclasses.replace(self.config(1), run_step_bound=False))
        unit = harness.run_unit(plan, 20, 0)
        assert plan.checks == {} and plan.check_probes is None and made == [] and probed == []
        assert unit.diagnostics == {"step_bound": [], "hitting": []}

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("on", [(), ("step_bound",), ("hitting",), ("step_bound", "hitting")])
    def test_report_lists_every_diagnostic_in_table_order(self, tmp_path, dims, on):
        config = dataclasses.replace(self.config(dims), n_grid=[20, 40, 80], replications=1,
                                     run_step_bound="step_bound" in on, run_hitting="hitting" in on)
        emit_report(run_experiment(config), tmp_path, ("json",))
        diagnostics = json.loads((tmp_path / "report.json").read_text())["diagnostics"]
        assert list(diagnostics) == ["step_bound", "hitting"]
        ran = [name for name in on if dims > 1 or name != "hitting"]
        assert [name for name, entries in diagnostics.items() if entries] == ran

    def test_a_failing_unit_is_one_runtime_error_line(self, monkeypatch):
        def capped(estimate, x):
            raise geometry.ProjectionSolverError("min-norm-point solver exceeded its iteration cap", residual=0.25)

        plan = harness.plan_experiment(self.config(2))
        monkeypatch.setattr(estimation, "pointwise_error", capped)  # looked up when the unit calls it
        with pytest.raises(RuntimeError) as caught:
            harness.run_unit(plan, 40, 0)
        assert str(caught.value) == (
            "experiment aborted at N=40, replication=0, j=10: "
            "min-norm-point solver exceeded its iteration cap (residual=2.500e-01)"
        )
        assert isinstance(caught.value.__cause__, geometry.ProjectionSolverError)


class TestEmission:
    def test_csv_header_exact(self):
        assert CSV_HEADER == "N,replication,j,probe_index,error,scaled_error,seed"

    def test_empty_report_is_header_only(self):
        report = ConvergenceReport(
            config={}, dim=1, n_grid=[], rows=[], quantiles={},
            slopes={}, probes=None, diagnostics={}, meta={},
        )
        assert render_csv(report) == CSV_HEADER + "\n"

    def test_csv_row_count_and_sorting(self):
        report = run_experiment(small_config())
        lines = render_csv(report).strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.rows)
        keys = [tuple(map(float, l.split(",")[:4])) for l in lines[1:]]
        assert keys == sorted(keys)

    def test_scaled_error_blank_for_2d(self):
        config = small_config(
            model_params={"theta": 2.0, "sigma": 0.3},
            x0=np.array([0.0, 0.0]),
            mf_kind="constant_ball",
            mf_params={"center": np.zeros(2), "radius": 1.0},
            n_grid=[20, 40],
            j_indices=[10],
        )
        csv = render_csv(run_experiment(config))
        row = csv.strip().split("\n")[1].split(",")
        assert row[5] == ""

    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_config())
        paths = emit_report(report, tmp_path / "out")
        assert [p.name for p in paths] == ["report.csv", "report.json"]
        loaded = json.loads((tmp_path / "out" / "report.json").read_text())
        assert loaded == report.to_dict()

    def test_csv_only(self, tmp_path):
        report = run_experiment(small_config())
        paths = emit_report(report, tmp_path / "o", formats=("csv",))
        assert [p.name for p in paths] == ["report.csv"]


class TestCli:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "exp.cfg"
        path.write_text(CONFIG_TEXT + extra)
        return path

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, f"out = {tmp_path / 'results'}\n")
        code = cli.main(["run", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "results" / "report.csv").exists()
        assert (tmp_path / "results" / "report.json").exists()
        assert "median errors" in capsys.readouterr().out

    def test_summary_line_ends_with_the_csv_digest(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:-1] == [f"wrote {out / 'report.csv'}", f"wrote {out / 'report.json'}"]
        meta = json.loads((out / "report.json").read_text())["meta"]
        phases = " ".join(f"{k} {v:.1f}s" for k, v in meta["phases"].items())
        digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        assert lines[-1].startswith(f"demo: {meta['wall_clock_s']:.1f}s ({phases}; "
                                    f"{meta['stream_processes']} stream processes, helpers drew ")
        assert lines[-1].endswith(f" cancelled) csv sha256 {digest}")
        stream = meta["stream"]
        assert (f" the main thread drew for {stream['caller_draw_s']:.1f}s and waited "
                f"{stream['helper_wait_s']:.1f}s for helpers, "
                f"{stream['buffers_made']} shared buffers made, ") in lines[-1]

    def test_reader_closing_the_pipe_early_is_no_error(self, tmp_path):
        # `hullsim run ... | head -1`: a one-page pipe, far more output than it
        # holds (one median line per probe), closed after the first line
        grid = np.linspace(-0.4, 0.4, 15)
        probes = " ; ".join(f"{x:.3f} {y:.3f}" for x in grid for y in grid)
        cfg = tmp_path / "many_probes.cfg"
        cfg.write_text(BALL_CONFIG_TEXT + f"probes = {probes}\n")
        out = tmp_path / "o"
        read_end, write_end = os.pipe()
        fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
        with subprocess.Popen(
            [sys.executable, "-m", "hullsim.cli", "run", "--config", str(cfg), "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
        ) as proc:
            os.close(write_end)
            first = b""
            while not first.endswith(b"\n"):
                byte = os.read(read_end, 1)
                if not byte:  # the run ended before a whole line
                    break
                first += byte
            os.close(read_end)
            _, err = proc.communicate(timeout=120)
        assert first.startswith(b"ball j=10 probe=0: median errors ")
        assert (proc.returncode, err) == (0, b"")
        assert (out / "report.csv").exists() and (out / "report.json").exists()

    @pytest.mark.parametrize("name, extra, reason", [
        ("e1_interval_rate.cfg", "model.sigma = 1e-300", "diffusion matrix is singular at a sampled probe"),
        ("e3_shrinking_ball.cfg", "model.sigma = 1e-300", "diffusion matrix is singular at a sampled probe"),
        # inside the ball at node 5, outside it at node 20
        ("e3_shrinking_ball.cfg", "j_indices = 5\nprobes = 0.8 0.0 ; 0.0 0.5",
         "every probe must lie in the body at every step end"),
    ])
    def test_step_bound_inputs_fail_before_the_first_ensemble(self, tmp_path, capsys, monkeypatch,
                                                              name, extra, reason):
        simulated = []
        simulate = dynamics.simulate_ensemble

        def counted(*args, **kwargs):
            simulated.append(args[3])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(dynamics, "simulate_ensemble", counted)
        cfg = tmp_path / name  # later lines override: a small run, and the bad input
        cfg.write_text((CONFIG_DIR / name).read_text() + f"n_grid = 20 40 80\nreplications = 2\n{extra}\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check"]) == 1
        assert capsys.readouterr().err == f"error: diagnostics.step_bound: {reason}\n"
        assert simulated == [] and not out.exists()
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0  # the check alone needs them
        assert capsys.readouterr().err == "" and simulated == [20, 20, 40, 40, 80, 80]

    def test_check_takes_1d_probes_inside_every_step_ends_interval(self, tmp_path, capsys):
        # a shrinking interval: probes at 10-90% of the interval at node 10 would lie outside the
        # smaller intervals of the steps after it
        cfg = self.write_config(tmp_path, "mf.kind = shrinking_box\nmf.rate = 0.4\ngrid.steps = 20\n"
                                          "j_indices = 10\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--check"]) == 0
        assert capsys.readouterr().err == ""

    def test_check_takes_auto_2d_probes_inside_every_step_ends_body(self, tmp_path, capsys):
        # a shrinking ball: the default ring in the ball at node 10 would lie outside the
        # smaller balls of the steps after it
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_CONFIG_TEXT + "mf.rate = 0.6\ngrid.steps = 20\nn_grid = 100 200 400\n")
        for flags, out in (([], "plain"), (["--check"], "checked")):
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / out), *flags]) == 0
            assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "checked" / "report.json").read_text())
        assert [entry["n_violations"] for entry in report["diagnostics"]["step_bound"]] == [0, 0, 0]
        assert (tmp_path / "checked" / "report.csv").read_bytes() == (tmp_path / "plain" / "report.csv").read_bytes()

    def test_missing_out_is_validation_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg)]) == 1

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.kind = ou\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_nonexistent_config_is_validation_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", "o"]) == 1

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        # a valid config whose output directory lies under a regular file: the
        # run completes and writing the report fails
        cfg = self.write_config(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["run", "--config", str(cfg), "--out", str(blocker / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: failed to write report")

    def test_runtime_error_without_text_is_named_by_its_type(self, tmp_path, capsys, monkeypatch):
        def fail(config):
            raise MemoryError()

        monkeypatch.setattr(harness, "run_experiment", fail)
        cfg = self.write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "runtime error: MemoryError\n"

    @pytest.mark.parametrize(
        "base,key,value",
        [
            ("interval", "model.theta", "abc"),
            ("interval", "grid.horizon", "abc"),
            ("interval", "probe_margin", "abc"),
            ("interval", "grid.horizon", "-1"),
            ("interval", "mf.lo", "1 2"),
            ("ball", "x0", "0 0 0"),
            ("ball", "mf.rate", "2.0"),  # the ball vanishes before the horizon
            ("interval", "mf.bogus", "1"),
            ("interval", "j_indices", ""),
            ("interval", "j_indices", "10 10"),  # a repeated node would double its rows
            ("interval", "model.theta", "1 2"),
            ("interval", "grid.horizon", "inf"),
            ("ball", "probes", "0.1 0.2 ; 0.3"),
            ("ball", "probes", "0.1 0.2 0.3"),
            ("ball", "model.kind", "levy"),
            ("interval", "diagnostics.keep_h", "true"),  # removed key
            ("interval", "diagnostics.hitting_radius", "0.1"),  # removed key
            ("interval", "diagnostics.step_bound", "maybe"),
            ("ball", "diagnostics.hitting", "2"),
            ("interval", "", "1"),  # the line " = 1" has an empty key
            # coordinates whose squares overflow: no numpy warning, one error line
            ("ball", "x0", "1e300 1e300"),
            ("ball", "mf.r0", "1e300"),
            ("interval", "mf.hi", "1e300"),
            ("ball", "probes", "1e300 0.0"),
            # one ensemble's states would take 640 GB
            ("interval", "grid.steps", "1000000000"),
            # its error rows would not fit in physical memory
            ("interval", "replications", "1e300"),
        ],
    )
    def test_bad_input_fails_before_simulating(self, tmp_path, capsys, base, key, value):
        # a later line overrides the base config's value for the same key
        text = BASE_CONFIG_TEXTS[base] + f"{key} = {value}\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not out.exists()
        assert err == self.EXACT_ERRORS.get((key, value), err)

    EXACT_ERRORS = {
        ("diagnostics.step_bound", "maybe"): "error: diagnostics.step_bound: expected a boolean, got 'maybe'\n",
        ("diagnostics.hitting", "2"): "error: diagnostics.hitting: expected a boolean, got '2'\n",
    }

    def test_overflowing_drift_is_one_runtime_error_line(self, tmp_path, capsys):
        # theta = 1e300 flings every copy off the unit ball by about 1e299, a
        # point whose squared norm overflows: it must fail, not be projected
        cfg = tmp_path / "theta.cfg"
        cfg.write_text(BALL_CONFIG_TEXT + "model.theta = 1e300\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("runtime error: experiment aborted at N=10, replication=0: step ")
        assert "pre-projection point is not finite" in err
        assert not out.exists()

    def test_projection_solver_cap_is_one_runtime_error_line(self, tmp_path, capsys, monkeypatch):
        def capped(estimate, x):
            raise geometry.ProjectionSolverError("min-norm-point solver exceeded its iteration cap", residual=0.25)

        monkeypatch.setattr(estimation, "pointwise_error", capped)
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(BALL_CONFIG_TEXT)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "runtime error: experiment aborted at N=10, replication=0, j=10: "
            "min-norm-point solver exceeded its iteration cap (residual=2.500e-01)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("x0, sigma", [("0 0 0", "5e-5"), ("0 0", "1e-6")])
    def test_small_constant_diffusion_runs(self, tmp_path, capsys, x0, sigma):
        # sigma * I is invertible however small sigma is: the step uses it as given
        cfg = tmp_path / "small.cfg"
        cfg.write_text(BALL_CONFIG_TEXT.replace("x0 = 0.0 0.0", f"x0 = {x0}")
                       .replace("mf.center = 0.0 0.0", f"mf.center = {x0}")
                       .replace("model.sigma = 0.3", f"model.sigma = {sigma}")
                       .replace("grid.steps = 10", "grid.steps = 4").replace("j_indices = 10", "j_indices = 4"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check"]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "report.csv").read_text().splitlines()[1:]
        errors = np.array([float(row.split(",")[4]) for row in rows])
        assert errors.size > 0 and np.all(np.isfinite(errors))

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "99"]) == 0
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_c), "--seed", "11"]) == 0
        a = (out_a / "report.csv").read_bytes()
        b = (out_b / "report.csv").read_bytes()
        c = (out_c / "report.csv").read_bytes()
        assert a != b
        assert a == c  # same seed as the config file

    def test_format_csv_only(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "fmt"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
        assert (out / "report.csv").exists()
        assert not (out / "report.json").exists()

    def test_check_flag_adds_diagnostics(self, tmp_path):
        text = CONFIG_TEXT.replace("model.theta = 1.0", "model.theta = 2.0").replace(
            "model.sigma = 0.5", "model.sigma = 0.3"
        ).replace("x0 = 0.0", "x0 = 0.0 0.0").replace(
            "mf.kind = constant_interval", "mf.kind = constant_ball"
        ).replace("mf.lo = -1.0", "mf.center = 0.0 0.0").replace(
            "mf.hi = 1.0", "mf.radius = 1.0"
        ).replace("n_grid = 20 40 80", "n_grid = 20 40")
        cfg = tmp_path / "chk.cfg"
        cfg.write_text(text)
        out = tmp_path / "chk"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check"]) == 0
        data = json.loads((out / "report.json").read_text())
        assert data["diagnostics"]["step_bound"]
        assert data["diagnostics"]["hitting"]

    @pytest.mark.parametrize("base, key", [
        (base, key)
        for base, text in BASE_CONFIG_TEXTS.items()
        for key in [schema_key for schema_key, *_ in SCHEMA] + [
            f"{prefix}.{name}"
            for prefix, registry in (("model", dynamics.MODELS), ("mf", dynamics.BODIES))
            for name in registry[parse_config_text(text)[f"{prefix}.kind"]][0]
        ]
    ])
    def test_extreme_value_exits_cleanly(self, base, key):
        # one key of a tiny config at each extreme value or of the wrong arity,
        # with and without --check; "1 1 1" is the wrong arity for every key of
        # these 1D and 2D configs
        tiny = "n_grid = 4 8 16\nreplications = 2\ngrid.steps = 4\nj_indices = 4\n"  # later lines override
        for value in ["0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "1 1 1"]:
            text = BASE_CONFIG_TEXTS[base] + tiny + f"{key} = {value}\n"
            for check in (False, True):
                with tempfile.TemporaryDirectory() as tmp:
                    cfg, out = Path(tmp) / "extreme.cfg", Path(tmp) / "o"
                    cfg.write_text(text)
                    err = io.StringIO()
                    with warnings.catch_warnings(record=True) as caught, \
                            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                        warnings.simplefilter("always")
                        code = cli.main(["run", "--config", str(cfg), "--out", str(out)] + ["--check"] * check)
                    assert [str(w.message) for w in caught] == []
                    assert code in (0, 1, 2)
                    message = err.getvalue()
                    assert (message == "") if code == 0 else (message.count("\n") == 1 and message.endswith("\n"))
                    if code == 0:
                        rows = (out / "report.csv").read_text().splitlines()[1:]
                        errors = np.array([float(row.split(",")[4]) for row in rows])
                        assert errors.size > 0 and np.all(np.isfinite(errors)) and np.all(errors >= 0)


# A small 2D --check run: state-dependent diffusion, the H-polytope projector,
# and a copy count that is drawn with the helpers.
CHECK_CONFIG_TEXT = """
label = check2d
model.kind = tanh_sigma
model.theta = 1.0
model.sigma0 = 0.4
model.sigma1 = 0.15
x0 = 0.0 0.0
mf.kind = constant_square_hpoly
mf.half_width = 1.0
grid.horizon = 1.0
grid.steps = 10
n_grid = 20 40 600
replications = 2
seed = 5
j_indices = 5 10
"""
# SHA-256 of its report.csv and of its report.json diagnostics (json.dumps with
# sorted keys), as they were when the step-bound check redrew the increments.
CHECK_CSV_SHA256 = "6a5e615f3eb10995cf1cdcb3ed58afeedc7acc9637fd53e034d58db8b7323a9b"
CHECK_DIAGNOSTICS_SHA256 = "f857a22943e1e65b56007b9e5990a42fc2d618d822645177de043ccd8c29be6f"
# SHA-256 of its whole report.json without meta and with the echoed out set to
# None (json.dumps with sorted keys), as written by hand-listed serializers.
CHECK_REPORT_SHA256 = "51859513e9d0a4e687321f2bc03a72f2ad4ddc1a8839f7fb001a05d26ca9f7d4"


def test_check_run_reads_the_kept_increments(monkeypatch, tmp_path):
    redraws = []
    redraw = oracle.gaussian_increments

    def counted(*args, **kwargs):
        redraws.append(args)
        return redraw(*args, **kwargs)

    monkeypatch.setattr(oracle, "gaussian_increments", counted)
    cfg = tmp_path / "check.cfg"
    cfg.write_text(CHECK_CONFIG_TEXT)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--check"]) == 0
    assert redraws == []
    diagnostics = json.loads((out / "report.json").read_text())["diagnostics"]
    assert [(e["N"], e["n_violations"]) for e in diagnostics["step_bound"]] == [(20, 0), (40, 0), (600, 0)]
    assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == CHECK_CSV_SHA256
    text = json.dumps(diagnostics, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHECK_DIAGNOSTICS_SHA256
    report = json.loads((out / "report.json").read_text())
    del report["meta"]
    report["config"]["out"] = None  # this test's temporary directory
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHECK_REPORT_SHA256


class TestDefaultSuiteScript:
    @staticmethod
    def load_script():
        path = CONFIG_DIR.parent / "scripts" / "run_default_suite.py"
        spec = importlib.util.spec_from_file_location("run_default_suite", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("stage", ["run_experiment", "emit_report"])
    def test_runtime_failure_is_one_line(self, stage, tmp_path, monkeypatch, capsys):
        calls = []

        def fail(*args):
            calls.append(args)
            raise RuntimeError("experiment aborted at N=10, replication=0: boom")

        script = self.load_script()
        monkeypatch.setattr(harness, "run_experiment", lambda config: object())
        monkeypatch.setattr(harness, stage, fail)
        assert script.main(["--out-root", str(tmp_path)]) == 2
        assert len(calls) == 1  # the suite stops at the first config that fails
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["runtime error: experiment aborted at N=10, replication=0: boom"]
        assert captured.out == ""

    def test_runtime_error_without_text_is_named_by_its_type(self, tmp_path, monkeypatch, capsys):
        def fail(config):
            raise MemoryError()

        script = self.load_script()
        monkeypatch.setattr(harness, "run_experiment", fail)
        assert script.main(["--out-root", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "runtime error: MemoryError\n"

    def test_each_config_runs_through_the_cli_into_its_stem(self, tmp_path, monkeypatch, capsys):
        run = harness.run_experiment
        monkeypatch.setattr(harness, "run_experiment", lambda config: run(
            dataclasses.replace(config, n_grid=[8, 16, 32], replications=2)))
        script = self.load_script()
        assert script.main(["--out-root", str(tmp_path), "--seed", "3"]) == 0
        summaries = [line for line in capsys.readouterr().out.splitlines() if " csv sha256 " in line]
        assert len(summaries) == len(script.CONFIGS)
        for name, line in zip(script.CONFIGS, summaries):
            out = tmp_path / Path(name).stem
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["seed"] == 3
            assert line.startswith(report["config"]["label"] + ": ")
            assert line.endswith(hashlib.sha256((out / "report.csv").read_bytes()).hexdigest())


# SHA-256 of each default experiment's report.csv at its frozen seed.
FROZEN_CSV_SHA256 = {
    "e1": "b090a956d8e19dd9593fa1a080b1bc77ef55606ae858b49b58846aa267927431",
    "e2": "e153d4449198b89117e1693601b090ab59ba2a9892035969bb9ae1323bac9575",
    "e3": "9c3f222893c1fa02240e76f446e9120eff69427ab0f7c5172eb481116f872591",
    "e4": "07f5a76f8d052ed0c35aad6df5eb360d7e7eb117ba5fbf27480c7a8934cf36bc",
}


def test_default_reports_keep_their_bytes(default_reports):
    """e1-e4 report.csv bytes are pinned across code changes.

    The digests were taken with numpy 2.4.6 and scipy 1.17.1. Other builds may
    draw other random streams (numpy) or build hulls and solve LPs with other
    rounding (scipy: qhull, HiGHS), so a mismatch there is not a regression.
    """
    digests = {
        name: hashlib.sha256(render_csv(report).encode()).hexdigest()
        for name, report in default_reports.items()
    }
    assert digests == FROZEN_CSV_SHA256


# SHA-256 of the diagnostics of e1 and e4 run with --check (json.dumps with
# sorted keys). They read only replication 0, so one replication gives a full
# run's diagnostics.
FROZEN_CHECK_DIAGNOSTICS_SHA256 = {
    "e1": "9930f2f13f64fdb2c90222ecd030da77fd50411f75d8aacafd8995f8cb063d7e",
    "e4": "e9ded2a70d8d490e669d3c8c93cf0c8e709882b4f82d4be54febfffb9024e140",
}


@pytest.mark.parametrize("name", sorted(FROZEN_CHECK_DIAGNOSTICS_SHA256))
def test_default_check_diagnostics_keep_their_bytes(frozen_configs, name):
    config = dataclasses.replace(frozen_configs[name], replications=1, run_step_bound=True, run_hitting=True)
    text = json.dumps(run_experiment(config).diagnostics, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_CHECK_DIAGNOSTICS_SHA256[name]


def test_check_unit_computes_each_probe_distance_once(frozen_configs, monkeypatch):
    # e4's --check unit at N = 4096, one chunk of 20 steps: the two checks share one
    # distance pass per step for h, one for x0, and one more for a step's x only when
    # the last step moved a copy, so that x is not the last h
    config = dataclasses.replace(frozen_configs["e4"], replications=1, run_step_bound=True, run_hitting=True)
    n = 4096
    assert n <= dynamics.STEP_CHUNK and config.steps == 20
    passes, steps = [], []
    plan = harness.plan_experiment(config)
    negated = -plan.check_probes  # a distance pass's offsets; a noise term's are drift(x) delta
    probe_norms, euler_step = oracle.probe_norms, dynamics.euler_step

    def counted(points, offsets, scales=None):
        if np.array_equal(offsets, negated):
            passes.append(points)
        return probe_norms(points, offsets, scales)

    def recorded(model, body, x, z, delta):
        h, x_next = euler_step(model, body, x, z, delta)
        steps.append((x, h, x_next))
        return h, x_next

    monkeypatch.setattr(oracle, "probe_norms", counted)
    monkeypatch.setattr(dynamics, "euler_step", recorded)
    harness.run_unit(plan, n, 0)
    assert len(steps) == 20
    moved = [x_next is not h for _, h, x_next in steps[:-1]]
    assert moved == [not np.array_equal(x_next, h) for _, h, x_next in steps[:-1]]
    expected = [steps[0][0]]
    for j, (x, h, _) in enumerate(steps):
        expected += [x, h] if j and moved[j - 1] else [h]
    assert [id(points) for points in passes] == [id(points) for points in expected]
    assert len(passes) == 20 + 1 + sum(moved)


def test_square_steps_compute_face_values_only_when_a_copy_moves(frozen_configs, monkeypatch):
    # e4 at N = 4096, one chunk of 20 steps: for the square the box screen passes exactly
    # when every pre-projection point is inside, so a step computes the batch's face
    # values only when the projection moves a copy
    config = dataclasses.replace(frozen_configs["e4"], replications=1)
    n = 4096
    assert n <= dynamics.STEP_CHUNK and config.steps == 20
    plan = harness.plan_experiment(config)
    batches, steps = [], []
    face_values, euler_step = geometry.HPolytope._face_values, dynamics.euler_step

    def counted(self, flat):
        batches.append(flat)
        return face_values(self, flat)

    def recorded(model, body, x, z, delta):
        h, x_next = euler_step(model, body, x, z, delta)
        steps.append((h, x_next))
        return h, x_next

    monkeypatch.setattr(geometry.HPolytope, "_face_values", counted)
    monkeypatch.setattr(dynamics, "euler_step", recorded)
    harness.run_unit(plan, n, 0)
    assert len(steps) == 20
    moved = [x_next is not h for h, x_next in steps]
    assert moved == [bool(np.any(np.abs(h) > config.mf_params["half_width"])) for h, _ in steps]
    # the projector's other face values are of its candidates, new arrays
    whole = [flat for flat in batches if any(np.shares_memory(flat, h) for h, _ in steps)]
    assert len(whole) == sum(moved)
