"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest hullbench -q

(from the repository root; the repository's own suite lives under tests/).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workload
from hullsim import dynamics, geometry, harness

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    recorded = [
        S("harness.run_experiment", 0.0, 10.0, -1, 0),
        S("dynamics.simulate_ensemble", 1.0, 3.0, 0, 0),
        S("estimation.pointwise_error", 4.0, 8.0, 0, 0),
        S("geometry.min_norm_point_distance", 5.0, 6.5, 2, 0),
        S("harness.run_experiment", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 2.5, 1.5, 1.0]
    totals = spans.per_run_totals(recorded)
    assert totals[0]["harness.run_experiment"] == {"s": 10.0, "self_s": 4.0, "calls": 1}
    assert totals[1]["harness.run_experiment"]["s"] == 1.0


def test_tracer_records_nesting_and_restores_originals():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in spans.TARGETS}
    patches = spans.Patches()
    tracer = spans.Tracer()
    tracer.install(patches)
    try:
        assert set(spans.installed_hooks().values()) == {"span"}
        model = dynamics.make_model("ou", 1, [0.0], theta=1.0, sigma=0.5)
        mf = dynamics.constant_body(geometry.Interval(-1.0, 1.0))
        dynamics.simulate_ensemble(model, mf, dynamics.TimeGrid(1.0, 4), 8, 1)
    finally:
        patches.restore()
    assert spans.installed_hooks() == {}
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn
    names = [s.name for s in tracer.spans]
    sim = names.index("dynamics.simulate_ensemble")
    steps = [s for s in tracer.spans if s.name == "dynamics.euler_step"]
    assert len(steps) == 4 and all(s.parent == sim for s in steps)
    assert tracer.counts[0]["dynamics.copy_steps"] == 32
    assert tracer.counts[0]["geometry.project.points"] == 32


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (10, None), (11, (100 / 11, 0.0)), (20, (50.0, 9.0)), (100, (90.0, 89.0))],
)
def test_tail_leaves_ten_samples_above(n, expected):
    samples = [float(i) for i in reversed(range(n))]
    assert run.tail(samples) == expected


def test_repeat_count_depends_on_arguments_only():
    wls = workload.WORKLOADS
    assert [workload.repeat_count(wls[name], 20) for name in sorted(wls)] == [3, 12, 5]
    assert workload.repeat_count(wls["interval-ou"], 0) == workload.MIN_REPEATS
    # Every slow oracle unit (one per --check repeat) stays above the tail.
    assert workload.repeat_count(wls["square-hpoly-check"], 600) == workload.MAX_CHECK_REPEATS < 10


def _config(name):
    wl = workload.WORKLOADS[name]
    return harness.load_config(ROOT / wl.config, workload.overrides(wl, workload.DEFAULT_SEED))


def test_check_csv_gate():
    config = _config("interval-ou")
    rows = [
        f"{n},{r},20,-1,{0.01 * (r + 1)!r},{n * 0.01 * (r + 1)!r},7"
        for n in config.n_grid
        for r in range(config.replications)
    ]
    good = "\n".join([workload.CSV_HEADER, *rows]) + "\n"
    units = len(rows)
    assert workload.check_csv(good, config) == (units, 0)
    bad = good.replace(f"1000,3,20,-1,{0.04!r}", "1000,3,20,-1,-0.5")
    assert workload.check_csv(bad, config) == (units, 1)
    assert workload.check_csv(good.replace(f"{0.02!r},", "nan,", 1), config) == (units, 1)
    assert workload.check_csv("\n".join([workload.CSV_HEADER, *rows[1:]]), config) == (units, units)


def test_ball3d_config_is_plain_and_probes_are_interior():
    config = _config("ball3d-state-sigma")
    assert config.seed == workload.DEFAULT_SEED
    assert (config.model_kind, config.model_params) == (
        "tanh_sigma", {"theta": 2.0, "sigma0": 0.3, "sigma1": 0.1})
    assert config.mf_kind == "constant_ball" and config.mf_params["radius"] == 1.0
    assert config.x0.tolist() == [0.0, 0.0, 0.0]
    assert (config.horizon, config.steps, config.n_grid) == (1.0, 20, [200, 2000, 20000])
    assert config.j_indices == [20] and config.probes is None
    assert config.probe_margin == 0.01
    mf = harness.build_multifunction(config)
    probes = harness.resolve_probes(config, mf, dynamics.TimeGrid(config.horizon, config.steps))
    assert probes.shape == (26, 3)
    assert np.all(mf(1.0).interior_margin(probes) >= 0.01)


def _child(name, traced, out):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "hullbench/workload.py", "run", "--workload", name,
         "--repeats", str(workload.MIN_REPEATS), "--traced", str(traced), "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_digest(name, tmp_path):
    wl = workload.WORKLOADS[name]
    text = (ROOT / wl.config).read_text().replace(
        "replications = 100", f"replications = {wl.replications}")
    cfg = tmp_path / "cli.cfg"
    cfg.write_text(text)
    out = tmp_path / "cli"
    cmd = [sys.executable, "-m", "hullsim.cli", "run", "--config", str(cfg), "--out", str(out)]
    if wl.check:
        cmd.append("--check")
    subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                   capture_output=True, check=True, timeout=300)
    return hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()


def test_untraced_run_installs_only_the_unit_clock_and_matches_the_cli(tmp_path):
    untraced = _child("interval-ou", 0, tmp_path / "untraced")
    assert untraced["hooks"] == {"dynamics.simulate_ensemble": "unit_clock"}
    assert untraced["failed"] == 0 and untraced["repeats"] == workload.MIN_REPEATS
    assert len(untraced["unit_ms"]) == workload.MIN_REPEATS * workload.WORKLOADS["interval-ou"].replications
    traced = _child("interval-ou", 1, tmp_path / "traced")
    assert traced["hooks"] == {name: "span" for _, _, name, _ in spans.TARGETS}
    assert traced["failed"] == 0 and traced["layers"]["dynamics.copy_steps"] > 0
    digests = set(untraced["digests"]) | set(traced["digests"])
    assert digests == {_cli_digest("interval-ou", tmp_path)}


def test_check_workload_matches_cli_with_check(tmp_path):
    res = _child("square-hpoly-check", 0, tmp_path / "untraced")
    assert res["failed"] == 0
    assert set(res["digests"]) == {_cli_digest("square-hpoly-check", tmp_path)}
