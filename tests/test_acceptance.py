"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a PASS line with the measured
quantities (run pytest with -s or -rA to see them). The convergence tests
consume the session-scoped default experiment runs from conftest.
"""

import copy
import time

import numpy as np

from hullsim import harness
from hullsim.dynamics import (
    TimeGrid,
    constant_body,
    derive_seed,
    make_model,
    simulate_ensemble,
)
from hullsim.geometry import (
    Ball,
    Box,
    HPolytope,
    Interval,
    contains,
    convex_hull,
    distance_to_hull,
    min_norm_point_distance,
    project,
)
from hullsim.oracle import constants_c1_c2, hitting_frequency, step1_bound_check
from reference import (
    StepRecord,
    boundary_points,
    brute_force_hull_distance,
    brute_force_projection,
    empirical_cdf,
    gaussian_cdf,
    projected_cdf,
)


def random_interval(rng):
    lo = rng.uniform(-2, 0.5)
    return Interval(lo, lo + rng.uniform(0.3, 2))


def random_box(rng):
    lo = rng.uniform(-2, 0.5, size=2)
    return Box(lo, lo + rng.uniform(0.3, 2, size=2))


def random_ball(rng):
    return Ball(rng.uniform(-1.5, 1.5, size=2), rng.uniform(0.3, 1.5))


def random_polytope(rng):
    k = int(rng.integers(4, 8))
    angles = (np.arange(k) + rng.uniform(-0.3, 0.3, size=k)) * (2 * np.pi / k)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    center = rng.uniform(-1, 1, size=2)
    offsets = normals @ center + rng.uniform(0.3, 1.2, size=k)
    return HPolytope(normals, offsets)


VARIANTS = {
    "interval": random_interval,
    "box": random_box,
    "ball": random_ball,
    "hpolytope": random_polytope,
}


def strictly_decreasing(seq):
    return all(b < a for a, b in zip(seq, seq[1:]))


def test_criterion_1_geometry_property_suite():
    """10^4 randomized (body, point) cases per variant: idempotence,
    nonexpansiveness, variational inequality within 1e-9; grid-oracle
    agreement within 2 * resolution * sqrt(m). Under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cases_per_variant = 10_000
    bodies_per_variant = 100
    pts_per_body = cases_per_variant // bodies_per_variant

    for name, factory in VARIANTS.items():
        for _ in range(bodies_per_variant):
            body = factory(rng)
            x = rng.uniform(-4, 4, size=(pts_per_body, body.dim))
            y = rng.uniform(-4, 4, size=(pts_per_body, body.dim))
            p = project(body, x)
            q = project(body, y)
            assert np.max(np.abs(project(body, p) - p)) <= 1e-9, name
            gap = np.sqrt(((p - q) ** 2).sum(axis=1)) - np.sqrt(((x - y) ** 2).sum(axis=1))
            assert np.max(gap) <= 1e-9, name
            assert np.all(contains(body, p, tol=1e-9)), name
            bpts = boundary_points(body, 8, rng)
            for i in range(0, pts_per_body, 10):
                inner = (bpts - p[i]) @ (x[i] - p[i])
                assert np.max(inner) <= 1e-9, name

    # grid-oracle agreement, 100 random cases per variant in dimension <= 2.
    # Distance values must agree for every variant; the oracle point itself is
    # only pinned where the boundary cannot trade depth for lateral drift
    # (axis-aligned variants).
    for name, factory in VARIANTS.items():
        res = 1e-3 if name == "interval" else 5e-3
        tol = 2 * res * np.sqrt(2 if name != "interval" else 1)
        for _ in range(100):
            body = factory(rng)
            x = rng.uniform(-3, 3, size=body.dim)
            exact = project(body, x)
            approx = brute_force_projection(body, x, res)
            d_exact = np.linalg.norm(x - exact)
            d_approx = np.linalg.norm(x - approx)
            assert abs(d_exact - d_approx) <= tol, (name, d_exact, d_approx)
            if name in ("interval", "box"):
                assert np.linalg.norm(exact - approx) <= tol, name

    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"ACCEPTANCE 1 PASS: 4x10^4 projection property cases + 400 grid-oracle "
          f"cases in {elapsed:.1f}s")


def test_criterion_2_hull_distance_oracle_equivalence():
    """Min-norm-point solver and exact polygon distance agree with the
    pair-segment oracle to 1e-6 on 100 random planar clouds. Under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        pts = rng.uniform(-2, 2, size=(int(rng.integers(1, 13)), 2))
        hull = convex_hull(pts)
        for _ in range(3):
            x = rng.uniform(-4, 4, size=2)
            reference = brute_force_hull_distance(pts, x)
            solver = min_norm_point_distance(pts, x, tol=1e-7)
            polygon = distance_to_hull(hull, x)
            worst = max(worst, abs(solver - reference), abs(polygon - reference))
            assert abs(solver - reference) <= 1e-6
            assert abs(polygon - reference) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    print(f"ACCEPTANCE 2 PASS: 300 queries on 100 clouds, worst |gap| = {worst:.2e} "
          f"in {elapsed:.1f}s")


def test_criterion_3_clamped_cdf_identity():
    """First-step state CDF: exact pathwise clamp identity at 10^3 query
    points, and at most 0.01 sup-deviation from the analytic projected
    Gaussian CDF over 10^5 copies (DKW 99.9% band is about 0.0062).
    Under 30 s."""
    t0 = time.perf_counter()
    lo, hi = 0.5, 1.0
    model = make_model("ou", 1, [0.9], theta=1.0, sigma=1.0)
    grid = TimeGrid(1.0, 20)
    mf = constant_body(Interval(lo, hi))
    record = StepRecord(grid.steps, 1, 100_000)
    ens = simulate_ensemble(model, mf, grid, 100_000, seed=314, nodes=[1], observers=[record])

    states = ens.at(1)[:, 0]
    pre = record.h[:, 0, 0]
    # both boundary atoms are exercised
    assert np.count_nonzero(pre <= lo) > 100
    assert np.count_nonzero(pre >= hi) > 100

    queries = np.concatenate([np.linspace(lo - 0.2, hi + 0.2, 998), [lo, hi]])
    emp_states = empirical_cdf(states, queries)
    emp_pre = empirical_cdf(pre, queries)
    clamped = np.where(queries < lo, 0.0, np.where(queries >= hi, 1.0, emp_pre))
    assert np.array_equal(emp_states, clamped)  # exact, no tolerance

    mean1 = 0.9 + (-1.0 * 0.9) * grid.delta
    std1 = 1.0 * np.sqrt(grid.delta)
    analytic = np.array(
        [projected_cdf(lambda v: gaussian_cdf(v, mean1, std1), lo, hi, x) for x in queries]
    )
    sup_dev = np.max(np.abs(emp_states - analytic))
    assert sup_dev <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"ACCEPTANCE 3 PASS: pathwise identity exact at 1000 points, "
          f"sup|emp - analytic| = {sup_dev:.4f} <= 0.01 in {elapsed:.1f}s")


def test_criterion_4_interval_error_consistency_branch(default_reports, frozen_configs):
    """State-dependent-diffusion experiment: median interval error strictly
    decreasing over N = 100, 1000, 10000 and at most 0.02 at the largest N.
    Under 2 min."""
    report = default_reports["e2"]
    config = frozen_configs["e2"]
    for j in config.j_indices:
        medians = report.median_errors(j)
        assert strictly_decreasing(medians), medians
        assert medians[-1] <= 0.02, medians
    assert report.meta["wall_clock_s"] < 120
    print(f"ACCEPTANCE 4 PASS: e2 medians {report.median_errors(config.j_indices[0])} "
          f"decreasing, final <= 0.02, in {report.meta['wall_clock_s']:.0f}s")


def test_criterion_5_interval_error_rate_branch(default_reports, frozen_configs):
    """Constant-diffusion experiment: median of N x interval error strictly
    decreasing over N = 100, 1000, 10000. Under 2 min."""
    report = default_reports["e1"]
    config = frozen_configs["e1"]
    for j in config.j_indices:
        scaled = report.median_scaled_errors(j)
        assert strictly_decreasing(scaled), scaled
        medians = report.median_errors(j)
        assert strictly_decreasing(medians), medians
    assert report.meta["wall_clock_s"] < 120
    print(f"ACCEPTANCE 5 PASS: e1 median N*error {report.median_scaled_errors(config.j_indices[0])} "
          f"strictly decreasing, in {report.meta['wall_clock_s']:.0f}s")


def test_criterion_6_pointwise_convergence(default_reports, frozen_configs):
    """Shrinking-ball and square experiments: per-probe median hull distance
    strictly decreasing over N = 200, 2000, 20000 and at most 0.05 at the
    largest N, for every probe and requested node. Under 5 min combined."""
    total = 0.0
    for name in ("e3", "e4"):
        report = default_reports[name]
        config = frozen_configs[name]
        total += report.meta["wall_clock_s"]
        for j in config.j_indices:
            for p in range(len(report.probes)):
                medians = report.median_errors(j, p)
                assert strictly_decreasing(medians), (name, j, p, medians)
                assert medians[-1] <= 0.05, (name, j, p, medians)
    assert total < 300
    print(f"ACCEPTANCE 6 PASS: e3+e4 per-probe medians decreasing with final <= 0.05, "
          f"in {total:.0f}s")


SHIPPED_MODELS = {
    "ou": {"theta": 1.0, "sigma": 0.5},
    "zero_drift": {"sigma": 0.5},
    "tanh_drift": {"scale": 1.0, "sigma": 0.5},
    "tanh_sigma": {"theta": 0.5, "sigma0": 0.3, "sigma1": 0.1},
}


def test_criterion_7_step_growth_bound():
    """The one-step growth bound holds with zero violations at slack 1e-10
    for every registry model (1000 copies x 20 steps x 5 probes), and the
    halved-c2 mutation makes the checker fire. Under 30 s."""
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 20)
    mf = constant_body(Interval(-1, 1))
    probes = np.array([[-0.9], [-0.4], [0.0], [0.4], [0.9]])
    for kind, params in SHIPPED_MODELS.items():
        model = make_model(kind, 1, [0.0], **params)
        rep = step1_bound_check(model, mf, grid, 1000, 2718, probes, slack=1e-10)
        assert rep.n_checks == 1000 * 20 * 5
        assert rep.n_violations == 0, (kind, rep.worst_margin)

    model = make_model("ou", 1, [0.0], **SHIPPED_MODELS["ou"])
    base = constants_c1_c2(model, m_c=1.0, delta=grid.delta)
    mutated = copy.copy(base)  # bypass the >= 1 construction invariant
    object.__setattr__(mutated, "c2", base.c2 / 2)
    fired = step1_bound_check(model, mf, grid, 1000, 2718, probes, slack=1e-10, constants=mutated)
    assert fired.n_violations >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"ACCEPTANCE 7 PASS: 0 violations across 4 models at slack 1e-10; mutation "
          f"fires {fired.n_violations} times; {elapsed:.1f}s")


def test_criterion_8_hitting_condition(frozen_configs):
    """Pre-projection points land near every interior probe: pooled hit count
    over 10^4 copies is strictly positive at radius 0.1 in the shrinking-ball
    and square experiments. Under 30 s."""
    t0 = time.perf_counter()
    summary = {}
    for name in ("e3", "e4"):
        config = frozen_configs[name]
        model = harness.build_model(config)
        mf = harness.build_multifunction(config)
        grid = TimeGrid(config.horizon, config.steps)
        probes = harness.resolve_probes(config, mf, grid)
        seed = derive_seed(config.seed, 10_000, 0)
        hits = [rep.total_hits for rep in hitting_frequency(model, mf, grid, 10_000, seed, probes, radius=0.1)]
        assert min(hits) > 0, (name, hits)
        summary[name] = hits
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"ACCEPTANCE 8 PASS: positive hit counts {summary} in {elapsed:.1f}s")


def test_criterion_9_full_suite_determinism(default_reports, frozen_configs, tmp_path):
    """A second full run of every default experiment reproduces the first
    run's CSV byte for byte."""
    for name, config in frozen_configs.items():
        first = harness.render_csv(default_reports[name]).encode()
        second_report = harness.run_experiment(config)
        paths = harness.emit_report(second_report, tmp_path / name, formats=("csv",))
        assert paths[0].read_bytes() == first, name
    print("ACCEPTANCE 9 PASS: byte-identical CSVs across independent reruns of "
          "all four default experiments")
