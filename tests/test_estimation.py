import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullsim import harness
from hullsim.dynamics import (
    TimeGrid,
    constant_body,
    derive_seed,
    make_model,
    simulate_ensemble,
)
from hullsim.estimation import (
    EstimationError,
    hausdorff_error_1d,
    hull_estimate,
    pointwise_error,
)
from hullsim.geometry import Ball, Hull, Interval, convex_hull, distance_to_body
from reference import gaussian_cdf, projected_cdf

BALL3D_CONFIG = Path(__file__).resolve().parent.parent / "hullbench" / "ball3d_state_sigma.cfg"


def _upper_tail_continued_fraction(x: float) -> float:
    """Mills-ratio continued fraction Q(x) = phi(x) / (x + 1/(x + 2/(x + ...)))
    for x >= 3, evaluated bottom-up."""
    cf = 0.0
    for k in range(120, 0, -1):
        cf = k / (x + cf)
    phi = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    return phi / (x + cf)


def series_normal_cdf(x: float) -> float:
    """Reference normal CDF, independent of the library evaluator: erf Taylor
    series in the bulk, tail continued fraction beyond |x| = 3."""
    if x < 0:
        return 1.0 - series_normal_cdf(-x)
    if x > 3:
        return 1.0 - _upper_tail_continued_fraction(x)
    t = x / math.sqrt(2)
    total = 0.0
    term = t
    k = 0
    while abs(term) > 1e-18 and k < 300:
        total += term / (2 * k + 1)
        k += 1
        term *= -t * t / k
    erf = 2.0 / math.sqrt(math.pi) * total
    return 0.5 * (1.0 + erf)


def make_1d_ensemble(n_copies=64, seed=0):
    model = make_model("ou", 1, [0.0], theta=1.0, sigma=0.5)
    grid = TimeGrid(1.0, 10)
    return simulate_ensemble(
        model, constant_body(Interval(-1, 1)), grid, n_copies, seed
    )


class TestHullEstimate:
    def test_1d_min_max(self):
        ens = make_1d_ensemble()
        hull = hull_estimate(ens, 5)
        states = ens.states[:, 5, 0]
        assert hull.dim == 1
        np.testing.assert_array_equal(hull.vertices, [[states.min()], [states.max()]])

    def test_node_zero_rejected(self):
        with pytest.raises(EstimationError):
            hull_estimate(make_1d_ensemble(), 0)

    def test_node_beyond_grid_rejected(self):
        with pytest.raises(EstimationError):
            hull_estimate(make_1d_ensemble(), 11)

    def test_node_not_kept_rejected_in_one_line(self):
        model = make_model("ou", 1, [0.0], theta=1.0, sigma=0.5)
        ens = simulate_ensemble(model, constant_body(Interval(-1, 1)), TimeGrid(1.0, 10), 20, 1, nodes=[5, 10])
        np.testing.assert_array_equal(hull_estimate(ens, 10).vertices[:, 0],
                                      [ens.at(10).min(), ens.at(10).max()])
        with pytest.raises(EstimationError) as caught:
            hull_estimate(ens, 7)
        assert str(caught.value) == "node 7 was not kept; the ensemble keeps nodes [5, 10]"

    def test_singleton_estimate(self):
        ens = make_1d_ensemble(n_copies=1)
        hull = hull_estimate(ens, 10)
        x = np.array([0.7])
        assert pointwise_error(hull, x) == pytest.approx(
            abs(0.7 - ens.states[0, 10, 0])
        )

    def test_2d_interior_state_dropped(self):
        model = make_model("ou", 2, [0.0, 0.0], theta=1.0, sigma=0.8)
        grid = TimeGrid(1.0, 5)
        ens = simulate_ensemble(model, constant_body(Ball(np.zeros(2), 2.0)), grid, 30, 3)
        hull = hull_estimate(ens, 5)
        assert hull.dim == 2
        assert hull.vertices.shape[0] <= 30

    def test_estimate_contained_in_body(self):
        hull = hull_estimate(make_1d_ensemble(n_copies=500, seed=4), 10)
        assert np.all(np.abs(hull.vertices) <= 1 + 1e-9)

    def test_growing_copy_count_nests_hulls(self):
        small = hull_estimate(make_1d_ensemble(n_copies=50, seed=9), 10)
        large = hull_estimate(make_1d_ensemble(n_copies=200, seed=9), 10)
        for v in small.vertices:
            assert distance_to_body(large, v) <= 1e-12


def segment(lower, upper):
    return Hull(dim=1, vertices=np.array([[lower], [upper]]))


class TestIntervalError:
    def test_two_sided_example(self):
        err = hausdorff_error_1d(segment(-0.9, 0.8), Interval(-1, 1))
        assert err == pytest.approx(0.2)
        assert type(err) is float  # the CSV writes repr(err)

    def test_exact_estimate_gives_zero(self):
        assert hausdorff_error_1d(segment(-1.0, 1.0), Interval(-1, 1)) == 0.0

    def test_one_sided_gap(self):
        assert hausdorff_error_1d(segment(-1.0, 0.5), Interval(-1, 1)) == pytest.approx(0.5)

    def test_containment_violation_rejected(self):
        with pytest.raises(EstimationError, match=r"^estimate \[-0.5, 1.5\] escapes \[-1.0, 1.0\]$"):
            hausdorff_error_1d(segment(-0.5, 1.5), Interval(-1, 1))

    def test_planar_hull_rejected(self):
        hull = convex_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(EstimationError, match="^interval error is defined in dimension one only$"):
            hausdorff_error_1d(hull, Ball(np.zeros(2), 2.0))

    def test_ball_ends_rounded_outside_give_zero(self):
        # Ball.project rounds the extreme copies about 1 ulp outside both ends;
        # the error is a distance between sets, so it reads 0, never -2.2e-16
        ball = Ball(np.array([0.1]), 1.3)
        hull = convex_hull(ball.project(np.random.default_rng(0).uniform(-8, 8, (1000, 1))))
        (lo, hi), (lower, upper) = np.concatenate(ball.bounding_box()), hull.vertices[[0, -1], 0]
        assert lower < lo and upper > hi  # the case this test is about
        err = hausdorff_error_1d(hull, ball)
        assert err == 0.0 and type(err) is float

    def test_monotone_in_copies(self):
        # prefix ensembles share their streams, so adding copies can only
        # shrink the error, exactly
        big = make_1d_ensemble(n_copies=400, seed=21)
        err_big = hausdorff_error_1d(hull_estimate(big, 10), Interval(-1, 1))
        for n in (50, 150, 300):
            small = make_1d_ensemble(n_copies=n, seed=21)
            err = hausdorff_error_1d(hull_estimate(small, 10), Interval(-1, 1))
            assert err >= err_big

    def test_pointwise_monotone_in_copies(self):
        model = make_model("ou", 2, [0.0, 0.0], theta=1.0, sigma=0.6)
        grid = TimeGrid(1.0, 8)
        mf = constant_body(Ball(np.zeros(2), 1.0))
        big = simulate_ensemble(model, mf, grid, 300, seed=6)
        x = np.array([0.5, 0.5])
        err_big = pointwise_error(hull_estimate(big, 8), x)
        for n in (20, 80, 200):
            small = simulate_ensemble(model, mf, grid, n, seed=6)
            assert pointwise_error(hull_estimate(small, 8), x) >= err_big - 1e-12


class TestPointwiseError:
    def test_generator_has_zero_error(self):
        ens = make_1d_ensemble()
        hull = hull_estimate(ens, 10)
        x = ens.states[3, 10]
        assert pointwise_error(hull, x) == 0.0

    def test_triangle_corner(self):
        hull = convex_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert pointwise_error(hull, np.array([1.0, 1.0])) == pytest.approx(
            np.sqrt(2) / 2, abs=1e-9
        )

    def test_spatial_sample_beyond_solver_cap(self):
        # Seed 202 of the 3D ball benchmark: at N = 2000, replication 11,
        # probe 13 stalled the Frank-Wolfe solver at its iteration cap
        # (residual 2.3e-6) even over the hull vertices alone.
        config = harness.load_config(BALL3D_CONFIG, {"seed": 202, "replications": 16})
        model = harness.build_model(config)
        mf = harness.build_multifunction(config)
        grid = TimeGrid(config.horizon, config.steps)
        probes = harness.resolve_probes(config, mf, grid)
        ens = simulate_ensemble(model, mf, grid, 2000, derive_seed(config.seed, 2000, 11))
        hull = hull_estimate(ens, 20)
        assert pointwise_error(hull, probes[13]) == pytest.approx(0.1069868, abs=1e-7)


class TestProjectedCdf:
    def test_upper_atom(self):
        assert projected_cdf(gaussian_cdf, -1, 1, 1.0) == 1.0
        assert projected_cdf(gaussian_cdf, -1, 1, 2.0) == 1.0

    def test_median_passthrough(self):
        assert projected_cdf(gaussian_cdf, -1, 1, 0.0) == pytest.approx(0.5)

    def test_lower_atom_keeps_phi_value(self):
        val = projected_cdf(gaussian_cdf, -1, 1, -1.0)
        assert val == pytest.approx(series_normal_cdf(-1.0), abs=1e-12)
        assert projected_cdf(gaussian_cdf, -1, 1, -1.0 - 1e-12) == 0.0

    def test_invalid_interval(self):
        with pytest.raises(EstimationError):
            projected_cdf(gaussian_cdf, 1, 1, 0.0)

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-8, 8, allow_nan=False),
        st.floats(-8, 8, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_a_cdf(self, a, b, x, y):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-6:
            hi = lo + 1.0
        f = lambda t: projected_cdf(gaussian_cdf, lo, hi, t)
        assert 0.0 <= f(x) <= 1.0
        if x <= y:
            assert f(x) <= f(y)
        assert f(hi) == 1.0
        assert f(lo - 1e-9) == 0.0


class TestGaussianCdf:
    def test_against_series_oracle(self):
        xs = np.linspace(-6, 6, 241)
        for x in xs:
            assert abs(gaussian_cdf(x) - series_normal_cdf(x)) <= 1e-12

    def test_mean_std_shift(self):
        assert gaussian_cdf(3.0, mean=3.0, std=2.0) == pytest.approx(0.5)
        assert gaussian_cdf(5.0, mean=3.0, std=2.0) == pytest.approx(
            series_normal_cdf(1.0), abs=1e-12
        )

    def test_bad_std(self):
        with pytest.raises(EstimationError):
            gaussian_cdf(0.0, std=0.0)
