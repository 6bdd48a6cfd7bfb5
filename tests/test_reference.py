import numpy as np
import pytest

from hullsim.geometry import Ball, Box, Interval, project
from hullsim.oracle import OracleError
from reference import brute_force_hull_distance, brute_force_projection, empirical_cdf
from test_geometry import unit_square


class TestGridProjectionOracle:
    def test_square_face(self):
        p = brute_force_projection(unit_square(), np.array([2.0, 0.5]), 1e-3)
        assert np.linalg.norm(p - [1.0, 0.5]) <= 2e-3

    def test_interior_point_recovered(self):
        p = brute_force_projection(unit_square(), np.array([0.4, 0.6]), 1e-3)
        assert np.linalg.norm(p - [0.4, 0.6]) <= 1e-3 * np.sqrt(2)

    def test_ball_radial(self):
        p = brute_force_projection(Ball(np.zeros(2), 1.0), np.array([3.0, 4.0]), 1e-3)
        assert np.linalg.norm(p - [0.6, 0.8]) <= 2e-3

    def test_interval(self):
        p = brute_force_projection(Interval(-1, 1), np.array([2.5]), 1e-4)
        assert abs(p[0] - 1.0) <= 1e-4

    def test_agrees_with_projection(self):
        rng = np.random.default_rng(2)
        body = Box(np.array([-1.0, -0.5]), np.array([0.5, 1.5]))
        for x in rng.uniform(-3, 3, size=(10, 2)):
            p_exact = project(body, x)
            p_grid = brute_force_projection(body, x, 2e-3)
            assert np.linalg.norm(p_exact - p_grid) <= 2 * 2e-3 * np.sqrt(2)

    def test_dimension_cap(self):
        with pytest.raises(OracleError):
            brute_force_projection(Ball(np.zeros(3), 1.0), np.zeros(3), 1e-2)


class TestPairSegmentOracle:
    def test_triangle_corner_exact(self):
        d = brute_force_hull_distance(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
        )
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-15)

    def test_inside_is_zero(self):
        d = brute_force_hull_distance(
            np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]),
            np.array([1.0, 1.0]),
        )
        assert d == 0.0

    def test_collinear_cloud(self):
        d = brute_force_hull_distance(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0])
        )
        assert d == pytest.approx(1.0)

    def test_single_point(self):
        d = brute_force_hull_distance(np.array([[1.0, 1.0]]), np.array([4.0, 5.0]))
        assert d == pytest.approx(5.0)

    def test_wrong_dimension(self):
        with pytest.raises(OracleError):
            brute_force_hull_distance(np.array([[1.0], [2.0]]), np.array([0.0]))


class TestEmpiricalCdf:
    def test_basic_counts(self):
        assert empirical_cdf([1, 2, 3], 2) == pytest.approx(2 / 3)
        assert empirical_cdf([1, 2, 3], 0.5) == 0.0
        assert empirical_cdf([1, 2, 3], 10) == 1.0

    def test_vectorized_queries(self):
        out = empirical_cdf([1.0, 2.0], np.array([0.0, 1.0, 1.5, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(OracleError):
            empirical_cdf([], 0.0)
