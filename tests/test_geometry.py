import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from hullsim import dynamics, geometry, harness
from hullsim.geometry import (
    Ball,
    Box,
    ConvexBody,
    GEOM_TOL,
    HULL_TOL,
    MAX_FACE_SETS,
    GeometryError,
    HPolytope,
    Interval,
    ProjectionSolverError,
    chebyshev_center,
    contains,
    convex_hull,
    distance_to_body,
    min_norm_point_distance,
    norm_bound,
    project,
    row_norms,
    support,
)
from reference import (boundary_points, brute_force_hull_distance, canonical_spatial_hull, exact_planar_hull,
                       exact_spatial_hull, full_cloud_hull, nothing_outside, reference_project)

SRC = Path(__file__).resolve().parent.parent / "src"


def unit_square():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    offsets = np.array([1.0, 0.0, 1.0, 0.0])
    return HPolytope(normals, offsets)  # [0, 1]^2


def random_body(kind, rng):
    if kind == "interval":
        lo = rng.uniform(-3, 1)
        return Interval(lo, lo + rng.uniform(0.2, 3))
    if kind == "box":
        lo = rng.uniform(-3, 0, size=2)
        return Box(lo, lo + rng.uniform(0.2, 3, size=2))
    if kind == "ball":
        return Ball(rng.uniform(-2, 2, size=2), rng.uniform(0.2, 3))
    if kind == "hpolytope":
        # random bounded polygon
        k = int(rng.integers(4, 8))
        angles = (np.arange(k) + rng.uniform(-0.3, 0.3, size=k)) * (2 * np.pi / k)
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        center = rng.uniform(-1, 1, size=2)
        offsets = normals @ center + rng.uniform(0.3, 2.0, size=k)
        return HPolytope(normals, offsets)
    raise ValueError(kind)


BODY_KINDS = ["interval", "box", "ball", "hpolytope"]


class TestProjection:
    def test_interval_clamps_to_endpoint(self):
        assert project(Interval(-1, 1), np.array([2.0])) == pytest.approx(1.0)

    def test_ball_radial_scaling(self):
        p = project(Ball(np.zeros(2), 1.0), np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, [0.6, 0.8], atol=1e-12)

    def test_huge_ball_keeps_its_center(self):
        # radius / norm overflows at the center unless the divisor is at least the radius
        p = Ball(np.zeros(2), 1e9).project(np.zeros((1, 2)))
        np.testing.assert_array_equal(p, np.zeros((1, 2)))

    def test_square_face_projection(self):
        p = project(unit_square(), np.array([2.0, 0.5]))
        np.testing.assert_allclose(p, [1.0, 0.5], atol=1e-9)

    @pytest.mark.parametrize("half_width, scale", [
        *(pytest.param(w, 1.0, id=f"{w}") for w in (0.7, 1.0, 2.5)),
        *(pytest.param(w, 2.0, id=f"{w}-normals-x2") for w in (0.7, 1.0, 2.5)),
    ])
    def test_square_as_half_spaces_is_clip_bit_for_bit(self, half_width, scale):
        # a dense grid over [-2w, 2w]^2 with the corners and face lines on it,
        # plus points just off the lines that extend the faces past the corners;
        # normals and offsets scaled by a power of two describe the same square
        w = half_width
        axis = np.concatenate([np.linspace(-2 * w, 2 * w, 161), [-w, w]])
        grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        along = np.linspace(w, 2 * w, 41)
        off = w + np.array([-1e-9, -1e-12, -2.2e-16, 0.0, 2.2e-16, 1e-12, 1e-9])
        line = np.stack(np.meshgrid(along, off), axis=-1).reshape(-1, 2)
        signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        x = np.vstack([grid, *(s * line for s in signs), *(s * line[:, ::-1] for s in signs)])
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        p = project(HPolytope(scale * normals, np.full(4, scale * w)), x)
        np.testing.assert_array_equal(p, np.clip(x, -w, w))

    def test_near_parallel_wedge_projects_onto_its_apex(self):
        a = 1e-3  # faces at pi/2 +- a, closed by x = +-2 and y = -1
        angles = np.array([np.pi / 2 + a, np.pi / 2 - a])
        normals = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]),
                             [[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]])
        body = HPolytope(normals, np.array([1.0, 1.0, 2.0, 2.0, 1.0]))
        t0 = time.perf_counter()
        p = project(body, np.array([0.0, 5.0]))
        assert time.perf_counter() - t0 < 1.0
        np.testing.assert_allclose(p, [0.0, 1 / np.cos(a)], rtol=0, atol=1e-12)

    def test_inside_point_is_fixed(self):
        x = np.array([0.25, 0.75])
        np.testing.assert_array_equal(project(unit_square(), x), x)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(5)
        body = unit_square()
        pts = rng.uniform(-2, 3, size=(40, 2))
        batch = project(body, pts)
        for i, x in enumerate(pts):
            np.testing.assert_array_equal(batch[i], project(body, x))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            project(Ball(np.zeros(2), 1.0), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("kind", BODY_KINDS)
    def test_idempotent_and_nonexpansive(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(20):
            body = random_body(kind, rng)
            x = rng.uniform(-5, 5, size=(30, body.dim))
            p = project(body, x)
            np.testing.assert_allclose(project(body, p), p, atol=1e-9)
            y = rng.uniform(-5, 5, size=(30, body.dim))
            q = project(body, y)
            lhs = np.linalg.norm(p - q, axis=1)
            rhs = np.linalg.norm(x - y, axis=1)
            assert np.all(lhs <= rhs + 1e-9)

    @pytest.mark.parametrize("kind", BODY_KINDS)
    def test_variational_inequality(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(10):
            body = random_body(kind, rng)
            bpts = boundary_points(body, 16, rng)
            for x in rng.uniform(-4, 4, size=(10, body.dim)):
                p = project(body, x)
                inner = (bpts - p) @ (x - p)
                assert np.all(inner <= 1e-9)


def tilted_polygon():
    """A pentagon with no axis-aligned face."""
    angles = np.array([0.3, 1.5, 2.7, 3.9, 5.1])
    normals = np.column_stack([np.cos(angles), np.sin(angles)])
    return HPolytope(normals, normals @ np.array([0.2, -0.1]) + 1.0)


class TestMemoryOrder:
    """(..., m) in, (..., m) out, in the input's memory order, with the same bits."""

    bodies = {
        "interval": Interval(-1.0, 1.0),
        "box": Box(np.array([-1.0, -0.5, -2.0]), np.array([1.0, 0.5, 0.3])),
        "ball": Ball(np.array([0.1, -0.2, 0.3]), 1.0),
        "square": HPolytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
        ),
        "tilted": tilted_polygon(),
        "hull2d": convex_hull(np.random.default_rng(8).standard_normal((40, 2))),
        "hull3d": convex_hull(np.random.default_rng(9).standard_normal((40, 3))),
    }

    @pytest.fixture(params=sorted(bodies))
    def points(self, request):
        body = self.bodies[request.param]
        x = np.random.default_rng(5).uniform(-1.6, 1.6, size=(1000, body.dim))
        return body, x, np.asfortranarray(x)

    def test_project(self, points):
        body, c, f = points
        assert c.flags.c_contiguous and f.flags.f_contiguous
        out = project(body, f)
        np.testing.assert_array_equal(out, project(body, c))
        assert out.flags.f_contiguous
        moved = np.any(out != f, axis=1)
        assert 0 < np.count_nonzero(moved) < len(f)  # points on both sides of the boundary

    @pytest.mark.parametrize("name", ["interval", "box", "ball", "square", "tilted", "hull2d", "hull3d"])
    def test_project_a_batch_of_batches(self, name):
        # every body keeps the order past two axes too, the H-polytopes (square,
        # tilted) and hulls included
        body = self.bodies[name]
        x = np.random.default_rng(6).uniform(-1.6, 1.6, size=(20, 50, body.dim))
        out = project(body, np.asfortranarray(x))
        assert out.flags.f_contiguous
        np.testing.assert_array_equal(out, project(body, x.reshape(-1, body.dim)).reshape(x.shape))

    @pytest.mark.parametrize("body", [Box(-np.ones(2), np.ones(2)), Ball(np.zeros(2), 1.0), bodies["square"],
                                      bodies["hull2d"]], ids=["box", "ball", "square", "hull2d"])
    def test_interior_margin_of_a_batch_of_batches(self, body):
        # the margins of an F-ordered (4, 5, 2) batch keep its order, the H-polytope's and hull's too
        x = np.random.default_rng(7).uniform(-2.0, 2.0, size=(4, 5, 2))
        margins = body.interior_margin(np.asfortranarray(x))
        assert margins.shape == (4, 5) and margins.flags.f_contiguous
        np.testing.assert_array_equal(margins, body.interior_margin(x.reshape(-1, 2)).reshape(4, 5))

    def test_interior_margin(self, points):
        body, c, f = points
        np.testing.assert_array_equal(body.interior_margin(f), body.interior_margin(c))

    def test_distance_to_body(self, points):
        body, c, f = points
        np.testing.assert_array_equal(distance_to_body(body, f), distance_to_body(body, c))


class TestOnlyOutsideRowsMove:
    """A batch with no row outside comes back as the input itself; otherwise only the
    rows outside are written, on a copy, each with the bits it gets alone."""

    bodies = {
        "ball": Ball(np.zeros(2), 1.0),
        "ball-off-origin": Ball(np.array([0.3, -0.7]), 0.9),
        "square": HPolytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4)
        ),
        "tilted": tilted_polygon(),
    }

    @staticmethod
    def alone(body, x):
        """Each row of x projected alone: a ball's closed form c + (x - c) r / ||x - c||,
        a polygon's one-point projection."""
        if isinstance(body, Ball):
            off = x - body.center
            return body.center + off * (body.radius / row_norms(off))[:, None]
        return np.array([project(body, row) for row in x])

    @pytest.fixture(params=sorted(bodies))
    def body(self, request):
        return self.bodies[request.param]

    def test_a_batch_inside_comes_back_as_itself(self, body):
        rng = np.random.default_rng(11)
        center, radius = chebyshev_center(body)
        x = np.asfortranarray(center + rng.uniform(-0.7, 0.7, size=(500, 2)) * radius / np.sqrt(2))
        assert np.all(body.interior_margin(x) > 0)
        assert project(body, x) is x
        point = x[0].copy()
        assert project(body, point) is point

    def test_a_mixed_batch_writes_only_the_rows_outside(self, body):
        rng = np.random.default_rng(12)
        x = np.asfortranarray(rng.uniform(-2.0, 2.0, size=(2000, 2)))
        before = x.copy()
        out = project(body, x)
        inside = body.interior_margin(x) >= 0
        assert 0 < np.count_nonzero(inside) < len(x)
        assert out is not x and not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(out[inside], x[inside])
        np.testing.assert_array_equal(out[~inside], self.alone(body, x[~inside]))
        assert out.flags.f_contiguous

    def test_an_empty_batch_projects_to_an_empty_batch(self):
        for body in (Box(-np.ones(2), np.ones(2)), *self.bodies.values()):
            x = np.empty((0, 2))
            out = project(body, x)
            assert out.shape == (0, 2)
            assert (out is x) == (not isinstance(body, Box))

    @given(
        name=st.sampled_from(sorted(bodies)),
        order=st.sampled_from("FC"),
        coords=st.lists(
            st.one_of(st.floats(-0.9, 0.9), st.floats(-3.0, 3.0), st.sampled_from([np.nan, np.inf, -np.inf])),
            max_size=40,
        ),
        edge=st.lists(st.sampled_from([-1e-6, -1e-15, 0.0, 1e-15, 1e-6]), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_the_screen_returns_the_input_exactly_when_the_full_screen_does(self, name, order, coords, edge, seed):
        # each screen decides only the early return: a batch comes back as itself exactly
        # when reference.nothing_outside says so (the ball's _row_squares(x - c), every
        # face value of a polytope), and otherwise with the reference's bits; batches mix
        # points drawn anywhere, NaN and infinite coordinates, and boundary points pushed
        # in or out by a relative edge about the Chebyshev center
        body = self.bodies[name]
        center = chebyshev_center(body)[0]
        near = boundary_points(body, len(edge), np.random.default_rng(seed))
        near = center + (near - center) * (1.0 + np.array(edge))[:, None]
        x = np.array(np.vstack([np.reshape(coords[:len(coords) // 2 * 2], (-1, 2)), near]), order=order)
        with np.errstate(invalid="ignore", over="ignore"):  # an infinity meets a zero or another infinity
            out = project(body, x)
            expected = reference_project(body, x)
            assert (out is x) == nothing_outside(body, x)
        assert out.tobytes() == expected.tobytes()


class TestInterval:
    """An interval is the box with one coordinate."""

    def test_is_a_box(self):
        assert isinstance(Interval(-1, 1), Box)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(1e-6, 1e6, allow_nan=False),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_bits_as_the_one_coordinate_box(self, lo, width, seed):
        hi = lo + width
        interval, box = Interval(lo, hi), Box(np.array([lo]), np.array([hi]))
        x = np.random.default_rng(seed).uniform(lo - width, hi + width, size=(50, 1))
        for pts in (x, np.asfortranarray(x), x[0]):
            np.testing.assert_array_equal(project(interval, pts), project(box, pts))
            np.testing.assert_array_equal(project(interval, pts), np.clip(pts, lo, hi))
            np.testing.assert_array_equal(interval.interior_margin(pts), box.interior_margin(pts))
            np.testing.assert_array_equal(distance_to_body(interval, pts), distance_to_body(box, pts))
        for u in (np.array([1.5]), np.array([-0.5])):
            assert support(interval, u) == support(box, u)
        for a, b in zip(interval.bounding_box(), box.bounding_box()):
            np.testing.assert_array_equal(a, b)
        (c_interval, r_interval), (c_box, r_box) = chebyshev_center(interval), chebyshev_center(box)
        np.testing.assert_array_equal(c_interval, c_box)
        assert r_interval == r_box and type(r_interval) is float


class TestContains:
    def test_interior_point(self):
        assert contains(Interval(-1, 1), np.array([0.0]), tol=0.0)

    def test_tolerance_band_on_ball(self):
        assert contains(Ball(np.zeros(2), 1.0), np.array([1 + 1e-12, 0.0]), tol=1e-9)

    def test_outside_square(self):
        assert not contains(unit_square(), np.array([1.5, 0.5]), tol=1e-9)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(GeometryError):
            contains(Interval(0, 1), np.array([0.5]), tol=-1.0)


class TestDistance:
    def test_interval(self):
        assert distance_to_body(Interval(-1, 1), np.array([3.0])) == pytest.approx(2.0)

    def test_ball(self):
        d = distance_to_body(Ball(np.zeros(2), 1.0), np.array([3.0, 4.0]))
        assert d == pytest.approx(4.0)

    def test_square_corner(self):
        d = distance_to_body(unit_square(), np.array([2.0, 2.0]))
        assert d == pytest.approx(np.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("kind", BODY_KINDS)
    def test_support_lower_bound(self, kind):
        # distance is at least the worst separation over probe directions
        rng = np.random.default_rng(3)
        body = random_body(kind, rng)
        for x in rng.uniform(-4, 4, size=(25, body.dim)):
            d = distance_to_body(body, x)
            for u in rng.standard_normal((8, body.dim)):
                sep = (u @ x - support(body, u)) / np.linalg.norm(u)
                assert d >= sep - 1e-9


class TestSupport:
    def test_interval(self):
        assert support(Interval(-1, 1), np.array([1.0])) == pytest.approx(1.0)

    def test_ball_offset_center(self):
        val = support(Ball(np.array([1.0, 0.0]), 2.0), np.array([0.0, 1.0]))
        assert val == pytest.approx(2.0)

    def test_square_diagonal(self):
        assert support(unit_square(), np.array([1.0, 1.0])) == pytest.approx(2.0, abs=1e-9)

    def test_zero_direction_rejected(self):
        with pytest.raises(GeometryError):
            support(unit_square(), np.zeros(2))

    def test_mis_shaped_direction_rejected(self):
        with pytest.raises(GeometryError, match=r"^expected a direction of shape \(2,\), got \(3,\)$"):
            support(unit_square(), np.ones(3))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Box(np.zeros(2), np.ones(3)), "box bounds must be 1-d arrays of equal length"),
            (lambda: Ball(np.zeros((2, 2)), 1.0), "ball center must be a 1-d array"),
            (lambda: HPolytope(np.ones(4), np.ones(4)), r"need normals of shape \(k, m\)"),
            (lambda: HPolytope(np.eye(2), np.ones(3)), r"need normals of shape \(k, m\)"),
            (lambda: HPolytope(np.eye(2), np.ones((2, 1))), r"need normals of shape \(k, m\)"),
            (lambda: HPolytope(np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, -1.0]]), np.ones(3)),
             "every half-space normal must be nonzero"),
        ],
        ids=["box_lengths", "ball_center_2d", "normals_1d", "offsets_count", "offsets_2d", "zero_normal"],
    )
    def test_malformed_body_rejected(self, build, message):
        with pytest.raises(GeometryError, match=f"^{message}"):
            build()

    @pytest.mark.parametrize(
        "normals, offsets",
        [
            ([[1.0, 0.0]], [1.0]),
            ([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8]], [1.0, 1.0, 1.0]),  # in the open half-plane x > 0
            ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),  # x <= 1, y <= 1: a vertex, and unbounded
            ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]),  # a strip: rank 1
            ([[1.0], [2.0]], [1.0, 3.0]),  # one-sided on the line
        ],
        ids=["one_half_space", "open_half_plane", "cone_with_vertex", "rank1_strip", "one_sided_1d"],
    )
    def test_unbounded_polytope_rejected(self, normals, offsets):
        with pytest.raises(GeometryError, match="unbounded"):
            HPolytope(np.array(normals), np.array(offsets))

    def test_too_many_face_sets_rejected_at_once(self):
        normals = np.random.default_rng(3).standard_normal((1000, 3))
        t0 = time.perf_counter()
        with pytest.raises(GeometryError, match="face sets"):
            HPolytope(normals, np.ones(1000))
        assert time.perf_counter() - t0 < 1.0

    def test_empty_polytope_rejected(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(GeometryError):
            HPolytope(normals, np.array([-1.0, -1.0, 1.0, 1.0]))

    def test_chebyshev_center_over_the_cap_rejected_at_once(self):
        # 40 faces in 2D: 820 face sets build the body; the lifted system has C(41, 3) = 10660
        angles = np.arange(40) * (2 * np.pi / 40)
        body = HPolytope(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(40))
        t0 = time.perf_counter()
        with pytest.raises(GeometryError, match=f"10660 lifted face sets, over {MAX_FACE_SETS}"):
            chebyshev_center(body)
        assert time.perf_counter() - t0 < 0.1


def unit_cube_3d():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    return HPolytope(normals, np.ones(6))


def square_pyramid():
    """Base [-1, 1]^2 at z = 0, apex (0, 0, 1) on all four slanted faces."""
    normals = np.array([[1.0, 0, 1], [-1.0, 0, 1], [0, 1.0, 1], [0, -1.0, 1], [0, 0, -1.0]])
    return HPolytope(normals, np.array([1.0, 1.0, 1.0, 1.0, 0.0]))


def random_polytope_3d(rng):
    """The six axis half-spaces and six random ones, each at least 0.3 from a random center."""
    normals = np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((6, 3))])
    center = rng.uniform(-1, 1, size=3)
    return HPolytope(normals, normals @ center + rng.uniform(0.3, 2.0, size=12))


class TestVertices:
    """The vertex list is scipy's HalfspaceIntersection, up to order and GEOM_TOL."""

    @pytest.mark.parametrize(
        "make, count",
        [(unit_square, 4), (tilted_polygon, 5), (unit_cube_3d, 8), (square_pyramid, 5)],
        ids=["square", "tilted", "cube", "pyramid"],
    )
    def test_matches_halfspace_intersection(self, make, count):
        body = make()
        center, _ = chebyshev_center(body)
        halfspaces = np.column_stack([body.normals, -body.offsets])
        reference = HalfspaceIntersection(halfspaces, center).intersections
        distinct = [p for i, p in enumerate(reference)
                    if np.all(np.linalg.norm(reference[:i] - p, axis=1) > GEOM_TOL)]
        assert body.vertices.shape == (len(distinct), body.dim) == (count, body.dim)
        gaps = np.linalg.norm(body.vertices[:, None] - reference[None], axis=2)
        assert np.all(gaps.min(axis=1) <= GEOM_TOL)  # every vertex is an intersection
        assert np.all(gaps.min(axis=0) <= GEOM_TOL)  # and every intersection a vertex

    def test_pyramid_apex_listed_once(self):
        vertices = square_pyramid().vertices
        assert np.sum(np.linalg.norm(vertices - [0.0, 0.0, 1.0], axis=1) <= GEOM_TOL) == 1


def lp_support(body, u):
    """max <u, y> over the body by HiGHS."""
    res = linprog(-u, A_ub=body.normals, b_ub=body.offsets, bounds=[(None, None)] * body.dim, method="highs")
    assert res.success
    return -res.fun


def lp_chebyshev_radius(body):
    """max r over N c + r ||n|| <= b, r >= 0, by HiGHS."""
    m = body.dim
    lifted = np.column_stack([body.normals, np.linalg.norm(body.normals, axis=1)])
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=lifted, b_ub=body.offsets, bounds=[(None, None)] * m + [(0, None)], method="highs")
    assert res.success
    return res.x[m]


def lp_bodies():
    rng = np.random.default_rng(41)
    return [random_body("hpolytope", rng) for _ in range(10)] + [random_polytope_3d(rng)]


class TestAgainstLinearProgram:
    """Support values, bounding box and inradius equal the LP solutions of HiGHS."""

    @pytest.mark.parametrize("body", lp_bodies(), ids=[f"polygon{i}" for i in range(10)] + ["polytope3d"])
    def test_support_box_and_inradius(self, body):
        rng = np.random.default_rng(43)
        for u in rng.standard_normal((20, body.dim)):
            assert abs(support(body, u) - lp_support(body, u)) <= 1e-9
        lo, hi = body.bounding_box()
        for i, e in enumerate(np.eye(body.dim)):
            assert abs(hi[i] - lp_support(body, e)) <= 1e-9
            assert abs(lo[i] + lp_support(body, -e)) <= 1e-9
        center, radius = chebyshev_center(body)
        assert abs(radius - lp_chebyshev_radius(body)) <= 1e-9
        assert abs(body.interior_margin(center) - radius) <= 1e-9


def run_snippet(config: str, overrides: dict) -> str:
    """A run of the config at this path from the repository root."""
    path = str(SRC.parent / config)
    return f"from hullsim import harness\nharness.run_experiment(harness.load_config({path!r}, {overrides!r}))"


SMALL = {"n_grid": "20 40", "replications": 2}
SCIPY_SNIPPETS = [
    # (code run in a fresh interpreter, the scipy modules it must load; empty: none at all)
    ("import hullsim", set()),
    (
        run_snippet(
            "configs/e1_interval_rate.cfg",
            {**SMALL, "diagnostics.step_bound": "true", "diagnostics.hitting": "true"},
        ),
        set(),
    ),
    (run_snippet("configs/e3_shrinking_ball.cfg", SMALL), set()),
    (
        run_snippet(
            "configs/e4_square_hpoly.cfg",
            {**SMALL, "diagnostics.step_bound": "true", "diagnostics.hitting": "true"},
        ),
        set(),
    ),
    (run_snippet("hullbench/ball3d_state_sigma.cfg", SMALL), set()),
    *(
        (f"import numpy as np\nfrom hullsim.geometry import convex_hull\nrng = np.random.default_rng(0)\n"
         f"convex_hull({cloud})", set())
        for cloud in (
            "rng.integers(-20, 21, (2000, 2)).astype(float)",  # lattice
            "np.clip(rng.standard_normal((2000, 2)), -1.0, 1.0)",  # box-clipped
            "rng.standard_normal((2000, 2)) * [1.0, 1e-12]",  # thin
            "rng.standard_normal((2000, 2)) * 1e-200",
            "rng.standard_normal((50, 3))",
            "rng.integers(-2, 3, (50, 3)).astype(float)",  # lattice
            "np.clip(rng.standard_normal((2000, 3)), -1.0, 1.0)",  # box-clipped
            "rng.standard_normal((500, 3))[rng.integers(0, 500, 2000)]",  # duplicates
            "np.column_stack([rng.standard_normal((2000, 2)), np.full(2000, 0.5)])",  # coplanar
            "np.outer(rng.standard_normal(2000), [1.0, -2.0, 0.5])",  # collinear
            "rng.standard_normal((2000, 3)) * 1e-150",
            "rng.standard_normal((2000, 3)) * 1e150",
        )
    ),
    (
        "import numpy as np\nfrom hullsim.geometry import convex_hull\n"
        "convex_hull(np.random.default_rng(0).standard_normal((50, 4)))",
        {"scipy.spatial"},
    ),
]


def test_import_leaves_out_the_lp_solver():
    """No snippet loads scipy.optimize. 1D, 2D and 3D runs load no scipy: the monotone
    chain and the exact quickhull build their hulls. No 2D or 3D cloud of at most
    QUICKHULL_MAX_POINTS candidates loads scipy: lattice, box-clipped, duplicate,
    coplanar, collinear, thin, tiny and huge clouds neither. A 4D hull loads qhull."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    report = "import sys; print(*(m for m in sys.modules if m.startswith('scipy')))"
    for snippet, wanted in SCIPY_SNIPPETS:
        proc = subprocess.run(
            [sys.executable, "-c", f"{snippet}\n{report}"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "scipy.optimize" not in loaded, snippet
        if wanted:
            assert wanted <= loaded, (snippet, sorted(loaded))
        else:
            assert not loaded, (snippet, sorted(loaded))


class TestConvexHull:
    def test_one_dimensional(self):
        hull = convex_hull(np.array([0.3, -0.7, 0.1]))
        np.testing.assert_array_equal(hull.vertices, [[-0.7], [0.3]])

    def test_interior_point_dropped(self):
        hull = convex_hull(np.array([[0, 0], [1, 0], [0, 1], [0.2, 0.2]], dtype=float))
        assert hull.vertices.shape == (3, 2)
        assert [0.2, 0.2] not in hull.vertices.tolist()

    def test_circle_points_all_extreme(self):
        ang = np.arange(8) * np.pi / 4
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        hull = convex_hull(pts)
        assert hull.vertices.shape == (8, 2)

    def test_counterclockwise_order(self):
        hull = convex_hull(np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float))
        v = hull.vertices
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        assert area2 > 0

    def test_collinear_dropped(self):
        hull = convex_hull(np.array([[0, 0], [1, 0], [2, 0], [1, 1]], dtype=float))
        assert hull.vertices.shape == (3, 2)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            convex_hull([])

    def test_three_dim_array_rejected(self):
        with pytest.raises(GeometryError, match=r"^points must form a \(p, m\) array$"):
            convex_hull(np.zeros((2, 2, 2)))

    def test_three_dim_vertices_are_extreme_generators(self):
        cloud = np.random.default_rng(0).standard_normal((10, 3))
        centroid = cloud.mean(axis=0)
        pts = np.vstack([cloud, centroid])
        hull = convex_hull(pts)
        rows = pts.tolist()
        assert all(v in rows for v in hull.vertices.tolist())
        assert centroid.tolist() not in hull.vertices.tolist()
        assert 4 <= hull.vertices.shape[0] < pts.shape[0]
        np.testing.assert_allclose(np.linalg.norm(hull.equations[:, :3], axis=1), 1.0)
        assert hull.simplices.shape == (hull.equations.shape[0], 3)
        for p in pts:
            assert distance_to_body(hull, p) == 0.0

    @pytest.mark.parametrize(
        "pts, ends",
        [
            ([[2, 0], [0, 0], [1, 0]], [[0, 0], [2, 0]]),  # horizontal
            ([[0, 3], [0, 1], [0, 2]], [[0, 1], [0, 3]]),  # vertical
            ([[1, 1], [3, 3], [1, 1], [2, 2], [3, 3]], [[1, 1], [3, 3]]),  # duplicates
            ([[1, 2], [1, 2], [1, 2]], [[1, 2]]),
        ],
    )
    def test_collinear_planar_cloud_is_segment(self, pts, ends):
        hull = convex_hull(np.array(pts, dtype=float))
        np.testing.assert_array_equal(hull.vertices, ends)
        assert hull.equations is None and hull.simplices is None
        for p in pts:
            assert distance_to_body(hull, np.array(p, dtype=float)) == 0.0

    @pytest.mark.parametrize(
        "pts, query, expected",
        [
            ([[1, 2, 3]], [1, 2, 5], 2.0),
            ([[0, 0, 0], [2, 0, 0], [0, 0, 0]], [1, 1, 0], 1.0),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [0.2, 0.2, -3], 3.0),
            ([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], [4, 4, 4], np.sqrt(3)),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], [0.5, 0.5, 1], 1.0),
            ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], [2, 0.5, 0], 1.0),
        ],
    )
    def test_degenerate_spatial_cloud(self, pts, query, expected):
        # the vertices are the strict extreme points, in lexicographic order
        pts = np.array(pts, dtype=float)
        hull = convex_hull(pts)
        assert hull.equations is None and hull.simplices is None
        assert_same_hull(hull, exact_spatial_hull(pts))
        d = distance_to_body(hull, np.array(query, dtype=float))
        assert d == pytest.approx(expected, abs=1e-8)
        for p in pts:
            assert distance_to_body(hull, p) <= 1e-12

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_generators_inside_hull(self, pts):
        pts = np.array(pts, dtype=float)
        hull = convex_hull(pts)
        for p in pts:
            assert distance_to_body(hull, p) <= 1e-6

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    # a zero-area facet: its barycentric coordinates are +inf and -inf
    @example([(0, 0, 1), (0, 5.960464477539063e-08, 0), (-1, 0, 0), (-3.7952929811005873e-50, 0, 6)])
    @settings(max_examples=200, deadline=None)
    def test_generators_inside_spatial_hull(self, pts):
        pts = np.array(pts, dtype=float)
        hull = convex_hull(pts)
        for p in pts:
            assert distance_to_body(hull, p) <= 1e-6

    def test_thin_spatial_cloud_keeps_its_generators(self):
        # qhull's default facet merging leaves (48, 0, 0) 1.04e-6 outside the hull of
        # this thin cloud, and its joggled rebuild 5.8e-11; the exact hull, none
        pts = np.array([(0, 0, 1), (0, 27, -8.29e-184), (0, -2.68e-4, 1e-10),
                        (48, 0, 0), (61, 0, 0), (-42, 8.27e-6, 0)], dtype=float)
        hull = convex_hull(pts)
        assert_same_hull(hull, exact_spatial_hull(pts))
        assert np.all(distance_to_body(hull, pts) == 0.0)


def bent_polygon(seed: int, n: int) -> np.ndarray:
    """24 corners of a regular polygon at scale 1e10, each edge's midpoint pushed out by
    1e-15 of its distance from the centre, and n - 48 points inside: all 48 are vertices,
    while qhull merges each corner pair's edges and leaves a corner about 1e-5 outside."""
    a = np.arange(24) * (2 * np.pi / 24)
    ring = np.column_stack([np.cos(a), np.sin(a)])
    mids = (ring + np.roll(ring, -1, axis=0)) / 2 * (1 + 1e-15)
    inside = np.random.default_rng(seed).uniform(-0.5, 0.5, (max(n - 48, 0), 2))
    return np.vstack([ring, mids, inside]) * 1e10


def planar_cloud(family: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return rng.standard_normal((n, 2))
    if family == "circle":
        a = rng.uniform(0, 2 * np.pi, n)
        return np.column_stack([np.cos(a), np.sin(a)])
    if family == "clipped":  # e4's copies on the square's boundary
        return np.clip(rng.standard_normal((n, 2)) * 0.6, -1.0, 1.0)
    if family == "box":  # about half the points on a face of the square, repeated corners
        return np.clip(rng.standard_normal((n, 2)), -1.0, 1.0)
    if family == "thin":  # widths 1e-13 to 1e-5, rotated
        turn = rng.uniform(0, np.pi)
        rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
        return (rng.standard_normal((n, 2)) * [1.0, 10 ** rng.uniform(-13, -5)]) @ rotation
    if family == "tiny":
        return rng.standard_normal((n, 2)) * 1e-150
    if family == "huge":
        return rng.standard_normal((n, 2)) * 1e150
    if family == "lattice":  # duplicates and collinear runs
        r = int(rng.choice([2, 4, 20, 100]))
        return rng.integers(-r, r + 1, (n, 2)).astype(float)
    if family == "duplicates":  # every point about four times
        base = rng.standard_normal((max(n // 4, 1), 2))
        return base[rng.integers(0, len(base), n)]
    return bent_polygon(seed, n)


PLANAR_FAMILIES = ["gaussian", "circle", "clipped", "box", "thin", "tiny", "huge", "lattice", "duplicates", "bent"]
# where qhull's hull is not the exact one: it loses a near-collinear vertex of some thin
# clouds and of some circles of thousands of points, and merges the bent polygon's corner pairs
QHULL_INEXACT = {"circle", "thin", "bent"}


def assert_same_bits(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_hull(hull, expected):
    for name in ("vertices", "equations", "simplices"):
        assert_same_bits(getattr(hull, name), getattr(expected, name))


def assert_canonical(hull):
    """A full 2D hull runs counterclockwise from its lexicographically smallest vertex, with
    edge i from vertex i to vertex i + 1 and a unit normal on each edge."""
    v, k = hull.vertices, len(hull.vertices)
    assert min(map(tuple, v)) == tuple(v[0])
    rel = v - v[0]
    assert np.sum(rel[:-1, 0] * rel[1:, 1] - rel[1:, 0] * rel[:-1, 1]) > 0
    np.testing.assert_array_equal(hull.simplices, np.column_stack([np.arange(k), (np.arange(k) + 1) % k]))
    np.testing.assert_allclose(np.hypot(*hull.equations[:, :2].T), 1.0, rtol=1e-15)


def strictly_inside(hull, cloud: np.ndarray) -> np.ndarray:
    """Which points of a 2D cloud are certainly strictly inside its hull: inside a polygon on at
    most 64 of the hull's vertices, by a cross product with each edge above its rounding error."""
    if hull.equations is None:  # a flat hull has no interior
        return np.zeros(len(cloud), dtype=bool)
    v = hull.vertices[:: -(-len(hull.vertices) // 64)]
    e = np.roll(v, -1, axis=0) - v
    left = e[:, 0] * (cloud[:, None, 1] - v[:, 1])
    right = e[:, 1] * (cloud[:, None, 0] - v[:, 0])
    bound = 8 * np.finfo(float).eps * (np.abs(left) + np.abs(right)) + np.finfo(float).tiny
    return np.all(left - right > bound, axis=1)


def hull_probes(cloud: np.ndarray, seed: int) -> np.ndarray:
    """20 points uniform on the cloud's box grown by its size on each side, then 10 cloud points."""
    rng = np.random.default_rng(seed)
    lo, hi = cloud.min(axis=0), cloud.max(axis=0)
    return np.vstack([rng.uniform(2 * lo - hi, 2 * hi - lo, (20, 2)), cloud[rng.integers(0, len(cloud), 10)]])


def qhull_inputs(monkeypatch) -> list:
    """Make scipy's ConvexHull record (point count, options) of each call."""
    calls, build = [], scipy.spatial.ConvexHull

    def spy(points, qhull_options=None):
        calls.append((len(points), qhull_options))
        return build(points, qhull_options=qhull_options)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", spy)
    return calls


def planar_hull_without_qhull(cloud: np.ndarray):
    """convex_hull of a 2D cloud, asserting that it calls no scipy ConvexHull."""
    with pytest.MonkeyPatch.context() as patch:
        calls = qhull_inputs(patch)
        hull = convex_hull(cloud)
    assert calls == []
    return hull


class TestPlanarHullCandidates:
    """A 2D hull is built by the exact monotone chain from the points outside the octagon of
    the cloud's extremes, with no qhull call: it has the arrays of the exact hull of the
    whole cloud, and qhull's where qhull is exact."""

    @given(
        family=st.sampled_from(PLANAR_FAMILIES),
        n=st.one_of(st.integers(3, 64), st.integers(1000, 20_000)),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("FC"),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_whole_cloud_bit_for_bit(self, family, n, seed, order):
        cloud = np.asarray(planar_cloud(family, n, seed), order=order)
        hull, expected = planar_hull_without_qhull(cloud), exact_planar_hull(cloud)
        assert_same_hull(hull, expected)
        if family not in QHULL_INEXACT:
            assert_same_hull(hull, full_cloud_hull(cloud))
        probes = hull_probes(cloud, seed)
        assert_same_bits(distance_to_body(hull, probes), distance_to_body(expected, probes))

    @given(
        n=st.one_of(st.integers(3, 64), st.integers(1000, 20_000)),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("FC"),
    )
    @settings(max_examples=50, deadline=None)
    def test_lattice_keeps_its_vertices_and_distances(self, n, seed, order):
        # an integer lattice has interior points on lines through hull points; with the
        # hull taken from its vertex cycle alone, dropping them changes no bit of it
        cloud = np.asarray(planar_cloud("lattice", n, seed), order=order)
        hull, expected = convex_hull(cloud), full_cloud_hull(cloud)
        assert sorted(map(tuple, hull.vertices)) == sorted(map(tuple, expected.vertices))
        assert_same_hull(hull, expected)
        probes = hull_probes(cloud, seed)[:20]  # off the lattice
        assert_same_bits(distance_to_body(hull, probes), distance_to_body(expected, probes))

    @given(
        family=st.sampled_from(PLANAR_FAMILIES),
        n=st.one_of(st.integers(3, 64), st.integers(1000, 20_000)),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("FC"),
        drop=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_a_function_of_the_vertex_set(self, family, n, seed, order, drop):
        # any order of the cloud, less any of its strictly interior points, gives the same arrays
        cloud = planar_cloud(family, n, seed)
        expected = convex_hull(np.asarray(cloud, order=order))
        if expected.equations is not None:
            assert_canonical(expected)
        rng = np.random.default_rng(seed)
        rest = cloud[~(strictly_inside(expected, cloud) & (rng.uniform(size=len(cloud)) < drop))]
        assert_same_hull(convex_hull(np.asarray(rest[rng.permutation(len(rest))], order=order)), expected)

    def test_e4_node_cloud_needs_no_qhull(self, frozen_configs, monkeypatch):
        # e4's node-20 cloud at N = 20000, replication 0
        plan = harness.plan_experiment(frozen_configs["e4"])
        n = 20_000
        seed = dynamics.derive_seed(plan.config.seed, n, 0)
        cloud = dynamics.simulate_ensemble(plan.model, plan.mf, plan.grid, n, seed, nodes=[20]).at(20)
        expected = full_cloud_hull(cloud)
        calls = qhull_inputs(monkeypatch)
        assert_same_hull(convex_hull(cloud), expected)
        assert calls == []

    @pytest.mark.parametrize("flat", ["collinear", "reported flat"])
    def test_flat_fallback_sees_the_whole_cloud(self, flat):
        # a collinear cloud is the segment between its lexicographic ends, and a cloud that
        # qhull reports flat, a triangle at 1e307 or a Gaussian cloud at 1e-200, is whole
        rng = np.random.default_rng(5)
        if flat == "collinear":
            t = rng.uniform(-1, 1, 2000)
            clouds = [np.column_stack([t, 2 * t])]
        else:
            clouds = [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) * 1e307, rng.standard_normal((40, 2)) * 1e-200]
        for cloud in clouds:
            hull = planar_hull_without_qhull(cloud)
            assert_same_hull(hull, exact_planar_hull(cloud))
            if flat == "collinear":
                ends = cloud[np.lexsort(cloud.T[::-1])[[0, -1]]]
                np.testing.assert_array_equal(hull.vertices, ends)
                assert hull.equations is None
            else:
                assert hull.equations is not None and full_cloud_hull(cloud).equations is None

    def test_matches_the_whole_cloud_at_every_scale(self):
        # 40 Gaussian points at scales 1e-320 to 1e306, and in steps of 10**0.2 from 1e153.2
        # to 1e154.4, where qhull starts to report some flat: the exact hull, with unit normals
        # also where the edges are subnormal
        for k in [*range(-320, 307, 2), *(j / 10 for j in range(1532, 1546, 2))]:
            for seed in range(3):
                cloud = np.random.default_rng(seed).standard_normal((40, 2)) * 10.0**k
                hull = planar_hull_without_qhull(cloud)
                assert_same_hull(hull, exact_planar_hull(cloud))
                np.testing.assert_allclose(np.hypot(*hull.equations[:, :2].T), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("case", ["repeated corner", "collinear edge run", "lattice"])
    def test_a_tied_cloud_needs_no_qhull(self, case):
        # turns too close to call in floats are decided exactly
        rng = np.random.default_rng(3)
        if case == "repeated corner":
            a = np.arange(8) * (np.pi / 4)
            corners = np.column_stack([np.cos(a), np.sin(a)])
            cloud = np.vstack([corners, corners[3], rng.uniform(-0.5, 0.5, (100, 2))])
        elif case == "collinear edge run":  # points exactly on the square's lower edge
            edge = np.column_stack([np.arange(1, 8) / 8, np.zeros(7)])
            square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
            cloud = np.vstack([square, edge, rng.uniform(0.1, 0.9, (100, 2))])
        else:
            cloud = rng.integers(-3, 4, (200, 2)).astype(float)
        hull = planar_hull_without_qhull(cloud)
        assert_same_hull(hull, exact_planar_hull(cloud))
        assert_same_hull(hull, full_cloud_hull(cloud))

    def test_bent_polygon_keeps_every_corner(self):
        # qhull's merged facets leave a corner outside, and its joggled rebuild keeps 39 of the 48
        cloud = bent_polygon(0, 2000)
        hull = planar_hull_without_qhull(cloud)
        assert_same_hull(hull, exact_planar_hull(cloud))
        assert len(hull.vertices) == 48

    @pytest.mark.parametrize("cloud", [[[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]], [[-1e308, 1.0], [1e308, 1.0]]])
    def test_an_overflowing_edge_is_one_geometry_error(self, cloud):
        with pytest.raises(GeometryError, match=r"^a 2D hull edge overflows: [^\n]*$"):
            convex_hull(np.array(cloud))


def spatial_cloud(family: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return rng.standard_normal((n, 3))
    if family == "sphere":
        cloud = rng.standard_normal((n, 3))
        return cloud / row_norms(cloud)[:, None]
    if family == "ball-clipped":  # ball3d's copies on the unit sphere: about 43% of them
        cloud = rng.standard_normal((n, 3)) * 0.6
        norms = row_norms(cloud)[:, None]
        return np.where(norms > 1.0, cloud / norms, cloud)
    if family == "box-clipped":  # a cube body's copies: most on a face, repeated corners
        return np.clip(rng.standard_normal((n, 3)), -1.0, 1.0)
    if family == "lattice":  # duplicates, coplanar faces and collinear edge runs
        r = int(rng.choice([1, 2, 20]))
        return rng.integers(-r, r + 1, (n, 3)).astype(float)
    if family == "duplicates":  # every point about four times
        base = rng.standard_normal((max(n // 4, 1), 3))
        return base[rng.integers(0, len(base), n)]
    if family == "coplanar":  # exactly on a plane through no axis: s (1, 2, 3) + t (2, -1, 1)
        s, t = (rng.integers(-2**20, 2**20, (n, 1)) / 2.0**20 for _ in range(2))
        return s * [1.0, 2.0, 3.0] + t * [2.0, -1.0, 1.0]
    if family == "collinear":
        return np.outer(rng.standard_normal(n), [1.0, -2.0, 0.5])
    if family == "tiny":
        return rng.standard_normal((n, 3)) * 1e-150
    if family == "huge":
        return rng.standard_normal((n, 3)) * 1e150
    # thin: widths 1e-13 to 1e-5, rotated
    rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return (rng.standard_normal((n, 3)) * [1.0, 1.0, 10 ** rng.uniform(-13, -5)]) @ rotation


# the families whose hulls have few facets, and which the float quickhull could not certify
TIED_FAMILIES = ["box-clipped", "lattice", "duplicates", "coplanar", "collinear", "thin", "tiny", "huge"]


def spatial_probes(cloud: np.ndarray) -> np.ndarray:
    """The 26 auto probes of the ball about the origin through the cloud's farthest point, and
    of the ball 1.5625 times as large: at 0.8 and 1.25 of the cloud's radius."""
    radius = float(row_norms(cloud).max())
    return np.vstack([harness.default_probes(Ball(np.zeros(3), radius * scale)) for scale in (1.0, 1.5625)])


def spatial_hull_spied(cloud: np.ndarray):
    """convex_hull of a 3D cloud, asserting that it calls scipy's ConvexHull only on more than
    QUICKHULL_MAX_POINTS distinct candidates."""
    with pytest.MonkeyPatch.context() as patch:
        calls = qhull_inputs(patch)
        hull = convex_hull(cloud)
    assert all(count > geometry.QUICKHULL_MAX_POINTS and options == "Qt Qc" for count, options in calls), calls
    return hull


def assert_spatial_canonical(hull):
    """The vertices, and the rows of simplices and each row, run in lexicographic order."""
    v = hull.vertices
    assert np.all(np.lexsort(v.T[::-1]) == np.arange(len(v)))
    if hull.simplices is not None:
        s = hull.simplices
        assert np.all(s[:, :-1] < s[:, 1:]) and np.all(np.lexsort(s.T[::-1]) == np.arange(len(s)))


class TestSpatialHull:
    """Every 3D hull is the exact hull of its cloud, with canonical arrays that depend on its
    vertex set alone. The exact quickhull builds it, or qhull above QUICKHULL_MAX_POINTS
    distinct candidates, whose triangles are certified exactly; no cloud reaches qhull whole."""

    @pytest.mark.parametrize("n", [200, 2000, 20_000])
    @pytest.mark.parametrize("family", ["gaussian", "sphere", "ball-clipped", "thin"])
    def test_matches_the_whole_cloud_bit_for_bit(self, family, n):
        # where qhull is exact, its hull of the whole cloud with canonical arrays; a thin
        # cloud, where it is not, holds every point at distance 0.0 and is the hull of its
        # own vertices, each a cloud point, with every one of them kept
        for seed in range(3):
            cloud = spatial_cloud(family, n, seed)
            hull = spatial_hull_spied(cloud)
            if family == "thin":
                assert np.all(distance_to_body(hull, cloud) == 0.0)
                assert set(map(tuple, hull.vertices)) <= set(map(tuple, cloud))
                assert_same_hull(convex_hull(hull.vertices), hull)
                continue
            expected = canonical_spatial_hull(cloud)
            assert_same_hull(hull, expected)
            probes = spatial_probes(cloud)
            assert_same_bits(distance_to_body(hull, probes), distance_to_body(expected, probes))

    def test_ball3d_node_clouds_need_no_qhull(self, monkeypatch):
        # hullbench's ball3d-state-sigma node-20 clouds, replication 0, with its 26 auto probes
        plan = harness.plan_experiment(harness.load_config(SRC.parent / "hullbench" / "ball3d_state_sigma.cfg"))
        for n in (200, 2000, 20_000):
            seed = dynamics.derive_seed(plan.config.seed, n, 0)
            cloud = dynamics.simulate_ensemble(plan.model, plan.mf, plan.grid, n, seed, nodes=[20]).at(20)
            expected = canonical_spatial_hull(cloud)
            with monkeypatch.context() as patch:
                calls = qhull_inputs(patch)
                hull = convex_hull(cloud)
            assert calls == []
            assert_same_hull(hull, expected)
            assert_same_bits(distance_to_body(hull, plan.probes), distance_to_body(expected, plan.probes))

    @given(
        family=st.sampled_from(["gaussian", "sphere", "ball-clipped", "box-clipped", "lattice", "duplicates"]),
        n=st.one_of(st.integers(4, 64), st.integers(1000, 20_000)),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("FC"),
        drop=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_a_function_of_the_vertex_set(self, family, n, seed, order, drop):
        # any order of the cloud, less any of its strictly interior points, gives the same arrays
        cloud = spatial_cloud(family, n, seed)
        expected = spatial_hull_spied(np.asarray(cloud, order=order))
        assert_spatial_canonical(expected)
        top = np.zeros(n)  # a flat hull has no interior
        if expected.equations is not None:
            # the largest facet height per point, 256 points at a time: a sphere cloud's hull has
            # about 2n facets, and all n x 2n heights at once take 6.4 GB at n = 20 000
            top = np.concatenate([(cloud[i:i + 256] @ expected.equations[:, :3].T + expected.equations[:, 3])
                                  .max(axis=1) for i in range(0, n, 256)])
        rng = np.random.default_rng(seed)
        rest = cloud[~((top < -1e-9) & (rng.uniform(size=n) < drop))]
        assert_same_hull(convex_hull(np.asarray(rest[rng.permutation(len(rest))], order=order)), expected)

    @pytest.mark.parametrize("n", [300, 2000, 20_000])
    @pytest.mark.parametrize("family", TIED_FAMILIES)
    def test_a_tied_flat_thin_tiny_or_huge_cloud_is_exact(self, family, n):
        # no qhull call below QUICKHULL_MAX_POINTS candidates, every cloud point at distance 0.0
        # from a full hull, the vertex set of qhull's whole-cloud hull where qhull is exact, and
        # the same bits from any order of the cloud less half its points strictly inside
        cloud = spatial_cloud(family, n, 0)
        hull = spatial_hull_spied(cloud)
        assert_spatial_canonical(hull)
        if family in ("coplanar", "collinear"):
            assert hull.equations is None and hull.simplices is None
        else:
            assert np.all(distance_to_body(hull, cloud) == 0.0)
        if family in ("box-clipped", "lattice", "duplicates", "tiny"):
            assert sorted(map(tuple, hull.vertices)) == sorted(map(tuple, full_cloud_hull(cloud).vertices))
        rng = np.random.default_rng(1)
        inside = np.zeros(n, dtype=bool)  # a flat hull has no interior
        if hull.equations is not None:
            inside = hull.interior_margin(cloud) > 1e-9 * np.abs(cloud).max()
        rest = cloud[~(inside & (rng.uniform(size=n) < 0.5))]
        assert_same_hull(convex_hull(rest[rng.permutation(len(rest))]), hull)

    @given(
        family=st.sampled_from(["lattice 1", "lattice 3", "half-integers", "box-clipped"]),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_small_tied_clouds_equal_the_exact_hull(self, family, n, seed):
        # lattices in {-1, 0, 1}^3 and {-3, ..., 3}^3, half-integers in [-2, 2]^3 and
        # box-clipped Gaussians, against the exact hull from every supporting plane
        rng = np.random.default_rng(seed)
        if family.startswith("lattice"):
            r = int(family.split()[1])
            cloud = rng.integers(-r, r + 1, (n, 3)).astype(float)
        elif family == "half-integers":
            cloud = rng.integers(-4, 5, (n, 3)) / 2.0
        else:
            cloud = np.clip(rng.standard_normal((n, 3)), -1.0, 1.0)
        hull = spatial_hull_spied(cloud)
        assert_same_hull(hull, exact_spatial_hull(cloud))
        if hull.equations is not None:  # a point on a tilted face may read a few ulps outside
            assert np.all(distance_to_body(hull, cloud) <= 4 * np.finfo(float).eps * np.abs(cloud).max())

    @pytest.mark.parametrize("family", ["gaussian", "sphere", "ball-clipped", "box-clipped", "lattice"])
    def test_both_builders_give_the_same_bits(self, family, monkeypatch):
        # QUICKHULL_MAX_POINTS only picks the builder: qhull on the candidates, or the Python quickhull
        for n in (200, 2000) if family == "sphere" else (200, 2000, 20_000):
            cloud = spatial_cloud(family, n, 1)
            with monkeypatch.context() as patch:
                calls = qhull_inputs(patch)
                patch.setattr(geometry, "QUICKHULL_MAX_POINTS", 0)
                by_qhull = convex_hull(cloud)
                patch.setattr(geometry, "QUICKHULL_MAX_POINTS", 10**9)
                by_python = convex_hull(cloud)
            assert len(calls) == 1 and calls[0][0] <= n
            assert_same_hull(by_python, by_qhull)

    def test_a_zero_area_triangle_goes_to_the_python_quickhull(self, monkeypatch):
        # qhull's Qt may triangulate a merged facet with a zero-area triangle. Here one spans
        # a tetrahedron's edge a b and its midpoint m, so its side against each neighbour is 0:
        # merged, it would join two faces that are not coplanar. _spatial_hull refuses it, and
        # the hull comes from the Python quickhull
        a, b, c, d = [0.0, 0.0, 0.0], [4.0, 2.0, 6.0], [5.0, -3.0, 1.0], [-1.0, 5.0, 2.0]
        m = [2.0, 1.0, 3.0]
        points = np.array(sorted([a, b, c, d, m]))
        a, b, c, d, m = (int(np.flatnonzero((points == p).all(axis=1))[0]) for p in (a, b, c, d, m))
        centre, triangles = points[[a, b, c, d]].mean(axis=0), []
        for i, j, k in [[a, b, c], [m, a, d], [b, m, d], [a, c, d], [b, d, c]]:
            outward = np.cross(points[j] - points[i], points[k] - points[i]) @ (points[i] - centre) > 0
            triangles.append([i, j, k] if outward else [i, k, j])
        edges = {(t[s], t[s - 2]) for t in triangles for s in range(3)}
        rest = {j: i for i, j in edges if (j, i) not in edges}  # a m b's edges, each reversed
        triangles = np.array(triangles + [[a, rest[a], rest[rest[a]]]])
        assert geometry._sorted_rows(triangles)[0][-1].tolist() == sorted([a, b, m])
        assert geometry._spatial_hull(points, triangles) is None
        # every cloud takes the qhull path, where the triangles above stand in for qhull's
        inputs = []
        monkeypatch.setattr(geometry, "QUICKHULL_MAX_POINTS", 0)
        monkeypatch.setattr(geometry, "_qhull_triangles", lambda cands: inputs.append(cands) or triangles)
        hull = convex_hull(points)
        assert len(inputs) == 1 and np.array_equal(inputs[0], points)
        assert_same_hull(hull, exact_spatial_hull(points))
        assert hull.vertices.shape == (4, 3) and hull.simplices.shape == (4, 3)

    def test_coplanar_triangles_are_refused(self):
        # coplanar triangles merge into one face, fanned from its smallest corner, with one
        # equation row: the cube has 8 vertices, 12 triangles and 6 distinct equation rows,
        # from the Python quickhull and from qhull's triangles alike; the octahedron's
        # triangles are its faces
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        hull = convex_hull(cube)
        assert hull.vertices.shape == (8, 3) and hull.simplices.shape == (12, 3)
        assert len(np.unique(hull.equations, axis=0)) == 6
        assert_same_hull(hull, exact_spatial_hull(cube))
        assert_same_hull(geometry._spatial_hull(cube, geometry._qhull_triangles(cube)), hull)
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        assert_same_hull(convex_hull(octahedron), canonical_spatial_hull(octahedron))

    def test_one_equation_per_face_keeps_a_face_point_inside(self):
        # every row of a face shares its equation, so a point on a face is above all of them or
        # none: with each fan triangle's own equation, rounding put a point on a face of this
        # lattice hull above a coplanar sibling and 3.18 away from it
        cloud = np.random.default_rng(0).integers(-20, 21, (2000, 3)).astype(float)
        hull = convex_hull(cloud)
        rows = {}
        for row, simplex in zip(hull.equations.tolist(), hull.simplices.tolist()):
            rows.setdefault(tuple(row), []).append(simplex)
        assert len(rows) < len(hull.simplices)  # some face has more than one triangle
        assert np.all(distance_to_body(hull, cloud) == 0.0)

    @pytest.mark.parametrize(
        "case", ["lattice 2", "lattice 4", "lattice 20", "box-clipped", "repeated vertex", "coplanar",
                 "collinear", "tiny", "huge"],
    )
    def test_a_refused_cloud_reaches_qhull_whole(self, case, monkeypatch):
        # the clouds the float quickhull refused call no qhull now: a full one has qhull's vertex
        # set (a huge one, which qhull gets wrong, that of the cloud scaled down exactly), every
        # cloud point at distance 0.0 and the arrays of the hull of its vertices; a coplanar one
        # has its polygon's corners and a collinear one its two ends
        rng = np.random.default_rng(7)
        cloud = rng.standard_normal((300, 3))
        if case.startswith("lattice"):  # integer points in [-r, r]^3
            r = int(case.split()[1])
            cloud = rng.integers(-r, r + 1, (300, 3)).astype(float)
        elif case == "box-clipped":  # copies on the faces of a box
            cloud = np.clip(cloud * 0.6, -1.0, 1.0)
        elif case == "repeated vertex":
            cloud = np.vstack([cloud, cloud[np.argmax(cloud[:, 0])]])
        elif case == "coplanar":
            cloud[:, 2] = 0.5
        elif case == "collinear":
            cloud = np.outer(cloud[:, 0], [1.0, -2.0, 0.5])
        elif case in ("tiny", "huge"):
            cloud *= 1e-150 if case == "tiny" else 1e150
        expected = full_cloud_hull(cloud)
        calls = qhull_inputs(monkeypatch)
        hull = convex_hull(cloud)
        assert calls == []
        if case == "coplanar":
            corners = exact_planar_hull(cloud[:, :2]).vertices
            corners = corners[np.lexsort(corners.T[::-1])]
            np.testing.assert_array_equal(hull.vertices, np.column_stack([corners, np.full(len(corners), 0.5)]))
        elif case == "collinear":
            np.testing.assert_array_equal(hull.vertices, cloud[np.lexsort(cloud.T[::-1])[[0, -1]]])
        else:
            vertices = expected.vertices
            if case == "huge":  # where qhull is not exact: the hull of the cloud scaled by 2**-500
                vertices = np.ldexp(convex_hull(np.ldexp(cloud, -500)).vertices, 500)
            assert sorted(map(tuple, hull.vertices)) == sorted(map(tuple, vertices))
            assert np.all(distance_to_body(hull, cloud) == 0.0)
            assert_same_hull(convex_hull(hull.vertices), hull)

    @pytest.mark.parametrize("cloud", [
        [[1e300, 0, 0], [0, 1e300, 0], [0, 0, 1e300], [1e-310, 1e-310, 1e-310], [-1e300, -1e300, -1e300],
         [5e299, 5e299, -1e-300]],  # scaling down would round the small coordinates: decided exactly
        [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],  # signed zeros
        [[0, 0, 0], [0, 0, 1.175494351e-38], [0, 1, 0], [-1, 0, 1]],  # a sliver: its float normal is 0
        [[1, 2, 3]], [[1, 2, 3], [0, 0, 0]], [[1, 2, 3]] * 5,
    ], ids=["mixed scales", "signed zeros", "sliver", "one point", "two points", "one point repeated"])
    def test_odd_clouds_equal_the_exact_hull(self, cloud):
        cloud = np.array(cloud, dtype=float)
        assert_same_hull(spatial_hull_spied(cloud), exact_spatial_hull(cloud))
        assert_same_hull(convex_hull(cloud[::-1]), exact_spatial_hull(cloud))

    def test_a_hull_spanning_past_the_largest_float_is_one_geometry_error(self):
        with pytest.raises(GeometryError, match=r"^a 3D hull spans more than the largest float$"):
            convex_hull(np.array([[1.7e308, 0, 0], [-1.7e308, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_matches_the_whole_cloud_at_every_scale(self):
        # 40 Gaussian points at scales 1e-320 to 1e308, with no qhull call: qhull's whole-cloud
        # hull with canonical arrays at every scale from 1e-76 to 1e74, where the float filter
        # certified every side before any exact test, the exact hull at every 40th power of ten
        # outside that, and normals unit to 1e-15 up to 1e306
        for k in range(-320, 309, 2):
            for seed in range(3):
                with np.errstate(over="ignore"):
                    cloud = np.random.default_rng(seed).standard_normal((40, 3)) * 10.0**k
                if not np.all(np.isfinite(cloud)):
                    continue
                hull = spatial_hull_spied(cloud)
                if -76 <= k <= 74:
                    assert_same_hull(hull, canonical_spatial_hull(cloud))
                elif k % 40 == 0:
                    assert_same_hull(hull, exact_spatial_hull(cloud))
                if hull.equations is not None and k <= 306:
                    np.testing.assert_allclose(row_norms(hull.equations[:, :3]), 1.0, rtol=1e-15)


class TestHullDistance:
    def test_point_inside_1d(self):
        hull = convex_hull(np.array([-0.7, 0.3]))
        assert distance_to_body(hull, np.array([0.0])) == 0.0

    def test_triangle_outside_corner(self):
        hull = convex_hull(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        d = distance_to_body(hull, np.array([1.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-9)

    def test_square_interior(self):
        hull = convex_hull(np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float))
        assert distance_to_body(hull, np.zeros(2)) == 0.0

    def test_singleton(self):
        hull = convex_hull(np.array([[1.0, 2.0]]))
        assert distance_to_body(hull, np.array([4.0, 6.0])) == pytest.approx(5.0)

    def test_solver_takes_values_on_the_line(self):
        assert min_norm_point_distance(np.array([0.0, 1.0, 0.5]), 3.0) == 2.0
        assert min_norm_point_distance(np.array([0.0, 1.0, 0.5]), np.array([0.25])) == 0.0

    @pytest.mark.parametrize(
        "points, x, tol, message",
        [
            (np.zeros((3, 2)), np.zeros(3), 1e-7, r"generators must be \(p, m\)"),
            (np.zeros((3, 2, 1)), np.zeros(2), 1e-7, r"generators must be \(p, m\)"),
            (np.zeros((3, 2)), np.zeros(2), 0.0, "tolerance must be positive"),
            (np.zeros((3, 2)), np.zeros(2), -1e-7, "tolerance must be positive"),
        ],
        ids=["query_width", "generators_3d", "zero_tol", "negative_tol"],
    )
    def test_solver_rejects_bad_input(self, points, x, tol, message):
        with pytest.raises(GeometryError, match=f"^{message}"):
            min_norm_point_distance(points, x, tol)

    def test_solver_against_polygon_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            pts = rng.uniform(-2, 2, size=(rng.integers(1, 13), 2))
            x = rng.uniform(-4, 4, size=2)
            solved = min_norm_point_distance(pts, x, tol=1e-7)
            exact = brute_force_hull_distance(pts, x)
            assert abs(solved - exact) <= 1e-6

    @pytest.mark.parametrize(
        "query, expected",
        [
            ([2.0, 0.5, 0.5], 1.0),  # face
            ([2.0, 2.0, 0.5], np.sqrt(2)),  # edge
            ([2.0, 2.0, 2.0], np.sqrt(3)),  # corner
            ([-1.0, -1.0, -1.0], np.sqrt(3)),
            ([0.5, 0.5, 0.5], 0.0),  # interior
            ([1.0, 0.3, 0.0], 0.0),  # on an edge
        ],
    )
    def test_unit_cube(self, query, expected):
        corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)
        hull = convex_hull(np.vstack([corners, [[0.5, 0.5, 0.5], [0.2, 0.9, 0.4]]]))
        assert hull.vertices.shape == (8, 3)
        d = distance_to_body(hull, np.array(query))
        if expected == 0.0:
            assert d == 0.0
        else:
            assert d == pytest.approx(expected, abs=1e-12)

    def test_spatial_distance_against_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = rng.standard_normal((int(rng.integers(4, 31)), 3))
            hull = convex_hull(pts)
            x = rng.uniform(-3, 3, size=3)
            exact = distance_to_body(hull, x)
            assert abs(exact - min_norm_point_distance(pts, x, tol=1e-9)) <= 1e-9 + 1e-12

    def test_solver_stops_above_rounding(self):
        # The seventh cloud of this stream once ran to the iteration cap at
        # tol 1e-9: a gap floor of tol**2 lies below float64 rounding.
        rng = np.random.default_rng(0)
        for _ in range(7):
            pts = rng.standard_normal((int(rng.integers(4, 31)), 3))
            x = rng.uniform(-3, 3, size=3)
        exact = distance_to_body(convex_hull(pts), x)
        assert exact == pytest.approx(2.1735, abs=1e-4)
        assert abs(min_norm_point_distance(pts, x, tol=1e-9) - exact) <= 1e-9
        # an interior probe ends once the residual itself is below tol
        assert min_norm_point_distance(pts, pts.mean(axis=0), tol=1e-9) <= 1e-9

    def test_four_dim_falls_back_to_solver_over_vertices(self):
        corners = np.array(
            [[(k >> b) & 1 for b in range(4)] for k in range(16)], dtype=float
        )
        hull = convex_hull(np.vstack([corners, np.full((1, 4), 0.5)]))
        assert hull.vertices.shape == (16, 4)
        assert distance_to_body(hull, np.full(4, 0.25)) == 0.0
        assert distance_to_body(hull, np.array([2.0, 0.5, 0.5, 0.5])) == pytest.approx(1.0, abs=1e-6)

    def test_solver_in_three_dimensions(self):
        # distance from a point above a tetrahedron face computed two ways
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            dtype=float,
        )
        d = min_norm_point_distance(pts, np.array([1.0, 1.0, 1.0]), tol=1e-9)
        assert d == pytest.approx(2.0 / np.sqrt(3), abs=1e-7)

    @pytest.mark.parametrize(
        "points, x, tol, expected",
        [
            # the toward step's squared length underflows (denom == 0.0): the segment
            # is 1e-200 long, and a tol this small keeps its gap of 2e-200 from ending
            # the search first; the distance is the distance to its ends
            ([[0.0, 0.0], [1e-200, 0.0]], [1.0, 1.0], 1e-300, np.sqrt(2.0)),
            ([[0.0, 0.0], [1e-200, 0.0]], [3.0, -4.0], 1e-300, 5.0),
        ],
        ids=["zero_step_length", "zero_step_length_3_4_5"],
    )
    def test_solver_early_exits_return_the_distance(self, points, x, tol, expected):
        with np.errstate(over="ignore", invalid="ignore"):
            assert min_norm_point_distance(np.array(points), np.array(x), tol) == expected

    @pytest.mark.parametrize(
        "points, x",
        [
            # 2 V @ r overflows at the far generator, so the mean gradient is NaN and no step
            # test can hold: the start vertex's distance, 1.118, would stand for the edge's 1.0
            ([[0.0, 0.0], [1e308, 0.0], [0.0, 1.0]], [-1.0, 0.5]),
            # the same overflow where the start vertex happens to be the nearest point
            ([[0.0], [1e308]], [-1.0]),
        ],
        ids=["start_vertex_for_an_edge", "all_weight_on_the_away_vertex"],
    )
    def test_solver_rejects_an_overflowing_gradient(self, points, x):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GeometryError) as info:
            min_norm_point_distance(np.array(points), np.array(x))
        assert str(info.value).startswith("min-norm-point gradient is not finite") and "\n" not in str(info.value)

    def test_solver_cap_raises_with_its_residual(self):
        # the nearest point is an edge midpoint: the start vertex is one step short
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.array([0.5, -1.0])
        assert min_norm_point_distance(pts, x, max_iter=2) == 1.0
        with pytest.raises(ProjectionSolverError, match="iteration cap") as info:
            min_norm_point_distance(pts, x, max_iter=1)
        assert np.isfinite(info.value.residual) and info.value.residual > 0

    def test_face_distances_hold_from_1e_150_to_1e150(self):
        # the barycentric products of a 3D face run on its edges scaled by one power of two per
        # row: unscaled, they overflow past 1e77 and underflow below 1e-77, and the plane foot
        # of a point above the face's interior is lost to the nearest edge's
        cloud = np.random.default_rng(0).standard_normal((50, 3))
        queries = np.array([[10.0, 10.0, 10.0], [0.1, 0.2, 0.3], [-3.0, 0.5, 4.0]])
        expected = distance_to_body(convex_hull(cloud), queries)
        for k in (-150, -100, 100, 150):
            hull = convex_hull(cloud * 10.0**k)
            np.testing.assert_allclose(distance_to_body(hull, queries * 10.0**k) / 10.0**k, expected, rtol=1e-12)


class TestHullAsBody:
    """A Hull is a ConvexBody: project, distance, support, interior_margin and bounding_box."""

    def test_e4_square_projects_with_the_hpolytope_bits(self):
        # e4's square (mf.kind = constant_square_hpoly, half_width 1) as half-spaces and as the
        # hull of its corners: inside an edge the hull's foot is x - h n, the face-set projector's
        square = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4))
        hull = convex_hull(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
        x = np.random.default_rng(10).standard_normal((10_000, 2)) * 1.5
        assert isinstance(hull, ConvexBody)
        assert project(hull, x).tobytes() == project(square, x).tobytes()

    @pytest.mark.parametrize("m", [2, 3])
    def test_projection_matches_the_hpolytope_of_its_facets(self, m):
        # polygons on 3 to 12 jittered, evenly spread directions, and jittered octahedra (8
        # facets): no facet pair is near parallel. On a thin Gaussian triangle the H-polytope
        # of the facet equations is itself ill-conditioned: its foot lands 2.5e-12 off the
        # vertex, whose distance the hull gets exactly (the pair-segment oracle's)
        rng = np.random.default_rng(m)
        for _ in range(30):
            if m == 2:
                k = int(rng.integers(3, 13))
                angles = (np.arange(k) + rng.uniform(-0.3, 0.3, k)) * (2 * np.pi / k)
                cloud = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 2, (k, 1))
            else:
                cloud = np.vstack([np.eye(3), -np.eye(3)]) * rng.uniform(0.5, 2, (6, 1)) + rng.uniform(-0.2, 0.2, (6, 3))
            hull = convex_hull(cloud + rng.uniform(-1, 1, m))
            assert len(hull.equations) <= 12
            poly = HPolytope(hull.equations[:, :-1], -hull.equations[:, -1])
            x = rng.uniform(-4, 4, (300, m))
            np.testing.assert_allclose(project(hull, x), project(poly, x), rtol=0, atol=1e-12)
            np.testing.assert_allclose(hull.interior_margin(x), poly.interior_margin(x), rtol=0, atol=1e-12)
            for u in rng.standard_normal((5, m)):
                assert support(hull, u) == pytest.approx(support(poly, u), abs=1e-12)

    def test_body_operations(self):
        rng = np.random.default_rng(11)
        hull = convex_hull(rng.standard_normal((30, 3)))
        lo, hi = hull.bounding_box()
        np.testing.assert_array_equal(lo, hull.vertices.min(axis=0))
        np.testing.assert_array_equal(hi, hull.vertices.max(axis=0))
        assert norm_bound(hull) == np.sqrt(np.sum(np.maximum(lo**2, hi**2)))
        assert np.all(contains(hull, hull.vertices)) and not contains(hull, hi + 1.0)
        x = rng.uniform(-3, 3, (500, 3))
        # the margin and the distance read the same facet heights: outside means both
        np.testing.assert_array_equal(hull.interior_margin(x) < 0, distance_to_body(hull, x) > 0)

    def test_interior_margin_of_a_line_and_a_flat_hull(self):
        line = convex_hull(np.array([-0.5, 0.25, 1.0]))
        np.testing.assert_array_equal(line.interior_margin(np.array([[0.0], [2.0], [-1.0]])), [0.5, -1.0, -0.5])
        segment = convex_hull(np.array([[0.0, 0.0], [2.0, 0.0]]))
        q = np.array([[1.0, 1.0], [3.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(segment.interior_margin(q), -distance_to_body(segment, q))
        np.testing.assert_array_equal(project(segment, q), [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]])


def _hull_queries(pts: np.ndarray, rng) -> np.ndarray:
    """Points inside, on the boundary (generators, midpoints, a hair outside
    a generator) and outside a cloud."""
    center = pts.mean(axis=0)
    dirs = rng.standard_normal((6, pts.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    spread = np.abs(pts - center).max() + 1.0
    return np.vstack([
        center, pts, (pts + np.roll(pts, 1, axis=0)) / 2,
        center + (pts - center) * (1 + 1e-12),
        center + 0.5 * spread * dirs, center + 3 * spread * dirs,
    ])


CUBE_4D = np.array([[(k >> b) & 1 for b in range(4)] for k in range(16)], dtype=float)


class TestBatchedHullDistance:
    @pytest.mark.parametrize(
        "pts",
        [
            np.random.default_rng(1).standard_normal((9, 1)),
            np.random.default_rng(2).standard_normal((40, 2)),
            np.random.default_rng(3).standard_normal((40, 3)),
            np.vstack([CUBE_4D, np.random.default_rng(4).uniform(0, 1, (4, 4))]),
            np.array([[0.5, -1.0]]),  # flat: one point
            np.array([[0.0, 0.0], [1.0, 2.0], [0.5, 1.0]]),  # flat: a segment
            np.array([[0, 0, 1], [2, 0, 1], [0, 3, 1], [1, 1, 1], [2, 3, 1]], dtype=float),
        ],
        ids=["1d", "2d", "3d", "4d", "point", "segment", "coplanar"],
    )
    def test_each_row_equals_its_single_query(self, pts):
        hull = convex_hull(pts)
        queries = _hull_queries(pts, np.random.default_rng(5))
        batch = distance_to_body(hull, queries)
        singles = [distance_to_body(hull, q) for q in queries]
        assert batch.shape == (len(queries),)
        assert all(isinstance(d, float) for d in singles)
        assert batch.tobytes() == np.array(singles).tobytes()
        assert batch[0] <= 1e-7 < batch[-1]  # inside (Frank-Wolfe: to tol), outside
        assert distance_to_body(hull, queries[:0]).shape == (0,)
        # the foot: each row its single query's, and as far from it as the distance says,
        # up to rounding where the kernel is exact and to HULL_TOL where Frank-Wolfe runs
        feet = hull.project(queries)
        assert feet.shape == queries.shape
        assert feet.tobytes() == np.array([hull.project(q) for q in queries]).tobytes()
        frank_wolfe = hull.dim > 3 or (hull.dim == 3 and hull.equations is None)
        assert np.max(np.abs(row_norms(queries - feet) - batch)) <= (HULL_TOL if frank_wolfe else 1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2), (3,), ()])
    def test_query_shape_must_be_a_point_or_a_batch(self, shape):
        hull = convex_hull(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        if shape == (2, 4, 2):  # a batch of batches, as for every body
            np.testing.assert_array_equal(distance_to_body(hull, np.zeros(shape)), np.zeros((2, 4)))
            return
        with pytest.raises(GeometryError):
            distance_to_body(hull, np.zeros(shape))

    def test_planar_simplices_run_counterclockwise(self):
        rng = np.random.default_rng(6)
        for size in (3, 4, 10, 200):
            hull = convex_hull(rng.standard_normal((size, 2)))
            i, j = hull.simplices.T
            assert np.array_equal(j, (i + 1) % len(hull.vertices))
            edge = hull.vertices[j] - hull.vertices[i]
            outward = np.stack([edge[:, 1], -edge[:, 0]], axis=1)
            outward /= np.linalg.norm(outward, axis=1, keepdims=True)
            np.testing.assert_allclose(hull.equations[:, :2], outward, atol=1e-12)
            offsets = -np.sum(outward * hull.vertices[i], axis=1)
            np.testing.assert_allclose(hull.equations[:, 2], offsets, atol=1e-12)


class TestNonFiniteHullInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_line_cloud(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            convex_hull(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_planar_cloud(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            convex_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 0.5]]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_nan_query(self, dim):
        hull = convex_hull(np.vstack([np.zeros(dim), np.eye(dim)]))
        query = np.full(dim, 0.1)
        query[0] = np.nan
        with pytest.raises(GeometryError, match="finite"):
            distance_to_body(hull, query)
        with pytest.raises(GeometryError, match="finite"):
            distance_to_body(hull, np.vstack([np.full(dim, 0.1), query]))


class TestHelpers:
    def test_norm_bound(self):
        assert norm_bound(Interval(-2, 1)) == pytest.approx(2.0)
        assert norm_bound(Ball(np.array([1.0, 0.0]), 2.0)) == pytest.approx(3.0)
        assert norm_bound(Box(np.array([-1.0, -2.0]), np.array([3.0, 1.0]))) == pytest.approx(
            np.sqrt(9 + 4)
        )
        assert norm_bound(unit_square()) == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_chebyshev_center(self):
        c, r = chebyshev_center(unit_square())
        np.testing.assert_allclose(c, [0.5, 0.5], atol=1e-9)
        assert r == pytest.approx(0.5, abs=1e-9)

    def test_chebyshev_center_of_an_unsupported_type_rejected(self):
        with pytest.raises(GeometryError, match="^unsupported body type ConvexBody$"):
            chebyshev_center(ConvexBody())

    def test_interior_margin_signs(self):
        body = unit_square()
        assert body.interior_margin(np.array([0.5, 0.5])) == pytest.approx(0.5)
        assert body.interior_margin(np.array([2.0, 0.5])) < 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_polytope_margin_has_the_bits_of_the_slack_formula(self, dim):
        # interior_margin works in place in _face_values' array; these are its
        # float operations as separate expressions
        rng = np.random.default_rng(17 + dim)
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * dim)).reshape(dim, -1).T  # every orthant
        normals = signs * rng.uniform(0.5, 2.0, signs.shape)
        body = HPolytope(normals, rng.uniform(0.5, 2.0, len(normals)))
        for shape in [(dim,), (1000, dim), (50, 3, dim)]:
            x = rng.uniform(-2.5, 2.5, shape)
            flat = x.reshape(-1, dim)
            slack = body.offsets[:, None] - body._face_values(flat)
            expected = (slack / np.linalg.norm(normals, axis=1)[:, None]).min(axis=0).reshape(shape[:-1])[()]
            margin = body.interior_margin(x)
            assert np.shape(margin) == shape[:-1]
            np.testing.assert_array_equal(margin, expected, strict=True)
