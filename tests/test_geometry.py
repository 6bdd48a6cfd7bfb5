import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection

from hullsim.geometry import (
    Ball,
    Box,
    ConvexBody,
    GEOM_TOL,
    MAX_FACE_SETS,
    GeometryError,
    HPolytope,
    Interval,
    ProjectionSolverError,
    chebyshev_center,
    contains,
    convex_hull,
    distance_to_body,
    distance_to_hull,
    min_norm_point_distance,
    norm_bound,
    project,
    support,
)
from reference import boundary_points, brute_force_hull_distance

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

    def test_interior_margin(self, points):
        body, c, f = points
        np.testing.assert_array_equal(body.interior_margin(f), body.interior_margin(c))

    def test_distance_to_body(self, points):
        body, c, f = points
        np.testing.assert_array_equal(distance_to_body(body, f), distance_to_body(body, c))


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
    path = str(SRC.parent / "configs" / config)
    return f"from hullsim import harness\nharness.run_experiment(harness.load_config({path!r}, {overrides!r}))"


SMALL = {"n_grid": "20 40", "replications": 2}
SCIPY_SNIPPETS = [
    # (code run in a fresh interpreter, the scipy modules it must load; empty: none at all)
    ("import hullsim", set()),
    (
        run_snippet(
            "e1_interval_rate.cfg",
            {**SMALL, "diagnostics.step_bound": "true", "diagnostics.hitting": "true"},
        ),
        set(),
    ),
    (run_snippet("e4_square_hpoly.cfg", SMALL), {"scipy.spatial"}),
]


def test_import_leaves_out_the_lp_solver():
    """No snippet loads scipy.optimize; a 1D run loads no scipy, a 2D run loads qhull."""
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
            assert distance_to_hull(hull, p) == 0.0

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
            assert distance_to_hull(hull, np.array(p, dtype=float)) == 0.0

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
        pts = np.array(pts, dtype=float)
        hull = convex_hull(pts)
        assert hull.equations is None and hull.simplices is None
        np.testing.assert_array_equal(hull.vertices, np.unique(pts, axis=0))
        d = distance_to_hull(hull, np.array(query, dtype=float), tol=1e-9)
        assert d == pytest.approx(expected, abs=1e-8)
        for p in pts:
            assert distance_to_hull(hull, p) <= 1e-12

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
            assert distance_to_hull(hull, p, tol=1e-7) <= 1e-6

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
            assert distance_to_hull(hull, p, tol=1e-7) <= 1e-6

    def test_thin_spatial_cloud_keeps_its_generators(self):
        # qhull's default facet merging leaves (48, 0, 0) 1.04e-6 outside the hull
        # of this thin cloud; the joggled rebuild leaves it 5.8e-11 outside
        pts = np.array([(0, 0, 1), (0, 27, -8.29e-184), (0, -2.68e-4, 1e-10),
                        (48, 0, 0), (61, 0, 0), (-42, 8.27e-6, 0)], dtype=float)
        hull = convex_hull(pts)
        assert np.all(distance_to_hull(hull, pts, tol=1e-7) <= 1e-6)


class TestHullDistance:
    def test_point_inside_1d(self):
        hull = convex_hull(np.array([-0.7, 0.3]))
        assert distance_to_hull(hull, np.array([0.0])) == 0.0

    def test_triangle_outside_corner(self):
        hull = convex_hull(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        d = distance_to_hull(hull, np.array([1.0, 1.0]))
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-9)

    def test_square_interior(self):
        hull = convex_hull(np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float))
        assert distance_to_hull(hull, np.zeros(2)) == 0.0

    def test_singleton(self):
        hull = convex_hull(np.array([[1.0, 2.0]]))
        assert distance_to_hull(hull, np.array([4.0, 6.0])) == pytest.approx(5.0)

    def test_bad_tolerance(self):
        hull = convex_hull(np.array([[0.0, 0.0]]))
        with pytest.raises(GeometryError):
            distance_to_hull(hull, np.zeros(2), tol=0.0)

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
        d = distance_to_hull(hull, np.array(query))
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
            exact = distance_to_hull(hull, x)
            assert abs(exact - min_norm_point_distance(pts, x, tol=1e-9)) <= 1e-9 + 1e-12

    def test_solver_stops_above_rounding(self):
        # The seventh cloud of this stream once ran to the iteration cap at
        # tol 1e-9: a gap floor of tol**2 lies below float64 rounding.
        rng = np.random.default_rng(0)
        for _ in range(7):
            pts = rng.standard_normal((int(rng.integers(4, 31)), 3))
            x = rng.uniform(-3, 3, size=3)
        exact = distance_to_hull(convex_hull(pts), x)
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
        assert distance_to_hull(hull, np.full(4, 0.25)) == 0.0
        assert distance_to_hull(hull, np.array([2.0, 0.5, 0.5, 0.5])) == pytest.approx(1.0, abs=1e-6)

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
        batch = distance_to_hull(hull, queries)
        singles = [distance_to_hull(hull, q) for q in queries]
        assert batch.shape == (len(queries),)
        assert all(isinstance(d, float) for d in singles)
        assert batch.tobytes() == np.array(singles).tobytes()
        assert batch[0] <= 1e-7 < batch[-1]  # inside (Frank-Wolfe: to tol), outside
        assert distance_to_hull(hull, queries[:0]).shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (2, 4, 2), (3,), ()])
    def test_query_shape_must_be_a_point_or_a_batch(self, shape):
        hull = convex_hull(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        with pytest.raises(GeometryError):
            distance_to_hull(hull, np.zeros(shape))

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
            distance_to_hull(hull, query)
        with pytest.raises(GeometryError, match="finite"):
            distance_to_hull(hull, np.vstack([np.full(dim, 0.1), query]))


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
