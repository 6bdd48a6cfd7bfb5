"""Reference functions that only the tests call.

They are deliberately independent of the code they check: a grid-search
projection, a planar hull distance from pairwise segments, empirical and
Gaussian CDFs with the clamped CDF of acceptance criterion 3, an empirical
check of a model's declared Lipschitz constants, a sampler of boundary
points for the variational inequality of a projection, the hull of a whole
cloud as qhull builds it with no candidate filter, its canonical 3D arrays,
exact 2D and 3D hulls in Python integers, the projected Euler step as a
plain sum with the screens that decide whether a projection returns its
input, a step observer that records what an ensemble does not keep, and one
that makes the --check reports from distances computed afresh.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np
from scipy.special import ndtr

from hullsim.dynamics import SdeModel, diffusion_at
from hullsim.estimation import EstimationError
from hullsim.geometry import (HULL_TOL, Ball, Box, ConvexBody, HPolytope, Hull, Interval, _qhull_hull,
                              _row_squares, distance_to_body, row_norms)

_TINY = float(np.finfo(float).tiny)
from hullsim.oracle import BoundCheckReport, HittingReport, OracleError, StepConstants


def gaussian_cdf(x, mean: float = 0.0, std: float = 1.0):
    """Normal distribution function via the error-function evaluator."""
    if not std > 0:
        raise EstimationError("std must be positive")
    res = ndtr((np.asarray(x, dtype=float) - mean) / std)
    return float(res) if res.ndim == 0 else res


def projected_cdf(phi: Callable[[float], float], lower: float, upper: float, x: float) -> float:
    """Distribution function of the clamp of a variable with CDF phi onto [lower, upper].

    Returns 0 below lower, phi(x) on [lower, upper), and 1 from upper on; the
    mass phi has at or below lower collapses onto the atom at lower.
    """
    if not lower < upper:
        raise EstimationError("need lower < upper")
    if x < lower:
        return 0.0
    if x >= upper:
        return 1.0
    return float(phi(x))


def check_lipschitz(
    model: SdeModel,
    lo,
    hi,
    pairs: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Largest empirical Lipschitz ratios of (drift, diffusion) over a box.

    The diffusion ratio uses the operator norm of the difference of the
    diagonal matrices, the largest |sigma_i(u) - sigma_i(v)|.
    """
    rng = np.random.default_rng(seed)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (model.dim,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (model.dim,))
    u = rng.uniform(lo, hi, size=(pairs, model.dim))
    v = rng.uniform(lo, hi, size=(pairs, model.dim))
    gaps = np.linalg.norm(u - v, axis=1)
    ok = gaps > 1e-12
    u, v, gaps = u[ok], v[ok], gaps[ok]
    drift_ratio = float(np.max(np.linalg.norm(model.drift(u) - model.drift(v), axis=1) / gaps))
    op_norms = np.max(np.abs(diffusion_at(model, u) - diffusion_at(model, v)), axis=1)
    diff_ratio = float(np.max(op_norms / gaps))
    return drift_ratio, diff_ratio


def brute_force_projection(body: ConvexBody, x, resolution: float) -> np.ndarray:
    """Nearest feasible point on a bounding-box grid of the given resolution.

    Feasibility is decided by the variant's defining inequalities, not by the
    projection code under test. Lands within resolution * sqrt(m) of the true
    projection for the fat bodies used in tests.
    """
    if body.dim > 2:
        raise OracleError("grid oracle supports dimensions one and two")
    if not resolution > 0:
        raise OracleError("resolution must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = body.bounding_box()
    axes = [np.arange(lo[i], hi[i] + resolution / 2, resolution) for i in range(body.dim)]
    if body.dim == 1:
        grid = axes[0][:, None]
    else:
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])

    if isinstance(body, Box):
        feasible = grid
    elif isinstance(body, Ball):
        mask = row_norms(grid - body.center) <= body.radius + 1e-12
        feasible = grid[mask]
    elif isinstance(body, HPolytope):
        mask = np.all(grid @ body.normals.T <= body.offsets + 1e-12, axis=1)
        feasible = grid[mask]
    else:
        raise OracleError(f"unsupported body type {type(body).__name__}")
    if feasible.shape[0] == 0:
        raise OracleError("no feasible grid point found; resolution too coarse")
    dists = row_norms(feasible - x)
    return feasible[int(np.argmin(dists))].copy()


def brute_force_hull_distance(points, x) -> float:
    """Exact planar distance from x to the convex hull of the points.

    Membership is decided by separating the query with the normals of all
    point pairs; outside, the distance is the minimum over all pair segments.
    Independent of the hull construction and solvers under test.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise OracleError("pair-segment oracle requires two-dimensional points")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise OracleError("query point must have shape (2,)")
    p = pts.shape[0]
    if p == 1:
        return float(np.linalg.norm(x - pts[0]))

    ii, jj = np.triu_indices(p, k=1)
    edges = pts[jj] - pts[ii]
    lengths = np.linalg.norm(edges, axis=1)
    nondeg = lengths > 0
    outside = False
    if np.any(nondeg):
        normals = np.column_stack([-edges[nondeg, 1], edges[nondeg, 0]])
        # x is separated from the cloud iff some pair normal (either sign) sees
        # it beyond every point
        for direction in (normals, -normals):
            h = np.max(pts @ direction.T, axis=0)
            if np.any(direction @ x > h):
                outside = True
                break
    else:
        outside = bool(np.linalg.norm(x - pts[0]) > 0)
    if not outside:
        return 0.0

    a = pts[ii]
    ab = edges
    denom = np.sum(ab * ab, axis=1)
    t = np.zeros_like(denom)
    pos = denom > 0
    t[pos] = np.clip(np.sum((x - a[pos]) * ab[pos], axis=1) / denom[pos], 0.0, 1.0)
    closest = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(x - closest, axis=1)))


def full_cloud_hull(points) -> Hull:
    """The hull of a (p, m) cloud, m >= 2, as qhull builds it with no candidate filter and
    no certified builder: qhull sees every point, in the order given, with convex_hull's
    options, a flat-cloud fallback and a joggled rebuild where facet merging leaves a
    point outside. A 2D hull takes planar_hull's arrays from qhull's counterclockwise
    vertices; a cloud qhull reports flat is its
    distinct points, or in 2D the segment between its extremes along its principal axis."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    m = pts.shape[1]
    try:
        qhull = ConvexHull(pts, qhull_options="Qt Qc Qx" if m > 4 else "Qt Qc")
    except QhullError:
        uniq = np.unique(pts, axis=0)
        if m == 2 and len(uniq) > 2:
            along = uniq @ np.linalg.svd(uniq - uniq.mean(axis=0))[2][0]
            uniq = uniq[np.sort([np.argmin(along), np.argmax(along)])]
        return Hull(dim=m, vertices=uniq)

    def build(qhull):
        if m > 2:
            return _qhull_hull(pts, qhull)
        cycle = pts[qhull.vertices]
        return planar_hull(np.roll(cycle, -np.lexsort(cycle.T[::-1])[0], axis=0))

    hull = build(qhull)
    coplanar = pts[qhull.coplanar[:, 0]]
    if coplanar.size and np.any(distance_to_body(hull, coplanar) > HULL_TOL):
        hull = build(ConvexHull(pts, qhull_options="QJ"))
    return hull


def exact_planar_hull(points) -> Hull:
    """The hull of a (p, 2) cloud in exact arithmetic, with planar_hull's arrays.

    Every coordinate is an integer times a power of two, so over one power of
    two the points are integer pairs. Andrew's monotone chain over the distinct
    pairs, sorted, pops a point at every turn whose integer cross product is not
    positive, so the cycle holds the strict extreme points only, counterclockwise
    from the smallest. A collinear cloud gives its first and last pair, and one
    point itself.
    """
    e, ints = _integer_coordinates(points)
    cycle = _integer_chain(sorted(set(zip(ints[0::2], ints[1::2]))))
    return planar_hull(np.array([[_float(x, e), _float(y, e)] for x, y in cycle]))


def _integer_coordinates(points) -> tuple[int, list]:
    """The coordinates of a cloud, flattened, as integers times 2**e with no factor of two
    common to them all, and e: every coordinate is an integer over a power of two."""
    ratios = [c.as_integer_ratio() for c in np.asarray(points, dtype=float).ravel().tolist()]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    common = min(((x & -x).bit_length() - 1 for x in ints if x), default=0)
    return common - (scale.bit_length() - 1), [x >> common for x in ints]


def _float(x: int, e: int) -> float:
    """x * 2**e, exactly, for a value that is a float."""
    return float(x << e) if e >= 0 else x / (1 << -e)


def _integer_chain(ordered: list) -> list:
    """Andrew's monotone chain over distinct sorted integer pairs: the strict extreme
    points counterclockwise from the smallest, or the first and last pair of a
    collinear run, or its one pair."""

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    halves = []
    for run in (ordered, ordered[::-1]):
        chain = []
        for b in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], b) <= 0:
                chain.pop()
            chain.append(b)
        halves.append(chain[:-1])
    cycle = halves[0] + halves[1]
    return cycle if len(cycle) >= 3 else [ordered[0], ordered[-1]][:len(ordered)]


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _polygon(on: list, n: tuple) -> list:
    """The strict corners of integer points on one plane with normal n, counterclockwise
    seen from where n points: the chain on the two coordinates, in cyclic order, that
    n's largest component n_k leaves out, reversed where n_k < 0."""
    k = max(range(3), key=lambda j: abs(n[j]))
    at = {(q[(k + 1) % 3], q[(k + 2) % 3]): q for q in on}
    cycle = [at[q] for q in _integer_chain(sorted(at))]
    return cycle if n[k] > 0 else cycle[::-1]


def exact_spatial_hull(points) -> Hull:
    """The hull of a (p, 3) cloud of at most 40 points in exact arithmetic, with the
    canonical arrays of the Hull docstring.

    Over one power of two the points are integer triples. A face is a plane
    through three of the distinct points with every point on one side; its
    strict corners are those of the exact polygon of the points on it, fanned from
    its lexicographically smallest corner, counterclockwise seen from outside. The
    vertices are the faces' corners in lexicographic order, each row of simplices is
    sorted and the rows are sorted, and every row of a face takes the equation of its
    first row by spatial_equations. A flat cloud is a Hull of its strict extreme
    points in lexicographic order: one point, the two ends of a segment, or the
    corners of a polygon.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) > 40:
        raise OracleError("the exact spatial hull takes at most 40 points")
    e, ints = _integer_coordinates(pts)
    cloud = sorted(set(zip(ints[0::3], ints[1::3], ints[2::3])))
    faces = {}  # outward normal over its gcd -> the points on that supporting plane
    for i, j, k in itertools.combinations(range(len(cloud)), 3):
        o = cloud[i]
        n = _cross(_sub(cloud[j], o), _sub(cloud[k], o))
        if n == (0, 0, 0):
            continue
        (nx, ny, nz), offset = n, _dot(n, o)
        above = below = False
        for x, y, z in cloud:
            h = nx * x + ny * y + nz * z - offset
            if h > 0:
                above = True
            elif h < 0:
                below = True
            if above and below:
                break
        else:
            if not (above or below):  # every point on the plane: a flat cloud
                continue
            out = tuple(-x for x in n) if above else n
            g = math.gcd(*out)
            key = tuple(x // g for x in out)
            if key not in faces:
                faces[key] = [q for q in cloud if _dot(key, _sub(q, o)) == 0]

    def floats(corners):
        return np.array([[_float(x, e) for x in q] for q in corners]).reshape(-1, 3)

    if not faces:
        normal = next((n for q in cloud if (n := _cross(_sub(cloud[-1], cloud[0]), _sub(q, cloud[0]))) != (0, 0, 0)),
                      None)
        if normal is None:
            return Hull(dim=3, vertices=floats([cloud[0], cloud[-1]][:len(cloud)]))
        return Hull(dim=3, vertices=floats(sorted(_polygon(cloud, normal))))
    fans = []  # (corners, outward normal) of each row
    for out, on in faces.items():
        cycle = _polygon(on, out)
        first = cycle.index(min(cycle))
        cycle = cycle[first:] + cycle[:first]
        fans += [((cycle[0], cycle[t], cycle[t + 1]), out) for t in range(1, len(cycle) - 1)]
    corners = sorted({q for tri, _ in fans for q in tri})
    rank = {q: r for r, q in enumerate(corners)}
    rows = sorted((sorted(rank[q] for q in tri), out) for tri, out in fans)
    source = {}  # each face's first row
    for row, out in rows:
        source.setdefault(out, row)
    firsts = [source[out] for _, out in rows]
    flips = [_dot(_cross(_sub(corners[b], corners[a]), _sub(corners[c], corners[a])), out) < 0
             for (a, b, c), (_, out) in zip(firsts, rows)]
    vertices = floats(corners)
    return Hull(dim=3, vertices=vertices, equations=spatial_equations(vertices, np.array(firsts), np.array(flips)),
                simplices=np.array([row for row, _ in rows]))


def spatial_equations(vertices: np.ndarray, rows: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """One equation [n, b] per (a, b, c) index row into vertices, by the recipe of the
    Hull docstring: n = (b - a) x (c - a) in floats; where its squared length
    (n_x^2 + n_y^2 + n_z^2, in that order) is not a normal float, the exact integer
    cross product divided by the power of two 2**s that brings its largest component
    into [2**63, 2**64), rounded to the nearest floats; negated where flips, divided by
    its length, and b = -n . a."""
    a, b, c = (vertices[rows[:, k]] for k in range(3))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        n = np.cross(b - a, c - a)
        squares = n[:, 0] * n[:, 0] + n[:, 1] * n[:, 1] + n[:, 2] * n[:, 2]
    for r in np.flatnonzero(~((squares >= _TINY) & (squares < np.inf))):
        _, ints = _integer_coordinates(vertices[rows[r]])
        exact = _cross(_sub(ints[3:6], ints[0:3]), _sub(ints[6:9], ints[0:3]))
        s = max(abs(x).bit_length() for x in exact) - 64
        n[r] = [x / 2**s for x in exact]
        squares[r] = n[r, 0] * n[r, 0] + n[r, 1] * n[r, 1] + n[r, 2] * n[r, 2]
    n[flips] *= -1
    n = n / np.sqrt(squares)[:, None]
    return np.column_stack([n, -np.sum(n * a, axis=1)])


def planar_hull(cycle: np.ndarray) -> Hull:
    """The 2D Hull of a (k, 2) counterclockwise vertex cycle from its lexicographically
    smallest vertex, by the recipe of the Hull docstring: -0.0 reads as 0.0, and each
    edge e = v[i + 1] - v[i], scaled by 2**1022 where both its coordinates are
    subnormal, gives n = (e_y, -e_x) / hypot(e) and b = -(n_x v_x + n_y v_y). A flat
    cycle, one or two points, is a Hull of vertices alone."""
    vertices = cycle + 0.0
    k = len(vertices)
    if k < 3:
        return Hull(dim=2, vertices=vertices)
    edges = np.roll(vertices, -1, axis=0) - vertices
    edges[np.all(np.abs(edges) < _TINY, axis=1)] *= 2.0**1022
    length = np.hypot(edges[:, 0], edges[:, 1])
    nx, ny = edges[:, 1] / length, -edges[:, 0] / length
    equations = np.column_stack([nx, ny, -(nx * vertices[:, 0] + ny * vertices[:, 1])])
    return Hull(dim=2, vertices=vertices, equations=equations,
                simplices=np.column_stack([np.arange(k), (np.arange(k) + 1) % k]))


def canonical_spatial_hull(points) -> Hull:
    """The canonical Hull of a (p, 3) cloud from qhull's whole-cloud Qt Qc hull: its
    vertices in lexicographic order, each triangle's vertex indices sorted and the rows
    sorted, and each equation from the triangle's corners a, b, c in that order:
    n = (b - a) x (c - a), flipped to point away from the vertices' mean, then
    normalized, and b = -n . a."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    qhull = ConvexHull(pts, qhull_options="Qt Qc")
    corners = pts[qhull.vertices]
    order = np.lexsort(corners.T[::-1])
    rank = {int(v): i for i, v in enumerate(qhull.vertices[order])}
    rows = sorted(sorted(rank[int(v)] for v in simplex) for simplex in qhull.simplices)
    vertices, simplices = corners[order] + 0.0, np.array(rows)
    a, b, c = (vertices[simplices[:, k]] for k in range(3))
    n = np.cross(b - a, c - a)
    n[np.sum((vertices.mean(axis=0) - a) * n, axis=1) > 0] *= -1
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    return Hull(dim=3, vertices=vertices, equations=np.column_stack([n, -np.sum(n * a, axis=1)]),
                simplices=simplices)


def empirical_cdf(samples, x):
    """Fraction of samples at or below x (x may be an array of query points)."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise OracleError("need at least one sample")
    counts = np.searchsorted(arr, np.asarray(x, dtype=float), side="right")
    res = counts / arr.size
    return float(res) if np.ndim(res) == 0 else res


def boundary_points(body: ConvexBody, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points on the body's boundary, shape (count, m).

    An interval gives its two ends in turn and draws nothing from rng. A box
    gives a uniform point with one uniformly chosen coordinate set to one of
    its two bounds. A ball gives the points where Gaussian directions from its
    center leave it, and an HPolytope the vertex that maximizes each of count Gaussian directions.
    """
    if isinstance(body, Interval):  # before Box: an Interval is a Box
        ends = np.stack([body.lo, body.hi])
        return ends[np.arange(count) % 2]
    if isinstance(body, Box):
        pts = rng.uniform(body.lo, body.hi, size=(count, body.dim))
        axes = rng.integers(0, body.dim, size=count)
        sides = rng.integers(0, 2, size=count)
        pts[np.arange(count), axes] = np.where(sides == 0, body.lo[axes], body.hi[axes])
        return pts
    if isinstance(body, Ball):
        dirs = rng.standard_normal((count, body.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return body.center + body.radius * dirs
    if isinstance(body, HPolytope):
        dirs = rng.standard_normal((count, body.dim))
        return body.vertices[np.argmax(dirs @ body.vertices.T, axis=1)]
    raise OracleError(f"unsupported body type {type(body).__name__}")


# drift(x, params) and diffusion(x, params) of the registered models (hullsim.dynamics.MODELS)
# as plain expressions, each a new array
REFERENCE_MODELS = {
    "ou": (lambda x, p: -p["theta"] * x, lambda x, p: np.broadcast_to(p["sigma"], np.shape(x))),
    "zero_drift": (lambda x, p: np.zeros_like(x), lambda x, p: np.broadcast_to(p["sigma"], np.shape(x))),
    "tanh_drift": (lambda x, p: -p["scale"] * np.tanh(x), lambda x, p: np.broadcast_to(p["sigma"], np.shape(x))),
    "tanh_sigma": (lambda x, p: -p["theta"] * x, lambda x, p: p["sigma0"] + p["sigma1"] * np.tanh(x)),
}


def nothing_outside(body: ConvexBody, x: np.ndarray) -> bool:
    """Whether a projection may return the batch x itself: for a Ball, no squared distance
    _row_squares(x - c) above r^2 (through its square root), for an HPolytope no positive
    slack among all its face values; never for a Box, which always clips to a new array."""
    if isinstance(body, Ball):
        sq = _row_squares(np.atleast_2d(x) - body.center)
        return not sq.size or bool(np.sqrt(sq.max()) <= body.radius)
    if isinstance(body, HPolytope):
        slack = body._face_values(x.reshape(-1, body.dim)) - body.offsets[:, None]
        return not np.any(slack > 0)
    return False


def reference_project(body: ConvexBody, x: np.ndarray) -> np.ndarray:
    """The projection of a batch x: x itself when nothing_outside(body, x); otherwise a Ball
    moves each row outside to c + (x - c) r / ||x - c|| on a copy and a Box clips, while an
    HPolytope's exact face-set projection is body.project's own, so whether it returns x
    is to be checked against nothing_outside, not against this."""
    if nothing_outside(body, x):
        return x
    if isinstance(body, Ball):
        pts = np.atleast_2d(x)
        off = pts - body.center
        norms = np.sqrt(_row_squares(off))
        outside = norms > body.radius
        out = pts.copy(order="K")
        out[outside] = body.center + off[outside] * (body.radius / norms[outside])[:, None]
        return out.reshape(x.shape)
    if isinstance(body, Box):
        return np.clip(x, body.lo, body.hi)
    return body.project(x)


def reference_step(kind: str, params: dict, body: ConvexBody, x: np.ndarray, z: np.ndarray,
                   delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The projected Euler step of a registered model, (h, x_next), as hullsim.dynamics.euler_step
    gives it: h = x + drift(x) * delta + sigma(x) * z summed left to right, and x_next its
    reference_project."""
    drift, diffusion = REFERENCE_MODELS[kind]
    h = x + drift(x, params) * delta + diffusion(x, params) * z
    return h, reference_project(body, h)


class StepRecord:
    """A step observer (hullsim.dynamics.StepObserver) that keeps every step's
    pre-projection points and increments, which no ensemble keeps.

    h[:, j] and z[:, j] are step j's (n_copies, m) pre-projection points and
    increments: transposed views of coordinate-major (steps, m, n_copies)
    arrays, written at each observed chunk's rows.
    """

    def __init__(self, steps: int, m: int, n_copies: int):
        self.h = np.empty((steps, m, n_copies)).transpose(2, 0, 1)
        self.z = np.empty((steps, m, n_copies)).transpose(2, 0, 1)

    def observe(self, j, rows, x, z, h, body):
        self.h[rows, j] = h
        self.z[rows, j] = z


class FreshChecks:
    """A step observer that makes the reports of hullsim.oracle's StepBoundCheck and
    HittingCount from scratch: every step computes every distance afresh, one probe
    at a time with row_norms, and runs the body's interior test on the whole batch.
    """

    def __init__(self, model: SdeModel, delta: float, probes: np.ndarray, constants: StepConstants,
                 steps: int, slack: float = 1e-10, radius: float = 0.1):
        self.model, self.delta, self.probes, self.constants = model, delta, probes, constants
        self.slack, self.radius = slack, radius
        self.margins = []  # one (k, copies) array per observed step
        self.hits = np.zeros((len(probes), steps), dtype=int)
        self.n_copies = 0

    def observe(self, j, rows, x, z, h, body):
        c1, c2 = self.constants.c1, self.constants.c2
        inside = body.interior_margin(h) > 0
        margins = []
        for p, probe in enumerate(self.probes):
            noise = np.asarray(self.model.diffusion(probe), dtype=float) * z
            noise = noise + np.asarray(self.model.drift(probe), dtype=float) * self.delta
            dist = row_norms(h - probe)
            margins.append(dist - c1 * row_norms(x - probe) - c2 * row_norms(noise))
            self.hits[p, j] += np.count_nonzero((dist <= self.radius) & inside)
        self.margins.append(np.array(margins))
        if j == 0:
            self.n_copies += len(h)

    def bound_report(self) -> BoundCheckReport:
        margins = np.concatenate(self.margins, axis=1)
        return BoundCheckReport(
            n_checks=margins.size, n_violations=int(np.count_nonzero(margins > self.slack)),
            worst_margin=float(margins.max()), slack=self.slack, c1=self.constants.c1,
            c2=self.constants.c2, m_c=self.constants.m_c,
        )

    def hitting_reports(self) -> list[HittingReport]:
        return [HittingReport(probe=probe, radius=self.radius, n_copies=self.n_copies, hits_per_node=row)
                for probe, row in zip(self.probes, self.hits)]
