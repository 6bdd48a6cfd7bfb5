"""Convex bodies, projections, support functions, hulls, and point-to-set distances.

Bodies come in four variants: box (an interval is the box with one
coordinate), ball, H-polytope, which lists its vertices at construction and
needs no LP solver, and Hull, the convex hull of a finite cloud (a body's
estimate), whose nearest points and distances come from one kernel. All
point arguments are numpy arrays whose last axis is the space dimension, so
every projection is batch-friendly: shape (..., m) in, shape (..., m) out,
in the input's memory order. A ball or H-polytope batch with no point
outside comes back as the input array itself, not a copy; otherwise only the
points outside are written, on a copy. Callers must not write into a
projection's result, since it may be their input.
Ensembles hand over coordinate-major (F-ordered) (N, m) batches, so per-point
work runs on whole coordinate columns (row_norms and the H-polytope screen and
margin), with its loops along the N points, never along the m <= 3
coordinates, and a point's bits do not depend on its batch.
A 2D hull is built by an exact monotone chain and a 3D hull by an exact
quickhull: floats decide every side they can certify, and Python integers the
rest. scipy's qhull is imported by the first 3D hull of more than
QUICKHULL_MAX_POINTS candidates, whose triangles are then certified exactly,
or the first hull with m >= 4, not with this module, so a run whose clouds
have m <= 3 and few candidates loads no scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import ConvexHull

GEOM_TOL = 1e-9
HULL_TOL = 1e-7
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)

MIN_NORM_MAX_ITER = 100_000
MAX_FACE_SETS = 10_000  # sets of at most m faces an HPolytope may enumerate
# 3D hull candidates the Python quickhull takes; more go to qhull, which is faster
# there. 2.5x the most seen: ball3d node-20 clouds left 18-51, 39-115 and 61-205
# candidates at N = 200, 2000 and 20 000 over 100 replications
QUICKHULL_MAX_POINTS = 512


class GeometryError(ValueError):
    """Invalid construction or a dimension/containment contract violation."""


class ProjectionSolverError(RuntimeError):
    """The min-norm-point distance solve hit its iteration cap; carries the duality gap then."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


def _check_points(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != dim:
        raise GeometryError(
            f"expected points with last axis of size {dim}, got shape {arr.shape}"
        )
    return arr


def _row_squares(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the last axis, squares summed in coordinate order.

    Each square is a whole column, so the loops run along the rows and a
    row's bits do not depend on the memory order of a (einsum's reduction
    order does for m >= 3).
    """
    sq = a[..., 0] * a[..., 0]
    for k in range(1, a.shape[-1]):
        sq += a[..., k] * a[..., k]
    return sq


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: the square root of _row_squares."""
    return np.sqrt(_row_squares(a))


def _flat(x: np.ndarray, dim: int) -> tuple[np.ndarray, str]:
    """x as a (k, dim) batch, a view in x's memory order, and that order, which
    reshapes a result of the batch back to x's leading axes in x's order."""
    order = "F" if np.isfortran(x) else "C"
    return x.reshape(-1, dim, order=order), order


class ConvexBody:
    """Base class for closed bounded convex sets (with nonempty interior, but for a flat Hull)."""

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        """The nearest point of the body to each row of x, shape and memory order of x.

        A batch with no row outside may come back as x itself (Ball, HPolytope),
        so the result is read, never written.
        """
        raise NotImplementedError

    def distance(self, x: np.ndarray) -> np.ndarray:
        """Euclidean distance from each row of x to the body, ||x - project(x)||; zero inside."""
        x = _check_points(x, self.dim)
        return row_norms(x - self.project(x))

    def support(self, u: np.ndarray) -> float:
        raise NotImplementedError

    def interior_margin(self, x: np.ndarray) -> np.ndarray:
        """Distance from x to the complement, negative outside the body."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Box(ConvexBody):
    """Axis-aligned box {x : lo <= x <= hi} in any dimension."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise GeometryError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise GeometryError("box needs lo[i] < hi[i] for every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dim", lo.size)

    def project(self, x):
        """np.clip, a new array for every batch.

        Unlike Ball and HPolytope there is no screen for a batch with nothing
        outside. On e1's interval (hullbench's interval-ou) about three points
        of a 4096-copy chunk are outside at a step (moved fraction 8e-4), so a
        min/max screen almost never skips the clip: it raised run_s from 0.084
        to 0.092-0.094 s (2 vCPU, 4 of 4 pairs).
        """
        x = _check_points(x, self.dim)
        return np.clip(x, self.lo, self.hi)

    def support(self, u):
        u = _check_direction(u, self.dim)
        return float(np.sum(np.where(u > 0, u * self.hi, u * self.lo)))

    def interior_margin(self, x):
        x = _check_points(x, self.dim)
        return np.minimum(x - self.lo, self.hi - x).min(axis=-1)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()


class Interval(Box):
    """Closed interval [lo, hi] on the line: the box with one coordinate."""

    def __init__(self, lo: float, hi: float):
        super().__init__(np.array([lo], dtype=float), np.array([hi], dtype=float))


@dataclass(frozen=True, eq=False)
class Ball(ConvexBody):
    """Euclidean ball with given center and radius > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1:
            raise GeometryError("ball center must be a 1-d array")
        if not self.radius > 0:
            raise GeometryError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dim", center.size)

    def project(self, x):
        """x itself when no row is outside; else a copy with each row outside
        replaced by c + (x - c) r / ||x - c||, so a row's bits never depend on
        its batch. The screen sums ||x - c||^2 a coordinate column at a time
        into one buffer, with _row_squares(x - c)'s bits; x - c is formed only
        for the rows outside."""
        x = _check_points(x, self.dim)
        pts = np.atleast_2d(x)  # a view: one point is a batch of one
        sq = np.subtract(pts[..., 0], self.center[0])
        sq *= sq
        col = np.empty_like(sq)
        for k in range(1, self.dim):
            np.subtract(pts[..., k], self.center[k], out=col)
            col *= col
            sq += col
        if not sq.size or np.sqrt(sq.max()) <= self.radius:
            return x
        norms = np.sqrt(sq)
        outside = np.nonzero(norms > self.radius)
        scale = self.radius / norms[outside]
        out = pts.copy(order="K")
        for k in range(self.dim):  # one coordinate column at a time: no gather of whole rows
            out[(*outside, k)] = self.center[k] + (pts[(*outside, k)] - self.center[k]) * scale
        return out.reshape(x.shape)

    def support(self, u):
        u = _check_direction(u, self.dim)
        return float(u @ self.center + self.radius * np.linalg.norm(u))

    def interior_margin(self, x):
        x = _check_points(x, self.dim)
        return self.radius - row_norms(x - self.center)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True, eq=False)
class HPolytope(ConvexBody):
    """Bounded intersection of half-spaces {x : normals @ x <= offsets}.

    Construction lists each set S of at most m faces with independent normals
    N_S (over MAX_FACE_SETS candidates is an error) for project, and from the
    m-face sets the vertices, shape (v, m), each once, in face-set order: they
    give support values and the bounding box.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        if normals.ndim != 2 or offsets.ndim != 1 or normals.shape[0] != offsets.size:
            raise GeometryError("need normals of shape (k, m) and offsets of shape (k,)")
        normal_norms = np.linalg.norm(normals, axis=1)
        if np.any(normal_norms <= 0):
            raise GeometryError("every half-space normal must be nonzero")
        k, m = normals.shape
        count = sum(math.comb(k, s) for s in range(1, m + 1))
        if count > MAX_FACE_SETS:
            raise GeometryError(f"{k} faces in dimension {m}: {count} face sets, over {MAX_FACE_SETS}")
        sets = [_independent_sets(normals, s) for s in range(m + 1)]  # s = 0: the empty set
        # unbounded: rank < m, or {d : N d <= 0} has an extreme ray, which is +-null(N_S) for
        # an independent (m - 1)-face set S (+-1 for m = 1, S empty)
        along = np.linalg.svd(normals[sets[m - 1]])[2][:, -1] @ (normals / normal_norms[:, None]).T
        if not len(sets[m]) or np.any(np.all(along <= GEOM_TOL, axis=1) | np.all(along >= -GEOM_TOL, axis=1)):
            raise GeometryError("half-space system is unbounded in a coordinate direction")
        vertices = _vertices(normals, offsets, sets[m])
        if not len(vertices):
            raise GeometryError("half-space system is infeasible (empty body)")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_row_norms", normal_norms)
        face_sets = []  # per set size s: faces (sets, s), G^-1 N_S and G^-1
        for faces in filter(len, sets[1:]):
            rows = normals[faces]
            gram = rows @ rows.transpose(0, 2, 1)
            face_sets.append((faces, np.linalg.solve(gram, rows), np.linalg.inv(gram)))
        object.__setattr__(self, "_face_sets", face_sets)

    def project(self, x):
        """Exact projection; a point inside comes back unchanged, a batch with
        none outside as x itself.

        A point outside projects onto {y : N_S y = b_S} for a face set S whose
        multipliers lam = G^-1 (N_S x - b_S), G = N_S N_S^T, are all >= 0. Each
        such candidate x - lam @ N_S projects x onto the polyhedron of S's
        half-spaces, which holds the body, so the one in the body is the
        projection: the one with the largest interior margin (first on a tie).
        A box of half-spaces with unit or power-of-two axis normals gives
        np.clip's bits wherever x - (x - b) rounds to b.

        A screen comes first: over the batch's per-coordinate box [lo, hi] a
        face's value is at most the sum of max(n_c lo_c, n_c hi_c), added in
        _face_values' order, as rounding is monotone. A bound <= b on every
        face proves no point outside, so x comes back exactly when the face
        values would say so; a NaN or larger bound leaves it to them. For axis
        normals (the square) the bound is the extreme coordinate: exact.
        """
        x = _check_points(x, self.dim)
        flat, order = _flat(x, self.dim)  # out keeps x's order
        if not len(flat) or (self._box_bound(flat) <= self.offsets).all():
            return x
        slack = self._face_values(flat)
        slack -= self.offsets[:, None]
        active = np.flatnonzero(np.any(slack > 0, axis=0))
        if not active.size:
            return x
        out = flat.copy(order="K")
        # every candidate of a point at once, at most MAX_FACE_SETS candidates at a time
        step = max(1, MAX_FACE_SETS // sum(len(faces) for faces, *_ in self._face_sets))
        for i in range(0, active.size, step):
            part = active[i:i + step]
            pts, part_slack, cands, scores = flat[part], slack[:, part], [], []
            for faces, lift, gram_inv in self._face_sets:
                viol = part_slack[faces]  # (sets, s, points)
                lam = gram_inv @ viol
                cands.append(pts - viol.transpose(0, 2, 1) @ lift)
                scores.append(np.where(np.all(lam >= 0, axis=1), self.interior_margin(cands[-1]), -np.inf))
            best = np.argmax(np.concatenate(scores), axis=0)
            out[part] = np.concatenate(cands)[best, np.arange(part.size)]
        return out.reshape(x.shape, order=order)

    def _face_values(self, flat: np.ndarray) -> np.ndarray:
        """normals @ flat.T summed over whole columns of flat: unlike BLAS, the same bits in any batch."""
        values = self.normals[:, :1] * flat[:, 0]
        for c in range(1, self.dim):
            values += self.normals[:, c:c + 1] * flat[:, c]
        return values

    def _box_bound(self, flat: np.ndarray) -> np.ndarray:
        """Per face, a bound on every point's _face_values over flat's per-coordinate box,
        summed in its coordinate order; NaN for a NaN, or an infinity on a zero normal entry."""
        terms = np.maximum(self.normals * flat.min(axis=0), self.normals * flat.max(axis=0))  # keeps NaN
        bound = terms[:, 0]
        for c in range(1, self.dim):
            bound = bound + terms[:, c]
        return bound

    def support(self, u):
        u = _check_direction(u, self.dim)
        return float(np.max(self.vertices @ u))

    def interior_margin(self, x):
        x = _check_points(x, self.dim)
        flat, order = _flat(x, self.dim)  # as in project: the margins keep x's order
        margins = self._face_values(flat)  # becomes (offsets - values) / row norms in place
        np.subtract(self.offsets[:, None], margins, out=margins)
        margins /= self._row_norms[:, None]
        return margins.min(axis=0).reshape(x.shape[:-1], order=order)[()]  # a scalar for one point

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def _independent_sets(normals: np.ndarray, s: int) -> np.ndarray:
    """Every set of s rows of normals with independent normals, shape (sets, s), in combination order."""
    sets = [f for f in itertools.combinations(range(len(normals)), s)
            if np.linalg.matrix_rank(normals[list(f)]) == s]
    return np.array(sets, dtype=np.intp).reshape(len(sets), s)


def _vertices(normals: np.ndarray, offsets: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """The solutions y of N_S y = b_S over the m-face sets S that meet every
    half-space within GEOM_TOL, dropping any within GEOM_TOL of an earlier one."""
    m = normals.shape[1]
    cands = np.linalg.solve(normals[faces], offsets[faces][..., None])[..., 0]
    slack = (cands @ normals.T - offsets) / np.linalg.norm(normals, axis=1)
    vertices = []
    for y in cands[np.all(slack <= GEOM_TOL, axis=1)]:
        if all(np.linalg.norm(y - v) > GEOM_TOL for v in vertices):
            vertices.append(y)
    return np.array(vertices).reshape(-1, m)


def _check_direction(u, dim: int) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (dim,):
        raise GeometryError(f"expected a direction of shape ({dim},), got {u.shape}")
    return u


# ---------------------------------------------------------------------------
# module-level operations


def project(body: ConvexBody, x) -> np.ndarray:
    """Orthogonal projection of x (batched on leading axes) onto the body."""
    return body.project(x)


def distance_to_body(body: ConvexBody, x) -> np.ndarray | float:
    """Euclidean distance from x to the body, body.distance(x); zero inside, a float for one point."""
    d = body.distance(x)
    return float(d) if d.ndim == 0 else d


def contains(body: ConvexBody, x, tol: float = GEOM_TOL):
    """Whether distance_to_body(body, x) <= tol, elementwise over the batch."""
    if tol < 0:
        raise GeometryError("tolerance must be nonnegative")
    d = distance_to_body(body, x)
    res = np.asarray(d) <= tol
    return bool(res) if res.ndim == 0 else res


def support(body: ConvexBody, u) -> float:
    """Support value sup {<u, y> : y in body}; requires a nonzero direction."""
    u = _check_direction(u, body.dim)
    if not np.linalg.norm(u) > 0:
        raise GeometryError("support direction must be nonzero")
    return body.support(u)


def norm_bound(body: ConvexBody) -> float:
    """An upper bound on sup {||y|| : y in body}, from the bounding box."""
    if isinstance(body, Ball):
        return float(np.linalg.norm(body.center) + body.radius)
    lo, hi = body.bounding_box()
    return float(np.sqrt(np.sum(np.maximum(lo**2, hi**2))))


def chebyshev_center(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Center and radius of a largest inscribed ball; for an HPolytope the vertex (c, r)
    with the largest r (first on a tie) of {(c, r) : N c + r ||n|| <= b, -r <= 0}, from
    its C(k + 1, m + 1) face sets (over MAX_FACE_SETS is an error)."""
    if isinstance(body, Box):
        return (body.lo + body.hi) / 2, float(np.min((body.hi - body.lo) / 2))
    if isinstance(body, Ball):
        return body.center.copy(), float(body.radius)
    if isinstance(body, HPolytope):
        k, m = body.normals.shape
        count = math.comb(k + 1, m + 1)
        if count > MAX_FACE_SETS:
            raise GeometryError(f"{k} faces in dimension {m}: {count} lifted face sets, over {MAX_FACE_SETS}")
        lifted = np.block([[body.normals, body._row_norms[:, None]], [np.zeros((1, m)), -np.ones((1, 1))]])
        vertices = _vertices(lifted, np.append(body.offsets, 0.0), _independent_sets(lifted, m + 1))
        best = vertices[np.argmax(vertices[:, -1])]
        return best[:m], float(best[m])
    raise GeometryError(f"unsupported body type {type(body).__name__}")


# ---------------------------------------------------------------------------
# convex hulls


@dataclass(frozen=True, eq=False)
class Hull(ConvexBody):
    """Convex hull of a finite point cloud; the cloud itself is not kept.

    vertices, shape (k, m), are the extreme points. For m = 1 they are the
    min and max. For m = 2 the hull is built by Andrew's monotone chain and
    for m = 3 by Quickhull (Barber, Dobkin & Huhdanpaa, TOMS 1996), each
    deciding every orientation exactly, and for m >= 4 by qhull. equations,
    shape (f, m + 1), holds one row [n, b] per facet with unit outward
    normal n, so that n @ y + b <= 0 inside. simplices, shape (f, m), indexes
    the vertices of each (triangulated) facet. For m <= 3 the three arrays
    depend on the vertex set alone, and the vertices are the strict extreme
    points, with -0.0 read as 0.0. In 2D they run counterclockwise from the
    lexicographically smallest, row i of simplices is the edge
    (i, (i + 1) % k), and its equation is taken from that edge
    e = v[i + 1] - v[i]: n = (e_y, -e_x) / |e|, b = -n @ v[i], with e scaled
    by 2**1022 first where both its coordinates are subnormal. In 3D they run
    in lexicographic order. Each face, a polygon of coplanar triangles, is
    fanned from its lexicographically smallest vertex; each row of simplices
    is sorted and the rows are sorted. Every row of a face holds the face's
    one equation, from the face's first row's corners a, b, c in that order:
    n = (b - a) x (c - a) pointing outward, then normalized, b = -n @ a;
    where n's squared length is not a normal float, n is the exact cross
    product, divided by the power of two 2**s that brings its largest
    component into [2**63, 2**64) and rounded to floats, before it is
    normalized. A cloud with m >= 4 keeps qhull's arrays, whose order depends
    on the input sequence. equations and simplices are None for m = 1 and for
    a degenerate cloud, one that spans less than m dimensions (fewer than
    m + 1 distinct points, collinear, coplanar); convex_hull says which
    vertices it keeps.

    As a body, project(x) is a nearest hull point and distance(x) the distance,
    each row of a batch with the bits it gets alone, both from one kernel,
    _nearest, which says how each case is solved. They are exact for m <= 3
    (x itself and 0.0 inside), but for a flat 3D cloud; there and for m >= 4
    they are Frank-Wolfe's, whose distance is within HULL_TOL while its point
    can sit about 1e-5 from the nearest one, and which can run out of its
    MIN_NORM_MAX_ITER iterations on a point on the boundary
    (ProjectionSolverError): project is not idempotent there. distance is the
    kernel's, not ||x - project(x)||, whose rounding differs. interior_margin
    is min(x - min, max - x) for m = 1, -distance for a flat cloud and else
    -max_f (n_f @ x + b_f) over the facet equations, negative exactly where the
    distance is positive. support(u) is max(vertices @ u), and bounding_box
    the vertices' min and max.
    """

    dim: int
    vertices: np.ndarray
    equations: np.ndarray | None = None
    simplices: np.ndarray | None = None

    def project(self, x):
        x = _check_points(x, self.dim)
        flat, order = _flat(x, self.dim)
        return _nearest(self, flat)[1].reshape(x.shape, order=order)

    def distance(self, x):
        x = _check_points(x, self.dim)
        flat, order = _flat(x, self.dim)
        return _nearest(self, flat)[0].reshape(x.shape[:-1], order=order)

    def support(self, u):
        u = _check_direction(u, self.dim)
        return float(np.max(self.vertices @ u))

    def interior_margin(self, x):
        x = _check_points(x, self.dim)
        if self.dim == 1:
            return np.minimum(x - self.vertices[0], self.vertices[-1] - x).min(axis=-1)
        if self.equations is None:
            return -self.distance(x)
        flat, order = _flat(x, self.dim)
        return -self._heights(flat).max(axis=1).reshape(x.shape[:-1], order=order)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def _heights(self, flat: np.ndarray) -> np.ndarray:
        """n_f @ x + b_f for each row x of flat and each facet f, shape (k, f), by _dot."""
        return _dot(flat[:, None, :], self.equations[:, :-1]) + self.equations[:, -1]


def convex_hull(points) -> Hull:
    """Hull of a (p, m) cloud, or of p values on the line; see Hull.

    A 2D hull is built by _monotone_chain, which decides every turn exactly,
    from _hull_candidates (about 30 of 20 000 Gaussian points), whose dropped
    points are no vertices: its cycle is the exact hull of the whole cloud,
    and a collinear cloud is the segment between its lexicographically first
    and last points. A 2D hull edge that overflows is a GeometryError. A 3D
    hull is built by _spatial_cloud_hull, which decides every side of a plane
    exactly, from _spatial_candidates (61-205 of a ball3d node-20 cloud of
    20 000 points, the 8 corners of a box-clipped one): it is the exact hull
    of the whole cloud, and a flat cloud keeps its strict extreme points, its
    one point, the two lexicographic ends of its segment or the corners of
    its polygon, in lexicographic order. A 3D hull whose vertices span more
    than the largest float is a GeometryError. A cloud with m >= 4 goes to
    qhull whole. Where facet merging leaves a point of a thin cloud more than
    HULL_TOL outside, that hull is built again from the whole cloud joggled
    (qhull's QJ option), which merges no facets, and a cloud qhull reports as
    flat is kept as its distinct points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise GeometryError("convex hull of an empty point set is undefined")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise GeometryError("points must form a (p, m) array")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("hull points must be finite")
    m = pts.shape[1]
    if m == 1:
        vals = pts[:, 0]
        lo, hi = float(vals.min()), float(vals.max())
        verts = np.array([[lo]]) if lo == hi else np.array([[lo], [hi]])
        return Hull(dim=1, vertices=verts)
    if m == 2:
        return _planar_hull(_monotone_chain(pts[_hull_candidates(pts)]))
    if m == 3:
        return _spatial_cloud_hull(pts)
    from scipy.spatial import ConvexHull, QhullError

    try:
        # scipy's default options and Qc, which lists the points kept off the hull as coplanar
        qhull = ConvexHull(pts, qhull_options="Qt Qc Qx" if m > 4 else "Qt Qc")
    except QhullError:  # the cloud is flat to qhull's precision
        return Hull(dim=m, vertices=np.unique(pts, axis=0))  # lexicographic order
    hull = _qhull_hull(pts, qhull)
    coplanar = pts[qhull.coplanar[:, 0]]
    if coplanar.size and np.any(hull.distance(coplanar) > HULL_TOL):
        # facet merging of a thin cloud left a generator outside: joggle the input instead
        hull = _qhull_hull(pts, ConvexHull(pts, qhull_options="QJ"))
    return hull


_CCW = np.array([1, 7, 4, 6, 5, 3, 0, 2])  # the (argmin, argmax) along x, y, x + y, x - y counterclockwise


def _hull_candidates(pts: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the points of a (p, 2) cloud that may be hull
    vertices: those not inside the octagon of its extremes along +-x, +-y,
    +-(x + y), +-(x - y) (Akl & Toussaint, IPL 7, 1978). Where fewer than 3
    octagon edges are nonzero (a thin cloud, whose extremes sit at its two
    ends), the polygon is instead those two ends and the extremes along the
    normal of the line through them, which quickhull takes first.

    A point is dropped when its cross product with every edge e from corner v,
    e x (q - v), exceeds _turn_margin, more than this test's rounding: it then
    winds inside the corners' polygon, strictly inside the hull. A point is
    dropped too when it lies strictly between the ends of an axis-aligned
    edge, by exact float comparisons: points on a box face. The extremes,
    which set the chain's margin, stay. A NaN or an overflow keeps the point;
    a flat polygon keeps every point.
    """
    x, y = pts[:, 0], pts[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.add(x, y)  # reused for x - y, the normal and each edge's cross products
        lo, hi = [x.argmin(), y.argmin(), value.argmin()], [x.argmax(), y.argmax(), value.argmax()]
        np.subtract(x, y, out=value)
        corners = pts[np.array([*lo, value.argmin(), *hi, value.argmax()])[_CCW]]
        keep = (np.roll(corners, -1, axis=0) != corners).any(axis=1)  # a zero edge would fail every point
        if np.count_nonzero(keep) == 2:  # a ccw quadrilateral: a, the least along n, b, the most along n
            a, b = corners[keep]
            (ex, ey), term = b - a, np.empty_like(value)
            np.multiply(x, -ey, out=value)
            value += np.multiply(y, ex, out=term)  # (x, y) @ n, n = (-e_y, e_x)
            corners = np.array([a, pts[value.argmin()], b, pts[value.argmax()]])
            keep = (np.roll(corners, -1, axis=0) != corners).any(axis=1)
        if np.count_nonzero(keep) < 3:
            return np.arange(len(pts))
        ends = np.roll(corners, -1, axis=0)[keep]
        corners = corners[keep]
        edges = ends - corners
        inward = edges[:, ::-1] * [-1.0, 1.0]  # e x (q - v) = inward @ (q - v)
        bound = (inward * corners).sum(axis=1)
        # the corners hold each coordinate's extremes; tiny covers rounding among subnormals
        bound += _turn_margin(np.abs(inward).sum(axis=1), np.abs(corners).max(axis=0).sum())
        term, inside, passed = np.empty_like(value), np.ones(len(pts), dtype=bool), np.empty(len(pts), dtype=bool)
        for (a, b), limit in zip(inward.tolist(), bound.tolist()):
            np.multiply(x, a, out=value)
            value += np.multiply(y, b, out=term)
            inside &= np.greater(value, limit, out=passed)
    for (vx, vy), (wx, wy) in zip(corners.tolist(), ends.tolist()):
        if vx == wx:
            inside |= (x == vx) & (y > min(vy, wy)) & (y < max(vy, wy))
        elif vy == wy:
            inside |= (y == vy) & (x > min(vx, wx)) & (x < max(vx, wx))
    return np.flatnonzero(~inside)


def _turn_margin(edge_l1, magnitude):
    """64 ulps of (|e_x| + |e_y|)(M_x + M_y), plus the smallest normal float for
    rounding among subnormals: a cross product e x (q - v) whose magnitude
    exceeds it has the sign of the exact one, for points whose largest
    coordinate magnitudes are M (edge_l1 = |e_x| + |e_y|, magnitude = M_x + M_y)."""
    return edge_l1 * (magnitude * 64 * _EPS) + _TINY


def _distinct(pts: np.ndarray) -> np.ndarray:
    """The distinct rows of a (p, m) cloud in lexicographic order, with -0.0 read as
    0.0, so that which copy of a point the cloud lists changes no bit."""
    ordered = pts[np.argsort(pts[:, 0])]
    if np.any(ordered[1:, 0] == ordered[:-1, 0]):  # a tie in x, which the other coordinates decide
        ordered = pts[np.lexsort(pts.T[::-1])]
    ordered = ordered + 0.0
    distinct = np.ones(len(ordered), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=distinct[1:])
    return ordered[distinct]


def _monotone_chain(pts: np.ndarray) -> list:
    """The counterclockwise cycle of the strict extreme points of a (p, 2) cloud
    from its lexicographically smallest point (Andrew, IPL 9, 1979), with -0.0
    read as 0.0; for a collinear cloud its lexicographically first and last
    points, or its one point.

    Every turn is decided exactly, with Shewchuk's filter design (DCG 18,
    1997): a cross product in Python floats whose magnitude clears
    _turn_margin has the exact sign, and a turn too close to call is decided
    by _exact_orientation. A repeated point goes before the chain, and an
    exactly collinear point is popped.
    """
    magnitude = float(np.abs(pts).max(axis=0).sum())
    ordered = _distinct(pts).tolist()
    chains = []
    for run in (ordered, ordered[::-1]):  # the lower chain, then the upper one
        chain = []
        for b in run:
            bx, by = b
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                ex, ey, dx, dy = ax - ox, ay - oy, bx - ox, by - oy
                cross = ex * dy - ey * dx
                if not abs(cross) > _turn_margin(abs(ex) + abs(ey), magnitude):
                    cross = _exact_orientation(chain[-2], chain[-1], b)
                if cross > 0:
                    break
                chain.pop()
            chain.append(b)
        chains.append(chain[:-1])
    cycle = chains[0] + chains[1]
    return cycle if len(cycle) >= 3 else [ordered[0], ordered[-1]][:len(ordered)]


def _integers(*points) -> list:
    """The coordinates of points of Python floats, flattened, as integers: each
    is an integer times a power of two, so scaled to the largest denominator
    among them every coordinate is an integer, and order and signs hold."""
    ratios = [c.as_integer_ratio() for q in points for c in q]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios]


def _exact_orientation(o, *rest) -> int:
    """The determinant of the rows p - o for the m points p of rest, for m + 1
    points of m = 2 or 3 Python floats, as a Python integer of its exact sign:
    (a - o) x (b - o) in 2D, and in 3D the height (q - o) . ((a - o) x (b - o))
    of q above the plane of o, a, b (for m = 3, rest is a, b, q). Points that
    share a coordinate lie on one line or plane, such as a box face: 0 at once."""
    if len(o) == 2:
        a, b = rest
        if o[0] == a[0] == b[0] or o[1] == a[1] == b[1]:
            return 0
        ox, oy, ax, ay, bx, by = _integers(o, a, b)
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    a, b, q = rest
    if o[0] == a[0] == b[0] == q[0] or o[1] == a[1] == b[1] == q[1] or o[2] == a[2] == b[2] == q[2]:
        return 0
    ox, oy, oz, ax, ay, az, bx, by, bz, qx, qy, qz = _integers(o, a, b, q)
    ux, uy, uz, vx, vy, vz = ax - ox, ay - oy, az - oz, bx - ox, by - oy, bz - oz
    return (qx - ox) * (uy * vz - uz * vy) + (qy - oy) * (uz * vx - ux * vz) + (qz - oz) * (ux * vy - uy * vx)


def _exact_normal(a, b, c) -> list:
    """(b - a) x (c - a) for three points of Python floats, exactly up to one
    positive factor, as three Python integers: zero iff they are collinear."""
    ax, ay, az, bx, by, bz, cx, cy, cz = _integers(a, b, c)
    ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
    return [uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx]


def _cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v for each row of two (k, 3) arrays, with np.cross's bits and without its
    axis handling, which costs more than the products for a hull's few hundred rows."""
    (ux, uy, uz), (vx, vy, vz) = u.T, v.T
    return np.column_stack([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])


def _planar_hull(cycle) -> Hull:
    """The 2D Hull of _monotone_chain's cycle: flat for fewer than 3 points. An
    edge that overflows is a GeometryError."""
    vertices = np.asarray(cycle, dtype=float)
    k = len(vertices)
    simplices = np.column_stack([np.arange(k), np.arange(1, k + 1) % k])
    with np.errstate(over="ignore"):
        edges = vertices[simplices[:, 1]] - vertices
    if not np.isfinite(edges).all():
        raise GeometryError("a 2D hull edge overflows: the cloud spans more than the largest float")
    if k < 3:
        return Hull(dim=2, vertices=vertices)
    # an edge with both coordinates subnormal is scaled by 2**1022, exactly, so that hypot keeps every bit
    edges[np.abs(edges).max(axis=1) < _TINY] *= 1 / _TINY
    (ax, ay), (ex, ey) = vertices.T, edges.T
    length = np.hypot(ex, ey)
    nx, ny = ey / length, -ex / length
    equations = np.column_stack([nx, ny, -(nx * ax + ny * ay)])
    return Hull(dim=2, vertices=vertices, equations=equations, simplices=simplices)


# the 13 directions of {-1, 0, 1}^3 whose first nonzero entry is 1: with their
# negatives, the 26 along which _spatial_candidates takes a cloud's extremes
_DIRECTIONS = np.array([d for d in itertools.product((1, 0, -1), repeat=3) if d > (0, 0, 0)], dtype=float)
_FACET_TEST_ROWS = 4096  # points _spatial_candidates tests against every facet at once


def _spatial_cloud_hull(pts: np.ndarray) -> Hull:
    """The exact Hull of a (p, 3) cloud from _spatial_candidates, with _spatial_hull's
    canonical arrays.

    Every decision runs on the cloud scaled by one power of two (_rescaled). A float
    that overflows only sends a decision to the exact test. A flat cloud's vertices
    are its strict extreme points (_flat_vertices). Up to QUICKHULL_MAX_POINTS
    candidates _quickhull triangulates the hull. Above that qhull does, which is
    faster there, and a triangulation of qhull's that _spatial_hull cannot certify
    goes to _quickhull: the cap chooses between them for speed alone.
    """
    work, shift = _rescaled(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        cands = _spatial_candidates(work)
        simplex = _simplex(cands)
        if len(simplex) < 4:
            return Hull(dim=3, vertices=np.ldexp(cands[_flat_vertices(cands, simplex)], -shift))
        if len(cands) > QUICKHULL_MAX_POINTS:
            triangles = _qhull_triangles(cands)
            hull = None if triangles is None else _spatial_hull(cands, triangles, shift)
            if hull is not None:
                return hull
        return _spatial_hull(cands, _quickhull(cands, simplex), shift)


def _rescaled(pts: np.ndarray) -> tuple[np.ndarray, int]:
    """The cloud times 2**shift, and shift, so that its largest magnitude M lies in
    [2**-250, 2**248), where the float filters' heights neither overflow nor reach
    the subnormals: the cloud itself (shift 0) where M is there, else the cloud
    scaled to M in [0.5, 1). Scaling up is always exact; a cloud that scaling down
    would round keeps shift 0, and _spatial_magnitude then leaves every side of a
    plane to the exact test."""
    big = max(float(pts.max()), -float(pts.min()))
    if 2.0**-250 <= big < 2.0**248 or big == 0:
        return pts, 0
    shift = -math.frexp(big)[1]
    work = np.ldexp(pts, shift)
    if shift < 0 and not np.array_equal(np.ldexp(work, -shift), pts):
        return pts, 0
    return work, shift


def _spatial_candidates(pts: np.ndarray) -> np.ndarray:
    """The distinct points of a (p, 3) cloud, in lexicographic order, that may be hull
    vertices: those not certainly inside the hull of its extremes along the 26
    directions of {-1, 0, 1}^3 (none is, where those extremes are flat), less the
    points on a face of the cloud's bounding box that are no corner of that face's
    exact polygon (_face_cycle): a box-clipped cloud of 20 000 points keeps its 8
    corners.

    A ball inside that hull screens the cloud first, a coordinate column at a time:
    its centre is the cloud's mean, and its radius the centre's least distance to a
    facet plane less three of the facet's _plane_margin (no screen where that is not
    positive), so every point within it is more than two margins below every plane;
    at N = 20 000 about 7% of a ball3d node-20 cloud is outside it. A point outside
    the ball is dropped when n @ q - n @ a is below -_plane_margin for every facet
    (a, b, c), n = (b - a) x (c - a): more than the rounding of this test and of n,
    so it is strictly inside the hull. The extremes, which set the margins, stay.
    """
    # one direction at a time: a (13, p) array of them adds 2 MiB to a 20 000-point run's peak memory
    along, ends = np.empty(len(pts)), []
    for d in _DIRECTIONS:  # where a sum overflows, it picks some cloud point all the same
        np.matmul(pts, d, out=along)
        ends += [along.argmin(), along.argmax()]
    extremes = _distinct(pts[np.unique(ends)])
    simplex = _simplex(extremes)
    keep = np.zeros(len(pts), dtype=bool)
    if len(simplex) < 4:
        keep[:] = True
    else:
        a, normals, margins = _triangle_planes(extremes, _quickhull(extremes, simplex))
        offsets = (normals * a).sum(axis=1)
        centre = pts.mean(axis=0)
        squares = _row_squares(normals)
        if np.all(squares >= _TINY):
            radius = float(np.min((offsets - normals @ centre - 3 * margins) / np.sqrt(squares))) * (1 - 2.0**-40)
        else:  # a length lost to underflow: no screen
            radius = 0.0
        sq = np.subtract(pts[:, 0], centre[0])
        sq *= sq
        col = np.empty_like(sq)
        for k in (1, 2):
            np.subtract(pts[:, k], centre[k], out=col)
            col *= col
            sq += col
        rest = np.flatnonzero(~(sq < radius * radius)) if radius > 0 else np.arange(len(pts))
        # n @ q - n @ a < -margin as n @ q < n @ a - margin, whose rounding the margin covers
        limits = (offsets - margins)[:, None]
        for start in range(0, len(rest), _FACET_TEST_ROWS):
            part = rest[start:start + _FACET_TEST_ROWS]
            keep[part[~np.all(normals @ pts[part].T < limits, axis=0)]] = True
    kept = np.flatnonzero(keep)
    lo, hi = extremes.min(axis=0), extremes.max(axis=0)  # the cloud's, as the extremes hold +-x, +-y, +-z
    for k in range(3):
        for value in {lo[k], hi[k]}:
            on = kept[pts[kept, k] == value]
            if len(on) > 3:
                cols = [(k + 1) % 3, (k + 2) % 3]
                keep[on] = False
                keep[_face_cycle(pts, on[_hull_candidates(pts[on][:, cols])], cols)] = True
    return _distinct(pts[keep])


def _face_cycle(pts: np.ndarray, on: np.ndarray, cols) -> list:
    """The indices among on of the strict extreme points of pts[on], which lie on one
    plane, counterclockwise in the coordinates cols from the point lexicographically
    smallest there: _monotone_chain over that projection, which is exact, and
    injective on a plane that the left-out coordinate's axis crosses. A caller with
    many points drops _hull_candidates' non-candidates first."""
    plane = pts[on][:, cols]
    at = {tuple(q): i for q, i in zip(plane.tolist(), on.tolist())}  # -0.0 == 0.0 here
    return [at[tuple(q)] for q in _monotone_chain(plane)]


def _plane_axes(a, b, c) -> tuple[list, bool]:
    """The two coordinates, in cyclic order, that the largest component n_k of
    n = (b - a) x (c - a), taken exactly, leaves out, and whether n_k > 0. Projected
    on them a polygon on that plane keeps its shape's orientation about n: it runs
    counterclockwise there iff it runs counterclockwise seen from where e_k points."""
    n = _exact_normal(a, b, c)
    k = max(range(3), key=lambda j: abs(n[j]))
    return [(k + 1) % 3, (k + 2) % 3], n[k] > 0


def _simplex(pts: np.ndarray) -> list:
    """Quickhull's first simplex over distinct (p, 3) points in lexicographic order:
    the first and last points a and b, the point c farthest from their line and d
    farthest from the plane of a, b and c, as floats measure them, with d exactly off
    that plane. That is certain where d's height clears _plane_margin. Else c and d
    are checked exactly, and where one of them is exactly on the line or the plane,
    the first point off it takes its place. A flat cloud gives fewer: [a] for one
    point, [a, b] on a line, [a, b, c] on a plane.
    """
    a, b = 0, len(pts) - 1
    if a == b:
        return [a]
    magnitude = _spatial_magnitude(pts)
    u = pts[b] - pts[a]
    ux, uy, uz = u.tolist()

    def farthest(c):  # the farthest point from the plane of a, b and c, and whether its side is certain
        vx, vy, vz = (pts[c] - pts[a]).tolist()
        n = np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx])
        heights = np.abs(pts @ n - pts[a] @ n)
        d = int(heights.argmax())
        return d, heights[d] > _plane_margin((abs(ux) + abs(uy) + abs(uz)) * (abs(vx) + abs(vy) + abs(vz)), magnitude)

    rel = pts - pts[a]
    along = rel @ u
    c = int((_row_squares(rel) * (u @ u) - along * along).argmax())  # |u x (q - a)|^2, roughly
    d, certain = farthest(c)
    if certain:
        return [a, b, c, d]
    p = pts.tolist()
    if not any(_exact_normal(p[a], p[b], p[c])):
        c = next((q for q in range(len(p)) if any(_exact_normal(p[a], p[b], p[q]))), None)
        if c is None:
            return [a, b]
        d = farthest(c)[0]
    if not _exact_orientation(p[a], p[b], p[c], p[d]):
        d = next((q for q in range(len(p)) if _exact_orientation(p[a], p[b], p[c], p[q])), None)
        if d is None:
            return [a, b, c]
    return [a, b, c, d]


def _flat_vertices(pts: np.ndarray, simplex: list) -> list:
    """The indices, ascending, of the strict extreme points of a flat cloud of distinct
    points in lexicographic order, from _simplex's [a], [a, b] or [a, b, c]: its one
    point, its two ends, or its polygon's corners by _face_cycle on the two
    coordinates that its normal's largest component leaves out."""
    if len(simplex) < 3:
        return simplex
    p = pts.tolist()
    cols = _plane_axes(*(p[i] for i in simplex))[0]
    return sorted(_face_cycle(pts, _hull_candidates(pts[:, cols]), cols))


def _triangle_planes(points: np.ndarray, triangles: np.ndarray) -> tuple:
    """For the (f, 3) index triples into points, each first corner a, normal
    n = (b - a) x (c - a) and _plane_margin, with M taken over points."""
    a, b, c = points[triangles.T]
    u, v = b - a, c - a
    margins = _plane_margin(np.abs(u).sum(axis=1) * np.abs(v).sum(axis=1), _spatial_magnitude(points))
    return a, _cross_rows(u, v), margins


def _spatial_magnitude(points: np.ndarray) -> float:
    """M_x + M_y + M_z, the largest coordinate magnitudes of points summed, or infinity
    from 2**250, where a height may overflow: _plane_margin is then infinite, and every
    side of a plane is decided exactly."""
    magnitude = float(np.abs(points).max(axis=0).sum())
    return magnitude if magnitude < 2.0**250 else math.inf


def _plane_margin(edge_l1s, magnitude):
    """256 ulps of (|b - a|_1 |c - a|_1 + tiny)(M_x + M_y + M_z), plus tiny, the smallest
    normal float, for rounding among subnormals in n's products and in the height: a
    height n @ q - n @ a, n = (b - a) x (c - a), whose magnitude exceeds it has the sign
    of the exact one, for points whose largest coordinate magnitudes are M (edge_l1s =
    |b - a|_1 |c - a|_1, which bounds |n|_1 and n's own rounding also for a sliver
    triangle)."""
    return (edge_l1s + _TINY) * (magnitude * 256 * _EPS) + _TINY


def _quickhull(pts: np.ndarray, simplex: list) -> np.ndarray:
    """The (f, 3) triangles of the hull of distinct (p, 3) points, each counterclockwise
    seen from outside, by Quickhull (Barber, Dobkin & Huhdanpaa, TOMS 1996) from
    _simplex's first simplex [a, b, c, d].

    Every side of a facet plane is decided exactly, with Shewchuk's filter design
    (DCG 18, 1997): a height n @ q - n @ a in Python floats that clears _plane_margin
    has the exact sign, and one too close to call is the sign of _exact_orientation.
    A point counts as above a facet only when it is strictly above, so a point on the
    boundary is dropped (it lies in the hull of the others), and an apex coplanar
    with a facet leaves it in place: such a facet and its new neighbour are coplanar,
    and _spatial_hull merges them into one face.
    """
    magnitude = _spatial_magnitude(pts)
    p = pts.tolist()
    edges, made = {}, []  # edges: (i, j) -> the live facet with the directed edge i -> j

    def add(i, j, k):
        # [i, j, k, n, n @ a, margin, points above as (height, index), the apex it was last
        # tested against, whether it was above]: a facet found below some apex is replaced
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = p[i], p[j], p[k]
        ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        margin = _plane_margin((abs(ux) + abs(uy) + abs(uz)) * (abs(vx) + abs(vy) + abs(vz)), magnitude)
        f = [i, j, k, nx, ny, nz, nx * ax + ny * ay + nz * az, margin, [], -1, False]
        edges[i, j] = edges[j, k] = edges[k, i] = f
        made.append(f)
        return f

    a, b, c, d = simplex
    base = add(a, b, c)
    h = base[3] * p[d][0] + base[4] * p[d][1] + base[5] * p[d][2] - base[6]
    if h > 0 if abs(h) > base[7] else _exact_orientation(p[a], p[b], p[c], p[d]) > 0:
        b, c = c, b
    edges.clear()
    made.clear()
    cone = [add(a, b, c), add(a, d, b), add(b, d, c), add(c, d, a)]
    orphans, stack = [q for q in range(len(p)) if q not in (a, b, c, d)], []
    while True:
        for q in orphans:  # onto the first new facet it is above, or dropped if above none
            qx, qy, qz = p[q]
            for f in cone:
                h = f[3] * qx + f[4] * qy + f[5] * qz - f[6]
                if h > f[7] or not h < -f[7] and _exact_orientation(p[f[0]], p[f[1]], p[f[2]], p[q]) > 0:
                    f[8].append((h, q))
                    break
        stack += [f for f in cone if f[8]]
        while stack and stack[-1][10]:  # replaced since it was stacked
            stack.pop()
        if not stack:
            return np.array([f[:3] for f in made if not f[10]])
        f = stack.pop()
        apex = max(f[8])[1]  # the farthest as floats see it: any point above f would do
        qx, qy, qz = p[apex]
        f[9], f[10], visible, horizon = apex, True, [f], []
        for g in visible:  # every facet the apex is above: a patch its edges connect
            for i, j in ((g[0], g[1]), (g[1], g[2]), (g[2], g[0])):
                nb = edges[j, i]
                if nb[9] != apex:
                    h = nb[3] * qx + nb[4] * qy + nb[5] * qz - nb[6]
                    nb[9], nb[10] = apex, h > nb[7] or not h < -nb[7] and _exact_orientation(
                        p[nb[0]], p[nb[1]], p[nb[2]], p[apex]) > 0
                    if nb[10]:
                        visible.append(nb)
                if not nb[10]:
                    horizon.append((i, j))
        for g in visible:
            del edges[g[0], g[1]], edges[g[1], g[2]], edges[g[2], g[0]]
        cone = [add(i, j, apex) for i, j in horizon]
        orphans = [q for g in visible for _, q in g[8] if q != apex]


def _qhull_triangles(points: np.ndarray) -> np.ndarray | None:
    """qhull's triangles of the hull of distinct (p, 3) points, each turned
    counterclockwise seen from outside by qhull's facet normal; None where qhull
    finds the cloud flat or keeps a point off the hull as coplanar, which might be
    a vertex."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        qhull = ConvexHull(points, qhull_options="Qt Qc")
    except QhullError:
        return None
    if qhull.coplanar.size:
        return None
    triangles = qhull.simplices.astype(np.intp)
    a, b, c = points[triangles.T]
    inward = np.einsum("fc,fc->f", _cross_rows(b - a, c - a), qhull.equations[:, :3]) < 0
    triangles[inward] = triangles[inward][:, ::-1]
    return triangles


def _spatial_hull(points: np.ndarray, triangles: np.ndarray, shift: int = 0) -> Hull | None:
    """The 3D Hull of a cloud from its distinct points in lexicographic order and the
    (f, 3) indices into them of its hull's triangles, each counterclockwise seen from
    outside, with arrays that depend on the hull alone; the vertices are the points'
    times 2**-shift. None where the triangles do not bound a convex body: some edge
    is not on one triangle each way, some triangle's far corner is above its
    neighbour's plane, or some triangle has zero area.

    Each side is decided exactly, by the float height where it clears _plane_margin
    and else by _exact_orientation. Triangles exactly coplanar across an edge merge
    into one face, whose strict corners come from _face_cycle on the two coordinates
    that its normal's largest component leaves out, fanned from its
    lexicographically smallest corner. The vertices, the faces' corners, run in
    lexicographic order; each row of simplices is sorted, and the rows are sorted.
    Every row of a face takes that face's one equation, from its first row
    (_facet_equations), so a point on a face is above all of its rows or none.
    """
    vertices, tri = _used(points, triangles)
    # slot 3t + s is triangle t's edge from corner s to corner s + 1 (mod 3), away from corner s + 2
    starts, stops = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    keys = np.minimum(starts, stops) * len(vertices) + np.maximum(starts, stops)
    slots = np.argsort(keys)
    one, other = slots[0::2], slots[1::2]  # each edge's two slots, which must run opposite ways
    if (len(keys) % 2 or np.any(keys[one] != keys[other]) or np.any(keys[other[:-1]] == keys[one[1:]])
            or np.any(starts[one] == starts[other])):
        return None
    partner = np.empty_like(slots)
    partner[one], partner[other] = other, one
    far = tri[:, [2, 0, 1]].ravel()[partner]  # the neighbour's corner off the shared edge
    rows, flip = _sorted_rows(tri)
    a, normals, margins = planes = _triangle_planes(vertices, rows)
    heights = np.einsum("fsc,fc->fs", vertices[far].reshape(-1, 3, 3), normals)
    heights -= np.einsum("fc,fc->f", a, normals)[:, None]
    heights[flip] *= -1  # as seen from outside
    if np.any(heights > margins[:, None]):
        return None
    face = np.arange(len(tri))  # each triangle's face, named by one of its triangles
    close = np.flatnonzero(~(heights < -margins[:, None]))
    v_list = vertices.tolist() if close.size else None
    for slot in close.tolist():
        t, u = slot // 3, partner[slot] // 3
        corners = [v_list[i] for i in tri[t]]
        side = _exact_orientation(*corners, v_list[far[slot]])
        # a zero-area triangle (qhull's Qt makes some) is coplanar with every neighbour
        if side > 0 or side == 0 and not any(_exact_normal(*corners)):
            return None
        if side == 0 and face[t] != face[u]:
            face[face == face[u]] = face[t]
    merged = np.any(face != np.arange(len(tri)))
    if merged:
        tri, face = _fanned_faces(vertices, tri, face)
        vertices, tri = _used(vertices, tri)
        rows, flip = _sorted_rows(tri)
    if merged or shift:
        vertices = np.ldexp(vertices, -shift)
        planes = _triangle_planes(vertices, rows)
    equations = _facet_equations(vertices, rows, flip, *planes[:2])
    order = np.lexsort(rows.T[::-1])
    simplices, equations = rows[order], equations[order]
    if merged:  # each face's first row gives its equation to every row of the face
        _, first, face_of = np.unique(face[order], return_index=True, return_inverse=True)
        equations = equations[first[face_of]]
    return Hull(dim=3, vertices=vertices, equations=equations, simplices=simplices)


def _used(points: np.ndarray, triangles: np.ndarray) -> tuple:
    """The points that triangles use, in their order, and triangles indexing them."""
    used = np.zeros(len(points), dtype=bool)
    used[triangles] = True
    return points[used], (np.cumsum(used) - 1)[triangles]


def _sorted_rows(triangles: np.ndarray) -> tuple:
    """Each row sorted, and whether that sort is an odd permutation, which turns
    n = (b - a) x (c - a) around: (j - i)(k - i)(k - j) < 0 for a row (i, j, k)."""
    i, j, k = triangles.T
    return np.sort(triangles, axis=1), np.sign(j - i) * np.sign(k - i) * np.sign(k - j) < 0


def _fanned_faces(points: np.ndarray, triangles: np.ndarray, face: np.ndarray) -> tuple:
    """The rows of triangles and their faces, with every face of more than one triangle
    replaced by the fan from its lexicographically smallest strict corner, each row
    counterclockwise seen from outside."""
    labels, counts = np.unique(face, return_counts=True)
    merged = labels[counts > 1]
    alone = ~np.isin(face, merged)
    rows, owner = [triangles[alone]], [face[alone]]
    for g in merged.tolist():
        members = np.flatnonzero(face == g)
        cols, up = _plane_axes(*points[triangles[members[0]]].tolist())
        cycle = _face_cycle(points, np.unique(triangles[members]), cols)
        if not up:  # counterclockwise seen from outside, where n_k < 0
            cycle.reverse()
        first = cycle.index(min(cycle))  # the points run in lexicographic order
        cycle = cycle[first:] + cycle[:first]
        rows.append(np.array([[cycle[0], cycle[i], cycle[i + 1]] for i in range(1, len(cycle) - 1)]))
        owner.append(np.full(len(cycle) - 2, g))
    return np.concatenate(rows), np.concatenate(owner)


def _facet_equations(vertices: np.ndarray, rows: np.ndarray, flip: np.ndarray, a: np.ndarray,
                     normals: np.ndarray) -> np.ndarray:
    """One row [n, b] for each sorted row of corners a, b, c, from _triangle_planes' a and
    n = (b - a) x (c - a) in floats, negated where flip (it then points outward), then
    normalized, and b = -n @ a. Where n's squared length is not a normal float (tiny or
    huge clouds, slivers), n is instead the exact cross product, in integers scaled by
    one power of two, divided by the power of two 2**s that brings its largest
    component into [2**63, 2**64), each component rounded to the nearest float.
    Vertices that span more than the largest float are a GeometryError."""
    if not np.isfinite(np.ptp(vertices, axis=0)).all():
        raise GeometryError("a 3D hull spans more than the largest float")
    squares = _row_squares(normals)
    for r in np.flatnonzero(~((squares >= _TINY) & (squares < math.inf))).tolist():
        n = _exact_normal(*vertices[rows[r]].tolist())
        s = max(abs(x).bit_length() for x in n) - 64
        normals[r] = [x / 2**s for x in n]
        squares[r] = _row_squares(normals[r])
    normals[flip] *= -1
    normals /= np.sqrt(squares)[:, None]
    return np.column_stack([normals, -(normals * a).sum(axis=1)])


def _qhull_hull(pts: np.ndarray, qhull: ConvexHull) -> Hull:
    """The Hull of a (p, m) cloud, m >= 3, with qhull's arrays."""
    # renumber the facet corners from cloud indices to vertex indices
    index = np.empty(pts.shape[0], dtype=np.intp)
    index[qhull.vertices] = np.arange(qhull.vertices.size)
    return Hull(dim=pts.shape[1], vertices=pts[qhull.vertices], equations=qhull.equations,
                simplices=index[qhull.simplices])


def _nearest(hull: Hull, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each row of pts, shape (k, m), to the hull, exactly 0.0
    inside, and a nearest hull point in pts' memory order; each row bit for bit
    what it gets alone.

    m = 1 is a clip, and a flat 2D cloud (a point or a segment) its segment
    foot a + t (b - a). In a full hull with m = 2 or 3 a point is outside iff
    it is above some facet, and its nearest hull point then lies on a facet it
    is above: the distance is the least over those facets (a 2D edge's, or a 3D
    triangle's plane height where the plane foot x - h n falls inside it, else
    its nearest edge's), and the foot is x - h n where that falls inside the
    facet (0 < t < 1 on a 2D edge), else the edge foot. For m >= 4, and for a
    flat cloud in m >= 3, each point outside is solved by _min_norm_point over
    the vertices to absolute accuracy HULL_TOL, and its foot is the last iterate.
    """
    if not np.all(np.isfinite(pts)):
        raise GeometryError("query points must be finite")
    m, vertices = hull.dim, hull.vertices
    if m == 1:
        lo, hi = vertices[0, 0], vertices[-1, 0]
        d = np.maximum(np.maximum(lo - pts[:, 0], pts[:, 0] - hi), 0.0)
        return d, np.clip(pts, lo, hi)
    if hull.equations is None and m == 2:  # one point or one segment
        return _segment_nearest(vertices[0], vertices[-1], pts)[:2]
    d, foot = np.zeros(len(pts)), pts.copy(order="K")
    if hull.equations is None:  # a flat cloud in m >= 3: every point is solved
        rows = np.arange(len(pts))
    else:
        heights = hull._heights(pts)
        rows, facets = np.nonzero(heights > 0)
    if not rows.size:  # no point outside
        return d, foot
    if m > 3 or hull.equations is None:
        for i in np.unique(rows):
            d[i], foot[i] = _min_norm_point(vertices, pts[i], HULL_TOL, MIN_NORM_MAX_ITER)
        return d, foot
    x, corners = pts[rows], vertices[hull.simplices[facets]]
    h = heights[rows, facets]
    plane = x - h[:, None] * hull.equations[facets, :-1]  # the foot on the facet's line or plane
    # edges run from corner k to corner k + 1 (mod m); a 2D facet has just one
    n_edges = 1 if m == 2 else 3
    starts, ends = corners[:, :n_edges], np.roll(corners, -1, axis=1)[:, :n_edges]
    dists, feet, t = _segment_nearest(starts, ends, x[:, None, :])
    pair = np.arange(len(rows)), dists.argmin(axis=1)
    dist, near = dists[pair], feet[pair]
    if m == 2:  # inside the edge, the plane foot: for an axis-aligned edge, HPolytope's bits
        near = np.where(((t[pair] > 0) & (t[pair] < 1))[:, None], plane, near)
    else:
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        e0, e1, rel = b - a, c - a, plane - a
        # v and w below do not change under one power of two per row, which keeps their
        # products off the subnormals and below overflow in tiny and huge hulls
        scale = np.ldexp(1.0, -np.frexp(np.maximum(np.abs(e0).max(axis=1), np.abs(e1).max(axis=1)))[1])[:, None]
        e0, e1, rel = e0 * scale, e1 * scale, rel * scale
        d00, d01, d11 = _dot(e0, e0), _dot(e0, e1), _dot(e1, e1)
        d20, d21 = _dot(rel, e0), _dot(rel, e1)
        # a zero-area facet gives NaN: its plane foot is never inside
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = d00 * d11 - d01 * d01
            v = (d11 * d20 - d01 * d21) / denom
            w = (d00 * d21 - d01 * d20) / denom
            inside = (v >= 0) & (w >= 0) & (v + w <= 1)  # inf + -inf is NaN too
        near = np.where((inside & (h < dist))[:, None], plane, near)
        dist = np.where(inside, np.minimum(dist, h), dist)
    d[rows] = np.inf
    np.minimum.at(d, rows, dist)
    least = dist == d[rows]
    foot[rows[least]] = near[least]
    return d, foot


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, broadcast over the leading axes.

    Each row is its own stacked matmul: bit for bit the scalar u @ v (einsum
    is not), and never dependent on the rest of the batch (a (k, m) @ (m, f)
    product is).
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _segment_nearest(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance from x to the segment [a, b], row-wise, the nearest point a + t (b - a)
    and its t in [0, 1]; if a == b, a and t = 0."""
    ab = b - a
    length2 = _dot(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where a == b
        t = np.clip(_dot(x - a, ab) / length2, 0.0, 1.0)
    t = np.where(length2 == 0, 0.0, t)
    foot = a + t[..., None] * ab
    off = x - foot
    return np.sqrt(_dot(off, off)), foot, t


def min_norm_point_distance(
    points, x, tol: float = HULL_TOL, max_iter: int = MIN_NORM_MAX_ITER
) -> float:
    """Distance from x to conv(points) by Frank-Wolfe with away steps: _min_norm_point's distance.

    A gradient 2 V @ r that overflows float64 is a GeometryError.
    """
    V = np.asarray(points, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if V.ndim != 2 or x.shape != (V.shape[1],):
        raise GeometryError("generators must be (p, m) and the query point (m,)")
    if not tol > 0:
        raise GeometryError("tolerance must be positive")
    return _min_norm_point(V, x, tol, max_iter)[0]


def _min_norm_point(V: np.ndarray, x: np.ndarray, tol: float, max_iter: int) -> tuple[float, np.ndarray]:
    """||r|| = ||y - x|| and the point y = V @ w of conv(V), shape (p, m), that
    Frank-Wolfe with away steps ends at.

    Minimizes ||x - V @ w||^2 over the simplex of generator weights with exact
    line search. It stops once ||r|| <= tol or the duality gap is <= tol * ||r||:
    ||r||^2 - d^2 <= gap, so ||r|| - d <= tol. y is only within sqrt(gap) of the
    nearest point, as ||y - nearest||^2 <= ||r||^2 - d^2: far more than tol.
    """
    p = V.shape[0]

    start = int(np.argmin(np.linalg.norm(V - x, axis=1)))
    w = np.zeros(p)
    w[start] = 1.0
    y = V[start].copy()

    gap = np.inf
    for _ in range(max_iter):
        r = y - x
        grad = 2.0 * (V @ r)
        s = int(np.argmin(grad))
        mean_grad = float(w @ grad)
        gap = mean_grad - grad[s]
        dist = float(np.linalg.norm(r))
        if dist <= tol or gap <= tol * dist:
            return dist, y
        if not math.isfinite(gap):  # 2 V @ r overflowed: every step test below would read NaN
            raise GeometryError("min-norm-point gradient is not finite: the generators or the query are too large")

        active = np.flatnonzero(w > 0)
        a = int(active[np.argmax(grad[active])])
        if gap >= grad[a] - mean_grad:  # toward V[s], whose gain is gap, at most all the way
            k, sign, direction, gamma_max = s, 1.0, V[s] - y, 1.0
        elif w[a] >= 1.0:  # single-vertex support, nothing to move away from
            return dist, y
        else:  # away from V[a], at most until its weight is zero
            k, sign, direction, gamma_max = a, -1.0, y - V[a], w[a] / (1.0 - w[a])
        denom = float(direction @ direction)
        if denom == 0.0:
            return dist, y
        gamma = sign * min(max(-float(r @ direction) / denom, 0.0), gamma_max)
        w *= 1.0 - gamma  # toward: (1 - gamma) w + gamma e_s; away: (1 + gamma) w - gamma e_a
        w[k] += gamma
        np.maximum(w, 0.0, out=w)
        w /= w.sum()
        y = V.T @ w
    raise ProjectionSolverError(
        "min-norm-point solver exceeded its iteration cap", residual=float(gap)
    )
