"""Convex bodies, projections, support functions, hulls, and point-to-set distances.

Bodies come in three variants: box (an interval is the box with one
coordinate), ball and H-polytope, which lists its vertices at construction
and needs no LP solver. All point arguments are numpy arrays whose last axis
is the space dimension, so every projection is batch-friendly: shape (..., m)
in, shape (..., m) out, in the input's memory order.
Ensembles hand over coordinate-major (F-ordered) (N, m) batches, so per-point
work runs on whole coordinate columns (row_norms and the H-polytope screen and
margin), with its loops along the N points, never along the m <= 3
coordinates, and a point's bits do not depend on its batch.
scipy's qhull is imported by the first hull with m >= 2, not with this module,
so one-dimensional hulls load no scipy.
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

MIN_NORM_MAX_ITER = 100_000
MAX_FACE_SETS = 10_000  # sets of at most m faces an HPolytope may enumerate


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


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, squares summed in coordinate order.

    Each square is a whole column, so the loops run along the rows and a
    row's bits do not depend on the memory order of a (einsum's reduction
    order does for m >= 3).
    """
    sq = a[..., 0] * a[..., 0]
    for k in range(1, a.shape[-1]):
        sq += a[..., k] * a[..., k]
    return np.sqrt(sq)


class ConvexBody:
    """Base class for closed bounded convex sets with nonempty interior."""

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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
        x = _check_points(x, self.dim)
        off = x - self.center
        norms = row_norms(off)[..., None]
        scale = self.radius / np.maximum(norms, self.radius)  # exactly 1 inside; never overflows
        return self.center + off * scale

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
        """Exact projection; a point inside comes back unchanged.

        A point outside projects onto {y : N_S y = b_S} for a face set S whose
        multipliers lam = G^-1 (N_S x - b_S), G = N_S N_S^T, are all >= 0. Each
        such candidate x - lam @ N_S projects x onto the polyhedron of S's
        half-spaces, which holds the body, so the one in the body is the
        projection: the one with the largest interior margin (first on a tie).
        A box of half-spaces with unit or power-of-two axis normals gives
        np.clip's bits wherever x - (x - b) rounds to b.
        """
        x = _check_points(x, self.dim)
        flat = x.reshape(-1, self.dim)
        out = flat.copy(order="K")
        slack = self._face_values(flat)
        slack -= self.offsets[:, None]
        active = np.flatnonzero(np.any(slack > 0, axis=0))
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
        return out.reshape(x.shape)

    def _face_values(self, flat: np.ndarray) -> np.ndarray:
        """normals @ flat.T summed over whole columns of flat: unlike BLAS, the same bits in any batch."""
        values = self.normals[:, :1] * flat[:, 0]
        for c in range(1, self.dim):
            values += self.normals[:, c:c + 1] * flat[:, c]
        return values

    def support(self, u):
        u = _check_direction(u, self.dim)
        return float(np.max(self.vertices @ u))

    def interior_margin(self, x):
        x = _check_points(x, self.dim)
        flat = x.reshape(-1, self.dim)
        margins = self._face_values(flat)  # becomes (offsets - values) / row norms in place
        np.subtract(self.offsets[:, None], margins, out=margins)
        margins /= self._row_norms[:, None]
        return margins.min(axis=0).reshape(x.shape[:-1])[()]  # a scalar for one point

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
    """Euclidean distance from x to the body; zero inside."""
    x = _check_points(x, body.dim)
    d = row_norms(x - body.project(x))
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
class Hull:
    """Convex hull of a finite point cloud; the cloud itself is not kept.

    vertices, shape (k, m), are the extreme points. For m = 1 they are the
    min and max. For m >= 2 the hull is built by qhull (Quickhull: Barber,
    Dobkin & Huhdanpaa, TOMS 1996): in 2D the vertices run counterclockwise,
    in higher dimension they keep input order. equations, shape (f, m + 1),
    holds one row [n, b] per facet with unit outward normal n, so that
    n @ y + b <= 0 inside. simplices, shape (f, m), indexes the vertices of
    each (triangulated) facet; in 2D each row (i, j) is the counterclockwise
    edge from vertex i to vertex j = (i + 1) % k. Both are None for m = 1
    and for a degenerate cloud, one that spans less than m dimensions (fewer
    than m + 1 distinct points, collinear, coplanar); convex_hull says which
    vertices it keeps.
    """

    dim: int
    vertices: np.ndarray
    equations: np.ndarray | None = None
    simplices: np.ndarray | None = None


def convex_hull(points) -> Hull:
    """Hull of a (p, m) cloud, or of p values on the line; see Hull.

    For m >= 2 qhull builds the hull. Where its facet merging leaves a point
    of a thin cloud more than HULL_TOL outside, the hull is built again from
    joggled input (qhull's QJ option), which merges no facets. A cloud qhull
    reports as flat is kept as its distinct points, or in 2D as the segment
    between its extremes along its principal axis (for collinear points: the
    lexicographically first and last).
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
    from scipy.spatial import ConvexHull, QhullError

    try:
        # scipy's default options and Qc, which lists the points kept off the hull as coplanar
        qhull = ConvexHull(pts, qhull_options="Qt Qc Qx" if m > 4 else "Qt Qc")
    except QhullError:  # the cloud is flat to qhull's precision
        uniq = np.unique(pts, axis=0)  # lexicographic order
        if m == 2 and len(uniq) > 2:
            # the extremes along the principal axis; for collinear points
            # these are the lexicographically first and last
            axis = np.linalg.svd(uniq - uniq.mean(axis=0))[2][0]
            along = uniq @ axis
            uniq = uniq[np.sort([np.argmin(along), np.argmax(along)])]
        return Hull(dim=m, vertices=uniq)
    hull = _qhull_hull(pts, qhull)
    coplanar = pts[qhull.coplanar[:, 0]]
    if coplanar.size and np.any(distance_to_hull(hull, coplanar) > HULL_TOL):
        # facet merging of a thin cloud left a generator outside: joggle the input instead
        hull = _qhull_hull(pts, ConvexHull(pts, qhull_options="QJ"))
    return hull


def _qhull_hull(pts: np.ndarray, qhull: ConvexHull) -> Hull:
    m = pts.shape[1]
    # renumber the facet corners from cloud indices to vertex indices
    index = np.empty(pts.shape[0], dtype=np.intp)
    index[qhull.vertices] = np.arange(qhull.vertices.size)
    simplices = index[qhull.simplices]
    if m == 2:  # orient each edge along qhull's counterclockwise vertex order
        k = qhull.vertices.size
        ccw = simplices[:, 1] == (simplices[:, 0] + 1) % k
        simplices = np.where(ccw[:, None], simplices, simplices[:, ::-1])
    return Hull(
        dim=m, vertices=pts[qhull.vertices], equations=qhull.equations, simplices=simplices
    )


def distance_to_hull(hull: Hull, x, tol: float = HULL_TOL) -> np.ndarray | float:
    """Distance from x to the convex hull; exactly 0.0 inside.

    x is one point (m,), giving a float, or a batch (k, m), giving k
    distances; each distance is the one x[i] alone would give, bit for bit.
    Exact in dimension one (interval), for a flat 2D cloud (a point or a
    segment) and for full hulls in m = 2 and 3 (nearest point over the
    facets a point is above). For m >= 4, and for a flat cloud in m >= 3,
    each point outside is solved by the min-norm-point scheme over the hull
    vertices to absolute accuracy tol.
    """
    if not tol > 0:
        raise GeometryError("hull distance tolerance must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = hull.dim
    if x.ndim > 2 or x.shape[-1] != m:
        raise GeometryError(f"query must have shape ({m},) or (k, {m}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise GeometryError("query points must be finite")
    pts = x.reshape(-1, m)
    if m == 1:
        lo, hi = hull.vertices[0, 0], hull.vertices[-1, 0]
        d = np.maximum(np.maximum(lo - pts[:, 0], pts[:, 0] - hi), 0.0)
    elif hull.equations is None and m == 2:  # one point or one segment
        d = _segment_distances(hull.vertices[0], hull.vertices[-1], pts)
    elif hull.equations is None:
        d = np.array([min_norm_point_distance(hull.vertices, p, tol) for p in pts])
    else:
        d = _facet_distances(hull, pts, tol)
    return float(d[0]) if x.ndim == 1 else d


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, broadcast over the leading axes.

    Each row is its own stacked matmul: bit for bit the scalar u @ v (einsum
    is not), and never dependent on the rest of the batch (a (k, m) @ (m, f)
    product is).
    """
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _segment_distances(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from x to the segment [a, b], row-wise; if a == b, to a."""
    ab = b - a
    length2 = _dot(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where a == b
        t = np.clip(_dot(x - a, ab) / length2, 0.0, 1.0)
    t = np.where(length2 == 0, 0.0, t)
    off = x - (a + t[..., None] * ab)
    return np.sqrt(_dot(off, off))


def _facet_distances(hull: Hull, pts: np.ndarray, tol: float) -> np.ndarray:
    """Distances from pts, shape (k, m), to a full-dimensional hull.

    A point is outside iff it is above some facet, and its nearest hull
    point then lies on a facet it is above: its distance is the least over
    those facets. A 2D facet is its one edge; a 3D facet is the plane height
    where the plane foot falls inside the triangle and else its nearest edge.
    m >= 4 runs the min-norm-point scheme for each point outside.
    """
    m = hull.dim
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    heights = _dot(pts[:, None, :], normals) + offsets
    rows, facets = np.nonzero(heights > 0)
    d = np.zeros(len(pts))
    if m > 3:
        for i in np.unique(rows):
            d[i] = min_norm_point_distance(hull.vertices, pts[i], tol)
        return d
    x, corners = pts[rows], hull.vertices[hull.simplices[facets]]
    # edges run from corner k to corner k + 1 (mod m); a 2D facet has just one
    n_edges = 1 if m == 2 else 3
    starts, ends = corners[:, :n_edges], np.roll(corners, -1, axis=1)[:, :n_edges]
    dist = _segment_distances(starts, ends, x[:, None, :]).min(axis=1)
    if m == 3:
        h = heights[rows, facets]
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        e0, e1, rel = b - a, c - a, x - h[:, None] * normals[facets] - a
        d00, d01, d11 = _dot(e0, e0), _dot(e0, e1), _dot(e1, e1)
        d20, d21 = _dot(rel, e0), _dot(rel, e1)
        # a zero-area facet gives NaN: its plane foot is never inside
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = d00 * d11 - d01 * d01
            v = (d11 * d20 - d01 * d21) / denom
            w = (d00 * d21 - d01 * d20) / denom
            inside = (v >= 0) & (w >= 0) & (v + w <= 1)  # inf + -inf is NaN too
        dist = np.where(inside, np.minimum(dist, h), dist)
    d[rows] = np.inf
    np.minimum.at(d, rows, dist)
    return d


def min_norm_point_distance(
    points, x, tol: float = HULL_TOL, max_iter: int = MIN_NORM_MAX_ITER
) -> float:
    """Distance from x to conv(points) by Frank-Wolfe with away steps.

    Minimizes ||x - V @ w||^2 over the simplex of generator weights with exact
    line search. It returns ||r|| = ||V @ w - x|| once ||r|| <= tol or the
    duality gap is <= tol * ||r||: ||r||^2 - d^2 <= gap, so ||r|| - d <= tol.
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
            return dist
        if not math.isfinite(gap):  # 2 V @ r overflowed: every step test below would read NaN
            raise GeometryError("min-norm-point gradient is not finite: the generators or the query are too large")

        active = np.flatnonzero(w > 0)
        a = int(active[np.argmax(grad[active])])
        if gap >= grad[a] - mean_grad:  # toward V[s], whose gain is gap, at most all the way
            k, sign, direction, gamma_max = s, 1.0, V[s] - y, 1.0
        elif w[a] >= 1.0:  # single-vertex support, nothing to move away from
            return dist
        else:  # away from V[a], at most until its weight is zero
            k, sign, direction, gamma_max = a, -1.0, y - V[a], w[a] / (1.0 - w[a])
        denom = float(direction @ direction)
        if denom == 0.0:
            return dist
        gamma = sign * min(max(-float(r @ direction) / denom, 0.0), gamma_max)
        w *= 1.0 - gamma  # toward: (1 - gamma) w + gamma e_s; away: (1 + gamma) w - gamma e_a
        w[k] += gamma
        np.maximum(w, 0.0, out=w)
        w /= w.sum()
        y = V.T @ w
    raise ProjectionSolverError(
        "min-norm-point solver exceeded its iteration cap", residual=float(gap)
    )
