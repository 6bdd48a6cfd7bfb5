"""Reference functions that only the tests call.

They are deliberately independent of the code they check: a grid-search
projection, a planar hull distance from pairwise segments, empirical and
Gaussian CDFs with the clamped CDF of acceptance criterion 3, an empirical
check of a model's declared Lipschitz constants, a sampler of boundary
points for the variational inequality of a projection, and a step observer
that records what an ensemble does not keep.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import ndtr

from hullsim.dynamics import SdeModel, diffusion_at
from hullsim.estimation import EstimationError
from hullsim.geometry import Ball, Box, ConvexBody, HPolytope, Interval, row_norms
from hullsim.oracle import OracleError


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
