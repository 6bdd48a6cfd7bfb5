"""Convex-hull estimation of the constraining body from simulated copies.

The estimate at node j is the convex hull of the N copy states at that node,
read from an ensemble that kept node j (simulate_ensemble's nodes).
In one dimension its error against the known interval is the Hausdorff
distance, the larger hull distance of the interval's two ends, valid because
the estimate is always contained in the truth; in higher dimension the
estimate is judged pointwise, by the distances from a batch of fixed probes to
the hull in one distance_to_hull call.
"""

from __future__ import annotations

import numpy as np

from .geometry import ConvexBody, Hull, contains, convex_hull, distance_to_hull
from .dynamics import ModelError, PathEnsemble


class EstimationError(ValueError):
    pass


def hull_estimate(ensemble: PathEnsemble, j: int) -> Hull:
    """Hull of the copy states at node j >= 1, ensemble.at(j) (node 0 is the
    deterministic start, rejected; so is a node the ensemble did not keep)."""
    if not 1 <= j <= ensemble.grid.steps:
        raise EstimationError(f"time index must be in 1..{ensemble.grid.steps}, got {j}")
    try:
        states = ensemble.at(j)
    except ModelError as exc:
        raise EstimationError(str(exc)) from exc
    return convex_hull(states)


def hausdorff_error_1d(hull: Hull, truth: ConvexBody) -> float:
    """Hausdorff distance from the hull to the one-dimensional truth: the larger
    distance_to_hull of the truth's two ends, so never negative.

    Valid because the estimate is contained in the truth; a generator outside
    it (contains is false) signals an upstream containment bug and is rejected
    rather than clamped.
    """
    if hull.dim != 1:
        raise EstimationError("interval error is defined in dimension one only")
    ends = np.concatenate(truth.bounding_box())[:, None]
    if not np.all(contains(truth, hull.vertices)):
        lower, upper = hull.vertices[[0, -1], 0].tolist()
        lo, hi = ends.ravel().tolist()
        raise EstimationError(f"estimate [{lower}, {upper}] escapes [{lo}, {hi}]")
    return float(distance_to_hull(hull, ends).max())


def pointwise_error(hull: Hull, x) -> np.ndarray | float:
    """Distance from a fixed point (m,), or from each of a batch (k, m), to the
    estimated hull."""
    return distance_to_hull(hull, x)

