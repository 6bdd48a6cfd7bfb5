"""Convex-hull estimation of the constraining body from simulated copies.

The estimate at node j is the convex hull of the N copy states at that node.
In one dimension its defect against a known interval [I, S] is
max(S - max_estimate, min_estimate - I), valid because the estimate is always
contained in the truth; in higher dimension the estimate is judged pointwise,
by the distances from a batch of fixed probes to the hull in one
distance_to_hull call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .geometry import ConvexBody, Hull, as_interval, convex_hull, distance_to_hull
from .dynamics import PathEnsemble


class EstimationError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class HullEstimate:
    """Hull of the copy states at one time node.

    lower/upper are set in dimension one (the min and max state) and None
    otherwise.
    """

    time_index: int
    hull: Hull
    n_copies: int
    lower: float | None = None
    upper: float | None = None


def hull_estimate(ensemble: PathEnsemble, j: int) -> HullEstimate:
    """Estimate at node j >= 1 (node 0 is the deterministic start, rejected)."""
    if not 1 <= j <= ensemble.grid.steps:
        raise EstimationError(f"time index must be in 1..{ensemble.grid.steps}, got {j}")
    hull = convex_hull(ensemble.states[:, j, :])
    lower = upper = None
    if ensemble.dim == 1:
        lower, upper = float(hull.vertices[0, 0]), float(hull.vertices[-1, 0])
    return HullEstimate(
        time_index=j, hull=hull, n_copies=ensemble.n_copies, lower=lower, upper=upper
    )


def hausdorff_error_1d(estimate: HullEstimate, truth: ConvexBody) -> float:
    """One-sided interval defect max(hi - upper, lower - lo) against truth [lo, hi].

    Valid because the estimate is contained in the truth interval; a generator
    outside it (beyond 1e-9) signals an upstream containment bug and is
    rejected rather than clamped.
    """
    if estimate.hull.dim != 1:
        raise EstimationError("interval error is defined in dimension one only")
    lo, hi = as_interval(truth)
    if estimate.lower < lo - 1e-9 or estimate.upper > hi + 1e-9:
        raise EstimationError(
            f"estimate [{estimate.lower}, {estimate.upper}] escapes [{lo}, {hi}]"
        )
    return max(hi - estimate.upper, estimate.lower - lo)


def pointwise_error(estimate: HullEstimate, x) -> np.ndarray | float:
    """Distance from a fixed point (m,), or from each of a batch (k, m), to the
    estimated hull."""
    return distance_to_hull(estimate.hull, x)


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
