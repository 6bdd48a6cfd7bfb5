"""Reference functions that only the tests call: the Gaussian and clamped CDFs
of acceptance criterion 3, and an empirical check of a model's declared
Lipschitz constants."""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import ndtr

from hullsim.dynamics import SdeModel, diffusion_at
from hullsim.estimation import EstimationError


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
