"""The --check diagnostics of a run.

They run on a simulated ensemble's kept step record: the per-step
growth-bound checker with its two constants, and the hitting-frequency
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    Multifunction,
    PathEnsemble,
    SdeModel,
    TimeGrid,
    bodies_at_nodes,
    gaussian_increments,  # unused here; the benchmark's tracer looks it up on this module
)
from .geometry import ConvexBody, contains, norm_bound, row_norms


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class StepConstants:
    """Constants of the one-step growth bound

        ||h_next - x|| <= c1 * ||x_cur - x|| + c2 * ||sigma(x) z + drift(x) delta||

    for any probe x in the next body, with sigma(x) the diagonal matrix of the
    model's diffusion. The two suprema are sample maxima over points in the
    ball of radius m_c, hence lower bounds on the true values;
    for constant-diffusion models they do not enter (lip_diffusion = 0) and
    c1, c2 are exact.
    """

    c1: float
    c2: float
    m_c: float
    sup_inv_op_norm: float
    sup_inv_drift: float

    def __post_init__(self):
        if not (np.isfinite(self.c1) and np.isfinite(self.c2)):
            raise OracleError("constants must be finite")
        if self.c1 < 1 or self.c2 < 1:
            raise OracleError("constants must be at least one")


def constants_c1_c2(
    model: SdeModel,
    m_c: float,
    delta: float,
    probe_count: int = 1000,
    seed: int = 0,
) -> StepConstants:
    """Evaluate the two step-bound constants by sampling the m_c ball.

    c1 = 1 + (lip_drift + lip_diffusion * sup ||inv(sigma(v))|| * ||drift(v)||) * delta
    c2 = 1 + 2 * m_c * lip_diffusion * sup ||inv(sigma(v))||

    with both suprema over ||v|| <= m_c, estimated by probe_count uniform
    samples. sigma(v) is diagonal, so ||inv(sigma(v))|| = 1 / min_i |sigma_i(v)|.
    """
    if not m_c > 0:
        raise OracleError("m_c must be positive")
    if probe_count < 1000:
        raise OracleError("probe_count must be at least 1000")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((probe_count, model.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = m_c * rng.random(probe_count) ** (1.0 / model.dim)
    pts = dirs * radii[:, None]

    smallest = np.min(np.abs(np.asarray(model.diffusion(pts), dtype=float)), axis=1)
    if np.any(smallest <= 1e-12):
        raise OracleError("diffusion matrix is singular at a sampled probe")
    inv_norms = 1.0 / smallest
    with np.errstate(over="ignore", invalid="ignore"):  # StepConstants rejects what is not finite
        drift_norms = np.linalg.norm(model.drift(pts), axis=1)
        sup_inv = float(np.max(inv_norms))
        sup_inv_drift = float(np.max(inv_norms * drift_norms))
        c1 = 1.0 + (model.lip_drift + model.lip_diffusion * sup_inv_drift) * delta
        c2 = 1.0 + 2.0 * m_c * model.lip_diffusion * sup_inv
    return StepConstants(
        c1=c1, c2=c2, m_c=m_c, sup_inv_op_norm=sup_inv, sup_inv_drift=sup_inv_drift
    )


@dataclass
class BoundCheckReport:
    """Outcome of the per-step growth-bound sweep with the constants it used; its fields are
    a report.json step_bound entry's keys."""

    n_checks: int
    n_violations: int
    worst_margin: float
    slack: float
    c1: float
    c2: float
    m_c: float


def _check_probes_inside(bodies: list[ConvexBody], probes: np.ndarray) -> None:
    for body in bodies[1:]:
        if not np.all(contains(body, probes)):
            raise OracleError("every probe must lie in the body at every step end")


def step_bound_constants(model: SdeModel, mf: Multifunction, grid: TimeGrid,
                         probes: np.ndarray) -> StepConstants:
    """The constants step1_bound_check samples when not given them: constants_c1_c2
    from 4000 points of the ball that holds every node body. Raises OracleError
    unless each of the (k, m) probes lies in the body at the end of every step."""
    bodies = bodies_at_nodes(mf, grid)
    _check_probes_inside(bodies, probes)
    m_c = max(norm_bound(body) for body in bodies)
    return constants_c1_c2(model, m_c, grid.delta, probe_count=4000)


def step1_bound_check(
    model: SdeModel,
    ensemble: PathEnsemble,
    mf: Multifunction,
    probes,
    slack: float = 1e-10,
    constants: StepConstants | None = None,
) -> BoundCheckReport:
    """Check ||h_{j+1} - x|| <= c1 ||x_j - x|| + c2 ||sigma(x) z + drift(x) delta|| + slack.

    Runs over every copy, every step, and every probe x; each probe must lie
    in the body at the end of every step. The increments z are the ones the
    ensemble kept with its pre-projection points (simulate_ensemble with
    keep_pre_projection=True); an ensemble without either is rejected. One
    pass over the nodes evaluates every probe on node j's (N, m) views of z,
    the pre-projection points and the states. Passing constants overrides the
    ones constants_c1_c2 samples from 4000 points (used by the mutation test
    to confirm the check has power).
    """
    if ensemble.pre_projection is None or ensemble.increments is None:
        raise OracleError("ensemble was simulated without pre-projection storage")
    grid = ensemble.grid
    n, m = grid.steps, ensemble.dim
    if ensemble.increments.shape != (ensemble.n_copies, n, m):
        raise OracleError(f"ensemble increments have shape {ensemble.increments.shape}, "
                          f"expected {(ensemble.n_copies, n, m)}")
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[1] != m:
        raise OracleError(f"probes must have {m} coordinates")

    if constants is None:
        constants = step_bound_constants(model, mf, grid, probes)
    else:
        _check_probes_inside(bodies_at_nodes(mf, grid), probes)

    sigmas = [np.asarray(model.diffusion(x), dtype=float) for x in probes]
    shifts = [np.asarray(model.drift(x), dtype=float) * grid.delta for x in probes]
    c1, c2 = constants.c1, constants.c2

    worst = -np.inf
    violations = 0
    for j in range(n):
        z, h, x_j = ensemble.increments[:, j], ensemble.pre_projection[:, j], ensemble.states[:, j]
        for x, sig_x, shift_x in zip(probes, sigmas, shifts):
            margins = (row_norms(h - x) - c1 * row_norms(x_j - x)) - c2 * row_norms(z * sig_x + shift_x)
            worst = max(worst, float(margins.max()))
            violations += int(np.count_nonzero(margins > slack))
    n_checks = ensemble.n_copies * n * probes.shape[0]
    return BoundCheckReport(
        n_checks=n_checks,
        n_violations=violations,
        worst_margin=worst,
        slack=slack,
        c1=c1,
        c2=c2,
        m_c=constants.m_c,
    )


@dataclass
class HittingReport:
    """Hit counts of pre-projection points in a ball around an interior probe.

    hits_per_node[j-1] counts copies whose pre-projection point at node j fell
    within the ball and strictly inside the body there; frequency pools all
    nodes. Its fields are a report.json hitting entry's keys.
    """

    probe: np.ndarray
    radius: float
    n_copies: int
    hits_per_node: np.ndarray
    total_hits: int = field(init=False)
    frequency: float = field(init=False)

    def __post_init__(self):
        self.total_hits = int(self.hits_per_node.sum())
        self.frequency = self.total_hits / (self.n_copies * self.hits_per_node.size)


def hitting_frequency(
    ensemble: PathEnsemble, mf: Multifunction, probes, radius: float = 0.1
) -> list[HittingReport]:
    """Empirical frequency of pre-projection points near each interior probe.

    probes is a (k, m) array; the result holds one report per probe, in
    order. All probes are counted in one pass over the nodes, which evaluates
    the body's interior test at node j once, whatever k is.
    """
    if ensemble.pre_projection is None:
        raise OracleError("ensemble was simulated without pre-projection storage")
    if not radius > 0:
        raise OracleError("radius must be positive")
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != ensemble.dim:
        raise OracleError(f"probes must be a (k, {ensemble.dim}) array, got shape {probes.shape}")
    grid = ensemble.grid
    hits = np.zeros((probes.shape[0], grid.steps), dtype=int)
    for j in range(1, grid.steps + 1):
        h = ensemble.pre_projection[:, j - 1]
        inside = np.asarray(mf(grid.node(j)).interior_margin(h)) > 0
        for k, probe in enumerate(probes):
            hits[k, j - 1] = int(np.count_nonzero((row_norms(h - probe) <= radius) & inside))
    return [
        HittingReport(probe=probe, radius=radius, n_copies=ensemble.n_copies, hits_per_node=row)
        for probe, row in zip(probes, hits)
    ]
