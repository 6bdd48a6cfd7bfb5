"""The --check diagnostics of a run.

The per-step growth-bound checker with its two constants, and the
hitting-frequency counts. Each is a step observer (StepBoundCheck,
HittingCount) that reads the steps as simulate_ensemble makes them, since no
ensemble keeps its pre-projection points or increments. Both read their
probe distances from one ProbeDistances, which computes each step's once.
step1_bound_check and hitting_frequency check their inputs, simulate an
ensemble with the observer and return its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    Multifunction,
    SdeModel,
    TimeGrid,
    bodies_at_nodes,
    gaussian_increments,  # unused here; the benchmark's tracer looks it up on this module
    simulate_ensemble,
)
from .geometry import ConvexBody, contains, norm_bound


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


def probe_norms(points: np.ndarray, offsets: np.ndarray, scales: np.ndarray | None = None) -> np.ndarray:
    """The (k, n) norms ||points[i] * scales[p] + offsets[p]|| of n points against k
    per-probe offsets (||points[i] + offsets[p]|| without scales), summing squares
    coordinate by coordinate as geometry.row_norms does, so each norm has row_norms'
    bits. With offsets the negated probes they are the distances ||points[i] - probe p||,
    since a - b and a + (-b) round alike."""
    for c in range(points.shape[1]):
        if scales is None:
            term = points[:, c] + offsets[:, c, None]
        else:
            term = points[:, c] * scales[:, c, None]
            term += offsets[:, c, None]
        term *= term
        if c == 0:
            out = term
        else:
            out += term
    return np.sqrt(out, out=out)


class ProbeDistances:
    """The (k, n) distances ||points[i] - p|| of a step's n points from k probes, shared by
    the checks of one simulation so that each is computed once.

    of(points) computes them with probe_norms and remembers them for the last two arrays
    it computed them for, matched by identity: a step's h is read by both checks, and the
    next step's x is that same array when the projection moved nothing
    (dynamics.StepObserver). It keeps references to those arrays, a step's x and h,
    never to its z. The result is read, never written.
    """

    def __init__(self, probes: np.ndarray):
        self.probes = probes
        self.negated = -np.asarray(probes, dtype=float)
        self.held = []  # (points, distances) of the last two arrays computed, oldest first

    def of(self, points: np.ndarray) -> np.ndarray:
        for array, distances in self.held:
            if array is points:
                return distances
        distances = probe_norms(points, self.negated)
        self.held = [*self.held[-1:], (points, distances)]
        return distances


class StepBoundCheck:
    """The growth-bound check as a step observer (dynamics.StepObserver).

    Each observed step adds, for every copy and every probe x, the margin

        ||h - x|| - c1 ||x_j - x|| - c2 ||sigma(x) z + drift(x) delta||

    to a running maximum and to a count of margins above slack; report() is
    the BoundCheckReport. Both reduce by a max and a count, and each margin
    is computed per copy and probe, so the report does not depend on how the
    copies are split into chunks. The two distances come from distances, the
    ProbeDistances of the (k, m) probes, which the caller has checked
    (step_bound_constants does). The noise term scales z once per coordinate
    when every probe has the same sigma (constant diffusion), once per probe
    otherwise, with the same bits (probe_norms). A step's (k, copies) margins
    are computed in the order of the formula above, the distances read before
    the noise term is made.
    """

    def __init__(self, model: SdeModel, delta: float, distances: ProbeDistances,
                 constants: StepConstants, slack: float = 1e-10):
        self.distances = distances
        self.sigmas = np.array([np.asarray(model.diffusion(x), dtype=float) for x in distances.probes])
        self.one_sigma = bool(np.all(self.sigmas == self.sigmas[0]))
        self.shifts = np.array([np.asarray(model.drift(x), dtype=float) * delta for x in distances.probes])
        self.constants = constants
        self.slack = slack
        self.n_checks = 0
        self.n_violations = 0
        self.worst_margin = -np.inf

    def observe(self, j, rows, x_j, z, h, body):
        # x_j first: when it is the last step's h, its distances are still held
        margins = self.distances.of(x_j) * self.constants.c1
        np.subtract(self.distances.of(h), margins, out=margins)
        # h and the states lie within dynamics.FINITE_LIMIT, so only the noise term can
        # overflow (a huge delta): it is then infinite, and its margin -inf holds the bound
        with np.errstate(over="ignore"):
            if self.one_sigma:
                noise = probe_norms(z * self.sigmas[0], self.shifts)
            else:
                noise = probe_norms(z, self.shifts, self.sigmas)
            noise *= self.constants.c2
        margins -= noise
        worst = float(margins.max())
        self.worst_margin = max(self.worst_margin, worst)
        if worst > self.slack:
            self.n_violations += int(np.count_nonzero(margins > self.slack))
        self.n_checks += margins.size

    def report(self) -> BoundCheckReport:
        return BoundCheckReport(
            n_checks=self.n_checks,
            n_violations=self.n_violations,
            worst_margin=self.worst_margin,
            slack=self.slack,
            c1=self.constants.c1,
            c2=self.constants.c2,
            m_c=self.constants.m_c,
        )


def step1_bound_check(
    model: SdeModel,
    mf: Multifunction,
    grid: TimeGrid,
    n_copies: int,
    seed: int,
    probes,
    slack: float = 1e-10,
    constants: StepConstants | None = None,
) -> BoundCheckReport:
    """Check ||h_{j+1} - x|| <= c1 ||x_j - x|| + c2 ||sigma(x) z + drift(x) delta|| + slack.

    Runs over copies 1..n_copies of the ensemble on streams (seed, i), every
    step, and every probe x; each probe must lie in the body at the end of
    every step. The probes and constants are checked before anything is
    simulated; then StepBoundCheck reads each step as simulate_ensemble makes
    it. Passing constants overrides the ones constants_c1_c2 samples from 4000
    points (used by the mutation test to confirm the check has power).
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    if probes.shape[1] != model.dim:
        raise OracleError(f"probes must have {model.dim} coordinates")

    if constants is None:
        constants = step_bound_constants(model, mf, grid, probes)
    else:
        _check_probes_inside(bodies_at_nodes(mf, grid), probes)
    check = StepBoundCheck(model, grid.delta, ProbeDistances(probes), constants, slack)
    simulate_ensemble(model, mf, grid, n_copies, seed, nodes=[grid.steps], observers=[check])
    return check.report()


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


class HittingCount:
    """The hitting count as a step observer (dynamics.StepObserver).

    Step j adds, per probe, the copies whose pre-projection point lies within
    radius of the probe and strictly inside the body C(t_{j+1}) it is
    projected onto. The distances come from distances, the ProbeDistances of
    the checked (k, m) probes, and the body's interior test runs once, on the
    copies within radius of some probe only (a point's margin does not depend
    on its batch); report() gives one HittingReport per probe, in order.
    radius is positive.
    """

    def __init__(self, distances: ProbeDistances, steps: int, radius: float = 0.1):
        self.distances = distances
        self.probes = distances.probes
        self.radius = radius
        self.hits = np.zeros((len(self.probes), steps), dtype=int)
        self.n_copies = 0

    def observe(self, j, rows, x, z, h, body):
        close = self.distances.of(h) <= self.radius
        near = np.flatnonzero(close.any(axis=0))
        if near.size:
            inside = np.asarray(body.interior_margin(h[near])) > 0
            self.hits[:, j] += np.count_nonzero(close[:, near] & inside, axis=1)
        if j == 0:
            self.n_copies += len(h)

    def report(self) -> list[HittingReport]:
        return [
            HittingReport(probe=probe, radius=self.radius, n_copies=self.n_copies, hits_per_node=row)
            for probe, row in zip(self.probes, self.hits)
        ]


def hitting_frequency(
    model: SdeModel, mf: Multifunction, grid: TimeGrid, n_copies: int, seed: int, probes,
    radius: float = 0.1,
) -> list[HittingReport]:
    """Empirical frequency of pre-projection points near each interior probe.

    Counts over copies 1..n_copies of the ensemble on streams (seed, i).
    probes is a (k, m) array; the result holds one report per probe, in
    order. The inputs are checked before anything is simulated; then
    HittingCount reads each step as simulate_ensemble makes it.
    """
    if not radius > 0:
        raise OracleError("radius must be positive")
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != model.dim:
        raise OracleError(f"probes must be a (k, {model.dim}) array, got shape {probes.shape}")
    count = HittingCount(ProbeDistances(probes), grid.steps, radius)
    simulate_ensemble(model, mf, grid, n_copies, seed, nodes=[grid.steps], observers=[count])
    return count.report()
