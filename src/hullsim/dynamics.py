"""Projected Euler simulation of a diffusion constrained to a moving convex body.

One step reads

    x_next = project(C(t_{j+1}), x + drift(x) * delta + sigma(x) * z)

with z a Brownian increment over the step and sigma(x) the diagonal of the
diffusion matrix, applied elementwise. Copy i draws its increments from the
counter-based stream keyed by (seed, i), built only by gaussian_increments, and
one stepping core runs ensembles and single paths. It steps the copies in
chunks of STEP_CHUNK, each on its own increments array, so the caller never
holds more than one chunk's increments and the next chunk's posted draw,
whatever the number of copies. So copy i is reproducible in isolation, equals
its ensemble slice bit for bit, and results do not depend on how the copies
are scheduled; how the stream is drawn, by this process and its helper
processes, is hullsim.increments. Observers read each step as it is made
(StepObserver), and no ensemble keeps a step's increments or pre-projection
points. A step whose pre-projection point is not finite, or so large that its
squared norm overflows, raises ModelError naming the step and the copy: the
first failing step of the first chunk that fails.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .geometry import Ball, Box, ConvexBody, GeometryError, HPolytope, Interval, contains, project
from .increments import _MASK64, STEP_CHUNK, draw

FINITE_LIMIT = 1e150  # a pre-projection coordinate beyond this overflows a squared norm
_DOT_MAX = 8192  # OpenBLAS threads a dot of over 10 000 values: slower at a step's size


class ModelError(ValueError):
    """Bad model/multifunction input: dimensions, containment, a step that blows up.

    euler_step's finite check sets where, the index of the first point it failed at.
    """


def splitmix64(state: int) -> int:
    """One step of the splitmix64 mixer (used to derive sub-seeds)."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *parts: int) -> int:
    """Deterministically mix a master seed with integer coordinates."""
    state = splitmix64(master & _MASK64)
    for part in parts:
        state = splitmix64(state ^ (part & _MASK64))
    return state


def gaussian_increments(seed: int, copies: range, n: int, m: int, delta: float,
                        then: tuple[int, range] | None = None) -> np.ndarray:
    """A (len(copies), n, m) array of i.i.d. N(0, delta) Brownian increments.

    Row k is copy copies[k]'s stream, Generator(Philox(key=[seed, copies[k]]))
    .standard_normal((n, m)) times sqrt(delta), whatever range and whatever
    process it is drawn in. The memory is coordinate-major: the result is a
    transposed view of an (n, m, len(copies)) array, so one coordinate of one
    step, z[:, j, k], is contiguous and the step's batch z[:, j] is an
    F-ordered (len(copies), m) view. then, the (seed, copies) of the call that
    follows with the same n, m and delta, only lets that call's rows be drawn
    ahead of it; no row depends on it. How the rows are drawn is
    hullsim.increments.draw.
    """
    if len(copies) < 1:
        raise ModelError("need at least one copy")
    if n < 1 or m < 1:
        raise ModelError("need n >= 1 steps and m >= 1 dimensions")
    if not delta > 0:
        raise ModelError("step size delta must be positive")
    return draw(seed, copies, n, m, float(np.sqrt(delta)), then).transpose(2, 0, 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * horizon / steps, j = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ModelError("horizon must be positive")
        if self.steps < 1:
            raise ModelError("need at least one step")

    @property
    def delta(self) -> float:
        return self.horizon / self.steps

    def node(self, j: int) -> float:
        if not 0 <= j <= self.steps:
            raise ModelError(f"node index {j} outside 0..{self.steps}")
        return j * self.horizon / self.steps


@dataclass(frozen=True, eq=False)
class SdeModel:
    """Drift/diffusion pair with declared Lipschitz constants.

    drift maps arrays of shape (..., m) to (..., m); diffusion maps (..., m)
    to (..., m), the diagonal of the diffusion matrix sigma(x). Either may
    return its input, a view of it or a read-only broadcast: euler_step
    never writes into what they return, nor into their input. The step uses
    sigma as given; the oracle's step-growth constants assume it invertible.
    x0 is the deterministic starting point.
    """

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    lip_drift: float
    lip_diffusion: float

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.dim,):
            raise ModelError(f"x0 must have shape ({self.dim},), got {x0.shape}")
        if self.lip_drift < 0 or self.lip_diffusion < 0:
            raise ModelError("Lipschitz constants must be nonnegative")
        object.__setattr__(self, "x0", x0)


def diffusion_at(model: SdeModel, x: np.ndarray) -> np.ndarray:
    """The diagonal of sigma(x), shape np.shape(x)."""
    sig = np.asarray(model.diffusion(x), dtype=float)
    if sig.shape != np.shape(x):
        raise ModelError(f"diffusion returned shape {sig.shape}, expected {np.shape(x)}")
    return sig


def euler_step(
    model: SdeModel,
    body_next: ConvexBody,
    x: np.ndarray,
    z: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One projected Euler step; returns (pre-projection point, next state).

    Batched over leading axes of x and z. h = x + drift(x) delta + sigma(x) z
    is built in one fresh array in x's memory order, drift(x) delta first and
    then x and sigma(x) z added in place: addition commutes, so these are the
    sum's bits. The step writes into h only, never into x, z or the model's
    outputs, which may be views of x. A pre-projection point with a
    coordinate that is not finite or beyond FINITE_LIMIT raises ModelError,
    with where the index of the first such point, before it is projected.
    A sum of squares of h at most FINITE_LIMIT^2 / 4 rules that out in one
    pass; only a larger, infinite or NaN sum reads h's min and max.
    When no point is outside the body the projection returns h itself, so
    the two results may be one array: no caller writes into either.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape[-1] != model.dim or z.shape != x.shape:
        raise ModelError("state and increment must both have last axis of the model dimension")
    sig = diffusion_at(model, x)
    h = np.multiply(model.drift(x), delta, out=np.empty_like(x))
    h += x
    h += sig * z
    flat = h.ravel(order="K")  # a view: h is fresh, so contiguous
    with np.errstate(over="ignore"):  # an overflow, like a NaN, fails the screen
        if flat.size <= _DOT_MAX:
            squares = np.dot(flat, flat)
        else:
            cut = flat.size // 2
            squares = np.dot(flat[:cut], flat[:cut]) + np.dot(flat[cut:], flat[cut:])
    if not (squares <= FINITE_LIMIT**2 / 4 or h.min() >= -FINITE_LIMIT and h.max() <= FINITE_LIMIT):
        where = tuple(int(k) for k in np.argwhere(~(np.abs(h) <= FINITE_LIMIT))[0][:-1])
        exc = ModelError(f"pre-projection point is not finite or beyond {FINITE_LIMIT:g} in a coordinate")
        exc.where = where
        raise exc
    return h, project(body_next, h)


Multifunction = Callable[[float], ConvexBody]  # a time-indexed family of convex bodies t -> C(t)


def constant_body(body: ConvexBody) -> Multifunction:
    return lambda t: body


def shrinking_ball(center, r0: float, rate: float) -> Multifunction:
    """Ball whose radius decays linearly: radius(t) = r0 - rate * t."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not r0 > 0 or rate < 0:
        raise ModelError("need r0 > 0 and rate >= 0")

    def evaluator(t: float) -> ConvexBody:
        return Ball(center=center, radius=r0 - rate * t)

    return evaluator


def shrinking_box(lo, hi, rate: float) -> Multifunction:
    """Box whose faces move inward at the given speed."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if rate < 0:
        raise ModelError("rate must be nonnegative")

    def evaluator(t: float) -> ConvexBody:
        return Box(lo=lo + rate * t, hi=hi - rate * t)

    return evaluator


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One simulated trajectory on the grid."""

    grid: TimeGrid
    copy_index: int
    states: np.ndarray  # (steps + 1, m)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """n_copies independent trajectories plus the seed that generated them.

    nodes are the grid nodes whose states the ensemble kept, ascending: the
    nodes simulate_ensemble was given, every node 0..steps for None.
    states[i, k] is copy i+1 at node nodes[k] (copies use streams (seed,
    1..N)); at(j) is node j's (n_copies, m) slice. states is coordinate-major in memory (a
    transposed view of a (node, coordinate, copy) array), so one coordinate
    at one node, states[:, k, c], is contiguous and one node's slice
    states[:, k] is an F-ordered (n_copies, m) view. An ensemble keeps no
    pre-projection points or increments: a step is read as it is made, by an
    observer (StepObserver). pre_projection is always None; it stays only
    because the benchmark's tracer (hullbench) reads it.
    """

    grid: TimeGrid
    n_copies: int
    seed: int
    states: np.ndarray  # (n_copies, len(nodes), m)
    nodes: tuple[int, ...]  # the nodes states holds
    pre_projection: None = None  # always None (see above)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def at(self, j: int) -> np.ndarray:
        """The (n_copies, m) states at grid node j; a node that was not kept raises ModelError."""
        k = bisect.bisect_left(self.nodes, j)
        if k == len(self.nodes) or self.nodes[k] != j:
            raise ModelError(f"node {j} was not kept; the ensemble keeps nodes {list(self.nodes)}")
        return self.states[:, k]


def bodies_at_nodes(mf: Multifunction, grid: TimeGrid) -> list[ConvexBody]:
    return [mf(grid.node(j)) for j in range(grid.steps + 1)]


def _check_start(model: SdeModel, mf: Multifunction) -> None:
    if not contains(mf(0.0), model.x0):
        raise ModelError("x0 must lie in the body at time zero")


def _kept_nodes(grid: TimeGrid, nodes: Sequence[int] | None) -> tuple[int, ...]:
    """The nodes an ensemble keeps: every node for None, else nodes checked to be
    one or more ascending grid nodes without repeats."""
    if nodes is None:
        return tuple(range(grid.steps + 1))
    nodes = tuple(int(j) for j in nodes)
    if not nodes or nodes[0] < 0 or nodes[-1] > grid.steps or any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ModelError(f"nodes must be one or more ascending grid nodes in 0..{grid.steps} "
                         f"without repeats, got {list(nodes)}")
    return nodes


class StepObserver(Protocol):
    """Reads each step of a simulation as it is made (simulate_ensemble's observers).

    This is the only way to read a step: an ensemble keeps its states at the
    requested nodes and nothing else of its steps.
    observe(j, rows, x, z, h, body) gets step j of the copies at positions rows
    of the ensemble: their (len(rows), m) states x at node j, increments z,
    pre-projection points h and the body C(t_{j+1}) h was projected onto. It
    writes into none of them. It may keep a reference to x or h past the
    call, since neither is written afterwards, but never to z: z lies on a
    shared draw buffer, and a view of it kept past the call stops that
    buffer's reuse. The next step's state x is h itself exactly when nothing
    was projected: a Ball or HPolytope with no point of h outside returns h,
    and any other projection (a Box's always) is a new array.
    """

    def observe(self, j: int, rows: slice, x: np.ndarray, z: np.ndarray, h: np.ndarray,
                body: ConvexBody) -> None: ...


def ensemble_bytes(steps: int, m: int, n_copies: int, n_nodes: int) -> int:
    """The most bytes of arrays one ensemble holds while it is simulated: its states at
    n_nodes nodes and two chunks of increments, the chunk it steps and the next one,
    posted (STEP_CHUNK copies at most each)."""
    return 8 * m * (n_nodes * n_copies + 2 * steps * min(n_copies, STEP_CHUNK))


def _simulate(model: SdeModel, mf: Multifunction, grid: TimeGrid, seed: int, copies: range,
              observers: Sequence[StepObserver] = (), then: tuple[int, range] | None = None,
              nodes: tuple[int, ...] | None = None) -> np.ndarray:
    """Step copies i in copies on streams (seed, i), in chunks of STEP_CHUNK
    copies; nodes, checked by _kept_nodes, are the nodes whose states are kept.

    Each chunk is one batch stepped on its own increments array. Its draw
    names the next chunk as gaussian_increments' then, and the last chunk's
    names then: a shared draw queues it behind itself, so the helpers go on
    to the next chunk as soon as their part of this one is done, and draw it
    while this one is stepped. The chunk's array is dropped before the next
    draw, so the draw queued behind that one can take its buffer. The bodies
    at nodes 1..steps are built once, before the first step
    (bodies_at_nodes), so an mf that fails at any node raises before any
    observer sees a step. A
    failing copy is named by the first failing step of the first chunk that
    fails. After each step every observer reads it (StepObserver), in order.

    Returns the states at nodes (len(copies), len(nodes), m), every node
    0..steps when nodes is None: a transposed view of a coordinate-major
    (node, coordinate, copy) array, written one chunk's columns at a time.
    Each step's operands are F-ordered (len(chunk), m) views, so every
    elementwise operation of the step runs along the copies. A chunk starts
    from one (m, len(chunk)) buffer holding x0, copied into node 0's slot of
    the states when node 0 is kept, and each step's result is copied into
    the states only at a kept node.
    """
    _check_start(model, mf)
    n, m = grid.steps, model.dim
    nodes = range(n + 1) if nodes is None else nodes
    states = np.empty((len(nodes), m, len(copies)))
    slots = dict(zip(nodes, states))
    bodies = bodies_at_nodes(mf, grid)[1:]  # bodies[j] is C(t_{j+1})
    for first in range(0, max(len(copies), 1), STEP_CHUNK):  # no copies: the empty chunk's draw raises
        chunk = copies[first:first + STEP_CHUNK]
        following = copies[first + STEP_CHUNK:first + 2 * STEP_CHUNK]
        z = gaussian_increments(seed, chunk, n, m, grid.delta, (seed, following) if following else then)
        cols = slice(first, first + len(chunk))
        start = np.empty((m, len(chunk)))
        start[:] = model.x0[:, None]
        if 0 in slots:
            slots[0][:, cols] = start
        x = start.T
        for j in range(n):
            try:
                h, x_next = euler_step(model, bodies[j], x, z[:, j], grid.delta)
            except (ModelError, GeometryError) as exc:
                # a per-copy failure names its batch row; any other fails every copy
                row = getattr(exc, "where", (0,))[0]
                raise ModelError(f"step {j} of copy {chunk[row]} failed: {exc}") from exc
            for observer in observers:
                observer.observe(j, cols, x, z[:, j], h, bodies[j])
            x = x_next
            if j + 1 in slots:
                slots[j + 1][:, cols] = x.T
        del z  # so the next chunk's draw may reuse its shared buffer
    return states.transpose(2, 0, 1)


def simulate_path(
    model: SdeModel,
    mf: Multifunction,
    grid: TimeGrid,
    seed: int,
    copy_index: int,
) -> SamplePath:
    """Simulate a single copy on the stream (seed, copy_index)."""
    states = _simulate(model, mf, grid, seed, range(copy_index, copy_index + 1))
    return SamplePath(grid, copy_index, states[0])


def simulate_ensemble(
    model: SdeModel,
    mf: Multifunction,
    grid: TimeGrid,
    n_copies: int,
    seed: int,
    next_ensemble: tuple[int, int] | None = None,
    nodes: Sequence[int] | None = None,
    observers: Sequence[StepObserver] = (),
) -> PathEnsemble:
    """Simulate copies 1..n_copies on streams (seed, i), stepping them as a batch.

    Copy i equals simulate_path with the same seed and copy index bit for bit:
    both run the same stepping core. nodes, ascending grid nodes without
    repeats, are the nodes whose states the caller will read: the ensemble
    keeps only those (PathEnsemble.at), every node 0..steps when nodes is
    None, and the states it keeps do not depend on the others. A node outside
    0..steps, an unsorted or repeated one and an empty list raise ModelError.
    observers read every step as it is made (StepObserver): they are the only
    way to read a step's increments and pre-projection points. next_ensemble,
    the (n_copies, seed) of the ensemble the caller simulates next on the same
    model and grid, names that ensemble's first chunk as the last chunk's
    then: it only lets those increments be drawn while this ensemble's last
    chunk is stepped, and the result does not depend on it.
    """
    then = None
    if next_ensemble is not None:  # the next ensemble's first chunk
        then = (next_ensemble[1], range(1, min(next_ensemble[0], STEP_CHUNK) + 1))
    nodes = _kept_nodes(grid, nodes)
    states = _simulate(model, mf, grid, seed, range(1, n_copies + 1), observers, then, nodes)
    return PathEnsemble(grid=grid, n_copies=n_copies, seed=seed, states=states, nodes=nodes)


# ---------------------------------------------------------------------------
# model and body registries: kind -> (parameter defaults, builder)


class PerAxis(float):
    """Default of a parameter that takes one number per dimension."""


def resolve_params(what: str, registry: dict, kind: str, dim: int, given: dict) -> tuple:
    """The builder of a registered kind and its keyword arguments.

    Absent parameters take their defaults. A scalar parameter takes one
    number and a PerAxis parameter one number per dimension; an unknown kind,
    an unknown parameter or a value of another shape raises ModelError.
    """
    if kind not in registry:
        raise ModelError(f"unknown {what} kind {kind!r} (known: {', '.join(registry)})")
    defaults, builder = registry[kind]
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ModelError(f"unexpected parameters for {what} {kind!r}: {unknown}")
    args = {}
    for name, default in defaults.items():
        per_axis = isinstance(default, PerAxis)
        value = given.get(name, np.full(dim, default) if per_axis else default)
        value = np.atleast_1d(np.asarray(value, dtype=float))
        if value.shape != ((dim,) if per_axis else (1,)):
            expected = f"{dim} numbers, one per dimension" if per_axis else "one number"
            raise ModelError(f"{what} {kind!r} parameter {name!r} takes {expected}, got {value.size}")
        args[name] = value if per_axis else float(value[0])
    return builder, args


def _constant_diffusion(sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """sigma as a read-only broadcast of x's shape; the last one is reused while the shape holds."""
    held = np.broadcast_to(sigma, ())

    def diffusion(x):
        nonlocal held
        if held.shape != np.shape(x):
            held = np.broadcast_to(sigma, np.shape(x))
        return held

    return diffusion


def _ou(theta, sigma):
    if theta < 0 or not sigma > 0:
        raise ModelError("ou model needs theta >= 0 and sigma > 0")
    return (lambda x: -theta * x), _constant_diffusion(sigma), theta, 0.0


def _zero_drift(sigma):
    if not sigma > 0:
        raise ModelError("zero_drift model needs sigma > 0")
    drift = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return drift, _constant_diffusion(sigma), 0.0, 0.0


def _tanh_drift(scale, sigma):
    if scale < 0 or not sigma > 0:
        raise ModelError("tanh_drift model needs scale >= 0 and sigma > 0")
    def drift(x):
        pull = np.tanh(x)
        pull *= -scale  # in place on tanh's own result: -scale * t rounds as t * -scale
        return pull

    return drift, _constant_diffusion(sigma), scale, 0.0


def _tanh_sigma(theta, sigma0, sigma1):
    if theta < 0:
        raise ModelError("tanh_sigma model needs theta >= 0")
    if not sigma0 - abs(sigma1) > 0:
        raise ModelError("tanh_sigma needs sigma0 - |sigma1| > 0 to stay invertible")
    def diffusion(x):
        sig = np.tanh(np.asarray(x, dtype=float))
        sig *= sigma1  # in place on tanh's own result, with the bits of sigma0 + sigma1 * t
        sig += sigma0
        return sig

    return (lambda x: -theta * x), diffusion, theta, abs(sigma1)


# builder(**params) -> (drift, diffusion, lip_drift, lip_diffusion)
MODELS = {
    "ou": ({"theta": 1.0, "sigma": 1.0}, _ou),  # linear mean reversion, constant diffusion
    "zero_drift": ({"sigma": 1.0}, _zero_drift),  # constant diffusion only
    "tanh_drift": ({"scale": 1.0, "sigma": 1.0}, _tanh_drift),  # bounded nonlinear pull
    # linear mean reversion, diagonal diffusion sigma0 + sigma1 * tanh(x)
    "tanh_sigma": ({"theta": 0.0, "sigma0": 0.3, "sigma1": 0.1}, _tanh_sigma),
}


def make_model(kind: str, dim: int, x0, **params) -> SdeModel:
    """Build a registered drift/diffusion model (see MODELS)."""
    builder, args = resolve_params("model", MODELS, kind, dim, params)
    drift, diffusion, lip_drift, lip_diffusion = builder(**args)
    return SdeModel(dim, drift, diffusion, x0, lip_drift, lip_diffusion)


def _constant(body_type: type) -> Callable[..., Multifunction]:
    return lambda **params: constant_body(body_type(**params))


def _square_hpoly(half_width):
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return constant_body(HPolytope(normals, np.full(4, half_width)))


BODIES = {
    "constant_interval": ({"lo": -1.0, "hi": 1.0}, _constant(Interval)),
    "constant_box": ({"lo": PerAxis(-1.0), "hi": PerAxis(1.0)}, _constant(Box)),
    "constant_ball": ({"center": PerAxis(0.0), "radius": 1.0}, _constant(Ball)),
    # the square [-half_width, half_width]^2 as four half-spaces (face-set projector)
    "constant_square_hpoly": ({"half_width": 1.0}, _square_hpoly),
    "shrinking_ball": ({"center": PerAxis(0.0), "r0": 1.0, "rate": 0.0}, shrinking_ball),
    "shrinking_box": ({"lo": PerAxis(-1.0), "hi": PerAxis(1.0), "rate": 0.0}, shrinking_box),
}
