import copy
from dataclasses import asdict

import numpy as np
import pytest

from hullsim import dynamics
from hullsim.dynamics import (
    STEP_CHUNK,
    TimeGrid,
    constant_body,
    gaussian_increments,
    make_model,
    shrinking_ball,
    simulate_ensemble,
)
from hullsim.geometry import Ball, HPolytope, Interval, row_norms
from hullsim.oracle import (
    HittingCount,
    OracleError,
    ProbeDistances,
    StepBoundCheck,
    StepConstants,
    constants_c1_c2,
    hitting_frequency,
    probe_norms,
    step1_bound_check,
    step_bound_constants,
)
from reference import FreshChecks, StepRecord


def linear_drift_model(dim=1, theta=1.0, sigma=0.5):
    return make_model("ou", dim, np.zeros(dim), theta=theta, sigma=sigma)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_probe_norms_have_the_bits_of_row_norms_per_probe(m, order):
    # magnitudes over six decades, so that another order of the sums rounds differently
    rng = np.random.default_rng(m)
    points = np.asarray(rng.standard_normal((517, m)) * 10.0 ** rng.uniform(-3, 3, (517, m)), order=order)
    offsets, scales = rng.standard_normal((7, m)), rng.uniform(0.1, 3.0, (7, m))
    unscaled = [row_norms(points + offset) for offset in offsets]
    scaled = [row_norms(points * scale + offset) for scale, offset in zip(scales, offsets)]
    assert probe_norms(points, offsets).tobytes() == np.array(unscaled).tobytes()
    assert probe_norms(points, offsets, scales).tobytes() == np.array(scaled).tobytes()
    # one sigma for every probe: scaling the points once gives the per-probe scaling's bits
    same = np.broadcast_to(scales[0], scales.shape)
    assert probe_norms(points, offsets, same).tobytes() == probe_norms(points * scales[0], offsets).tobytes()


class TestConstants:
    def test_constant_sigma_linear_drift(self):
        # lip_diffusion = 0 removes both suprema; c1 = 1 + lip_drift * delta
        c = constants_c1_c2(linear_drift_model(), m_c=1.0, delta=0.01)
        assert c.c1 == pytest.approx(1.01)
        assert c.c2 == pytest.approx(1.0)

    def test_zero_drift_gives_unit_constants(self):
        model = make_model("zero_drift", 1, [0.0], sigma=0.7)
        c = constants_c1_c2(model, m_c=1.0, delta=0.05)
        assert c.c1 == 1.0
        assert c.c2 == 1.0

    def test_c1_grows_with_delta(self):
        model = make_model("tanh_sigma", 1, [0.0], theta=1.0, sigma0=0.3, sigma1=0.1)
        c_small = constants_c1_c2(model, m_c=1.0, delta=0.01)
        c_large = constants_c1_c2(model, m_c=1.0, delta=0.1)
        assert c_large.c1 > c_small.c1
        assert c_large.c2 == pytest.approx(c_small.c2)  # delta-free

    def test_spatial_suprema_match_singular_values(self):
        # the same samples as constants_c1_c2, with the smallest singular value
        # of each diagonal matrix from an SVD
        model = make_model("tanh_sigma", 3, np.zeros(3), theta=1.0, sigma0=0.3, sigma1=0.2)
        c = constants_c1_c2(model, m_c=2.0, delta=0.05, probe_count=1000, seed=4)
        rng = np.random.default_rng(4)
        dirs = rng.standard_normal((1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * (2.0 * rng.random(1000) ** (1.0 / 3))[:, None]
        smallest = np.array([np.linalg.svd(np.diag(s), compute_uv=False)[-1]
                             for s in model.diffusion(pts)])
        inv_norms = 1.0 / smallest
        assert c.sup_inv_op_norm == np.max(inv_norms)
        assert c.sup_inv_drift == np.max(inv_norms * np.linalg.norm(model.drift(pts), axis=1))

    def test_sampled_suprema_stabilize(self):
        model = make_model("tanh_sigma", 1, [0.0], theta=1.0, sigma0=0.3, sigma1=0.1)
        c1k = constants_c1_c2(model, m_c=1.0, delta=0.05, probe_count=1000, seed=1)
        c2k = constants_c1_c2(model, m_c=1.0, delta=0.05, probe_count=2000, seed=1)
        assert abs(c2k.c1 - c1k.c1) / c1k.c1 < 0.01
        assert abs(c2k.c2 - c1k.c2) / c1k.c2 < 0.01

    def test_probe_count_floor(self):
        with pytest.raises(OracleError):
            constants_c1_c2(linear_drift_model(), 1.0, 0.01, probe_count=10)

    @pytest.mark.parametrize("m_c", [0.0, -1.0])
    def test_m_c_must_be_positive(self, m_c):
        with pytest.raises(OracleError, match="^m_c must be positive$"):
            constants_c1_c2(linear_drift_model(), m_c, 0.01)

    def test_invariants_enforced(self):
        with pytest.raises(OracleError):
            StepConstants(c1=0.5, c2=1.0, m_c=1.0, sup_inv_op_norm=1.0, sup_inv_drift=0.0)
        with pytest.raises(OracleError):
            StepConstants(c1=np.inf, c2=1.0, m_c=1.0, sup_inv_op_norm=1.0, sup_inv_drift=0.0)


GRID = TimeGrid(1.0, 20)


def recorded(model, mf, grid, n_copies, seed):
    """The ensemble with every node kept, and the StepRecord of its steps."""
    record = StepRecord(grid.steps, model.dim, n_copies)
    return simulate_ensemble(model, mf, grid, n_copies, seed, observers=[record]), record


def whole_array_margins(model, ens, record, probes, constants):
    """Reference: the per-probe whole-array formula, margins of shape (k, N, steps)."""
    z = gaussian_increments(ens.seed, range(1, ens.n_copies + 1), ens.grid.steps, ens.dim, ens.grid.delta)
    margins = []
    for x in probes:
        sig_x = np.asarray(model.diffusion(x), dtype=float)
        drift_x = np.asarray(model.drift(x), dtype=float)
        resid = row_norms(sig_x * z + drift_x * ens.grid.delta)
        lhs = row_norms(record.h - x)
        rhs = constants.c1 * row_norms(ens.states[:, :-1] - x)
        margins.append(lhs - rhs - constants.c2 * resid)
    return np.array(margins)


class TestStepBound:
    probes_1d = np.array([[-0.9], [-0.4], [0.0], [0.4], [0.9]])

    @pytest.mark.parametrize("dim,mutated", [(1, False), (2, False), (3, False), (2, True)],
                             ids=["1d", "2d", "3d", "2d-c2-below-one"])
    def test_node_major_pass_equals_whole_array_formula(self, dim, mutated):
        model = make_model("tanh_sigma", dim, np.zeros(dim), theta=1.0, sigma0=0.4, sigma1=0.15)
        mf = shrinking_ball(np.zeros(dim), 1.0, 0.3)
        grid = TimeGrid(1.0, 12)
        ens, record = recorded(model, mf, grid, 300, 29)
        # the start x0 = 0 is a probe: at node 0 its margin is (1 - c2) * resid
        probes = np.vstack([np.zeros(dim), np.random.default_rng(dim).uniform(-0.4, 0.4, (3, dim))])
        constants = constants_c1_c2(model, m_c=1.0, delta=grid.delta)
        if mutated:
            constants = copy.copy(constants)  # bypasses the >= 1 construction invariant
            object.__setattr__(constants, "c2", 0.5)
        margins = whole_array_margins(model, ens, record, probes, constants)
        rep = step1_bound_check(model, mf, grid, 300, 29, probes, constants=constants)
        assert rep.worst_margin == float(margins.max())
        assert rep.n_violations == int(np.count_nonzero(margins > rep.slack))
        assert (rep.n_violations > 0) == mutated
        assert rep.n_checks == margins.size
        # with the slack at a reference margin, that margin one ulp higher would be counted
        for slack in np.sort(margins, axis=None)[::margins.size // 40]:
            rep = step1_bound_check(model, mf, grid, 300, 29, probes, slack=slack, constants=constants)
            assert rep.n_violations == int(np.count_nonzero(margins > slack))

    def test_zero_drift_is_triangle_inequality(self):
        model = make_model("zero_drift", 1, [0.0], sigma=0.5)
        rep = step1_bound_check(model, constant_body(Interval(-1, 1)), GRID, 200, 3, self.probes_1d)
        assert rep.n_violations == 0
        assert rep.n_checks == 200 * 20 * 5

    def test_linear_drift_no_violations(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        rep = step1_bound_check(model, mf, GRID, 1000, 3, self.probes_1d)
        assert rep.n_violations == 0
        assert rep.worst_margin <= 1e-10

    def test_state_dependent_sigma_no_violations(self):
        model = make_model("tanh_sigma", 1, [0.0], theta=0.5, sigma0=0.3, sigma1=0.1)
        mf = constant_body(Interval(-1, 1))
        rep = step1_bound_check(model, mf, GRID, 500, 3, self.probes_1d)
        assert rep.n_violations == 0

    def test_halved_c2_makes_check_fire(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        base = constants_c1_c2(model, m_c=1.0, delta=GRID.delta)
        mutated = copy.copy(base)  # bypasses the >= 1 construction invariant
        object.__setattr__(mutated, "c2", base.c2 / 2)
        rep = step1_bound_check(model, mf, GRID, 1000, 3, self.probes_1d, constants=mutated)
        assert rep.n_violations >= 1
        assert rep.worst_margin > 1e-10

    def test_probes_of_the_wrong_width_rejected(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        with pytest.raises(OracleError, match="^probes must have 1 coordinates$"):
            step1_bound_check(model, mf, GRID, 10, 3, np.array([[0.0, 0.0]]))

    def test_exterior_probe_rejected(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        with pytest.raises(OracleError):
            step1_bound_check(model, mf, GRID, 200, 3, np.array([[1.5]]))

    def test_shrinking_body_probe_checked_at_every_node(self):
        model = linear_drift_model(dim=2, theta=2.0, sigma=0.3)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        # inside at time zero but outside the final ball
        with pytest.raises(OracleError):
            step1_bound_check(model, mf, GRID, 100, 3, np.array([[0.9, 0.0]]))
        rep = step1_bound_check(model, mf, GRID, 100, 3, np.array([[0.3, 0.0]]))
        assert rep.n_violations == 0


class TestHitting:
    def test_easy_target_is_hit(self):
        model = make_model("zero_drift", 1, [0.0], sigma=0.5)
        mf = constant_body(Interval(-1, 1))
        [rep] = hitting_frequency(model, mf, GRID, 500, 12, np.array([[0.0]]), radius=0.1)
        assert rep.total_hits > 0
        assert rep.frequency > 0
        assert rep.hits_per_node.shape == (20,)

    def test_unreachable_target_is_missed(self):
        model = make_model("zero_drift", 1, [0.0], sigma=1e-4)
        mf = constant_body(Interval(-1, 1))
        [rep] = hitting_frequency(model, mf, GRID, 100, 12, np.array([[0.9]]), radius=0.05)
        assert rep.total_hits == 0

    def test_interior_requirement_excludes_boundary_mass(self):
        # all pre-projection points beyond the wall are clamped; those count
        # only if they were strictly inside before clamping
        model = make_model("zero_drift", 1, [0.9], sigma=2.0)
        mf = constant_body(Interval(-1, 1))
        grid = TimeGrid(1.0, 5)
        [rep] = hitting_frequency(model, mf, grid, 200, 5, np.array([[0.95]]), radius=0.04)
        h = recorded(model, mf, grid, 200, 5)[1].h[:, :, 0]
        manual = int(np.sum((np.abs(h - 0.95) <= 0.04) & (np.abs(h) < 1)))
        assert rep.total_hits == manual

    @pytest.mark.parametrize("radius", [0.0, -0.1])
    def test_radius_must_be_positive(self, radius):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        with pytest.raises(OracleError, match="^radius must be positive$"):
            hitting_frequency(model, mf, TimeGrid(1.0, 5), 10, 3, np.array([[0.0]]), radius=radius)

    def test_probes_must_be_k_by_m(self):
        model = linear_drift_model(dim=2, theta=2.0, sigma=0.3)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        for bad in ([0.1], [[0.1]], [0.1, 0.1], [[0.1, 0.1, 0.1]], [[[0.1, 0.1]]]):
            with pytest.raises(OracleError, match="probes must be a"):
                hitting_frequency(model, mf, GRID, 50, 3, np.array(bad))

    @pytest.mark.parametrize(
        "mf,edge",
        [(constant_body(HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                                  np.ones(4))), 1.0),
         (shrinking_ball([0.0, 0.0], 1.0, 0.3), 0.7)],
        ids=["square_hpoly", "shrinking_ball"],
    )
    def test_batched_equals_per_probe_count(self, mf, edge):
        # all but the centre probe lie within the radius of the final boundary,
        # so the interior test decides some of their counts
        model = linear_drift_model(dim=2, theta=0.5, sigma=1.0)
        probes = np.array([[0.0, 0.0], [0.95, 0.0], [0.0, -0.97], [0.66, 0.66], [-0.99, 0.05]])
        probes[1:] *= edge
        radius = 0.1
        reports = hitting_frequency(model, mf, GRID, 400, 21, probes, radius)
        assert len(reports) == len(probes)
        record = recorded(model, mf, GRID, 400, 21)[1]
        excluded = 0
        for probe, rep in zip(probes, reports):
            manual = np.zeros(GRID.steps, dtype=int)
            for j in range(1, GRID.steps + 1):
                body = mf(GRID.node(j))
                h = record.h[:, j - 1]
                if isinstance(body, Ball):
                    inside = np.linalg.norm(h - body.center, axis=1) < body.radius
                else:
                    inside = np.all(h @ body.normals.T < body.offsets, axis=1)
                close = np.linalg.norm(h - probe, axis=1) <= radius
                manual[j - 1] = np.count_nonzero(close & inside)
                excluded += np.count_nonzero(close & ~inside)
            np.testing.assert_array_equal(rep.probe, probe)
            np.testing.assert_array_equal(rep.hits_per_node, manual)
        assert excluded > 0
        assert all(rep.total_hits > 0 for rep in reports)


class ChunkRows:
    """A step observer that keeps the rows of every chunk step 0 observes."""

    def __init__(self):
        self.rows = []

    def observe(self, j, rows, x, z, h, body):
        if j == 0:
            self.rows.append((rows.start, rows.stop))


class TestStreamed:
    """The observers' reports over three chunks of copies equal those of the same
    ensemble stepped as one chunk, bit for bit."""

    N = 2 * STEP_CHUNK + 17
    grid = TimeGrid(1.0, 10)

    def chunked_then_whole(self, monkeypatch, model, mf, seed, make_observers):
        """The observers make_observers() gives, run on the ensemble stepped in chunks of
        STEP_CHUNK copies, then a second set run on it stepped as one chunk."""
        runs = []
        for chunk in (STEP_CHUNK, self.N):
            monkeypatch.setattr(dynamics, "STEP_CHUNK", chunk)
            observers, rows = make_observers(), ChunkRows()
            simulate_ensemble(model, mf, self.grid, self.N, seed, nodes=[10], observers=[*observers, rows])
            runs.append(observers)
            bounds = list(range(0, self.N, chunk)) + [self.N]
            assert rows.rows == list(zip(bounds, bounds[1:]))
        return runs

    def constants(self, model, mf, probes, halved):
        """The sampled constants, or those with c2 halved to below one: then the probe
        at x0 = 0 has the margin (1 - c2) ||sigma(0) z|| > 0 at step 0."""
        constants = step_bound_constants(model, mf, self.grid, probes)
        if halved:
            constants = copy.copy(constants)  # bypasses the >= 1 construction invariant
            object.__setattr__(constants, "c2", constants.c2 / 2)
        return constants

    @pytest.mark.parametrize("halved", [False, True], ids=["sampled", "c2-halved"])
    def test_step_bound_on_an_interval(self, monkeypatch, halved):
        model, mf = linear_drift_model(), constant_body(Interval(-1, 1))
        probes = TestStepBound.probes_1d
        constants = self.constants(model, mf, probes, halved)
        [chunked], [whole] = self.chunked_then_whole(
            monkeypatch, model, mf, 8,
            lambda: [StepBoundCheck(model, self.grid.delta, ProbeDistances(probes), constants)])
        streamed = chunked.report()
        assert asdict(streamed) == asdict(whole.report())
        assert (streamed.n_violations > 0) == halved
        assert streamed.n_checks == self.N * 10 * len(probes)

    @pytest.mark.parametrize("halved", [False, True], ids=["sampled", "c2-halved"])
    def test_step_bound_and_hitting_on_a_square_hpolytope(self, monkeypatch, halved):
        model = make_model("tanh_sigma", 2, [0.0, 0.0], theta=0.5, sigma0=0.6, sigma1=0.05)
        square = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(4))
        mf = constant_body(square)
        # all but the centre probe lie within the radius of a face, so the interior test
        # decides some of their counts
        probes = np.array([[0.0, 0.0], [0.95, 0.0], [0.0, -0.97], [0.93, 0.93]])
        constants = self.constants(model, mf, probes, halved)
        (check, count), (whole_check, whole_count) = self.chunked_then_whole(
            monkeypatch, model, mf, 9,
            lambda: [StepBoundCheck(model, self.grid.delta, ProbeDistances(probes), constants),
                     HittingCount(ProbeDistances(probes), 10)])
        streamed = check.report()
        assert asdict(streamed) == asdict(whole_check.report())
        assert (streamed.n_violations > 0) == halved
        whole = whole_count.report()
        for a, b in zip(count.report(), whole, strict=True):
            np.testing.assert_array_equal(a.probe, b.probe)
            np.testing.assert_array_equal(a.hits_per_node, b.hits_per_node)
            assert (a.radius, a.n_copies, a.total_hits, a.frequency) == (b.radius, b.n_copies, b.total_hits,
                                                                         b.frequency)
        assert count.n_copies == self.N and all(rep.total_hits > 0 for rep in whole)


class XIsLastH:
    """A step observer that records, for every step after the first, whether its x is
    the last step's h: the same array, as when the projection moved nothing."""

    def __init__(self):
        self.last, self.same = None, []

    def observe(self, j, rows, x, z, h, body):
        if j > 0:
            self.same.append(x is self.last)
        self.last = h


def plain(report):
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in asdict(report).items()}


class TestSharedDistances:
    """The two checks sharing one ProbeDistances report what each reports alone, and what
    FreshChecks makes from distances computed afresh, bit for bit, on bodies where the
    next state is never the last h: a square small enough that every step moves a copy,
    and an interval, which Box.project always returns as a new array."""

    grid = TimeGrid(1.0, 10)
    square = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.full(4, 0.4))
    shapes = {
        # body, probes (some within the radius of the boundary), model's x0
        "square": (square, np.array([[0.0, 0.0], [0.35, 0.0], [0.0, -0.37], [0.33, 0.33]]), np.zeros(2)),
        "interval": (Interval(-1, 1), np.array([[-0.95], [-0.4], [0.0], [0.4], [0.93]]), np.zeros(1)),
    }
    models = {  # the noise term's two paths: one sigma for every probe, one per probe
        "constant-sigma": lambda x0: make_model("ou", len(x0), x0, theta=1.0, sigma=0.8),
        "state-sigma": lambda x0: make_model("tanh_sigma", len(x0), x0, theta=0.5, sigma0=0.6, sigma1=0.05),
    }

    @pytest.mark.parametrize("halved", [False, True], ids=["sampled", "c2-halved"])
    @pytest.mark.parametrize("model_name", sorted(models))
    @pytest.mark.parametrize("shape", sorted(shapes))
    def test_shared_equals_alone_and_afresh(self, shape, model_name, halved):
        body, probes, x0 = self.shapes[shape]
        model, mf, delta = self.models[model_name](x0), constant_body(body), self.grid.delta
        constants = step_bound_constants(model, mf, self.grid, probes)
        if halved:
            constants = copy.copy(constants)  # bypasses the >= 1 construction invariant
            object.__setattr__(constants, "c2", constants.c2 / 2)

        def run(*observers):
            simulate_ensemble(model, mf, self.grid, 300, 41, nodes=[10], observers=observers)

        shared = ProbeDistances(probes)
        check, count, moves = StepBoundCheck(model, delta, shared, constants), HittingCount(shared, 10), XIsLastH()
        run(check, count, moves)
        alone_check = StepBoundCheck(model, delta, ProbeDistances(probes), constants)
        run(alone_check)
        alone_count = HittingCount(ProbeDistances(probes), 10)
        run(alone_count)
        fresh = FreshChecks(model, delta, probes, constants, 10)
        run(fresh)

        assert plain(check.report()) == plain(alone_check.report()) == plain(fresh.bound_report())
        assert (check.report().n_violations > 0) == halved
        for reports in zip(count.report(), alone_count.report(), fresh.hitting_reports(), strict=True):
            assert plain(reports[0]) == plain(reports[1]) == plain(reports[2])
        assert sum(rep.total_hits for rep in count.report()) > 0
        assert moves.same == [False] * 9
