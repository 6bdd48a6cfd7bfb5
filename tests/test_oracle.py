import copy

import numpy as np
import pytest

from hullsim.dynamics import (
    PathEnsemble,
    TimeGrid,
    constant_body,
    gaussian_increments,
    make_model,
    shrinking_ball,
    simulate_ensemble,
)
from hullsim.geometry import Ball, Box, HPolytope, Interval, project, row_norms
from hullsim.oracle import (
    OracleError,
    StepConstants,
    brute_force_hull_distance,
    brute_force_projection,
    constants_c1_c2,
    empirical_cdf,
    hitting_frequency,
    step1_bound_check,
)


def unit_square():
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return HPolytope(normals, np.array([1.0, 0.0, 1.0, 0.0]))


def linear_drift_model(dim=1, theta=1.0, sigma=0.5):
    return make_model("ou", dim, np.zeros(dim), theta=theta, sigma=sigma)


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

    def test_invariants_enforced(self):
        with pytest.raises(OracleError):
            StepConstants(c1=0.5, c2=1.0, m_c=1.0, sup_inv_op_norm=1.0, sup_inv_drift=0.0)
        with pytest.raises(OracleError):
            StepConstants(c1=np.inf, c2=1.0, m_c=1.0, sup_inv_op_norm=1.0, sup_inv_drift=0.0)


class TestGridProjectionOracle:
    def test_square_face(self):
        p = brute_force_projection(unit_square(), np.array([2.0, 0.5]), 1e-3)
        assert np.linalg.norm(p - [1.0, 0.5]) <= 2e-3

    def test_interior_point_recovered(self):
        p = brute_force_projection(unit_square(), np.array([0.4, 0.6]), 1e-3)
        assert np.linalg.norm(p - [0.4, 0.6]) <= 1e-3 * np.sqrt(2)

    def test_ball_radial(self):
        p = brute_force_projection(Ball(np.zeros(2), 1.0), np.array([3.0, 4.0]), 1e-3)
        assert np.linalg.norm(p - [0.6, 0.8]) <= 2e-3

    def test_interval(self):
        p = brute_force_projection(Interval(-1, 1), np.array([2.5]), 1e-4)
        assert abs(p[0] - 1.0) <= 1e-4

    def test_agrees_with_projection(self):
        rng = np.random.default_rng(2)
        body = Box(np.array([-1.0, -0.5]), np.array([0.5, 1.5]))
        for x in rng.uniform(-3, 3, size=(10, 2)):
            p_exact = project(body, x)
            p_grid = brute_force_projection(body, x, 2e-3)
            assert np.linalg.norm(p_exact - p_grid) <= 2 * 2e-3 * np.sqrt(2)

    def test_dimension_cap(self):
        with pytest.raises(OracleError):
            brute_force_projection(Ball(np.zeros(3), 1.0), np.zeros(3), 1e-2)


class TestPairSegmentOracle:
    def test_triangle_corner_exact(self):
        d = brute_force_hull_distance(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
        )
        assert d == pytest.approx(np.sqrt(2) / 2, abs=1e-15)

    def test_inside_is_zero(self):
        d = brute_force_hull_distance(
            np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]),
            np.array([1.0, 1.0]),
        )
        assert d == 0.0

    def test_collinear_cloud(self):
        d = brute_force_hull_distance(
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0])
        )
        assert d == pytest.approx(1.0)

    def test_single_point(self):
        d = brute_force_hull_distance(np.array([[1.0, 1.0]]), np.array([4.0, 5.0]))
        assert d == pytest.approx(5.0)

    def test_wrong_dimension(self):
        with pytest.raises(OracleError):
            brute_force_hull_distance(np.array([[1.0], [2.0]]), np.array([0.0]))


class TestEmpiricalCdf:
    def test_basic_counts(self):
        assert empirical_cdf([1, 2, 3], 2) == pytest.approx(2 / 3)
        assert empirical_cdf([1, 2, 3], 0.5) == 0.0
        assert empirical_cdf([1, 2, 3], 10) == 1.0

    def test_vectorized_queries(self):
        out = empirical_cdf([1.0, 2.0], np.array([0.0, 1.0, 1.5, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 0.5, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(OracleError):
            empirical_cdf([], 0.0)


def make_checked_ensemble(model, mf, n_copies=200, seed=3, steps=20):
    grid = TimeGrid(1.0, steps)
    return simulate_ensemble(model, mf, grid, n_copies, seed, keep_pre_projection=True)


def whole_array_margins(model, ens, probes, constants):
    """Reference: the per-probe whole-array formula, margins of shape (k, N, steps)."""
    z = gaussian_increments(ens.seed, range(1, ens.n_copies + 1), ens.grid.steps, ens.dim, ens.grid.delta)
    margins = []
    for x in probes:
        sig_x = np.asarray(model.diffusion(x), dtype=float)
        drift_x = np.asarray(model.drift(x), dtype=float)
        resid = row_norms(sig_x * z + drift_x * ens.grid.delta)
        lhs = row_norms(ens.pre_projection - x)
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
        ens = make_checked_ensemble(model, mf, n_copies=300, seed=29, steps=12)
        # the start x0 = 0 is a probe: at node 0 its margin is (1 - c2) * resid
        probes = np.vstack([np.zeros(dim), np.random.default_rng(dim).uniform(-0.4, 0.4, (3, dim))])
        constants = constants_c1_c2(model, m_c=1.0, delta=ens.grid.delta)
        if mutated:
            constants = copy.copy(constants)  # bypasses the >= 1 construction invariant
            object.__setattr__(constants, "c2", 0.5)
        margins = whole_array_margins(model, ens, probes, constants)
        rep = step1_bound_check(model, ens, mf, probes, constants=constants)
        assert rep.worst_margin == float(margins.max())
        assert rep.n_violations == int(np.count_nonzero(margins > rep.slack))
        assert (rep.n_violations > 0) == mutated
        assert rep.n_checks == margins.size
        # with the slack at a reference margin, that margin one ulp higher would be counted
        for slack in np.sort(margins, axis=None)[::margins.size // 40]:
            rep = step1_bound_check(model, ens, mf, probes, slack=slack, constants=constants)
            assert rep.n_violations == int(np.count_nonzero(margins > slack))

    def test_ensemble_without_increments_rejected(self):
        # the same one-line error as an ensemble without pre-projection points
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=100)
        without_z = PathEnsemble(ens.grid, ens.n_copies, ens.seed, ens.states, ens.pre_projection)
        without_h = PathEnsemble(ens.grid, ens.n_copies, ens.seed, ens.states, None, ens.increments)
        for bad in (without_z, without_h):
            with pytest.raises(OracleError, match=r"^ensemble was simulated without pre-projection storage$"):
                step1_bound_check(model, bad, mf, self.probes_1d)

    @pytest.mark.parametrize("shape", [(100, 20, 2), (100, 19, 1), (99, 20, 1), (100, 20)])
    def test_mis_shaped_increments_rejected(self, shape):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=100)
        bad = PathEnsemble(ens.grid, ens.n_copies, ens.seed, ens.states, ens.pre_projection,
                           np.zeros(shape))
        with pytest.raises(OracleError, match=r"^ensemble increments have shape .*, expected \(100, 20, 1\)$"):
            step1_bound_check(model, bad, mf, self.probes_1d)

    def test_zero_drift_is_triangle_inequality(self):
        model = make_model("zero_drift", 1, [0.0], sigma=0.5)
        ens = make_checked_ensemble(model, constant_body(Interval(-1, 1)))
        rep = step1_bound_check(model, ens, constant_body(Interval(-1, 1)), self.probes_1d)
        assert rep.n_violations == 0
        assert rep.n_checks == 200 * 20 * 5

    def test_linear_drift_no_violations(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=1000)
        rep = step1_bound_check(model, ens, mf, self.probes_1d)
        assert rep.n_violations == 0
        assert rep.worst_margin <= 1e-10

    def test_state_dependent_sigma_no_violations(self):
        model = make_model("tanh_sigma", 1, [0.0], theta=0.5, sigma0=0.3, sigma1=0.1)
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=500)
        rep = step1_bound_check(model, ens, mf, self.probes_1d)
        assert rep.n_violations == 0

    def test_halved_c2_makes_check_fire(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=1000)
        base = constants_c1_c2(model, m_c=1.0, delta=ens.grid.delta)
        mutated = copy.copy(base)  # bypasses the >= 1 construction invariant
        object.__setattr__(mutated, "c2", base.c2 / 2)
        rep = step1_bound_check(model, ens, mf, self.probes_1d, constants=mutated)
        assert rep.n_violations >= 1
        assert rep.worst_margin > 1e-10

    def test_missing_pre_projection_rejected(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = simulate_ensemble(model, mf, TimeGrid(1.0, 20), 50, 3)
        with pytest.raises(OracleError):
            step1_bound_check(model, ens, mf, self.probes_1d)

    def test_exterior_probe_rejected(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf)
        with pytest.raises(OracleError):
            step1_bound_check(model, ens, mf, np.array([[1.5]]))

    def test_shrinking_body_probe_checked_at_every_node(self):
        model = linear_drift_model(dim=2, theta=2.0, sigma=0.3)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        ens = make_checked_ensemble(model, mf, n_copies=100)
        # inside at time zero but outside the final ball
        with pytest.raises(OracleError):
            step1_bound_check(model, ens, mf, np.array([[0.9, 0.0]]))
        rep = step1_bound_check(model, ens, mf, np.array([[0.3, 0.0]]))
        assert rep.n_violations == 0


class TestHitting:
    def test_easy_target_is_hit(self):
        model = make_model("zero_drift", 1, [0.0], sigma=0.5)
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=500, seed=12)
        [rep] = hitting_frequency(ens, mf, np.array([[0.0]]), radius=0.1)
        assert rep.total_hits > 0
        assert rep.frequency > 0
        assert rep.hits_per_node.shape == (20,)

    def test_unreachable_target_is_missed(self):
        model = make_model("zero_drift", 1, [0.0], sigma=1e-4)
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=100, seed=12)
        [rep] = hitting_frequency(ens, mf, np.array([[0.9]]), radius=0.05)
        assert rep.total_hits == 0

    def test_interior_requirement_excludes_boundary_mass(self):
        # all pre-projection points beyond the wall are clamped; those count
        # only if they were strictly inside before clamping
        model = make_model("zero_drift", 1, [0.9], sigma=2.0)
        mf = constant_body(Interval(-1, 1))
        ens = make_checked_ensemble(model, mf, n_copies=200, seed=5, steps=5)
        [rep] = hitting_frequency(ens, mf, np.array([[0.95]]), radius=0.04)
        h = ens.pre_projection[:, :, 0]
        manual = int(np.sum((np.abs(h - 0.95) <= 0.04) & (np.abs(h) < 1)))
        assert rep.total_hits == manual

    def test_needs_pre_projection(self):
        model = linear_drift_model()
        mf = constant_body(Interval(-1, 1))
        ens = simulate_ensemble(model, mf, TimeGrid(1.0, 5), 10, 0)
        with pytest.raises(OracleError):
            hitting_frequency(ens, mf, np.array([[0.0]]))

    def test_probes_must_be_k_by_m(self):
        model = linear_drift_model(dim=2, theta=2.0, sigma=0.3)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        ens = make_checked_ensemble(model, mf, n_copies=50)
        for bad in ([0.1], [[0.1]], [0.1, 0.1], [[0.1, 0.1, 0.1]], [[[0.1, 0.1]]]):
            with pytest.raises(OracleError, match="probes must be a"):
                hitting_frequency(ens, mf, np.array(bad))

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
        ens = make_checked_ensemble(model, mf, n_copies=400, seed=21)
        probes = np.array([[0.0, 0.0], [0.95, 0.0], [0.0, -0.97], [0.66, 0.66], [-0.99, 0.05]])
        probes[1:] *= edge
        radius = 0.1
        reports = hitting_frequency(ens, mf, probes, radius)
        assert len(reports) == len(probes)
        grid = ens.grid
        excluded = 0
        for probe, rep in zip(probes, reports):
            manual = np.zeros(grid.steps, dtype=int)
            for j in range(1, grid.steps + 1):
                body = mf(grid.node(j))
                h = ens.pre_projection[:, j - 1]
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


class TestLayout:
    """The checks read the coordinate-major ensemble and a copy-major copy alike."""

    model = make_model("tanh_sigma", 2, [0.0, 0.0], theta=0.5, sigma0=0.3, sigma1=0.1)
    mf = staticmethod(shrinking_ball([0.0, 0.0], 1.0, 0.3))
    probes = np.array([[0.3, 0.0], [-0.2, 0.25], [0.0, -0.4]])

    def ensembles(self):
        """A simulated ensemble and the same one rebuilt on copy-major arrays."""
        ens = make_checked_ensemble(self.model, self.mf, n_copies=300, seed=17)
        rebuilt = PathEnsemble(ens.grid, ens.n_copies, ens.seed, np.ascontiguousarray(ens.states),
                               np.ascontiguousarray(ens.pre_projection),
                               np.ascontiguousarray(ens.increments))
        assert not ens.states.flags.c_contiguous and rebuilt.states.flags.c_contiguous
        assert not ens.pre_projection.flags.c_contiguous
        assert rebuilt.pre_projection.flags.c_contiguous
        assert not ens.increments.flags.c_contiguous and rebuilt.increments.flags.c_contiguous
        return ens, rebuilt

    def test_step_bound(self):
        ens, rebuilt = self.ensembles()
        a = step1_bound_check(self.model, ens, self.mf, self.probes)
        b = step1_bound_check(self.model, rebuilt, self.mf, self.probes)
        assert a.worst_margin == b.worst_margin
        assert a.n_violations == b.n_violations

    def test_hitting(self):
        ens, rebuilt = self.ensembles()
        a = hitting_frequency(ens, self.mf, self.probes, 0.2)
        b = hitting_frequency(rebuilt, self.mf, self.probes, 0.2)
        for ra, rb in zip(a, b, strict=True):
            np.testing.assert_array_equal(ra.hits_per_node, rb.hits_per_node)
        assert sum(r.total_hits for r in a) > 0

