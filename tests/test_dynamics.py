import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullsim.dynamics import (
    BODIES,
    FINITE_LIMIT,
    MODELS,
    STEP_CHUNK,
    ModelError,
    SdeModel,
    TimeGrid,
    bodies_at_nodes,
    constant_body,
    derive_seed,
    diffusion_at,
    euler_step,
    gaussian_increments,
    make_model,
    resolve_params,
    shrinking_ball,
    shrinking_box,
    simulate_ensemble,
    simulate_path,
)
from hullsim.geometry import Ball, Box, HPolytope, Interval, chebyshev_center, contains, distance_to_body, row_norms
from hullsim.increments import INCREMENT_BLOCK, stream_processes
from reference import StepRecord, check_lipschitz, nothing_outside, reference_step
from test_geometry import tilted_polygon


def square(half=1.0):
    normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return HPolytope(normals, np.full(4, half))


def fresh_stream(seed, copy_index, n, m, delta):
    """Reference stream: a new Philox generator keyed by (seed, copy_index)."""
    key = np.array([seed, copy_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.standard_normal((n, m)) * np.sqrt(delta)


def stream_case(seed, copies, n, m, delta):
    """A case of test_matches_fresh_generator, named seed-start-stop[-step]-n-m-delta."""
    bounds = [copies.start, copies.stop] + ([copies.step] if copies.step != 1 else [])
    return pytest.param(seed, copies, n, m, delta, id="-".join(map(str, [seed, *bounds, n, m, delta])))


class TestIncrements:
    def test_deterministic(self):
        a = gaussian_increments(99, range(4, 5), 20, 2, 0.01)
        b = gaussian_increments(99, range(4, 5), 20, 2, 0.01)
        np.testing.assert_array_equal(a, b)

    def test_copies_differ(self):
        a = gaussian_increments(99, range(1, 2), 20, 2, 0.01)
        b = gaussian_increments(99, range(2, 3), 20, 2, 0.01)
        assert not np.array_equal(a, b)

    def test_moments(self):
        # CLT band for the mean, chi-square band for the variance, 1e6 draws
        delta = 0.01
        z = gaussian_increments(7, range(1, 2), 10_000, 100, delta)
        n = z.size
        assert abs(z.mean()) < 4 * np.sqrt(delta / n)
        assert abs(z.var() - delta) < 0.01 * delta

    @pytest.mark.parametrize(
        "seed,copies,n,m,delta",
        [
            stream_case(12345, range(1, 18), 20, 2, 0.05),
            stream_case(7, range(1000, 1003), 5, 3, 0.3),
            stream_case(2**64 - 1, range(0, 2), 1, 1, 1.0),
            stream_case(2**63 + 12345, range(2**63, 2**63 + INCREMENT_BLOCK + 3), 2, 2, 0.1),
            # the helper draws the front half of the blocks, this process the back half
            stream_case(12345, range(1, 1 + 2 * INCREMENT_BLOCK), 3, 1, 0.05),
            stream_case(99, range(3, 3 + 2 * INCREMENT_BLOCK + 101), 6, 2, 0.3),  # a part last block
            stream_case(7, range(1, 2 + 3 * INCREMENT_BLOCK), 4, 3, 0.2),  # odd length
            stream_case(2**63 + 12345, range(2**63, 2**63 + 2 * INCREMENT_BLOCK + 5), 2, 2, 0.1),
            stream_case(5, range(5, 5 + 6 * INCREMENT_BLOCK, 3), 3, 3, 0.1),  # blocks slice a stepped range
        ],
    )
    def test_matches_fresh_generator(self, helper_pool, caller_draws_half, seed, copies, n, m, delta):
        helper_pool(cpus=2)  # one helper, whatever this host has
        z = gaussian_increments(seed, copies, n, m, delta)
        assert z.shape == (len(copies), n, m)
        assert stream_processes() == (2 if len(copies) >= 2 * INCREMENT_BLOCK else 1)
        for k, i in enumerate(copies):
            np.testing.assert_array_equal(z[k], fresh_stream(seed, i, n, m, delta))

    def test_just_below_the_split_starts_no_helper(self, helper_pool):
        pool = helper_pool(cpus=2)
        copies = range(1, 2 * INCREMENT_BLOCK)
        z = gaussian_increments(4, copies, 3, 2, 0.1)
        assert pool.buffers == [] and pool.live == [] and stream_processes() == 1
        np.testing.assert_array_equal(z[-1], fresh_stream(4, copies[-1], 3, 2, 0.1))

    def test_one_cpu_starts_no_helper(self, helper_pool):
        pool = helper_pool(cpus=1)
        copies = range(1, 4 * INCREMENT_BLOCK)
        z = gaussian_increments(4, copies, 3, 2, 0.1)
        assert pool.buffers == [] and pool.live == [] and stream_processes() == 1
        np.testing.assert_array_equal(z[-1], fresh_stream(4, copies[-1], 3, 2, 0.1))

    def test_copy_does_not_depend_on_its_range(self):
        alone = gaussian_increments(5, range(9, 10), 12, 2, 0.1)[0]
        for copies in (range(1, 20), range(9, 11), range(3, 30, 3)):
            z = gaussian_increments(5, copies, 12, 2, 0.1)
            np.testing.assert_array_equal(z[copies.index(9)], alone)

    def test_rows_match_across_draw_blocks(self):
        copies = range(5, 5 + 2 * INCREMENT_BLOCK + 3)
        z = gaussian_increments(11, copies, 3, 2, 0.2)
        for k, i in enumerate(copies):
            np.testing.assert_array_equal(z[k], fresh_stream(11, i, 3, 2, 0.2))

    @pytest.mark.parametrize(
        "copies",
        [range(1, 2), range(1, INCREMENT_BLOCK + 2), range(5, 5 + 3 * INCREMENT_BLOCK, 2)],
    )
    def test_one_generator_per_call(self, monkeypatch, undrawn_threads, copies):
        # a thread's block rows borrow one Philox's C functions and re-key their own states; no other is built
        philox = np.random.Philox
        built = []

        def counting_philox(*args, **kwargs):
            built.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        z = gaussian_increments(3, copies, 4, 2, 0.1)
        assert len(built) == 1
        assert z.shape == (len(copies), 4, 2)

    def test_coordinate_slices_are_contiguous(self):
        z = gaussian_increments(11, range(1, INCREMENT_BLOCK + 40), 4, 2, 0.2)
        assert z.shape == (INCREMENT_BLOCK + 39, 4, 2)
        for j in range(4):
            for k in range(2):
                assert z[:, j, k].flags.c_contiguous

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            gaussian_increments(1, range(1, 2), 0, 1, 0.1)
        with pytest.raises(ModelError):
            gaussian_increments(1, range(1, 2), 5, 1, 0.0)
        with pytest.raises(ModelError):
            gaussian_increments(1, range(1, 2), 5, 1, -0.1)
        with pytest.raises(ModelError):
            gaussian_increments(1, range(3, 3), 5, 1, 0.1)


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(1.0, 20)
        assert grid.delta == pytest.approx(0.05)
        assert grid.node(20) == 1.0  # exact, not accumulated
        np.testing.assert_allclose([grid.node(j) for j in range(21)], np.linspace(0, 1, 21), atol=0)

    def test_validation(self):
        with pytest.raises(ModelError):
            TimeGrid(0.0, 10)
        with pytest.raises(ModelError):
            TimeGrid(1.0, 0)
        with pytest.raises(ModelError):
            TimeGrid(1.0, 10).node(11)


class TestEulerStep:
    def test_interior_step_is_identity_after_drift(self):
        model = make_model("zero_drift", 1, [0.0], sigma=1.0)
        h, x1 = euler_step(model, Interval(-1, 1), np.array([0.0]), np.array([0.3]), 0.01)
        assert h[0] == pytest.approx(0.3)
        assert x1[0] == pytest.approx(0.3)

    def test_clamped_step(self):
        model = make_model("zero_drift", 1, [0.0], sigma=1.0)
        h, x1 = euler_step(model, Interval(-1, 1), np.array([0.9]), np.array([0.5]), 0.01)
        assert h[0] == pytest.approx(1.4)
        assert x1[0] == pytest.approx(1.0)

    def test_2d_drift_arithmetic(self):
        model = make_model("ou", 2, [0.0, 0.0], theta=1.0, sigma=1.0)
        h, x1 = euler_step(
            model, Ball(np.zeros(2), 1.0), np.array([1.0, 0.0]), np.zeros(2), 0.1
        )
        np.testing.assert_allclose(h, [0.9, 0.0], atol=1e-15)
        np.testing.assert_allclose(x1, [0.9, 0.0], atol=1e-15)

    def test_shape_mismatch(self):
        model = make_model("ou", 2, [0.0, 0.0])
        with pytest.raises(ModelError):
            euler_step(model, Ball(np.zeros(2), 1.0), np.zeros(2), np.zeros(3), 0.1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_finite_check_holds_exactly_at_the_limit(self, m):
        # 4096 copies, so m = 3 sums its squares in two parts: a coordinate at FINITE_LIMIT
        # fails the sum-of-squares screen and passes the exact check, the next float fails it
        model = SdeModel(m, lambda x: np.zeros(np.shape(x)), np.ones_like, np.zeros(m), 0.0, 0.0)
        z = np.asfortranarray(np.full((STEP_CHUNK, m), 0.5))
        z[3001, m - 1] = -FINITE_LIMIT
        h, _ = euler_step(model, Box(np.full(m, -1.0), np.ones(m)), np.zeros_like(z), z, 0.1)
        assert h.tobytes() == z.tobytes()
        z[3001, m - 1] = np.nextafter(-FINITE_LIMIT, -np.inf)
        with pytest.raises(ModelError, match="^pre-projection point is not finite or beyond 1e[+]150") as err:
            euler_step(model, Box(np.full(m, -1.0), np.ones(m)), np.zeros_like(z), z, 0.1)
        assert err.value.where == (3001,)

    def test_writes_into_nothing_it_is_given(self):
        # a drift that returns x itself and a diffusion that returns a read-only broadcast:
        # the step writes into its own h only, so read-only x and z would raise on a write
        model = SdeModel(2, lambda x: x, lambda x: np.broadcast_to(0.5, np.shape(x)), [0.0, 0.0], 1.0, 0.0)
        rng = np.random.default_rng(3)
        x = np.asfortranarray(rng.uniform(-0.5, 0.5, size=(64, 2)))
        z = np.asfortranarray(rng.standard_normal((64, 2)))
        x_before, z_before = x.copy(), z.copy()
        x.flags.writeable = z.flags.writeable = False
        h, x_next = euler_step(model, Ball(np.zeros(2), 5.0), x, z, 0.1)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(z, z_before)
        assert not np.shares_memory(h, x) and not np.shares_memory(h, z)
        assert h.flags.writeable and h.flags.f_contiguous
        assert x_next is h  # nothing outside the ball
        assert h.tobytes() == (x_before + x_before * 0.1 + 0.5 * z_before).tobytes()


class TestStepMatchesReference:
    """euler_step gives the bits of the plain sum x + drift(x) delta + sigma(x) z, and the
    projection returns h itself exactly when the full screens say nothing is outside
    (reference.reference_step)."""

    params = {  # each registered model's, the workloads' where they have one
        "ou": {"theta": 1.3, "sigma": 0.51},
        "zero_drift": {"sigma": 0.7},
        "tanh_drift": {"scale": 2.0, "sigma": 0.42},
        "tanh_sigma": {"theta": 2.0, "sigma0": 0.3, "sigma1": 0.1},
    }
    bodies = {
        "ball": Ball(np.array([0.3, -0.2, 0.1]), 0.8),
        "square": square(),
        "tilted": tilted_polygon(),
        "box": Box(np.array([-1.0, -0.5, -2.0]), np.array([1.0, 0.5, 0.3])),
    }

    @given(
        kind=st.sampled_from(sorted(params)),
        name=st.sampled_from(sorted(bodies)),
        order=st.sampled_from("FC"),
        batch=st.sampled_from(["inside", "mixed", "outside"]),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_step(self, kind, name, order, batch, n, seed):
        body = self.bodies[name]
        m, params = body.dim, self.params[kind]
        model = make_model(kind, m, np.zeros(m), **params)
        rng = np.random.default_rng(seed)
        center, radius = chebyshev_center(body)
        # states well inside; an increment of 1e-6 keeps h inside, one of 50 takes it
        # beyond every body (sigma >= 0.2 for every model here)
        x = center + rng.uniform(-0.5, 0.5, size=(n, m)) * radius / np.sqrt(m)
        u = rng.standard_normal((n, m))
        u /= row_norms(u)[:, None]
        scale = {"inside": np.full(n, 1e-6), "outside": np.full(n, 50.0),
                 "mixed": np.where(np.arange(n) < n // 2, 1e-6, 50.0)}[batch]
        x, z = np.array(x, order=order), np.array(u * scale[:, None], order=order)
        h, x_next = euler_step(model, body, x, z, 0.05)
        h_ref, x_next_ref = reference_step(kind, params, body, x, z, 0.05)
        assert h.tobytes() == h_ref.tobytes()
        assert x_next.tobytes() == x_next_ref.tobytes()
        assert (x_next is h) == nothing_outside(body, h)
        assert nothing_outside(body, h) == (batch == "inside" and not isinstance(body, Box))
        if n > 1:
            assert h.flags[f"{order}_CONTIGUOUS"] and x_next.flags[f"{order}_CONTIGUOUS"]


class TestMemoryOrder:
    """(N, m) in, (N, m) out, in the input's memory order, with the same bits."""

    @pytest.mark.parametrize(
        "kind, body",
        [("ou", Interval(-1.0, 1.0)), ("tanh_drift", square()), ("tanh_sigma", Ball(np.zeros(3), 1.0))],
    )
    def test_step(self, kind, body):
        model = make_model(kind, body.dim, np.zeros(body.dim))
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.9, 0.9, size=(500, body.dim))
        z = rng.standard_normal((500, body.dim)) * 0.5
        fx, fz = np.asfortranarray(x), np.asfortranarray(z)
        np.testing.assert_array_equal(diffusion_at(model, fx), diffusion_at(model, x))
        h, x1 = euler_step(model, body, fx, fz, 0.1)
        expected_h, expected_x1 = euler_step(model, body, x, z, 0.1)
        np.testing.assert_array_equal(h, expected_h)
        np.testing.assert_array_equal(x1, expected_x1)
        assert h.flags.f_contiguous and x1.flags.f_contiguous
        assert np.any(x1 != h)  # some copies were projected

    def test_blown_row_is_named_in_either_order(self):
        model = SdeModel(2, lambda x: np.where(x > 0.5, np.inf, 0.0), np.ones_like, [0.0, 0.0], 0.0, 0.0)
        x = np.zeros((6, 2))
        x[4, 1] = 1.0
        for arr in (x, np.asfortranarray(x)):
            with pytest.raises(ModelError, match="pre-projection point is not finite") as info:
                euler_step(model, Ball(np.zeros(2), 2.0), arr, np.zeros_like(arr), 0.1)
            assert info.value.where == (4,)


class TestSimulatePath:
    def test_single_step_unrolls(self):
        model = make_model("zero_drift", 1, [0.0], sigma=1.0)
        grid = TimeGrid(1.0, 1)
        mf = constant_body(Interval(-1, 1))
        path = simulate_path(model, mf, grid, seed=5, copy_index=1)
        z = gaussian_increments(5, range(1, 2), 1, 1, 1.0)
        expected = np.clip(0.0 + z[0, 0, 0], -1, 1)
        assert path.states[1, 0] == expected

    def test_tiny_diffusion_freezes_path(self):
        # diffusion must stay invertible, so use a small but legal scale
        model = make_model("zero_drift", 1, [0.2], sigma=1e-11)
        grid = TimeGrid(1.0, 20)
        path = simulate_path(model, constant_body(Interval(-1, 1)), grid, 3, 1)
        assert np.max(np.abs(path.states - 0.2)) < 1e-9

    def test_states_stay_inside(self):
        model = make_model("ou", 1, [0.0], theta=1.0, sigma=2.0)
        grid = TimeGrid(1.0, 50)
        path = simulate_path(model, constant_body(Interval(-1, 1)), grid, 11, 1)
        assert np.all(path.states >= -1 - 1e-9)
        assert np.all(path.states <= 1 + 1e-9)

    def test_x0_outside_rejected(self):
        model = make_model("ou", 1, [5.0])
        with pytest.raises(ModelError):
            simulate_path(model, constant_body(Interval(-1, 1)), TimeGrid(1.0, 5), 0, 1)


class TestSimulateEnsemble:
    def test_prefix_copies_identical(self):
        model = make_model("ou", 1, [0.0], theta=1.0, sigma=0.5)
        grid = TimeGrid(1.0, 20)
        mf = constant_body(Interval(-1, 1))
        small = simulate_ensemble(model, mf, grid, 3, seed=42)
        large = simulate_ensemble(model, mf, grid, 5, seed=42)
        np.testing.assert_array_equal(small.states, large.states[:3])

    def test_prefix_identical_through_hpolytope_projection(self):
        model = make_model("tanh_drift", 2, [0.0, 0.0], scale=2.0, sigma=0.6)
        grid = TimeGrid(1.0, 10)
        mf = constant_body(square())
        small = simulate_ensemble(model, mf, grid, 4, seed=9)
        large = simulate_ensemble(model, mf, grid, 9, seed=9)
        np.testing.assert_array_equal(small.states, large.states[:4])

    def test_path_equals_ensemble_slice(self):
        # the tilted pentagon's screen mixes a point's coordinates, and the
        # off-origin ball rewrites only its batch's rows outside; every copy
        # projected at some step is checked
        model = make_model("tanh_drift", 2, [0.1, -0.2], scale=2.0, sigma=0.6)
        grid = TimeGrid(1.0, 10)
        for body in (square(), tilted_polygon(), Ball(np.array([0.3, -0.1]), 0.6)):
            mf = constant_body(body)
            record = StepRecord(grid.steps, 2, 2000)
            ens = simulate_ensemble(model, mf, grid, 2000, seed=31, observers=[record])
            moved = np.flatnonzero(np.any(ens.states[:, 1:] != record.h, axis=(1, 2))) + 1
            assert moved.size > 0
            for i in (1, 4, 6, *moved.tolist()):
                path = simulate_path(model, mf, grid, 31, i)
                np.testing.assert_array_equal(path.states, ens.states[i - 1])

    def test_coordinate_slices_are_contiguous(self):
        # the observers are handed F-ordered step batches: each coordinate of a
        # step's increments and pre-projection points is contiguous
        model = make_model("ou", 2, [0.0, 0.0], theta=2.0, sigma=0.3)
        grid = TimeGrid(1.0, 10)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        n_copies = INCREMENT_BLOCK + 50
        steps = []

        class Layout:
            def observe(self, j, rows, x, z, h, body):
                steps.append(j)
                assert h.shape == z.shape == (n_copies, 2)
                assert all(a[:, k].flags.c_contiguous for a in (x, z, h) for k in range(2))

        ens = simulate_ensemble(model, mf, grid, n_copies, seed=4, observers=[Layout()])
        assert ens.states.shape == (n_copies, 11, 2)
        assert ens.pre_projection is None
        assert steps == list(range(grid.steps))
        for k in range(2):
            for j in range(grid.steps + 1):
                assert ens.states[:, j, k].flags.c_contiguous

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "helper_split"])
    def test_kept_increments_are_the_stream(self, helper_pool, caller_draws_half, m, split):
        # each step reads the very increments of the stream: copy i's rows of the
        # stream (seed, i), drawn here alone or shared with a helper
        pool = helper_pool(cpus=2 if split else 1)
        model = make_model("tanh_sigma", m, np.zeros(m), theta=0.5, sigma0=0.3, sigma1=0.1)
        grid = TimeGrid(1.0, 6)
        n_copies = 2 * INCREMENT_BLOCK + 37
        record = StepRecord(grid.steps, m, n_copies)
        simulate_ensemble(model, shrinking_ball(np.zeros(m), 1.0, 0.3), grid, n_copies, seed=23,
                          observers=[record])
        assert (pool.counts["helper_blocks"] > 0) == split
        expected = gaussian_increments(23, range(1, n_copies + 1), grid.steps, m, grid.delta)
        assert record.z.shape == expected.shape == (n_copies, grid.steps, m)
        assert record.z.tobytes() == expected.tobytes()

    def test_run_to_run_determinism(self):
        model = make_model("ou", 2, [0.0, 0.0], theta=2.0, sigma=0.3)
        grid = TimeGrid(1.0, 20)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        records = [StepRecord(grid.steps, 2, 100) for _ in range(2)]
        a, b = (simulate_ensemble(model, mf, grid, 100, seed=77, observers=[r]) for r in records)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(records[0].h, records[1].h)

    def test_containment_invariant(self):
        model = make_model("ou", 2, [0.0, 0.0], theta=1.0, sigma=1.5)
        grid = TimeGrid(1.0, 20)
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        ens = simulate_ensemble(model, mf, grid, 200, seed=1)
        for j in range(grid.steps + 1):
            body = mf(grid.node(j))
            d = distance_to_body(body, ens.states[:, j])
            assert np.max(d) <= 1e-9

    def test_initial_state_everywhere(self):
        model = make_model("ou", 2, [0.3, -0.1])
        ens = simulate_ensemble(
            model, constant_body(square()), TimeGrid(1.0, 5), 7, seed=2
        )
        np.testing.assert_array_equal(ens.states[:, 0], np.tile([0.3, -0.1], (7, 1)))

    def test_ensemble_mean_clt_band(self):
        # wide body keeps projection inactive: mean of the first step over
        # 1e5 copies sits in the 4-sigma CLT band around zero
        model = make_model("zero_drift", 1, [0.0], sigma=1.0)
        grid = TimeGrid(1.0, 1)
        ens = simulate_ensemble(model, constant_body(Interval(-10, 10)), grid, 100_000, seed=8)
        n = ens.n_copies
        band = 4 * np.sqrt(grid.delta / n)
        assert abs(ens.states[:, 1, 0].mean()) < band

    @pytest.mark.parametrize("blown", [np.inf, -np.inf, np.nan, 1e200])
    def test_non_finite_pre_projection_names_step_and_copy(self, blown):
        # the drift blows up above zero: step 1 fails first for the first copy
        # whose first increment is positive, before anything is projected
        grid = TimeGrid(1.0, 4)
        mf = constant_body(Interval(-1, 1))
        drift = lambda x: np.where(np.asarray(x) > 0, blown, 0.0)  # noqa: E731
        model = SdeModel(1, drift, lambda x: np.ones_like(x), np.array([0.0]), 0.0, 0.0)
        z = gaussian_increments(3, range(1, 11), grid.steps, 1, grid.delta)
        first_up = 1 + int(np.argmax(z[:, 0, 0] > 0))
        message = r"failed: pre-projection point is not finite"
        with pytest.raises(ModelError, match=rf"^step 1 of copy {first_up} {message}"):
            simulate_ensemble(model, mf, grid, 10, seed=3)
        with pytest.raises(ModelError, match=rf"^step 1 of copy {first_up} {message}"):
            simulate_path(model, mf, grid, 3, first_up)
        # blown up everywhere, step 0 fails every copy and names the first of the batch
        everywhere = SdeModel(1, lambda x: np.full(np.shape(x), blown), np.ones_like, np.array([0.0]), 0.0, 0.0)
        with pytest.raises(ModelError, match=rf"^step 0 of copy 1 {message}"):
            simulate_ensemble(everywhere, mf, grid, 10, seed=3)
        with pytest.raises(ModelError, match=rf"^step 0 of copy 7 {message}"):
            simulate_path(everywhere, mf, grid, 3, 7)

    def test_copy_count_validation(self):
        model = make_model("ou", 1, [0.0])
        with pytest.raises(ModelError):
            simulate_ensemble(model, constant_body(Interval(-1, 1)), TimeGrid(1.0, 5), 0, 1)


CHUNKED = 2 * STEP_CHUNK + 3  # copies in two full chunks and a last one of three


class TestStepChunks:
    """An ensemble of more than STEP_CHUNK copies is stepped one chunk of copies at a time."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_copies_at_the_chunk_edges_equal_their_paths(self, helper_pool, cpus):
        helper_pool(cpus)
        model = make_model("tanh_sigma", 2, [0.0, 0.0], theta=2.0, sigma0=0.3, sigma1=0.1)
        mf, grid = constant_body(Ball(np.zeros(2), 1.0)), TimeGrid(1.0, 6)
        record = StepRecord(grid.steps, 2, CHUNKED)
        ens = simulate_ensemble(model, mf, grid, CHUNKED, seed=5, observers=[record])
        assert STEP_CHUNK == 4096
        for i in [4095, 4096, 4097, 4098, CHUNKED]:
            path = simulate_path(model, mf, grid, 5, i)
            np.testing.assert_array_equal(ens.states[i - 1], path.states)
        # the increments the chunks read, recorded chunk by chunk, are one draw over the whole range
        whole = gaussian_increments(5, range(1, CHUNKED + 1), grid.steps, 2, grid.delta)
        np.testing.assert_array_equal(record.z, whole)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_copy_failing_in_the_second_chunk_is_named(self, helper_pool, cpus):
        helper_pool(cpus)
        grid, calls = TimeGrid(1.0, 4), []

        def drift(x):
            # one call per chunk and step: the first chunk's four steps pass, and
            # the second chunk's step 2 blows up at its row 9, copy 4096 + 10
            calls.append(len(x))
            out = np.zeros(np.shape(x))
            if len(calls) == grid.steps + 3:
                out[9] = np.inf
            return out

        model = SdeModel(1, drift, np.ones_like, np.array([0.0]), 0.0, 0.0)
        with pytest.raises(ModelError, match=rf"^step 2 of copy {STEP_CHUNK + 10} failed: pre-projection"):
            simulate_ensemble(model, constant_body(Interval(-1, 1)), grid, CHUNKED, seed=3)
        assert calls == [STEP_CHUNK] * (grid.steps + 3)


# (model, body family) pairs for the kept-node tests: m = 1, 2, 3 and a shrinking ball
KEPT_NODE_CASES = {
    "interval": (lambda: make_model("ou", 1, [0.0], theta=1.0, sigma=0.5), lambda: constant_body(Interval(-1, 1))),
    "square": (lambda: make_model("tanh_drift", 2, [0.0, 0.0], scale=2.0, sigma=0.6),
               lambda: constant_body(square())),
    "ball3d": (lambda: make_model("tanh_sigma", 3, np.zeros(3), theta=2.0, sigma0=0.3, sigma1=0.1),
               lambda: constant_body(Ball(np.zeros(3), 1.0))),
    "shrinking_ball": (lambda: make_model("ou", 2, [0.0, 0.0], theta=2.0, sigma=0.3),
                       lambda: shrinking_ball([0.0, 0.0], 1.0, 0.3)),
}


class TestKeptNodes:
    @pytest.mark.parametrize("case", sorted(KEPT_NODE_CASES))
    @pytest.mark.parametrize("nodes", [[1], [5, 20], list(range(21))], ids=["1", "5-20", "all"])
    def test_kept_nodes_equal_the_full_record(self, case, nodes):
        model, mf = (make() for make in KEPT_NODE_CASES[case])
        grid = TimeGrid(1.0, 20)
        n_copies = INCREMENT_BLOCK + 30
        full = simulate_ensemble(model, mf, grid, n_copies, seed=12)
        kept = simulate_ensemble(model, mf, grid, n_copies, seed=12, nodes=nodes)
        assert full.nodes == tuple(range(21)) and kept.nodes == tuple(nodes)
        assert kept.states.shape == (n_copies, len(nodes), model.dim)
        for k, j in enumerate(nodes):
            assert kept.at(j).tobytes() == kept.states[:, k].tobytes() == full.states[:, j].tobytes()
            for c in range(model.dim):
                assert kept.states[:, k, c].flags.c_contiguous

    def test_at_reads_a_kept_node_and_rejects_another(self):
        model, mf = (make() for make in KEPT_NODE_CASES["square"])
        ens = simulate_ensemble(model, mf, TimeGrid(1.0, 6), 9, seed=2, nodes=np.array([2, 6]))
        assert ens.nodes == (2, 6)
        np.testing.assert_array_equal(ens.at(6), ens.states[:, 1])
        for j in (0, 3, 7):
            with pytest.raises(ModelError, match=rf"^node {j} was not kept; the ensemble keeps nodes \[2, 6\]$"):
                ens.at(j)

    @pytest.mark.parametrize("nodes", [[], [6, 3], [3, 3], [3, 7], [-1, 3]],
                             ids=["empty", "unsorted", "repeated", "beyond", "negative"])
    def test_bad_nodes_rejected(self, nodes):
        model, mf = (make() for make in KEPT_NODE_CASES["interval"])
        with pytest.raises(ModelError, match="^nodes must be one or more ascending grid nodes in 0..6"):
            simulate_ensemble(model, mf, TimeGrid(1.0, 6), 5, seed=1, nodes=nodes)


class TestModels:
    def test_registry_kinds(self):
        assert set(MODELS) == {"ou", "zero_drift", "tanh_drift", "tanh_sigma"}
        for kind in MODELS:  # every kind builds from its defaults
            model = make_model(kind, 2, [0.0, 0.0])
            assert model.dim == 2
            assert diffusion_at(model, np.zeros((3, 2))).shape == (3, 2)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_step_matches_matrix_reference(self, kind, dim):
        # sigma(x) * z is the product of the diagonal matrix of sigma(x) with z,
        # bit for bit
        model = make_model(kind, dim, np.zeros(dim))
        rng = np.random.default_rng(dim)
        x = rng.uniform(-2.0, 2.0, size=(50, dim))
        z = rng.standard_normal((50, dim)) * 0.1
        sig = model.diffusion(x)
        matrix = np.zeros((50, dim, dim))
        matrix[:, np.arange(dim), np.arange(dim)] = sig
        expected = x + model.drift(x) * 0.01 + np.einsum("...ij,...j->...i", matrix, z)
        h, _ = euler_step(model, Ball(np.zeros(dim), 10.0), x, z, 0.01)
        np.testing.assert_array_equal(h, expected)

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_every_body_kind_builds_from_defaults(self, kind):
        builder, args = resolve_params("multifunction", BODIES, kind, 2, {})
        body = builder(**args)(0.0)
        assert contains(body, np.zeros(body.dim))

    def test_mis_shaped_parameters(self):
        with pytest.raises(ModelError):
            make_model("ou", 1, [0.0], theta=np.array([1.0, 2.0]))
        with pytest.raises(ModelError):
            resolve_params("multifunction", BODIES, "constant_ball", 3, {"center": np.zeros(2)})

    def test_unknown_kind(self):
        with pytest.raises(ModelError):
            make_model("levy", 1, [0.0])

    def test_unknown_parameter(self):
        with pytest.raises(ModelError):
            make_model("ou", 1, [0.0], mu=3.0)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("tanh_sigma", {"sigma0": 0.1, "sigma1": 0.2}, r"tanh_sigma needs sigma0 - \|sigma1\| > 0"),
            ("tanh_sigma", {"theta": -1.0}, "tanh_sigma model needs theta >= 0"),
            ("zero_drift", {"sigma": 0.0}, "zero_drift model needs sigma > 0"),
            ("tanh_drift", {"scale": -1.0}, "tanh_drift model needs scale >= 0 and sigma > 0"),
            ("tanh_drift", {"sigma": 0.0}, "tanh_drift model needs scale >= 0 and sigma > 0"),
        ],
        ids=["tanh_sigma-invertible", "tanh_sigma-theta", "zero_drift-sigma", "tanh_drift-scale",
             "tanh_drift-sigma"],
    )
    def test_tanh_sigma_invertibility_guard(self, kind, params, message):
        with pytest.raises(ModelError, match=f"^{message}"):
            make_model(kind, 1, [0.0], **params)

    def test_model_rejects_a_mis_shaped_start_and_a_negative_lipschitz_constant(self):
        drift = diffusion = np.ones_like
        with pytest.raises(ModelError, match=r"^x0 must have shape \(2,\), got \(3,\)$"):
            SdeModel(2, drift, diffusion, np.zeros(3), 0.0, 0.0)
        for lip_drift, lip_diffusion in [(-1.0, 0.0), (0.0, -1.0)]:
            with pytest.raises(ModelError, match="^Lipschitz constants must be nonnegative$"):
                SdeModel(1, drift, diffusion, np.zeros(1), lip_drift, lip_diffusion)

    def test_huge_diagonal_comes_back_as_is(self):
        model = make_model("ou", 2, [0.0, 0.0], sigma=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = diffusion_at(model, np.zeros((3, 2)))
        np.testing.assert_array_equal(sig, np.full((3, 2), 1e300))

    def test_matrix_diffusion_rejected(self):
        # a diffusion returning (..., m, m) matrices must not broadcast through
        # sigma(x) * z
        model = SdeModel(2, lambda x: np.zeros_like(x),
                         lambda x: np.broadcast_to(np.eye(2), np.shape(x) + (2,)),
                         np.zeros(2), 0.0, 0.0)
        with pytest.raises(ModelError, match=r"diffusion returned shape \(3, 2, 2\), expected \(3, 2\)"):
            diffusion_at(model, np.zeros((3, 2)))
        with pytest.raises(ModelError, match="diffusion returned shape"):
            euler_step(model, Ball(np.zeros(2), 1.0), np.zeros((3, 2)), np.zeros((3, 2)), 0.1)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("ou", {"theta": 1.3, "sigma": 0.5}),
            ("zero_drift", {"sigma": 0.4}),
            ("tanh_drift", {"scale": 2.0, "sigma": 0.4}),
            ("tanh_sigma", {"theta": 0.5, "sigma0": 0.3, "sigma1": 0.1}),
        ],
    )
    def test_declared_lipschitz_constants_hold(self, kind, params):
        model = make_model(kind, 2, [0.0, 0.0], **params)
        drift_ratio, diff_ratio = check_lipschitz(model, -2.0, 2.0, pairs=1000, seed=0)
        assert drift_ratio <= model.lip_drift * (1 + 1e-6) + 1e-12
        assert diff_ratio <= model.lip_diffusion * (1 + 1e-6) + 1e-12


class TestMultifunctions:
    """Every shipped family is nested, C(t) inside C(s) for s <= t, at the grid nodes."""

    grid = TimeGrid(1.0, 20)

    def test_constant_is_decreasing(self):
        body = Interval(-1, 1)
        assert all(b is body for b in bodies_at_nodes(constant_body(body), self.grid))

    def test_shrinking_ball_decreasing(self):
        bodies = bodies_at_nodes(shrinking_ball([0.5, -0.5], 1.0, 0.3), self.grid)
        for b in bodies:
            np.testing.assert_array_equal(b.center, [0.5, -0.5])
        assert np.all(np.diff([b.radius for b in bodies]) <= 0)

    def test_shrinking_box_decreasing(self):
        bodies = bodies_at_nodes(shrinking_box([-1.0, -2.0], [1.0, 0.5], 0.2), self.grid)
        assert np.all(np.diff([b.lo for b in bodies], axis=0) >= 0)
        assert np.all(np.diff([b.hi for b in bodies], axis=0) <= 0)

    def test_shrinking_box_rejects_a_negative_rate(self):
        with pytest.raises(ModelError, match="^rate must be nonnegative$"):
            shrinking_box([-1.0], [1.0], -0.1)

    def test_bodies_at_nodes(self):
        mf = shrinking_ball([0.0, 0.0], 1.0, 0.3)
        bodies = bodies_at_nodes(mf, TimeGrid(1.0, 10))
        assert len(bodies) == 11
        assert bodies[-1].radius == pytest.approx(0.7)


class TestSeeds:
    def test_derive_seed_spreads(self):
        seeds = {derive_seed(1, n, r) for n in (100, 1000) for r in range(50)}
        assert len(seeds) == 100

    def test_derive_seed_deterministic(self):
        assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)
        assert derive_seed(123, 4, 5) != derive_seed(123, 5, 4)
