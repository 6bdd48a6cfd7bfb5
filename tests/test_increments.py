"""Life cycle of the increment helper processes (hullsim.increments).

The scripts here run in fresh interpreters under -X dev -W error, so a
ResourceWarning, including one printed at shutdown, shows on their stderr.
"""

import ctypes
import errno
import json
import mmap
import os
import re
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from contextlib import redirect_stdout
from io import StringIO
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from hullsim import harness, increments
from hullsim.dynamics import gaussian_increments
from hullsim.geometry import Interval
from hullsim.increments import INCREMENT_BLOCK, STEP_CHUNK, stream_processes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked with os.fork")

# Starts one helper whatever the host's CPU count, and prints its pid.
PRELUDE = f"""
import json, os, sys
from hullsim import increments
from hullsim.dynamics import gaussian_increments
from hullsim.increments import stream_processes
os.sched_getaffinity = lambda pid: {{0, 1}}
COPIES = range(1, 3 * {INCREMENT_BLOCK} + 1)
first = gaussian_increments(8, COPIES, 5, 2, 0.1).copy()
"""


def run_script(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code, *args],
        env=script_env(), capture_output=True, text=True, timeout=120, **kwargs,
    )


def script_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONWARNINGS", None)
    return env


def serial(seed, copies, n, m, delta):
    """The same increments drawn in this process alone."""
    z = np.empty((n, m, len(copies)))
    increments.fill(z, seed, copies, float(np.sqrt(delta)))
    return z.transpose(2, 0, 1)


def running(pid: int) -> bool:
    """pid names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.parametrize("helpers,blocks", [(1, 2), (1, 40), (2, 3), (3, 2), (3, 79)])
def test_caller_and_helpers_meet_with_no_block_left_out(helpers, blocks):
    # the control-word protocol, stepped in a random order: a block is drawn
    # between the yield that hands it out and the next request of that side
    rng = np.random.default_rng(100 * helpers + blocks)
    cuts = [blocks * k // helpers for k in range(helpers + 1)]
    ctl = np.array([cuts[:-1], cuts[1:]], dtype=np.int64).T.copy()
    sides = [increments._ahead(ctl[k]) for k in range(helpers)] + [increments._behind(ctl)]
    drawn = [[] for _ in sides]
    live = list(range(len(sides)))
    while live:
        side = live[rng.integers(len(live))]
        block = next(sides[side], None)
        if block is None:
            live.remove(side)
        else:
            drawn[side].append(block)
    caller = drawn[-1]
    assert sorted(set().union(*drawn)) == list(range(blocks))
    for k, (first, end) in enumerate(zip(cuts, cuts[1:])):
        mine = drawn[k]
        assert mine == list(range(first, first + len(mine)))  # a prefix, first to last
        theirs = [b for b in caller if first <= b < end]
        assert theirs == list(range(end - 1, end - 1 - len(theirs), -1))  # a suffix, last first
        assert len(mine) + len(theirs) - (end - first) in (0, 1)  # at most one block twice


def test_readme_quick_start_runs_as_an_unguarded_script():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "__main__" not in code and "n_copies=10_000" in code
    proc = run_script(code, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    printed = StringIO()
    with redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert proc.stdout == printed.getvalue() != ""


def test_killed_helper_leaves_the_bytes_and_raises_nothing(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=2)
    copies = range(1, 3 * INCREMENT_BLOCK + 1)
    first = gaussian_increments(8, copies, 5, 2, 0.1).copy()
    [helper] = pool.live
    os.kill(helper.pid, signal.SIGKILL)
    helper.wait()
    before = pool.counts["helper_blocks"]
    again = gaussian_increments(8, copies, 5, 2, 0.1)
    np.testing.assert_array_equal(first, serial(8, copies, 5, 2, 0.1))
    np.testing.assert_array_equal(again, first)
    # the dead helper had served, so a new generation's helper serves the next draw
    [new] = pool.live
    assert new is not helper and stream_processes() == 2 and pool.counts["buffers_made"] == 2 * 2
    assert pool.counts["helper_blocks"] > before
    np.testing.assert_array_equal(gaussian_increments(8, copies, 5, 2, 0.1), first)


def test_helpers_that_die_before_their_first_reply_leave_the_pool_serial(helper_pool, monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(increments, "_serve", lambda *args: os._exit(1))  # each helper exits at once
    pool = helper_pool(cpus=2)
    copies = range(1, 3 * INCREMENT_BLOCK + 1)
    np.testing.assert_array_equal(gaussian_increments(8, copies, 5, 2, 0.1), serial(8, copies, 5, 2, 0.1))
    assert forks == [1] and pool.live == [] and not pool.served
    # never forked again: not by the next draw, its look-ahead, nor a draw larger than the buffers
    np.testing.assert_array_equal(gaussian_increments(8, copies, 5, 2, 0.1, then=B),
                                  serial(8, copies, 5, 2, 0.1))
    np.testing.assert_array_equal(increments_of(LARGE), serial(*LARGE, 5, 2, 0.1))
    assert forks == [1] and pool.live == [] and pool.draws == [] and stream_processes() == 1
    assert pool.counts["buffers_made"] == 2 and pool.counts["helper_blocks"] == 0


def test_helper_draws_every_block_the_caller_leaves(helper_pool, monkeypatch):
    pool = helper_pool(cpus=2)
    monkeypatch.setattr(increments, "_behind", lambda ctl: iter(()))
    copies = range(7, 7 + 5 * INCREMENT_BLOCK + 11)
    z = gaussian_increments(2, copies, 4, 3, 0.3)
    np.testing.assert_array_equal(z, serial(2, copies, 4, 3, 0.3))
    assert len(pool.live) == 1


def test_helper_that_stops_answering_mid_draw_is_replaced_by_the_caller(helper_pool, monkeypatch):
    pool = helper_pool(cpus=2)
    copies = range(1, 2 * INCREMENT_BLOCK + 1)
    gaussian_increments(3, copies, 4, 3, 0.2)
    [helper] = pool.live
    monkeypatch.setattr(helper, "finished", lambda: False)
    z = gaussian_increments(3, copies, 4, 3, 0.2)
    np.testing.assert_array_equal(z, serial(3, copies, 4, 3, 0.2))
    assert helper.poll() is not None and pool.live == []


def test_helper_stuck_before_its_blocks_is_killed_and_its_blocks_drawn(
        helper_pool, caller_draws_half, monkeypatch):
    pool = helper_pool(cpus=2)
    copies = range(1, 4 * INCREMENT_BLOCK + 1)
    gaussian_increments(3, copies, 4, 2, 0.2)
    [helper] = pool.live
    os.kill(helper.pid, signal.SIGSTOP)  # it takes no request
    monkeypatch.setattr(helper, "finished", lambda: False)
    z = gaussian_increments(3, copies, 4, 2, 0.2)
    np.testing.assert_array_equal(z, serial(3, copies, 4, 2, 0.2))
    assert helper.returncode == -signal.SIGKILL and pool.live == []


def test_a_raising_draw_stops_the_helpers_it_held(helper_pool, monkeypatch):
    pool = helper_pool(cpus=2)
    copies = range(1, 2 * INCREMENT_BLOCK + 1)
    gaussian_increments(3, copies, 4, 1, 0.2)
    [helper] = pool.live

    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(helper, "finished", interrupted)
    with pytest.raises(KeyboardInterrupt):
        gaussian_increments(3, copies, 4, 1, 0.2)
    assert helper.poll() is not None and pool.live == []
    np.testing.assert_array_equal(gaussian_increments(3, copies, 4, 1, 0.2),
                                  serial(3, copies, 4, 1, 0.2))


def test_no_fork_starts_no_helper(helper_pool, monkeypatch):
    pool = helper_pool(cpus=2)
    monkeypatch.delattr(os, "fork")
    copies = range(1, 2 * INCREMENT_BLOCK + 1)
    z = gaussian_increments(6, copies, 3, 2, 0.1)
    assert pool.buffers == [] and pool.live == [] and stream_processes() == 1
    np.testing.assert_array_equal(z, serial(6, copies, 3, 2, 0.1))


@pytest.mark.parametrize("cpus,forks", [pytest.param(2, 0, id="first_of_one"),
                                         pytest.param(4, 1, id="second_of_three")])
def test_a_failing_fork_leaves_the_bytes_and_no_socket_open(helper_pool, caller_draws_half, monkeypatch,
                                                            cpus, forks):
    # os.fork fails (EAGAIN, out of processes) once forks helpers have started: those serve,
    # the draw is split with them or serial, and the failed helper's socket pair is closed
    fork, socketpair, pairs = os.fork, socket.socketpair, []

    def recorded_socketpair(*args):
        pairs.append(socketpair(*args))
        return pairs[-1]

    def failing_fork():
        if len(pairs) > forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(socket, "socketpair", recorded_socketpair)
    monkeypatch.setattr(os, "fork", failing_fork)
    pool = helper_pool(cpus)
    copies = range(1, 4 * INCREMENT_BLOCK + 1)
    np.testing.assert_array_equal(gaussian_increments(6, copies, 3, 2, 0.1), serial(6, copies, 3, 2, 0.1))
    assert len(pool.live) == forks and stream_processes() == 1 + forks and len(pairs) == forks + 1
    assert (pool.counts["helper_blocks"] > 0) == (forks > 0)
    ours = [helper.sock for helper in pool.live]  # the one socket per live helper left open
    others = [sock.fileno() for pair in pairs for sock in pair if not any(sock is s for s in ours)]
    assert others == [-1] * (forks + 2)  # closed


def test_draw_without_a_shared_file_is_serial_and_keeps_the_helpers(helper_pool, monkeypatch):
    # a draw of more than STEP_CHUNK copies needs a new generation, whose buffers may not be
    # mapped (out of maps or memory)
    pool = helper_pool(cpus=2)
    gaussian_increments(6, range(1, 2 * INCREMENT_BLOCK + 1), 3, 2, 0.1)
    [helper] = pool.live
    before = pool.counts["helper_blocks"]

    def out_of_memory(*args):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", out_of_memory)
    copies = range(1, STEP_CHUNK + 2 * INCREMENT_BLOCK + 1)
    z = gaussian_increments(6, copies, 3, 2, 0.1)
    np.testing.assert_array_equal(z, serial(6, copies, 3, 2, 0.1))
    assert pool.live == [helper] and stream_processes() == 2 and pool.counts["buffers_made"] == 2
    assert pool.counts["helper_blocks"] == before


def test_threads_drawing_at_once_get_their_own_streams(helper_pool):
    # three helpers on any host: more drawing processes than this host may have CPUs
    pool = helper_pool(cpus=4)
    cases = [(seed, range(seed, seed + 2 * INCREMENT_BLOCK + 37 * seed), 3, 1 + seed % 3, 0.1)
             for seed in range(1, 9)]
    results, errors = {}, []

    def worker(chunk):
        # outside the main thread every draw is serial, in the thread's own block,
        # and its then is ignored: no thread posts, joins or cancels a look-ahead
        try:
            for _ in range(3):
                for case, following in zip(chunk, chunk[1:] + chunk[:1]):
                    z = gaussian_increments(*case, then=following[:2])
                    results.setdefault(case[0], []).append(z)
        except Exception as exc:  # reported below, not lost with the thread
            errors.append(exc)

    # the main thread forks the helpers here, before the threads start, and posts a
    # look-ahead of the largest case, which the threads draw too but leave alone
    largest = max(cases, key=lambda case: len(case[1]) * case[3])
    gaussian_increments(*largest, then=largest[:2])
    live, counts, posted = list(pool.live), dict(pool.counts), pool.posted
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(cases[k::4],)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert pool.live == live and len(live) == min(3, increments.MAX_HELPERS)
    assert pool.counts == counts and pool.posted == posted  # nothing joined, cancelled or counted
    for case in cases:
        reference = serial(*case)
        assert len(results[case[0]]) == 3
        for z in results[case[0]]:
            np.testing.assert_array_equal(z, reference)
    np.testing.assert_array_equal(gaussian_increments(*largest), serial(*largest))  # the main thread joins it
    assert pool.counts["lookahead_joined"] == 1 and pool.counts["lookahead_cancelled"] == 0


@pytest.mark.parametrize("ending,cpus", [
    pytest.param("return", 2, id="return"), pytest.param("raise", 2, id="raise"),
    pytest.param("sigkill", 2, id="sigkill"),
    # three helpers: each closes only its own socket's caller end, so the helpers
    # forked later hold the earlier ones' ends and must exit first, one after the other
    pytest.param("sigkill", 4, id="sigkill-three_helpers")])
def test_no_helper_outlives_its_interpreter(ending, cpus):
    code = PRELUDE.replace("{0, 1}", repr(set(range(cpus)))) + textwrap.dedent("""
        print(json.dumps([h.pid for h in increments._HELPERS.live]), flush=True)
        sys.stdin.read()  # until the test has seen the helper run, then closes stdin or kills this process
        if sys.argv[1] == "raise":
            raise RuntimeError("the script fails after its draw")
    """)
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code, ending], env=script_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    pids = json.loads(proc.stdout.readline())
    assert len(pids) == cpus - 1 and all(running(pid) for pid in pids)
    if ending == "sigkill":
        proc.send_signal(signal.SIGKILL)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == {"return": 0, "raise": 1, "sigkill": -signal.SIGKILL}[ending]
    assert "ResourceWarning" not in stderr
    if ending != "sigkill":  # shut down through atexit: reaped before the exit
        assert not any(running(pid) for pid in pids)
        return
    deadline = time.monotonic() + 30  # the sockets closed with the process: the helpers exit
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(running(pid) for pid in pids)


def test_forked_child_starts_its_own_helpers():
    code = PRELUDE + textwrap.dedent("""
        def helpers():
            return [(h.pid, os.fstat(h.sock.fileno()).st_ino) for h in increments._HELPERS.live]

        def same_socket(fd, inode):
            try:
                return os.fstat(fd).st_ino == inode
            except OSError:
                return False

        parent = helpers()
        fds = [h.sock.fileno() for h in increments._HELPERS.live]
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            inherited = [same_socket(fd, ino) for fd, (_, ino) in zip(fds, parent)]
            z = gaussian_increments(8, COPIES, 5, 2, 0.1)
            result = {"inherited": inherited, "helpers": helpers(),
                      "equal": bool((z == first).all()), "processes": stream_processes()}
            with os.fdopen(write_end, "w") as out:
                json.dump(result, out)
        else:
            os.close(write_end)
            with os.fdopen(read_end) as inp:
                child = json.load(inp)
            _, status = os.waitpid(pid, 0)
            z = gaussian_increments(8, COPIES, 5, 2, 0.1)
            print(json.dumps({"parent": parent, "child": child, "child_status": status,
                              "equal_after": bool((z == first).all()),
                              "processes_after": stream_processes(), "helpers_after": helpers()}))
    """)
    proc = run_script(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    parent, child = out["parent"], out["child"]
    assert out["child_status"] == 0
    assert len(parent) == 1 and len(child["helpers"]) == 1
    assert child["inherited"] == [False]  # the child closed its copy of the parent's socket
    assert {pid for pid, _ in child["helpers"]}.isdisjoint(pid for pid, _ in parent)
    assert {ino for _, ino in child["helpers"]}.isdisjoint(ino for _, ino in parent)
    assert child["equal"] and child["processes"] == 2
    assert out["equal_after"] and out["processes_after"] == 2 and out["helpers_after"] == parent


# The look-ahead: a draw names the (seed, copies) of the draw that follows it.
A = (8, range(1, 3 * INCREMENT_BLOCK + 1))
B = (9, range(1, 4 * INCREMENT_BLOCK + 1))
C = (10, range(1, 2 * INCREMENT_BLOCK + 7))
LARGE = (12, range(1, STEP_CHUNK + INCREMENT_BLOCK + 1))  # more copies than a first generation's buffers hold


def increments_of(request, then=None):
    seed, copies = request
    return gaussian_increments(seed, copies, 5, 2, 0.1, then)


def test_a_matched_look_ahead_is_joined(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=2)
    np.testing.assert_array_equal(increments_of(A, then=B), serial(*A, 5, 2, 0.1))
    assert pool.posted[:2] == B
    np.testing.assert_array_equal(increments_of(B), serial(*B, 5, 2, 0.1))
    assert pool.posted is None
    assert pool.counts["lookahead_joined"] == 1 and pool.counts["lookahead_cancelled"] == 0
    assert pool.counts["helper_blocks"] >= 2  # the front half of B's blocks at least
    assert len(pool.live) == 1


def test_any_other_draw_cancels_the_look_ahead(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=2)
    increments_of(A, then=B)
    # a plain draw of another request cancels the posted one, and gets the helpers
    before = pool.counts["helper_blocks"]
    np.testing.assert_array_equal(increments_of(C), serial(*C, 5, 2, 0.1))
    assert pool.posted is None and pool.counts["lookahead_cancelled"] == 1
    assert pool.counts["helper_blocks"] > before
    # so does a draw that names a following request of its own
    increments_of(A, then=B)
    np.testing.assert_array_equal(increments_of(A, then=C), serial(*A, 5, 2, 0.1))
    assert pool.counts["lookahead_cancelled"] == 2
    assert pool.posted[:2] == C
    np.testing.assert_array_equal(increments_of(C), serial(*C, 5, 2, 0.1))
    np.testing.assert_array_equal(increments_of(B), serial(*B, 5, 2, 0.1))
    assert pool.counts["lookahead_joined"] == 1 and pool.counts["lookahead_cancelled"] == 2
    assert pool.posted is None and len(pool.live) == 1


def test_a_look_ahead_abandoned_by_an_exception_is_ended_by_the_next_draw(helper_pool, caller_draws_half,
                                                                         monkeypatch):
    pool = helper_pool(cpus=2)
    simulate = harness.dynamics.simulate_ensemble
    units = []

    def second_unit_fails(*args, **kwargs):
        units.append(kwargs["next_ensemble"])
        ens = simulate(*args, **kwargs)
        if len(units) == 2:
            raise KeyboardInterrupt  # after this unit posted the next one's draw
        return ens

    monkeypatch.setattr(harness.dynamics, "simulate_ensemble", second_unit_fails)
    config = harness.ExperimentConfig(
        label="abandoned", model_kind="ou", model_params={"theta": 1.0, "sigma": 0.5},
        x0=np.array([0.0]), mf_kind="constant_interval", mf_params={}, horizon=1.0, steps=5,
        n_grid=[2 * INCREMENT_BLOCK], replications=4, seed=3, j_indices=[5])
    with pytest.raises(KeyboardInterrupt):
        harness.run_experiment(config)
    # the raise leaves the third unit's draw posted, and its helper running
    n_copies, seed = units[-1]
    abandoned = (seed, range(1, n_copies + 1), 5, 1, 0.2)
    assert pool.counts["lookahead_joined"] == 1 and pool.counts["lookahead_cancelled"] == 0
    assert pool.posted[:2] == abandoned[:2]
    [helper] = pool.live
    assert helper.poll() is None
    other = (seed + 1, *abandoned[1:])  # the run's shape: the same generation
    before = pool.counts["helper_blocks"]
    np.testing.assert_array_equal(gaussian_increments(*other), serial(*other))
    assert pool.counts["lookahead_cancelled"] == 1 and pool.posted is None
    assert pool.counts["helper_blocks"] > before and pool.live == [helper]
    assert pool.counts["buffers_made"] == 2


@pytest.mark.parametrize("largest", [2 * INCREMENT_BLOCK, 2 * INCREMENT_BLOCK - 1])
def test_helpers_take_part_in_a_runs_first_split_draw(helper_pool, caller_draws_half, monkeypatch, largest):
    pool = helper_pool(cpus=2)
    simulate = harness.dynamics.simulate_ensemble
    helper_blocks = []

    def recorded(*args, **kwargs):
        ens = simulate(*args, **kwargs)
        helper_blocks.append(pool.counts["helper_blocks"])
        return ens

    monkeypatch.setattr(harness.dynamics, "simulate_ensemble", recorded)
    config = harness.ExperimentConfig(
        label="start", model_kind="ou", model_params={"theta": 1.0, "sigma": 0.5},
        x0=np.array([0.0]), mf_kind="constant_interval", mf_params={}, horizon=1.0, steps=5,
        n_grid=[10, largest], replications=2, seed=3, j_indices=[5])
    harness.run_experiment(config)
    assert len(helper_blocks) == 4
    if largest >= 2 * INCREMENT_BLOCK:
        # the second unit posts the third's draw, the run's first split, which the third joins
        assert helper_blocks[:2] == [0, 0] and helper_blocks[2] > 0
        assert len(pool.live) == 1
    else:
        assert helper_blocks == [0] * 4 and pool.buffers == [] and pool.live == []


def test_helper_killed_mid_look_ahead_leaves_the_bytes(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=2)
    big = (11, range(1, 200 * INCREMENT_BLOCK + 1))  # long enough to kill the helper inside it
    increments_of(A, then=big)
    [helper] = pool.live
    ctl = pool.draws[0].ctl  # the posted draw's control words
    deadline = time.monotonic() + 60
    while ctl[0, 0] == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    os.kill(helper.pid, signal.SIGKILL)
    helper.wait()
    assert 0 < ctl[0, 0] < ctl[0, 1]  # killed with blocks drawn and blocks left
    np.testing.assert_array_equal(increments_of(big), serial(*big, 5, 2, 0.1))
    assert pool.live == [] and pool.posted is None and stream_processes() == 1
    np.testing.assert_array_equal(increments_of(A, then=B), serial(*A, 5, 2, 0.1))
    assert pool.posted is None


def test_helper_killed_mid_look_ahead_is_reaped_by_the_draw_that_ends_it(helper_pool):
    pool = helper_pool(cpus=2)
    big = (11, range(1, 200 * INCREMENT_BLOCK + 1))  # long enough to kill the helper inside it
    np.testing.assert_array_equal(increments_of(A, then=big), serial(*A, 5, 2, 0.1))
    [helper] = pool.live
    ctl = pool.draws[0].ctl  # the posted draw's control words
    deadline = time.monotonic() + 60
    while ctl[0, 0] == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    os.kill(helper.pid, signal.SIGKILL)
    while running(helper.pid) and time.monotonic() < deadline:  # dead, not yet reaped
        time.sleep(0.001)
    assert 0 < ctl[0, 0] < ctl[0, 1]  # killed with blocks drawn and blocks left
    # a draw of another request, too small to post, ends the look-ahead unjoined: no reply, so
    # the helper is stopped and reaped there
    small = (10, range(1, INCREMENT_BLOCK + 1))
    np.testing.assert_array_equal(increments_of(small), serial(*small, 5, 2, 0.1))
    assert helper.returncode == -signal.SIGKILL and pool.live == [] and pool.posted is None
    assert pool.counts["lookahead_cancelled"] == 1 and pool.counts["lookahead_joined"] == 0
    assert stream_processes() == 1


# The queue: a split draw queues its look-ahead behind itself before the caller draws its part.
@pytest.mark.parametrize("next_ensemble,queued", [(None, 2), ((600, 5), 3)])
def test_a_three_chunk_unit_queues_every_chunk_after_its_first(helper_pool, next_ensemble, queued):
    pool = helper_pool(cpus=2)
    model = harness.dynamics.make_model("ou", 1, [0.0], theta=1.0, sigma=0.5)
    mf = harness.dynamics.constant_body(Interval(-1.0, 1.0))
    grid = harness.dynamics.TimeGrid(1.0, 5)
    harness.dynamics.simulate_ensemble(model, mf, grid, 3 * STEP_CHUNK, 4, next_ensemble=next_ensemble)
    assert pool.counts["lookahead_queued"] == queued and pool.counts["lookahead_joined"] == 2
    assert pool.counts["buffers_made"] == 2 and len(pool.draws) == queued - 2


def test_the_look_ahead_is_posted_before_the_caller_draws(helper_pool, monkeypatch):
    # what is posted whenever the caller starts drawing: its own draw's back-fill or a serial draw
    pool = helper_pool(cpus=2)
    caller_fill, seen = pool.caller_fill, []

    def recorded(*args):
        seen.append([draw.request[:2] for draw in pool.draws])
        caller_fill(*args)

    monkeypatch.setattr(pool, "caller_fill", recorded)
    np.testing.assert_array_equal(increments_of(A, then=B), serial(*A, 5, 2, 0.1))
    np.testing.assert_array_equal(increments_of(B, then=C), serial(*B, 5, 2, 0.1))
    assert seen == [[A, B], [B, C]] and pool.posted[:2] == C
    assert pool.counts["lookahead_queued"] == 2 and pool.counts["lookahead_joined"] == 1
    # a draw too small to split ends C unjoined and posts its look-ahead before drawing alone;
    # that post is no queue
    small = (10, range(1, INCREMENT_BLOCK + 1))
    np.testing.assert_array_equal(increments_of(small, then=A), serial(*small, 5, 2, 0.1))
    assert seen[-1] == [A] and pool.counts["lookahead_cancelled"] == 1
    assert pool.posted[:2] == A and pool.counts["lookahead_queued"] == 2


def test_an_interrupted_back_fill_leaves_both_draws_for_the_next_to_end(helper_pool, monkeypatch):
    pool = helper_pool(cpus=2)
    np.testing.assert_array_equal(increments_of(C), serial(*C, 5, 2, 0.1))  # the helper has served
    behind = increments._behind

    def interrupted(ctl):
        yield from islice(behind(ctl), 1)
        raise KeyboardInterrupt  # a Ctrl-C between the caller's blocks

    monkeypatch.setattr(increments, "_behind", interrupted)
    with pytest.raises(KeyboardInterrupt):
        increments_of(A, then=B)
    monkeypatch.setattr(increments, "_behind", behind)
    assert [draw.request[:2] for draw in pool.draws] == [A, B] and pool.posted is None
    assert pool.live == []  # the raise stopped the helper
    counts = dict(pool.counts)
    np.testing.assert_array_equal(increments_of(C), serial(*C, 5, 2, 0.1))
    assert pool.counts["lookahead_cancelled"] - counts["lookahead_cancelled"] == 2
    assert pool.counts["lookahead_joined"] == counts["lookahead_joined"]
    assert pool.draws == [] and len(pool.live) == 1  # a new generation served C


def test_helper_killed_with_two_draws_out_leaves_both_to_the_caller(helper_pool, monkeypatch):
    pool = helper_pool(cpus=2)
    np.testing.assert_array_equal(increments_of(C), serial(*C, 5, 2, 0.1))
    [helper] = pool.live
    caller_fill, outstanding = pool.caller_fill, []

    def killing_fill(*args):
        if not outstanding:  # the back-fill of A, with B queued behind it
            outstanding.append(len(pool.draws))
            os.kill(helper.pid, signal.SIGKILL)
            helper.wait()
        caller_fill(*args)

    monkeypatch.setattr(pool, "caller_fill", killing_fill)
    np.testing.assert_array_equal(increments_of(A, then=B), serial(*A, 5, 2, 0.1))
    np.testing.assert_array_equal(increments_of(B), serial(*B, 5, 2, 0.1))
    assert outstanding == [2] and pool.live == [] and pool.draws == [] and stream_processes() == 1
    assert pool.counts["lookahead_joined"] == 1 and pool.counts["lookahead_cancelled"] == 0


def test_a_look_ahead_larger_than_the_buffers_is_posted_after_the_draw(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=2)
    np.testing.assert_array_equal(increments_of(C), serial(*C, 5, 2, 0.1))
    [old] = pool.live
    counts = dict(pool.counts)
    np.testing.assert_array_equal(increments_of(A, then=LARGE), serial(*A, 5, 2, 0.1))
    # the old helper drew A's front half, then LARGE's post started one new generation
    assert pool.counts["helper_blocks"] - counts["helper_blocks"] >= 1
    assert old.returncode == -signal.SIGKILL and len(pool.live) == 1
    assert pool.counts["buffers_made"] - counts["buffers_made"] == 2
    assert pool.counts["lookahead_queued"] == 0 and pool.posted[:2] == LARGE
    np.testing.assert_array_equal(increments_of(LARGE), serial(*LARGE, 5, 2, 0.1))
    assert pool.counts["lookahead_joined"] == 1 and pool.counts["buffers_made"] - counts["buffers_made"] == 2


def test_one_cpu_look_ahead_is_a_no_op(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=1)
    np.testing.assert_array_equal(increments_of(A, then=B), serial(*A, 5, 2, 0.1))
    assert pool.posted is None and pool.live == []
    np.testing.assert_array_equal(increments_of(B), serial(*B, 5, 2, 0.1))
    assert pool.counts["lookahead_joined"] == 0 and pool.counts["helper_blocks"] == 0


def shared_maps(pid="self") -> set[str]:
    """The inodes of a process's anonymous shared mappings, as the increment buffers are."""
    lines = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return {line.split()[4] for line in lines if line.endswith("/dev/zero (deleted)")}


def test_no_buffer_or_helper_outlives_close(helper_pool, caller_draws_half):
    before = shared_maps()  # other pools' buffers, as the session's own
    pool = helper_pool(cpus=2)
    z = increments_of(A, then=LARGE)  # its look-ahead starts a second generation
    pids = [helper.pid for helper in pool.live]
    assert len(pids) == 1 and len(shared_maps() - before) == 1 + 2  # z's buffer and the new two
    del z
    pool.close()
    assert shared_maps() <= before
    assert not any(running(pid) for pid in pids)
    assert pool.counts["lookahead_cancelled"] == 1


# The shared buffers: two per generation, reused along a sequence of draws.
def test_a_sequence_of_draws_reuses_two_buffers(helper_pool, caller_draws_half):
    # the first draw's buffers hold STEP_CHUNK copies, so every later draw reuses them
    before = shared_maps()
    pool = helper_pool(cpus=2)
    for request, following in [(B, C), (C, A), (A, B), (B, A), (A, None)]:
        np.testing.assert_array_equal(increments_of(request, then=following), serial(*request, 5, 2, 0.1))
    assert pool.counts["buffers_made"] == 2 and pool.counts["lookahead_joined"] == 4
    assert pool.counts["helper_blocks"] >= 2 * 5  # the front half of each draw at least
    # both stay mapped, here and in the helper, until close
    [helper] = pool.live
    mine = shared_maps() - before
    assert len(mine) == 2 and mine <= shared_maps(helper.pid)
    pool.close()
    assert shared_maps() <= before


def test_a_held_array_is_never_written_again(helper_pool, caller_draws_half):
    # every array is kept: A's and B's fill the first generation's two buffers, so C's
    # look-ahead finds no free buffer and starts a second generation, which A's then shares
    before = shared_maps()
    pool = helper_pool(cpus=2)
    sequence = [(A, B), (B, C), (C, A), (A, None)]
    held = [increments_of(request, then=following) for request, following in sequence]
    assert pool.counts["buffers_made"] == 2 * 2
    for (request, _), z in zip(sequence, held):
        np.testing.assert_array_equal(z, serial(*request, 5, 2, 0.1))
    del z, held
    # only the last generation's two buffers are left, and its helper maps both
    [helper] = pool.live
    mine = shared_maps() - before
    assert len(mine) == 2 and mine <= shared_maps(helper.pid)


def test_a_multi_unit_run_makes_at_most_two_buffers(helper_pool):
    # units of 600 copies, then of three chunks (4096, 4096 and 3 copies); each
    # unit's last chunk posts the next unit's first chunk, which that unit joins
    before = shared_maps()
    pool = helper_pool(cpus=2)
    config = harness.ExperimentConfig(
        label="chunks", model_kind="ou", model_params={"theta": 1.0, "sigma": 0.5},
        x0=np.array([0.0]), mf_kind="constant_interval", mf_params={}, horizon=1.0, steps=5,
        n_grid=[600, 2 * harness.dynamics.STEP_CHUNK + 3], replications=2, seed=3, j_indices=[5])
    stream = harness.run_experiment(config).meta["stream"]
    assert stream["lookahead_cancelled"] == 0
    # 600 copies at replication 1, then two chunks in each of the two large units
    assert stream["lookahead_joined"] == 1 + 2 + 2
    # one generation: the 600-copy draw's two buffers hold a full chunk
    assert stream["buffers_made"] == 2
    assert len(shared_maps() - before) == 2
    pool.close()
    assert shared_maps() <= before


def test_a_larger_draw_starts_a_generation():
    # new helpers on two new buffers; the old helpers are killed and reaped, an
    # array held on an old buffer keeps its bytes, and with no buffers to be
    # had the draw is serial and the generation stays
    code = PRELUDE + textwrap.dedent("""
        import mmap
        import numpy as np

        def serial(seed, copies):
            z = np.empty((5, 2, len(copies)))
            increments.fill(z, seed, copies, float(np.sqrt(0.1)))
            return z.transpose(2, 0, 1)

        held = gaussian_increments(8, COPIES, 5, 2, 0.1)  # on a first-generation buffer
        old = list(increments._HELPERS.live)
        larger = range(1, increments.STEP_CHUNK + 256 + 1)  # more than its buffers hold
        z = gaussian_increments(9, larger, 5, 2, 0.1)
        new = list(increments._HELPERS.live)
        held_on_old = isinstance(held.base.base, mmap.mmap) and held.base.base not in increments._HELPERS.buffers

        def out_of_memory(*args):
            raise OSError(12, "Cannot allocate memory")

        mmap.mmap = out_of_memory
        largest = range(1, 2 * increments.STEP_CHUNK + 1)
        w = gaussian_increments(10, largest, 5, 2, 0.1)
        print(json.dumps({
            "old": [(h.pid, h.returncode, os.path.exists(f"/proc/{h.pid}")) for h in old],
            "new": [h.pid for h in new],
            "live": [h.pid for h in increments._HELPERS.live], "processes": stream_processes(),
            "held_on_old": held_on_old,
            "held": bool((held == first).all()), "larger": bool((z == serial(9, larger)).all()),
            "largest": bool((w == serial(10, largest)).all()),
            "buffers_made": increments.stream_counters()["buffers_made"]}))
    """)
    proc = run_script(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    [(old_pid, old_status, old_left)] = out["old"]
    assert old_status == -signal.SIGKILL and not old_left  # reaped, no zombie
    assert len(out["new"]) == 1 and out["new"] != [old_pid] and out["live"] == out["new"]
    assert out["processes"] == 2 and out["buffers_made"] == 2 * 2
    assert out["held_on_old"] and out["held"] and out["larger"] and out["largest"]


@pytest.mark.parametrize("ended", ["stop", "waitpid"])
def test_a_helper_stopped_alone_and_close_reap_every_helper_killed(helper_pool, monkeypatch, ended):
    # "waitpid": the test kills and reaps the first helper itself, as other code of the process
    # may; its status is then lost (returncode 0) and its pid may be another process's by now,
    # so neither its stop() nor close() sends it a kill
    pool = helper_pool(cpus=4)
    copies = range(1, 3 * INCREMENT_BLOCK + 1)
    np.testing.assert_array_equal(gaussian_increments(8, copies, 5, 2, 0.1), serial(8, copies, 5, 2, 0.1))
    helpers = list(pool.live)
    assert len(helpers) == 3
    kill, killed = os.kill, []
    monkeypatch.setattr(os, "kill", lambda pid, sig: (killed.append(pid), kill(pid, sig)))
    if ended == "waitpid":
        kill(helpers[0].pid, signal.SIGKILL)
        os.waitpid(helpers[0].pid, 0)
    first = {"stop": -signal.SIGKILL, "waitpid": 0}[ended]
    helpers[0].stop()
    assert helpers[0].returncode == first and [helper.poll() for helper in helpers[1:]] == [None, None]
    pool.close()
    assert [helper.returncode for helper in helpers] == [first] + [-signal.SIGKILL] * 2
    assert killed == [helper.pid for helper in helpers[ended == "waitpid":]]
    assert not any(Path(f"/proc/{helper.pid}").exists() for helper in helpers)  # reaped, no zombie


def test_the_fork_warning_of_a_threaded_process_is_no_error(helper_pool, caller_draws_half, monkeypatch):
    # Python 3.12+ warns in the parent after fork() when the process has other
    # threads, as numpy's BLAS pool; raised as an error (warnings are errors
    # here), it would lose the pid of a child that already runs
    fork, pids = os.fork, []

    def warning_fork():
        pid = fork()
        if pid:
            pids.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    pool = helper_pool(cpus=2)
    copies = range(1, 4 * INCREMENT_BLOCK + 1)
    np.testing.assert_array_equal(gaussian_increments(8, copies, 5, 2, 0.1), serial(8, copies, 5, 2, 0.1))
    [helper] = pool.live
    assert pids == [helper.pid] and pool.counts["helper_blocks"] >= 2  # the front half at least
    pool.close()
    assert helper.returncode == -signal.SIGKILL
    assert not Path(f"/proc/{helper.pid}").exists()  # reaped, no zombie


def test_a_helper_ignores_sigint(helper_pool, caller_draws_half):
    # a terminal's Ctrl-C reaches the whole process group; it is the caller's to act on
    pool = helper_pool(cpus=2)
    copies = range(1, 4 * INCREMENT_BLOCK + 1)
    gaussian_increments(5, copies, 3, 2, 0.1)
    [helper] = pool.live
    os.kill(helper.pid, signal.SIGINT)
    before = pool.counts["helper_blocks"]
    np.testing.assert_array_equal(gaussian_increments(5, copies, 3, 2, 0.1), serial(5, copies, 3, 2, 0.1))
    assert pool.counts["helper_blocks"] - before >= 2  # the front half at least
    assert pool.live == [helper] and helper.poll() is None


def test_text_buffered_before_the_fork_is_written_once():
    # a piped stdout is block-buffered: a helper that flushed its copy of the
    # buffer, at its exit or on a return into the script, would write it again
    code = 'print("written before the helper starts")\n' + PRELUDE + "assert stream_processes() == 2\n"
    proc = run_script(code)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("written before the helper starts\n", "")


def test_forked_child_drops_the_look_ahead_and_the_parent_joins_it():
    # the parent's caller draws nothing from the back, so its helper must draw
    # every block of the posted draw: a child that wrote its control words
    # (claiming blocks) would leave some undrawn
    code = PRELUDE + textwrap.dedent("""
        import numpy as np
        increments._behind = lambda ctl: iter(())
        B = (9, range(1, 4 * 256 + 1))
        gaussian_increments(8, COPIES, 5, 2, 0.1, then=B)
        posted = increments._HELPERS.posted[:2]
        reference = np.empty((5, 2, len(B[1])))
        increments.fill(reference, *B, float(np.sqrt(0.1)))
        reference = reference.transpose(2, 0, 1)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            z = gaussian_increments(*B, 5, 2, 0.1)
            result = {"posted": increments._HELPERS.posted,
                      "joined": increments._HELPERS.counts["lookahead_joined"],
                      "equal": bool((z == reference).all())}
            with os.fdopen(write_end, "w") as out:
                json.dump(result, out)
        else:
            os.close(write_end)
            with os.fdopen(read_end) as inp:
                child = json.load(inp)
            _, status = os.waitpid(pid, 0)
            z = gaussian_increments(*B, 5, 2, 0.1)
            print(json.dumps({"child": child, "child_status": status, "posted": str(posted),
                              "joined": increments._HELPERS.counts["lookahead_joined"],
                              "equal": bool((z == reference).all())}))
    """)
    proc = run_script(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["child_status"] == 0
    assert out["posted"] == str((9, range(1, 4 * INCREMENT_BLOCK + 1)))
    assert out["child"] == {"posted": None, "joined": 0, "equal": True}
    assert out["joined"] == 1 and out["equal"]


# The block re-key: every row of a thread's draw block has its own philox_state,
# which fill keys with array writes before one C call per copy.
def public(seed, copies, n, m):
    """Copies' (n, m) draws from Generator(Philox(key=[seed, i mod 2**64])), copy-last."""
    return np.stack([np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, i % 2**64], dtype=np.uint64)))
                     .standard_normal((n, m)) for i in copies], axis=-1)


def row_state(args):
    """What the C fill reads through one row's arguments: the philox_state its bitgen_t points at."""
    bitgen = increments._read(args[0].value, increments._BITGEN)
    state = increments._read(int(bitgen["state"]), increments._PHILOX_STATE)
    return {"counter": np.frombuffer(ctypes.string_at(int(state["ctr"]), 32), np.uint64).tolist(),
            "key": np.frombuffer(ctypes.string_at(int(state["key"]), 16), np.uint64).tolist(),
            "buffer_pos": int(state["buffer_pos"]), "has_uint32": int(state["has_uint32"])}


@pytest.mark.parametrize("copy", [0, 2**63, 2**64 - 1])
def test_in_place_re_key_agrees_with_the_state_getter(copy, undrawn_threads):
    seed = 2**64 - 5
    increments.fill(np.empty((3, 2, 5)), 11, range(copy, copy + 5), 1.0)  # the counters and buffers move on
    gen = increments._THREAD.generator
    gen.rekey(seed, copy, 1, 2)
    for r in range(2):
        state = np.random.Philox(key=np.array([seed, (copy + r) % 2**64], dtype=np.uint64)).state
        assert row_state(gen.args[r]) == {"counter": state["state"]["counter"].tolist(),
                                          "key": state["state"]["key"].tolist(),
                                          "buffer_pos": state["buffer_pos"], "has_uint32": state["has_uint32"]}
    assert row_state(gen.args[2])["key"] == [11, (copy + 2) % 2**64]  # rows past the re-keyed ones are left alone
    increments._normal_fill(*gen.args[0])
    np.testing.assert_array_equal(gen.block[0], public(seed, [copy], 3, 2)[..., 0])
    z = np.empty((3, 2, 1))
    increments.fill(z, seed, range(copy, copy + 1), 1.0)
    np.testing.assert_array_equal(z, public(seed, [copy], 3, 2))


RE_KEY_CASES = {
    # name: (fills made before, seed, copies, n, m, the ctl words whose _behind order gives the blocks)
    "crossing_2**64": ([], 2**64 - 1, range(2**64 - INCREMENT_BLOCK - 40, 2**64 + 30), 3, 2, None),
    "partial_last_block": ([], 9, range(3, 3 + 2 * INCREMENT_BLOCK + 17), 2, 3, None),
    "back_to_front": ([], 9, range(5, 5 + 2 * (3 * INCREMENT_BLOCK + 11), 2), 2, 1, [[0, 2], [2, 4]]),
    "after_another_fill": ([(123, range(2**63, 2**63 + 40), 5, 1)], 4, range(1, INCREMENT_BLOCK + 3), 3, 2, None),
}


@pytest.mark.parametrize("case", sorted(RE_KEY_CASES))
def test_block_re_key_equals_the_public_stream(case, undrawn_threads):
    before, seed, copies, n, m, ctl = RE_KEY_CASES[case]
    for other_seed, other_copies, other_n, other_m in before:
        increments.fill(np.empty((other_n, other_m, len(other_copies))), other_seed, other_copies, 2.0)
    blocks = None if ctl is None else list(increments._behind(np.array(ctl)))
    assert blocks is None or sorted(blocks) == list(range(4)) != blocks
    z = np.full((n, m, len(copies)), np.nan)
    increments.fill(z, seed, copies, 1.0, blocks)
    np.testing.assert_array_equal(z, public(seed, copies, n, m))


def test_an_empty_range_draws_nothing(undrawn_threads):
    # the block is built even then, keyed by (n, m): its build draws one copy to check the layout
    z = np.empty((3, 2, 0))
    increments.fill(z, 5, range(7, 7), 1.0)
    gen = increments._THREAD.generator
    assert gen.shape == (3, 2) and gen.block.shape == (INCREMENT_BLOCK, 3, 2)


def test_a_helpers_share_equals_the_public_stream(helper_pool, caller_draws_half):
    pool = helper_pool(cpus=2)
    seed, copies = 2**64 - 7, range(2**64 - 2 * INCREMENT_BLOCK, 2**64 + 2 * INCREMENT_BLOCK + 9)
    z = gaussian_increments(seed, copies, 3, 2, 0.25)
    assert pool.counts["helper_blocks"] >= 2
    np.testing.assert_array_equal(z.transpose(1, 2, 0), 0.5 * public(seed, copies, 3, 2))


def test_two_draws_in_one_thread_build_one_generator(monkeypatch, undrawn_threads):
    # the thread's generator, its block and the block's row pointers outlive a
    # draw; a draw of another shape rebuilds the block only, another thread builds its own
    philox, built = np.random.Philox, []

    def recorded_philox(*args, **kwargs):
        built.append(philox(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "Philox", recorded_philox)
    cases = [(5, range(1, INCREMENT_BLOCK + 40), 6, 2), (9, range(3, 50), 6, 2), (2**64 - 1, range(7, 9), 3, 3)]
    drawn = [(case, gaussian_increments(*case, 0.1)) for case in cases]
    assert len(built) == 1
    other = threading.Thread(target=lambda: drawn.append((cases[1], gaussian_increments(*cases[1], 0.1))))
    other.start()
    other.join()
    assert len(built) == 2 and built[0] is not built[1]
    for (seed, copies, n, m), z in drawn:
        for k, i in enumerate(copies):
            fresh = np.random.Generator(philox(key=np.array([seed, i], dtype=np.uint64)))
            np.testing.assert_array_equal(z[k], fresh.standard_normal((n, m)) * np.sqrt(0.1))


def test_normal_fill_gets_ctypes_instances_of_its_c_types(monkeypatch, undrawn_threads):
    # _normal_fill declares no argtypes, so ctypes passes what it is given as
    # it is: a plain int count would reach C as an int, not an npy_intp
    n, m = 4, 3
    copies = range(5, 5 + INCREMENT_BLOCK + 9)  # a full block and a part one
    philox, built, calls = np.random.Philox, [], []

    def recorded_philox(*args, **kwargs):
        built.append(philox(*args, **kwargs))
        return built[-1]

    def recorded_fill(*args):
        calls.append(args)
        copy = float(row_state(args)["key"][1])
        (ctypes.c_double * (n * m)).from_address(args[2].value)[:] = [copy] * (n * m)

    monkeypatch.setattr(np.random, "Philox", recorded_philox)
    increments.fill(np.empty((n, m, INCREMENT_BLOCK)), 1, range(INCREMENT_BLOCK), 1.0)  # built with the C fill
    gen = increments._THREAD.generator
    monkeypatch.setattr(increments, "_normal_fill", recorded_fill)
    z = np.empty((n, m, len(copies)))
    increments.fill(z, 7, copies, 0.5)
    assert len(built) == 1 and len(calls) == len(copies)
    assert {tuple(map(type, args)) for args in calls} == {(ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)}
    assert {args[1].value for args in calls} == {n * m}
    # copy k draws on row r = k % INCREMENT_BLOCK: bitgen_t r of the block's rows and row r of the
    # (INCREMENT_BLOCK, n, m) block
    rows = [k % INCREMENT_BLOCK for k in range(len(copies))]
    assert [args[0].value for args in calls] == [gen.bitgens.ctypes.data + increments._BITGEN.itemsize * r
                                                 for r in rows]
    assert [args[2].value for args in calls] == [gen.block.ctypes.data + 8 * n * m * r for r in rows]
    # every row's bitgen_t points at its own state and lends the functions of the thread's Philox
    lent = increments._read(built[0].ctypes.bit_generator.value, increments._BITGEN)
    bitgens = [increments._read(args[0].value, increments._BITGEN) for args in calls[:INCREMENT_BLOCK]]
    assert len({int(bitgen["state"]) for bitgen in bitgens}) == INCREMENT_BLOCK
    assert all(bitgen[name] == lent[name] for bitgen in bitgens for name in increments._BITGEN.names[1:])
    # and each copy's row is scaled into its copy's column
    np.testing.assert_array_equal(z, np.broadcast_to(0.5 * np.array(copies, dtype=float), z.shape))


def moved(dtype, field, offset):
    """dtype with field at offset and every other field where it was."""
    names = list(dtype.names)
    return np.dtype({"names": names, "formats": [dtype.fields[name][0] for name in names],
                     "offsets": [offset if name == field else dtype.fields[name][1] for name in names],
                     "itemsize": dtype.itemsize})


# Ways the layout check can disagree with numpy: buffer_pos read inside
# buffer[0], buffer read from buffer_pos on, bitgen_t's state pointer read
# from its second word, and a Philox object placed elsewhere than the counter
# and key pointers point.
LAYOUT_FAULTS = {
    "buffer_pos_offset": lambda monkeypatch: monkeypatch.setattr(
        increments, "_PHILOX_STATE", moved(increments._PHILOX_STATE, "buffer_pos", 24)),
    "buffer_offset": lambda monkeypatch: monkeypatch.setattr(
        increments, "_PHILOX_STATE", moved(increments._PHILOX_STATE, "buffer", 16)),
    "bitgen_state_word": lambda monkeypatch: monkeypatch.setattr(
        increments, "_BITGEN", moved(increments._BITGEN, "state", 8)),
    "object_address": lambda monkeypatch: monkeypatch.setattr(increments, "id", lambda obj: 0, raising=False),
}


@pytest.mark.parametrize("fault", sorted(LAYOUT_FAULTS))
@pytest.mark.parametrize("cpus", [1, 2])
def test_layout_mismatch_raises_one_line_before_any_write(helper_pool, monkeypatch, cpus, fault):
    pool = helper_pool(cpus)
    copies = range(1, 2 * INCREMENT_BLOCK + 1)
    gaussian_increments(3, copies, 4, 2, 0.2)
    pids = [helper.pid for helper in pool.live]
    assert len(pids) == cpus - 1
    monkeypatch.setattr(increments, "_THREAD", threading.local())  # the next fill builds its generator
    philox, built, drawn = np.random.Philox, [], []

    def recorded_philox(*args, **kwargs):
        built.append(philox(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "Philox", recorded_philox)
    monkeypatch.setattr(increments, "_normal_fill", lambda *args: drawn.append(args))
    LAYOUT_FAULTS[fault](monkeypatch)
    with pytest.raises(RuntimeError) as caught:
        gaussian_increments(3, copies, 4, 2, 0.2)
    message = str(caught.value)
    assert "\n" not in message and f"numpy {np.__version__}" in message
    assert drawn == [] and len(built) == 1
    state = built[0].state  # as built: the fixed key (0, 0), counter zero, buffer spent
    assert state["state"]["key"].tolist() == [0, 0] and state["state"]["counter"].tolist() == [0, 0, 0, 0]
    assert state["buffer"].tolist() == [0, 0, 0, 0] and state["buffer_pos"] == 4
    assert pool.live == [] and stream_processes() == 1
    assert not any(running(pid) for pid in pids)


def test_layout_mismatch_exits_2_with_one_line(tmp_path):
    from test_harness import CONFIG_TEXT

    config = tmp_path / "exp.cfg"
    config.write_text(CONFIG_TEXT)
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        import pytest
        from hullsim import cli
        from test_increments import LAYOUT_FAULTS
        LAYOUT_FAULTS[sys.argv[1]](pytest.MonkeyPatch())
        sys.exit(cli.main(sys.argv[2:]))
    """)
    for fault in sorted(LAYOUT_FAULTS):
        proc = run_script(code, fault, "run", "--config", str(config), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, (fault, proc.stderr)
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"runtime error: the Philox state layout of numpy {np.__version__} ")
        assert not (tmp_path / "o").exists()
