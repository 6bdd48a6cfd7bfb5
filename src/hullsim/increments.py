"""The per-copy Philox increment stream, drawn by this process and helper processes.

Copy i's rows come from a Philox state keyed (seed, i) from counter zero, so
they depend on (seed, i) alone and any copy range can be drawn in any process,
at any time. Each thread keeps a copy-major draw block of INCREMENT_BLOCK
copies and one numpy philox_state and bitgen_t per block row, in arrays
built once per (n, m), whatever the seed, after checking numpy's struct
layout against a real Philox and its public Philox.state getter. fill
re-keys a whole block of rows with a few array writes and draws each copy's
normals with one call of numpy's exported C fill, the one
Generator.standard_normal calls, on its row's state. In the main thread,
draw splits a range of at least 2 * INCREMENT_BLOCK copies between the
calling process and its helper processes, all writing into one
coordinate-major (n, m, len(copies)) array in a shared buffer, which the
caller returns. The blocks of INCREMENT_BLOCK copies are cut into one
contiguous slice per helper; a helper draws its slice from the front and the
caller draws from the back, so the two meet where their speeds put them.

Only the main thread uses the helpers. A draw in any other thread is serial,
in that thread's own block, ignores then and is not counted in
stream_counters. So the helpers, their buffers, the posted draws and the
counters change only in the main thread, where the atexit handler and
KeyboardInterrupt also run, and no lock guards them.

A draw may name the request that will follow it (same n, m and scale), which
the helpers then draw while the caller works on the array just returned: a
look-ahead. A split draw queues that request behind itself, on the other
buffer, before the caller starts its own part, so each helper finds it in its
socket and goes from its slice of this draw straight to that one. A draw too
small to split posts it before drawing alone. When it cannot be queued (no
free buffer large enough, or no live helper), it is posted once this draw's
array is complete, as a draw of its own. The next draw of exactly that
request joins the posted draw: the caller draws from the back, as always, and
waits for every reply. Any other draw first ends the posted draw unjoined,
because the sequence it was made for has moved on: the caller takes every
block the helpers have not started, waits for their replies and frees the
array's buffer. So a posted draw that nothing joins, as one a raise left
behind, is ended by the next draw of another request or by close at exit,
and dropped unwritten in a forked child, whose parent still owns it. At most
two draws are posted at once, the one being joined and the one queued; a
raise inside a draw can leave both, for the next draw to end.

The helpers and two shared buffers make one generation. The buffers are
anonymous shared mappings (mmap.mmap(-1, nbytes)) made just before the
helpers are forked, so each helper inherits them and a request names its
buffer by index, with no descriptor. One holds the array the caller reads,
the other the one the look-ahead writes, and each process faults a buffer's
pages in once, not once per draw. A split draw takes a buffer that no array
views any more and that is large enough. With none, because the request is
larger or the caller holds arrays on both, a draw that is not queued starts
a new generation: two new buffers sized for the request, and for at least
STEP_CHUNK copies of its n and m, so a run of one shape makes one
generation; then the helpers stopped and new ones forked. Arrays on the old buffers keep their own mappings, also
in helpers forked while the caller held them, unused there until those
exit. The buffers live until the next generation, close or exit.

There is one helper per CPU of the affinity mask beyond the first, at most
MAX_HELPERS, forked from this process by the draw or look-ahead of at least
2 * INCREMENT_BLOCK copies that starts a generation, never on import. A
helper so starts with numpy and the C fill loaded, and takes its part of
that draw. It closes this process's end of its own socket, so it sees end
of file and exits once this process has gone; it ignores SIGINT and ends
through os._exit, so it never returns into this process's code, runs its
atexit handlers or flushes the stdio buffers it inherited. Helpers serve
until the next generation or the exit of the process that started them,
which stops each by killing it, closing its socket and reaping it; any
other child it forks drops them and their buffers and starts its own. The
draw is serial below 2 * INCREMENT_BLOCK copies, outside the main thread,
on a one-CPU mask, where os.fork is missing and when a new generation's
buffers cannot be made. The caller draws whatever a failed helper left, in
every draw posted to it, and uses that helper no more; the next generation
forks a full set. A generation whose helpers have all gone is followed by a
new one at the next split draw if one of its helpers ever replied, so helpers
that die before their first reply leave the draws serial for good, and no
fork loop is possible. Every path gives the same bytes.
"""

from __future__ import annotations

import atexit
import ctypes
import math
import mmap
import os
import pickle
import signal
import socket
import threading
import time
import warnings
import weakref

import numpy as np

_MASK64 = (1 << 64) - 1
INCREMENT_BLOCK = 256  # copies per copy-major draw block in fill
STEP_CHUNK = 16 * INCREMENT_BLOCK  # copies dynamics steps as one batch; a generation's buffers hold as many
MAX_HELPERS = 3  # helper processes at most, whatever the CPU count
# What stream_counters counts, summed over every draw of the main thread; the _s counters are seconds.
COUNTERS = ("blocks", "helper_blocks", "lookahead_joined", "lookahead_cancelled", "lookahead_queued",
            "buffers_made", "caller_draw_s", "helper_wait_s")
# Python 3.12+ warns in the parent on fork() while the process has other threads, numpy's BLAS
# pool among them. A helper takes no lock those threads may hold: it runs only its socket loop
# and fill, and ends through os._exit.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"
# numpy's philox_state (src/philox/philox.h) and bitgen_t (bitgen.h) as structured dtypes, for a
# 64-bit build. fill keeps one of each per block row; _check_layout holds both against a real Philox
# before a block's states are built.
_PHILOX_STATE = np.dtype({"names": ["ctr", "key", "buffer_pos", "buffer", "has_uint32", "uinteger"],
                          "formats": [np.uintp, np.uintp, np.intc, (np.uint64, 4), np.intc, np.uint32],
                          "offsets": [0, 8, 16, 24, 56, 60], "itemsize": 64})
_BITGEN = np.dtype({"names": ["state", "next_uint64", "next_uint32", "next_double", "next_raw"],
                    "formats": [np.uintp] * 5, "offsets": [0, 8, 16, 24, 32], "itemsize": 40})
# Set through the public Philox.state setter while the layout is checked: every word differs.
_PROBE_WORDS = [k * 0x0102030405060708 for k in range(1, 11)]
_PROBE = {"bit_generator": "Philox", "state": {"counter": _PROBE_WORDS[:4], "key": _PROBE_WORDS[4:6]},
          "buffer": _PROBE_WORDS[6:], "buffer_pos": 2, "has_uint32": 1, "uinteger": 0x89ABCDEF}
_CHECK_COPY = _MASK64  # the copy index the one-copy check draws under seed 0, its top bit set
# numpy's C distributions, loaded as numpy's own cffi example loads them. No argtypes: fill
# passes (bitgen_t *, npy_intp, double *) as prebuilt c_void_p, c_ssize_t and c_void_p instances,
# which ctypes hands to C as they are; through CDLL it still releases the GIL for each call.
_normal_fill = ctypes.CDLL(np.random._generator.__file__).random_standard_normal_fill
_normal_fill.restype = None


def fill(out: np.ndarray, seed: int, copies: range, scale: float, blocks=None) -> None:
    """Write copies' standard normals times scale into out, shape (n, m, len(copies)).

    Block b holds copies [b * INCREMENT_BLOCK, (b + 1) * INCREMENT_BLOCK) of
    the range; the blocks are drawn in the order blocks gives (by default
    every block, first to last). The calling thread's generator
    (_thread_generator, keyed by (n, m)) keeps one Philox state per row of
    its copy-major draw block, and a block of k copies re-keys rows [0, k)
    with a few array writes (_Generator.rekey): row r to (seed, i) for its
    copy i, from counter zero. Each copy then costs one call of numpy's exported
    random_standard_normal_fill on its row's state: the C function that
    Generator.standard_normal runs, called without the GIL, with the row's
    prebuilt ctypes arguments. The block is scaled into place. fill touches
    no pool state: the main thread times its own calls (_Helpers.caller_fill).
    """
    n, m = out.shape[:2]
    gen = _thread_generator(n, m)
    block, args = gen.block, gen.args
    for b in range(_block_count(len(copies))) if blocks is None else blocks:
        start = b * INCREMENT_BLOCK
        k = min(INCREMENT_BLOCK, len(copies) - start)
        gen.rekey(seed, copies[start], copies.step, k)
        for row in args[:k]:
            _normal_fill(*row)
        np.multiply(block[:k].transpose(1, 2, 0), scale, out=out[..., start:start + k])


class _Generator:
    """One thread's copy-major (INCREMENT_BLOCK, n, m) draw block and one Philox state per row.

    bit_gen is a real Philox with the fixed key (0, 0), never drawn from:
    its bitgen_t lends every row's bitgen_t its four function pointers, and
    _check_layout holds the dtypes against it. Row r has its key keys[r] and
    counter ctrs[r], its philox_state states[r], which points at both, its
    bitgen_t bitgens[r], which points at states[r], and the C fill's
    arguments args[r]: c_void_p of bitgens[r], the c_ssize_t count n * m and
    c_void_p of block[r].
    """

    def __init__(self):
        self.bit_gen = np.random.Philox(key=0)
        self.shape = None

    def reshape(self, n: int, m: int) -> None:
        """Build the block and the rows' states for INCREMENT_BLOCK copies of n * m normals.

        The layout is checked first, before any state is built, and row 0
        must then draw copy _CHECK_COPY of seed 0 as the public API does.
        """
        _check_layout(self.bit_gen)
        self.shape = None  # until the one-copy check passes
        self.block = np.empty((INCREMENT_BLOCK, n, m))
        self.keys = np.zeros((INCREMENT_BLOCK, 2), np.uint64)
        self.ctrs = np.zeros((INCREMENT_BLOCK, 4), np.uint64)
        self.states = np.zeros(INCREMENT_BLOCK, _PHILOX_STATE)
        self.bitgens = np.zeros(INCREMENT_BLOCK, _BITGEN)
        self.row_numbers = np.arange(INCREMENT_BLOCK, dtype=np.uint64)
        self.states["ctr"] = _addresses(self.ctrs)
        self.states["key"] = _addresses(self.keys)
        self.buffer_pos = self.states["buffer_pos"]
        lent = _read(self.bit_gen.ctypes.bit_generator.value, _BITGEN)
        for name in _BITGEN.names[1:]:
            self.bitgens[name] = lent[name]
        self.bitgens["state"] = _addresses(self.states)
        count = ctypes.c_ssize_t(n * m)
        self.args = [(ctypes.c_void_p(bitgen), count, ctypes.c_void_p(row))
                     for bitgen, row in zip(_addresses(self.bitgens).tolist(), _addresses(self.block).tolist())]
        self.rekey(0, _CHECK_COPY, 1, 1)
        _normal_fill(*self.args[0])
        if not np.array_equal(self.block[0].ravel(), _public_normals(self.bit_gen, 0, _CHECK_COPY, n * m)):
            raise _layout_error("a copy drawn on the block's states differs from Philox.standard_normal")
        self.shape = (n, m)

    def rekey(self, seed: int, first: int, step: int, k: int) -> None:
        """Key rows [0, k) to (seed, first + r * step) modulo 2**64, from counter zero, buffer spent."""
        keys = self.keys[:k]
        keys[:, 0] = seed & _MASK64
        np.multiply(self.row_numbers[:k], np.uint64(step & _MASK64), out=keys[:, 1])  # uint64 wraps
        keys[:, 1] += np.uint64(first & _MASK64)
        self.ctrs[:k] = 0
        self.buffer_pos[:k] = 4


_THREAD = threading.local()  # .generator: the calling thread's _Generator


def _thread_generator(n: int, m: int) -> _Generator:
    """The calling thread's generator, built on its first fill, with a block of
    INCREMENT_BLOCK copies of n * m normals: keyed by (n, m) alone, rebuilt
    when a fill has another n or m, whatever its seed or number of copies."""
    gen = getattr(_THREAD, "generator", None)
    if gen is None:
        gen = _THREAD.generator = _Generator()
    if gen.shape != (n, m):
        gen.reshape(n, m)
    return gen


def _addresses(array: np.ndarray) -> np.ndarray:
    """The address of each row of array, as uintp."""
    return array.ctypes.data + array.strides[0] * np.arange(len(array), dtype=np.uintp)


def _read(address: int, dtype: np.dtype) -> np.void:
    """A copy of the dtype record at address."""
    return np.frombuffer(ctypes.string_at(address, dtype.itemsize), dtype)[0]


def _check_layout(bit_gen: np.random.Philox) -> None:
    """Hold _PHILOX_STATE and _BITGEN against bit_gen, in a probe state set through
    the public Philox.state setter; bit_gen's own state is put back after.

    The counter and key pointers of the philox_state at state_address must
    lie inside the Philox object, and the counter, key and every other field
    must read what the Philox.state getter reports. The state word of its
    bitgen_t must be state_address and its function pointers must be set.
    Any mismatch is a RuntimeError naming numpy's version.
    """
    saved = bit_gen.state
    try:
        bit_gen.state = _PROBE
        state, address = bit_gen.state, bit_gen.ctypes.state_address
        raw = _read(address, _PHILOX_STATE)
        low = id(bit_gen)
        high = low + type(bit_gen).__basicsize__
        if not (low <= raw["ctr"] <= high - 32 and low <= raw["key"] <= high - 16):
            raise _layout_error("its counter and key pointers leave the Philox object")
        read = {"counter": np.frombuffer(ctypes.string_at(int(raw["ctr"]), 32), np.uint64).tolist(),
                "key": np.frombuffer(ctypes.string_at(int(raw["key"]), 16), np.uint64).tolist(),
                **{name: raw[name].tolist() for name in ("buffer_pos", "buffer", "has_uint32", "uinteger")}}
        reported = {"counter": state["state"]["counter"].tolist(), "key": state["state"]["key"].tolist(),
                    "buffer": state["buffer"].tolist(),
                    **{name: state[name] for name in ("buffer_pos", "has_uint32", "uinteger")}}
        if read != reported:
            raise _layout_error("its philox_state fields differ from the Philox.state getter")
        lent = _read(bit_gen.ctypes.bit_generator.value, _BITGEN)
        if lent["state"] != address or not all(lent[name] for name in _BITGEN.names[1:]):
            raise _layout_error("its bitgen_t does not start with the state address")
    finally:
        bit_gen.state = saved


def _public_normals(bit_gen: np.random.Philox, seed: int, copy: int, size: int) -> np.ndarray:
    """Generator(Philox(key=[seed, copy])).standard_normal(size), drawn on bit_gen in that
    state, set through the public setter; bit_gen's own state is put back after."""
    saved = bit_gen.state
    try:
        bit_gen.state = {"bit_generator": "Philox",
                         "state": {"counter": [0] * 4, "key": [seed & _MASK64, copy & _MASK64]},
                         "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bit_gen).standard_normal(size)
    finally:
        bit_gen.state = saved


def _layout_error(what: str) -> RuntimeError:
    return RuntimeError(f"the Philox state layout of numpy {np.__version__} is not the one the "
                        f"increment stream re-keys in place: {what}")


def _block_count(copies: int) -> int:
    return -(-copies // INCREMENT_BLOCK)


# Helper k draws the blocks [ctl[k, 0], ctl[k, 1]) of the shared file's
# control words, first to last, advancing ctl[k, 0] after each block. The
# caller draws from the other end: it claims the last block of the slice with
# the most blocks left by lowering that ctl[k, 1], then draws it, until no
# slice has blocks left. Each side reads the other's word before every block,
# so they meet wherever their speeds put the meeting. A stale read can only
# make both sides draw the same block, which writes the same bytes twice; the
# caller returns only after every helper's reply, so no helper write lands later.


def _ahead(ctl: np.ndarray):
    """Helper k's blocks, ctl = ctl[k]: first to last, until they meet the caller's."""
    b = int(ctl[0])
    while b < ctl[1]:
        yield b
        b += 1
        ctl[0] = b


def _behind(ctl: np.ndarray):
    """The caller's blocks: each time the last unclaimed block of the fullest slice."""
    while True:
        k = int(np.argmax(ctl[:, 1] - ctl[:, 0]))
        b = int(ctl[k, 1]) - 1
        if b < ctl[k, 0]:
            return
        ctl[k, 1] = b
        yield b


def _nbytes(shape: tuple, helpers: int) -> int:
    """Bytes of a shared draw: its float64 array and the helpers' control words."""
    return 8 * (math.prod(shape) + 2 * helpers)


def _views(buf: mmap.mmap, shape: tuple, helpers: int) -> tuple[np.ndarray, np.ndarray]:
    """The float64 array of the given shape at the start of buf, and the
    (helpers, 2) int64 control words after it."""
    ctl = np.ndarray((helpers, 2), np.int64, buffer=buf, offset=8 * math.prod(shape))
    return np.ndarray(shape, buffer=buf), ctl


class _Helper:
    """One helper process, forked from this one, and this process's end of its socket.

    buffers are its generation's, which it inherits. pid is the helper's,
    and returncode, None until it is reaped, its exit code, or -signal if a
    signal ended it: -SIGKILL for one this process stopped while it ran.
    """

    def __init__(self, buffers: list[mmap.mmap]):
        self.returncode = None
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            try:
                with warnings.catch_warnings():  # raised as an error, it would lose the child's pid
                    warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                    self.pid = os.fork()
            except BaseException:
                self.sock.close()
                raise
            if self.pid == 0:
                _serve(theirs, self.sock, buffers)

    def send(self, request: tuple) -> bool:
        """Send one fill request; False if the helper is gone."""
        try:
            self.sock.send(pickle.dumps(request))
        except OSError:
            return False
        return True

    def finished(self) -> bool:
        """Wait for the reply to the last request; False if none came."""
        try:
            return self.sock.recv(8) == b"done"
        except OSError:
            return False

    def stop(self) -> None:
        """Kill the helper, then close the socket and reap it, so it writes no
        buffer again. Killed before its socket closes, a running helper always
        ends with -SIGKILL, never with the 0 of an idle one at end of file."""
        if self.poll() is None:  # not reaped: the pid is still the helper's
            os.kill(self.pid, signal.SIGKILL)
        self.sock.close()
        self.wait()

    def poll(self) -> int | None:
        """returncode, reaping the helper if it has exited, without waiting."""
        return self.wait(os.WNOHANG)

    def wait(self, options: int = 0) -> int | None:
        """returncode once the helper is reaped; with os.WNOHANG, None while it runs."""
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, options)
            except ChildProcessError:  # reaped by another wait of this process; its status is lost
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode


class _Draw:
    """One split draw out to the helpers.

    request is its (seed, copies, n, m, scale); z its array and ctl the
    control words after it, on one buffer; starts the first block of each
    helper's slice; helpers the ones it was sent to, one per row of ctl, so a
    helper that fails leaves its slice of every draw it holds to the caller.
    joinable turns False when an end of the draw raises: the caller may then
    have claimed a block it never drew, so the draw is only ever ended unjoined.
    """

    def __init__(self, request: tuple, z: np.ndarray, ctl: np.ndarray, starts: list[int],
                 helpers: list[_Helper]):
        self.request, self.z, self.ctl, self.starts, self.helpers = request, z, ctl, starts, helpers
        self.joinable = True


class _Helpers:
    """The main thread's generation, its helper processes and the two shared
    buffers they were forked with, and the split draws out to the helpers.

    draws are the posted draws, first to last, which each helper serves in
    that order: at most two, the one the next draw may join and one queued
    behind it (post). served is False from the start of a generation until
    one of its helpers replies: a generation whose helpers have all gone is
    renewed only if served. counts are stream_counters'.
    """

    def __init__(self):
        self.live: list[_Helper] = []
        self.draws: list[_Draw] = []
        self.buffers: list[mmap.mmap] = []  # none before the first generation, then two
        self.arrays = []  # per buffer, a weak reference to the last array made on it
        self.served = True  # no generation has failed to serve yet
        self.counts = {key: 0.0 if key.endswith("_s") else 0 for key in COUNTERS}

    @property
    def posted(self) -> tuple | None:
        """The request the next draw may join: the first posted draw's, if joinable."""
        return self.draws[0].request if self.draws and self.draws[0].joinable else None

    def post(self, request: tuple, queue: bool = False) -> bool:
        """Send request to every live helper, behind any draw they hold; True if it is posted.

        The array goes on a buffer that is large enough and free, with no
        array left that views the last one made on it. With none, or with no
        live helper left in a generation that served, a new generation starts
        (renew), unless queue: a queued draw, behind the one about to be
        joined, only takes a free buffer. Nothing is posted, and the helpers
        are left alone, when two draws are posted already, for a draw below
        2 * INCREMENT_BLOCK copies, when no helper is live (none at all on a
        one-CPU mask, without os.fork, or after helpers that never served)
        and when a new generation's buffers cannot be made (out of maps or
        memory). A helper the request cannot be sent to is stopped: its slice
        is left to the caller. A raise while sending stops the helpers.
        """
        seed, copies, n, m, scale = request
        if len(copies) < 2 * INCREMENT_BLOCK or len(self.draws) == 2:
            return False
        shape = (n, m, len(copies))
        try:
            self.prune()
            free = [k for k, buffer in enumerate(self.buffers)
                    if self.arrays[k]() is None and len(buffer) >= _nbytes(shape, len(self.live))]
            if not (free and self.live):
                if queue or not (self.live or self.served) or not self.renew(shape) or not self.live:
                    return False
                free = [0]
            z, ctl = _views(self.buffers[free[0]], shape, len(self.live))
            self.arrays[free[0]] = weakref.ref(z)
            cuts = [_block_count(len(copies)) * k // len(self.live) for k in range(len(self.live) + 1)]
            ctl[:] = np.column_stack([cuts[:-1], cuts[1:]])
            self.draws.append(_Draw(request, z, ctl, cuts[:-1], list(self.live)))
            for k, helper in enumerate(self.live):
                if not helper.send((free[0], shape, len(self.live), k, seed, copies, scale)):
                    helper.stop()  # end waits for no reply from it: its slice is the caller's
        except BaseException:
            self.stop()
            raise
        if queue:
            self.count(lookahead_queued=1)
        return True

    def renew(self, shape: tuple) -> bool:
        """Start a generation: two buffers for an array of shape, or of
        STEP_CHUNK copies if that is larger, then the live helpers stopped
        and new ones forked, which inherit the buffers.

        One helper per CPU of the affinity mask beyond the first, at most
        MAX_HELPERS. False, with this generation left as it is, on a one-CPU
        mask and when the buffers cannot be made.
        """
        count = _helper_count()
        if count == 0:
            return False
        n, m, copies = shape
        try:
            buffers = [mmap.mmap(-1, _nbytes((n, m, max(copies, STEP_CHUNK)), count)) for _ in range(2)]
        except OSError:
            return False
        self.stop()
        self.buffers, self.arrays = buffers, [lambda: None] * 2
        self.count(buffers_made=2)
        self.live = _start(count, buffers)
        self.served = False
        return True

    def end(self, join: bool) -> np.ndarray:
        """End the first posted draw and return its array, once every helper it
        was sent to has replied to it.

        Joined, the caller draws from the back; otherwise it claims every
        block no helper has started, and the array is left unfinished. A
        helper advances its control word only after a block is written; one
        that fails or does not answer is stopped, and on a join the caller
        draws the blocks of its slice from that word on; a helper already
        stopped or reaped is not waited for. A draw queued behind
        this one stays posted, and the helpers go on to it as they reply. A
        raise stops the helpers and leaves the draw posted, no longer
        joinable, for the next draw to end. Otherwise the draw is dropped and
        the pool keeps no view of the buffer, so it is free again once the
        caller drops the array. The wait adds to the helper_wait_s counter.
        """
        draw = self.draws[0]
        seed, copies, _, _, scale = draw.request
        z, ctl, helpers = draw.z, draw.ctl, draw.helpers
        try:
            if join:
                self.caller_fill(z, seed, copies, scale, _behind(ctl))
            else:
                ctl[:, 1] = ctl[:, 0]
            t0 = time.perf_counter()
            failed = [k for k, helper in enumerate(helpers) if helper.returncode is not None or not helper.finished()]
            self.count(helper_wait_s=time.perf_counter() - t0)
            for k in failed:
                helpers[k].stop()
                if join:
                    self.caller_fill(z, seed, copies, scale, range(*ctl[k]))  # what it left, or was killed inside
        except BaseException:
            draw.joinable = False
            self.stop()
            raise
        finally:
            self.prune()
        del self.draws[0]
        self.served = self.served or len(failed) < len(helpers)
        if join:
            self.count(blocks=_block_count(len(copies)), helper_blocks=int(ctl[:, 0].sum()) - sum(draw.starts))
        else:
            self.count(lookahead_cancelled=1)
        return z

    def caller_fill(self, z: np.ndarray, seed: int, copies: range, scale: float, blocks=None) -> None:
        """fill, its seconds added to the caller_draw_s counter."""
        t0 = time.perf_counter()
        fill(z, seed, copies, scale, blocks)
        self.count(caller_draw_s=time.perf_counter() - t0)

    def count(self, **added: int) -> None:
        for key, value in added.items():
            self.counts[key] += value

    def prune(self) -> None:
        """Drop the reaped helpers from live, each stopped first, so its socket is closed."""
        for helper in self.live:
            if helper.returncode is not None:
                helper.stop()
        self.live = [helper for helper in self.live if helper.returncode is None]

    def stop(self) -> None:
        """Stop the live helpers, one after the other (_Helper.stop)."""
        for helper in self.live:
            helper.stop()
        self.live = []

    def close(self) -> None:
        """End the posted draws unjoined, stop the helpers and drop the buffers;
        an array that views one keeps its mapping."""
        while self.draws:
            self.end(join=False)
        self.stop()
        self.buffers, self.arrays = [], []

    def forget(self) -> None:
        """In a forked child: drop the parent's generation and posted draws, so the child starts its own."""
        for helper in self.live:
            helper.sock.close()  # the child's copy; the parent's stays open
        self.live = []
        self.draws = []  # unwritten: their control words are the parent's
        self.buffers, self.arrays = [], []  # shared with the parent: a write would land in its arrays
        self.served = True


def _helper_count() -> int:
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity")):
        return 0
    return min(len(os.sched_getaffinity(0)) - 1, MAX_HELPERS)


def _start(count: int, buffers: list[mmap.mmap]) -> list[_Helper]:
    helpers = []
    for _ in range(count):
        try:
            helpers.append(_Helper(buffers))
        except OSError:
            break
    return helpers


_HELPERS = _Helpers()
atexit.register(lambda: _HELPERS.close())
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _HELPERS.forget())


def stream_processes() -> int:
    """Processes that draw large increment arrays now: this one plus its live helpers."""
    return 1 + sum(helper.poll() is None for helper in _HELPERS.live)


def stream_counters() -> dict[str, int | float]:
    """COUNTERS so far, of the main thread's draws: blocks drawn, blocks
    helpers drew, look-aheads joined, cancelled and queued, shared buffers
    made, seconds the main thread spent in fill and seconds it waited for
    helper replies. A draw in another thread is not counted."""
    return dict(_HELPERS.counts)


def draw(seed: int, copies: range, n: int, m: int, scale: float, then: tuple | None = None) -> np.ndarray:
    """Copies' increments, standard normals times scale, as an (n, m, len(copies)) array.

    Column k is copy copies[k]'s stream. In the main thread, with helpers,
    the blocks of the copy range are cut into one contiguous slice per
    helper. Each helper draws its slice of the shared array from the front
    while the caller draws the slices from the back, so every slice ends up
    split at one point between its helper and the caller. then, the (seed,
    copies) of the draw that follows with the same n, m and scale, is queued
    behind a split draw before the caller draws its part, posted before a
    serial one is drawn, and posted once this array is complete when it
    cannot be queued (_Helpers.post); the next draw of exactly that request
    joins it. Any other draw first ends every posted draw unjoined. In any
    other thread the draw is serial and uncounted, and then is ignored.
    """
    if threading.current_thread() is not threading.main_thread():  # the helpers are the main thread's
        z = np.empty((n, m, len(copies)))
        fill(z, seed, copies, scale)
        return z
    request = (seed, copies, n, m, scale)
    following = None if then is None else (*then, n, m, scale)
    while _HELPERS.draws and _HELPERS.posted != request:
        _HELPERS.end(join=False)  # posted for a sequence that has moved on, or left by a raise
    if _HELPERS.draws:
        _HELPERS.count(lookahead_joined=1)
    elif not _HELPERS.post(request):
        if following is not None:
            _HELPERS.post(following)
        z = np.empty((n, m, len(copies)))
        _HELPERS.caller_fill(z, seed, copies, scale)
        _HELPERS.count(blocks=_block_count(len(copies)))
        return z
    queued = following is not None and _HELPERS.post(following, queue=True)
    z = _HELPERS.end(join=True)
    if following is not None and not queued:
        _HELPERS.post(following)
    return z


def _serve(sock: socket.socket, caller_end: socket.socket, buffers: list[mmap.mmap]) -> None:
    """A forked helper's life: fill each requested slice of an array on one of
    buffers, its generation's, until end of file on sock, then exit.

    caller_end, the caller's end of sock, is closed first, so the helper gets
    end of file once the caller has gone; the helpers forked after it, which
    hold copies of that end, get theirs first. The caller stops a helper by
    killing it (_Helper.stop). buffers come as an argument, not from
    _HELPERS, which the fork handler has reset. The helper ends only through
    os._exit, with 0 at end of file and 1 on any error, so it never returns
    into the caller's stack.
    """
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's Ctrl-C is the caller's
        caller_end.close()
        while True:
            message = sock.recv(4096)
            if not message:
                break
            index, shape, helpers, k, seed, copies, scale = pickle.loads(message)
            z, ctl = _views(buffers[index], shape, helpers)
            fill(z, seed, copies, scale, _ahead(ctl[k]))
            sock.send(b"done")
        code = 0
    finally:
        os._exit(code)
