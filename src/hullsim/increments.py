"""The per-copy Philox increment stream, drawn by this process and helper processes.

Copy i's rows come from one Philox generator re-keyed to (seed, i) from counter
zero, so they depend on (seed, i) alone and any copy range can be drawn in any
process. draw splits a range of at least 2 * INCREMENT_BLOCK copies between
the calling process and its helper processes, all writing into one
coordinate-major (n, m, len(copies)) array mapped from an os.memfd_create file,
which the caller returns. The blocks of INCREMENT_BLOCK copies are cut into one
contiguous slice per helper; a helper draws its slice from the front and the
caller draws from the back, so the two meet where their speeds put them.
There is one helper per CPU of the affinity mask beyond the first, at most
MAX_HELPERS. A helper is a plain interpreter running this file, whose only
import beyond the standard library is numpy. Helpers start on the first large
draw, never on import, and serve until the process that started them exits; a
process forked from it starts its own. The draw is serial below
2 * INCREMENT_BLOCK copies, on a one-CPU mask and where os.memfd_create is
missing. The caller draws whatever a failed helper left and uses that helper
no more. Every path gives the same bytes.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager

import numpy as np

_MASK64 = (1 << 64) - 1
INCREMENT_BLOCK = 256  # copies per copy-major draw block in fill
MAX_HELPERS = 3  # helper processes at most, whatever the CPU count
STOP_WAIT_S = 5.0  # a helper whose socket is closed exits after its block; one that does not is killed
_SCRIPT = os.path.abspath(__file__)  # what a helper runs, wherever the caller's directory moves


def _plain(value):
    """A bit generator state with every numpy array turned into plain ints."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def fill(out: np.ndarray, seed: int, copies: range, scale: float, blocks=None) -> None:
    """Write copies' standard normals times scale into out, shape (n, m, len(copies)).

    One Philox generator is re-keyed to (seed, i) for each copy i through the
    public Philox.state setter, with a template of plain ints built once per
    call (counter zero, buffer and cached bits spent), of which only the
    second key word changes per copy. Block b holds copies
    [b * INCREMENT_BLOCK, (b + 1) * INCREMENT_BLOCK) of the range; the blocks
    are drawn in the order blocks gives (by default every block, first to
    last), each into a small copy-major block, one prebuilt row view each,
    and scaled into place.
    """
    n, m = out.shape[:2]
    bit_gen = np.random.Philox(key=np.array([seed & _MASK64, 0], dtype=np.uint64))
    draw_row = np.random.Generator(bit_gen).standard_normal
    fresh = _plain(bit_gen.state)
    key = fresh["state"]["key"]
    block = np.empty((min(INCREMENT_BLOCK, len(copies)), n, m))
    rows = list(block)
    for b in range(_block_count(len(copies))) if blocks is None else blocks:
        start = b * INCREMENT_BLOCK
        chunk = copies[start:start + INCREMENT_BLOCK]
        for row, i in zip(rows, chunk):
            key[1] = i & _MASK64
            bit_gen.state = fresh
            draw_row(out=row)
        np.multiply(block[:len(chunk)].transpose(1, 2, 0), scale, out=out[..., start:start + len(chunk)])


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
    """Helper k's blocks, ctl = ctl[k]: first to last, until the caller's claim."""
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


def _shared(fd: int, shape: tuple, helpers: int) -> tuple[np.ndarray, np.ndarray]:
    """The float64 array of the given shape at the start of the file behind fd,
    and the (helpers, 2) int64 control words after it.

    The mapping keeps its own descriptor and is unmapped with the last view.
    """
    buf = mmap.mmap(fd, 0)
    ctl = np.ndarray((helpers, 2), np.int64, buffer=buf, offset=8 * shape[0] * shape[1] * shape[2])
    return np.ndarray(shape, buffer=buf), ctl


class _Helper:
    """One helper process and the caller's end of its socket."""

    def __init__(self):
        self.stopped = False
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            try:
                self.proc = subprocess.Popen(
                    [sys.executable, _SCRIPT, str(theirs.fileno())],
                    pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
            except BaseException:
                self.sock.close()
                raise

    def send(self, fd: int, request: tuple) -> bool:
        """Pass one fill request and the array's file; False if the helper is gone."""
        try:
            socket.send_fds(self.sock, [pickle.dumps(request)], [fd])
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
        """Close the socket, which ends the helper's loop, and reap the process."""
        self.stopped = True
        self.sock.close()
        try:
            self.proc.wait(timeout=STOP_WAIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class _Helpers:
    """The helper processes of one process, started on its first large draw."""

    def __init__(self):
        self.started = False
        self.live: list[_Helper] = []
        self.lock = threading.Lock()  # one draw at a time uses the helpers

    @contextmanager
    def claimed(self, copies: int):
        """The helpers for a draw of copies copies: none below 2 * INCREMENT_BLOCK.

        A draw that raises stops every helper it held, whose state is unknown.
        """
        if copies < 2 * INCREMENT_BLOCK or not self.lock.acquire(blocking=False):
            yield []
            return
        try:
            if not self.started:
                self.started = True
                self.live = _start(_helper_count())
            yield self.live
        except BaseException:
            for helper in self.live:
                helper.stop()
            raise
        finally:
            self.live = [h for h in self.live if not h.stopped]
            self.lock.release()

    def close(self) -> None:
        for helper in self.live:
            helper.sock.close()  # every helper starts to exit before the first wait
        for helper in self.live:
            helper.stop()
        self.live = []

    def forget(self) -> None:
        """In a forked child: drop the parent's helpers, so the child starts its own."""
        for helper in self.live:
            helper.sock.close()  # the child's copy; the parent's stays open
            helper.proc.returncode = 0  # the parent's to reap, so not "still running" here
        self.started = False
        self.live = []
        self.lock = threading.Lock()


def _helper_count() -> int:
    if not hasattr(os, "memfd_create") or not hasattr(os, "sched_getaffinity"):
        return 0
    return min(len(os.sched_getaffinity(0)) - 1, MAX_HELPERS)


def _start(count: int) -> list[_Helper]:
    helpers = []
    for _ in range(count):
        try:
            helpers.append(_Helper())
        except OSError:
            break
    return helpers


_HELPERS = _Helpers()
atexit.register(lambda: _HELPERS.close())
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _HELPERS.forget())


def stream_processes() -> int:
    """Processes that draw large increment arrays now: this one plus its live helpers."""
    return 1 + sum(helper.proc.poll() is None for helper in _HELPERS.live)


def _empty(shape: tuple, helpers: int) -> tuple[np.ndarray, np.ndarray | None, int | None]:
    """An uninitialised float64 array, the helpers' control words and the memfd behind both.

    With no helpers, or no memfd (out of descriptors or maps), the array is
    private and the control words and descriptor are None.
    """
    fd = None
    if helpers:
        try:
            fd = os.memfd_create("hullsim-increments")
            os.ftruncate(fd, 8 * (shape[0] * shape[1] * shape[2] + 2 * helpers))
            return (*_shared(fd, shape, helpers), fd)
        except OSError:
            if fd is not None:
                os.close(fd)
    return np.empty(shape), None, None


def draw(seed: int, copies: range, n: int, m: int, scale: float) -> np.ndarray:
    """Copies' increments, standard normals times scale, as an (n, m, len(copies)) array.

    Column k is copy copies[k]'s stream. With helpers, the blocks of the copy
    range are cut into one contiguous slice per helper. Each helper draws its
    slice of the shared array from the front while the caller draws the
    slices from the back, so every slice ends up split at one point between
    its helper and the caller. A helper advances its control word only after
    a block is written; one that fails or does not answer is stopped, and the
    caller draws the blocks of its slice from that word on.
    """
    with _HELPERS.claimed(len(copies)) as helpers:
        shape = (n, m, len(copies))
        z, ctl, fd = _empty(shape, len(helpers))
        if fd is None:
            fill(z, seed, copies, scale)
            return z
        cuts = [_block_count(len(copies)) * k // len(helpers) for k in range(len(helpers) + 1)]
        ctl[:] = np.column_stack([cuts[:-1], cuts[1:]])
        try:
            sent = [h.send(fd, (shape, len(helpers), k, seed, copies, scale)) for k, h in enumerate(helpers)]
        finally:
            os.close(fd)
        fill(z, seed, copies, scale, _behind(ctl))
        for k, (helper, ok) in enumerate(zip(helpers, sent)):
            if not (ok and helper.finished()):
                helper.stop()
                fill(z, seed, copies, scale, range(*ctl[k]))  # what it left, or was killed inside
    return z


def serve(fd: int) -> None:
    """A helper's loop: fill each requested slice of a shared array, until end of file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # a terminal's Ctrl-C is the caller's
    with socket.socket(fileno=fd) as sock:
        while True:
            message, fds, _, _ = socket.recv_fds(sock, 4096, 1)
            if not message:
                return
            _fill_slice(fds[0], *pickle.loads(message))
            os.close(fds[0])
            sock.send(b"done")


def _fill_slice(fd, shape, helpers, k, seed, copies, scale) -> None:
    """Helper k's part of one draw; the mapping ends when this returns."""
    z, ctl = _shared(fd, shape, helpers)
    fill(z, seed, copies, scale, _ahead(ctl[k]))


if __name__ == "__main__":  # a helper process: python increments.py FD
    serve(int(sys.argv[1]))
