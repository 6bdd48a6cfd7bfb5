import os
import threading
from itertools import islice
from pathlib import Path

import pytest

from hullsim import harness, increments

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CONFIG_FILES = {
    "e1": "e1_interval_rate.cfg",
    "e2": "e2_state_sigma.cfg",
    "e3": "e3_shrinking_ball.cfg",
    "e4": "e4_square_hpoly.cfg",
}


@pytest.fixture(scope="session")
def frozen_configs():
    return {
        name: harness.load_config(CONFIG_DIR / fname)
        for name, fname in CONFIG_FILES.items()
    }


@pytest.fixture(scope="session")
def default_reports(frozen_configs):
    """One full run of each default experiment, shared across the session."""
    return {
        name: harness.run_experiment(config)
        for name, config in frozen_configs.items()
    }


@pytest.fixture
def helper_pool(monkeypatch):
    """make(cpus): a fresh increment helper pool under a cpus-CPU affinity mask.

    The pool replaces the process's own until the test ends, and its helpers
    are stopped then. Helpers start only on the test's first large draw.
    """
    pools = []

    def make(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        pools.append(increments._Helpers())
        monkeypatch.setattr(increments, "_HELPERS", pools[-1])
        return pools[-1]

    yield make
    for pool in pools:
        pool.close()


@pytest.fixture
def caller_draws_half(monkeypatch):
    """Split draws leave the front half of the blocks to the helpers, whatever their speed.

    The caller stops after drawing the back half, so the helpers draw the rest.
    """
    behind = increments._behind

    def half(ctl):
        return islice(behind(ctl), int((ctl[:, 1] - ctl[:, 0]).sum()) // 2)

    monkeypatch.setattr(increments, "_behind", half)


@pytest.fixture
def undrawn_threads(monkeypatch):
    """No thread has a Philox generator yet: each thread's next fill builds its own."""
    monkeypatch.setattr(increments, "_THREAD", threading.local())
