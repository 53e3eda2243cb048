"""Shared helpers for the collapsim test suite."""

import math
import mmap
import os

import numpy as np
import pytest

from collapsim import CommutingSet, TimeGrid


def stderr_of_mean(samples) -> float:
    """Standard error of the sample mean, computed by the test itself."""
    a = np.asarray(samples, dtype=float)
    return float(a.std(ddof=1) / math.sqrt(a.size))


def weighted_fraction_stderr(weights, indicator, batches: int = 20) -> float:
    """Batch-means standard error of sum(w * 1) / sum(w)."""
    w = np.asarray(weights, dtype=float)
    ind = np.asarray(indicator, dtype=float)
    edges = np.linspace(0, w.size, batches + 1).astype(int)
    vals = np.array(
        [
            np.sum(w[lo:hi] * ind[lo:hi]) / np.sum(w[lo:hi])
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    return float(vals.std(ddof=1) / math.sqrt(batches))


@pytest.fixture
def two_state() -> CommutingSet:
    """Single operator with eigenvalues (+1, -1)."""
    return CommutingSet([[1.0, -1.0]])


@pytest.fixture
def three_state() -> CommutingSet:
    """Single operator with eigenvalues (1, 0, -1); two distinct gap sizes."""
    return CommutingSet([[1.0, 0.0, -1.0]])


@pytest.fixture
def psi_born():
    """Normalized amplitudes with Born weights 0.36 / 0.64."""
    return np.array([0.6, 0.8])


@pytest.fixture
def psi_three():
    """Normalized 3-state amplitudes (0.36 / 0.2304 / 0.4096 Born weights)."""
    return np.array([0.6, 0.48, 0.64])


def unit_grid(t1: float = 1.0, steps: int = 200) -> TimeGrid:
    return TimeGrid(0.0, t1, steps)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process behind: " + ("running" if pid == 0 else f"pid {pid}, unreaped"))


class _Forks:
    """The forks that ``forks_at`` recorded, as ``len``: in this process and in every process forked from it."""

    def __init__(self, record):
        self.record = record

    def __len__(self):
        return int(self.record[0])


def forks_at(monkeypatch, cores):
    """Pretend this process may run on ``cores`` cores, and count each fork.  The count lies on an anonymous
    shared mapping made before the first fork, so a fork made inside a forked share counts too: a pass at
    c > 1 cores that makes c forks made none in its shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    record = np.frombuffer(mmap.mmap(-1, 8), np.int64)

    def recording_fork(_fork=os.fork):
        pid = _fork()
        if pid:
            record[0] += 1
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return _Forks(record)
