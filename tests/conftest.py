"""Shared helpers for the collapsim test suite."""

import math
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


def forks_at(monkeypatch, cores):
    """Pretend this process may run on ``cores`` cores, and record the pid of each fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    forks = []

    def recording_fork(_fork=os.fork):
        pid = _fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks
