"""Reproducible correlated Gaussian sample paths on a time grid.

Colored processes are represented by their values at the grid nodes, drawn
jointly from the Cholesky factor of the discretized covariance
C[k, l] = gamma * D(t_k, t_l); the integrated process x is the trapezoid
cumulative of the node values.  White noise is represented by per-step
increment values w_k ~ N(0, gamma/dt) and x accumulates them left-endpoint
(Ito grid); the Stratonovich correction is the solver's business.

Reproducibility contract
------------------------
Trajectory k of a run with master seed S draws its standard normals from

    numpy.random.Generator(numpy.random.Philox(key=[S, k]))

i.e. a counter-based stream keyed bit-exactly by (master_seed, trajectory
index).  Paths therefore depend only on (S, k), never on worker count,
chunking, or scheduling order.  After a gather step, the ensemble estimators
reduce the gathered array in a fixed trajectory-index order with numpy, so
they are byte-identical at any worker count; the cooking statistics still use
compensated summation (fsum_ordered) in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KernelNotPSD, UnsupportedPointwiseEval
from .kernels import CorrelationKernel, KernelFamily, eval_zero_extended

__all__ = [
    "TimeGrid",
    "NoiseRealization",
    "CovarianceFactor",
    "child_generator",
    "build_covariance",
    "sample_paths",
    "sample_white_increments",
    "trapezoid_cumulative",
    "left_cumulative",
    "checkpoint_indices",
    "fsum_ordered",
]

# Jitter escalation ladder, as multiples of max(diag).
_JITTERS = (1.0e-12, 1.0e-10, 1.0e-8)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k dt, k = 0..steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1) and self.t1 > self.t0):
            raise ConfigError(f"need finite t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ConfigError(f"grid needs at least one step, got {self.steps}")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def num_nodes(self) -> int:
        return self.steps + 1

    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def node_index(self, t: float) -> int:
        """Index of the grid node at time t (must lie on the grid)."""
        k = round((t - self.t0) / self.dt)
        if not (0 <= k <= self.steps) or abs(self.t0 + k * self.dt - t) > 1e-9 * max(
            1.0, abs(t)
        ):
            raise ConfigError(f"time {t} is not a node of {self}")
        return int(k)


def checkpoint_indices(grid: TimeGrid, count: int = 50) -> np.ndarray:
    """Indices of ``count`` (at most) evenly spaced nodes, always including both ends."""
    count = min(max(count, 2), grid.num_nodes)
    return np.unique(np.round(np.linspace(0, grid.steps, count)).astype(int))


@dataclass
class NoiseRealization:
    """One sampled path of m processes, plus its integrated process.

    ``kind`` records the representation: "nodes" (colored, values at nodes,
    trapezoid x) or "increments" (white, per-step values, left-endpoint x).
    x[:, 0] = 0 and x is bit-exactly recomputable from w via the matching
    cumulative helper.
    """

    kind: str
    w: np.ndarray  # (m, num_nodes) for "nodes"; (m, steps) for "increments"
    x: np.ndarray  # (m, num_nodes)
    master_seed: int
    index: int

    @property
    def num_processes(self) -> int:
        return self.w.shape[0]


def trapezoid_cumulative(w: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid cumulative of node values along the last axis; starts at 0."""
    cs = np.cumsum(w, axis=-1)
    return dt * (cs - 0.5 * (w + w[..., :1]))


def left_cumulative(w: np.ndarray, dt: float) -> np.ndarray:
    """Left-endpoint cumulative of per-step values; output has one extra node."""
    out = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    out[..., 1:] = dt * np.cumsum(w, axis=-1)
    return out


def child_generator(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based child stream for trajectory ``index`` under ``master_seed``."""
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CovarianceFactor:
    """Discretized covariance gamma * D(t_k, t_l) and its Cholesky factor."""

    grid: TimeGrid
    kernel: CorrelationKernel
    cov: np.ndarray
    cholesky: np.ndarray
    jitter: float


def build_covariance(grid: TimeGrid, kernel: CorrelationKernel) -> CovarianceFactor:
    """C[k, l] = gamma * D(t_k, t_l) with escalating-jitter Cholesky.

    White kernels bypass this entirely (they live on steps, not nodes).
    PSD violations are reported via KernelNotPSD, never silently repaired
    beyond the documented jitter ladder.
    """
    if kernel.family is KernelFamily.WHITE:
        raise UnsupportedPointwiseEval(
            "white noise uses sample_white_increments, not a node covariance"
        )
    t = grid.nodes()
    cov = kernel.gamma * eval_zero_extended(kernel, t[:, None], t[None, :])
    cov = 0.5 * (cov + cov.T)  # symmetrize away representation noise
    scale = float(np.max(np.diag(cov)))
    eye = np.eye(grid.num_nodes)
    for rel in _JITTERS:
        jitter = rel * scale
        try:
            chol = np.linalg.cholesky(cov + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return CovarianceFactor(grid, kernel, cov, chol, jitter)
    raise KernelNotPSD(
        f"covariance for {kernel.family.value} kernel not factorizable on "
        f"{grid.num_nodes} nodes even with jitter {_JITTERS[-1]:.0e} * diag"
    )


def _colored_path(factor: CovarianceFactor, num_processes: int, master_seed: int, index: int):
    gen = child_generator(master_seed, index)
    z = gen.standard_normal((num_processes, factor.grid.num_nodes))
    w = z @ factor.cholesky.T  # rows: independent identical processes
    x = trapezoid_cumulative(w, factor.grid.dt)
    return w, x


def sample_paths(
    factor: CovarianceFactor,
    num_processes: int,
    n: int,
    master_seed: int,
    start_index: int = 0,
) -> list[NoiseRealization]:
    """Draw n colored realizations with trajectory indices start_index + 0..n-1.

    Each trajectory is sampled from its own child stream, one at a time, so
    the values for a given (master_seed, index) never depend on n or on how
    the ensemble is partitioned.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1 realizations, got {n}")
    out = []
    for k in range(n):
        idx = start_index + k
        w, x = _colored_path(factor, num_processes, master_seed, idx)
        out.append(NoiseRealization("nodes", w, x, master_seed, idx))
    return out


def _white_path(grid: TimeGrid, gamma: float, num_processes: int, master_seed: int, index: int):
    gen = child_generator(master_seed, index)
    w = gen.standard_normal((num_processes, grid.steps)) * math.sqrt(gamma / grid.dt)
    x = left_cumulative(w, grid.dt)
    return w, x


def sample_white_increments(
    grid: TimeGrid,
    gamma: float,
    num_processes: int,
    n: int,
    master_seed: int,
    start_index: int = 0,
) -> list[NoiseRealization]:
    """Draw n white realizations: independent per-step values ~ N(0, gamma/dt)."""
    if n < 1:
        raise ConfigError(f"need n >= 1 realizations, got {n}")
    out = []
    for k in range(n):
        idx = start_index + k
        w, x = _white_path(grid, gamma, num_processes, master_seed, idx)
        out.append(NoiseRealization("increments", w, x, master_seed, idx))
    return out


# ---------------------------------------------------------------------------
# deterministic ordered reductions


def fsum_ordered(values) -> float:
    """Compensated (exact) sum in the given order; the cooking statistics' reduction primitive."""
    return math.fsum(np.asarray(values, dtype=float).ravel())
