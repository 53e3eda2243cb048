"""Reproducible correlated Gaussian sample paths on a time grid.

Colored processes are represented by their values at the grid nodes, drawn
jointly from the Cholesky factor of the discretized covariance
C[k, l] = gamma * D(t_k, t_l); the integrated process x is the trapezoid
cumulative of the node values.  A consumer that reads w and x only at a few
nodes gets them as z @ B.T, B = [L[nodes]; T[nodes] @ L] (T the trapezoid
rows), with no path built.  White noise is represented by per-step
increment values w_k ~ N(0, gamma/dt) and x accumulates them left-endpoint
(Ito grid); the Stratonovich correction is the solver's business.

Both samplers return one ``NoiseBatch``: row r of its w and x arrays is
trajectory start_index + r, and a single realization is a batch of one.

Reproducibility contract
------------------------
Trajectory k of a run with master seed S draws its standard normals from

    numpy.random.Generator(numpy.random.Philox(key=[S, k]))

i.e. a counter-based stream keyed bit-exactly by (master_seed, trajectory
index).  ``child_generator`` is that definition; the samplers build one Philox
per batch and re-key it to (S, k) for each row, which yields the same stream
(Philox is counter-based).  The colored transforms z @ L.T and z @ B.T are
stacked products, one GEMM per row, so a row never depends on the batch it
was drawn in: paths depend only on (S, k), never on chunking, nor on the
processes an ensemble's chunks run in; ``workers`` changes nothing.  The
density estimator sums each trajectory-index batch with one stacked GEMM and
totals the batch sums; the cooking statistics still use compensated
summation (fsum_ordered) in trajectory-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KernelNotPSD, UnsupportedPointwiseEval
from .kernels import CorrelationKernel, KernelFamily, eval_zero_extended, require_strength

__all__ = [
    "TimeGrid",
    "NoiseBatch",
    "CovarianceFactor",
    "child_generator",
    "build_covariance",
    "sample_paths",
    "sample_white_increments",
    "trapezoid_cumulative",
    "left_cumulative",
    "checkpoint_indices",
    "checkpoint_schedule",
    "fsum_ordered",
]

# Jitter escalation ladder, as multiples of max(diag).
_JITTERS = (1.0e-12, 1.0e-10, 1.0e-8)


def require_t1_after_t0(t0: float, t1: float, steps: int, where: str = "t1") -> None:
    """A ConfigError naming ``where`` unless t1 exceeds t0 by a finite span whose steps are nonzero."""
    if not (t1 - t0 < math.inf and (t1 - t0) / steps > 0.0):
        raise ConfigError(f"{where} must exceed t0 by a finite span of {steps} nonzero steps, got [{t0}, {t1}]")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k dt, k = 0..steps."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"grid needs at least one step, got {self.steps}")
        require_t1_after_t0(self.t0, self.t1, self.steps)

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
    """Indices of ``count`` (at most) evenly spaced nodes, always including both ends; ``count`` must be >= 2."""
    if not count >= 2:
        raise ConfigError(f"checkpoint count must be >= 2, got {count!r}")
    count = min(count, grid.num_nodes)
    idx = np.round(np.linspace(0, grid.steps, count)).astype(int)  # sorted, so equal entries are adjacent
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]  # not np.unique, which imports numpy.ma


def checkpoint_schedule(grid: TimeGrid, checkpoints=None) -> np.ndarray:
    """The nodes a solver records: ``checkpoint_indices(grid)`` for None, else ``checkpoints``.

    Given checkpoints must be a non-empty, strictly increasing 1-D integer array in [0, steps].
    """
    if checkpoints is None:
        return checkpoint_indices(grid)
    cp = np.asarray(checkpoints)
    ok = cp.ndim == 1 and cp.size and cp.dtype.kind in "iu"
    if not (ok and cp[0] >= 0 and cp[-1] <= grid.steps and np.all(cp[1:] > cp[:-1])):
        raise ConfigError(f"checkpoints must strictly increase as 1-D integers in [0, {grid.steps}], got {checkpoints!r}")
    return cp


@dataclass(frozen=True)
class NoiseBatch:
    """Sampled paths of m processes, one row per trajectory, plus their integrals.

    Row r is trajectory ``index + r`` under ``master_seed``.  ``kind`` records
    the representation: "nodes" (colored, values at nodes, trapezoid x),
    "increments" (white, per-step values, left-endpoint x) or "projected"
    (colored, w and x at requested nodes only, never a path to step along).
    Otherwise x[..., 0] = 0 and x is bit-exactly w's matching cumulative.
    ``batch[r]`` is the batch of one holding row r.
    """

    kind: str
    w: np.ndarray  # (n, m, num_nodes) "nodes"; (n, m, steps) "increments"; (n, m, k) "projected"
    x: np.ndarray  # (n, m, num_nodes); (n, m, k) "projected"
    master_seed: int
    index: int  # trajectory index of row 0

    def __len__(self) -> int:
        return self.w.shape[0]

    def __getitem__(self, r: int) -> NoiseBatch:
        if not 0 <= r < len(self):
            raise IndexError(f"row {r} out of range for a batch of {len(self)}")
        rows = slice(r, r + 1)
        return NoiseBatch(self.kind, self.w[rows], self.x[rows], self.master_seed, self.index + r)


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
    """Cholesky factor L of the discretized covariance gamma * D(t_k, t_l) + jitter * I."""

    grid: TimeGrid
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
    cov = kernel.gamma * eval_zero_extended(kernel, t[:, None], t[None, :])  # exactly symmetric: D(|t_k - t_l|)
    diag = cov.diagonal().copy()
    scale = float(np.max(diag))
    for rel in _JITTERS:
        jitter = rel * scale
        np.fill_diagonal(cov, diag + jitter)  # each rung jitters the unjittered matrix, in place
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            continue
        return CovarianceFactor(grid, chol, jitter)
    if scale < np.finfo(float).tiny:  # the strength, not the kernel's shape, is at fault
        raise KernelNotPSD(f"kernel strength gamma = {kernel.gamma!r} is too small to factorize the covariance: "
                           f"gamma * D(0) = {scale!r} is below the smallest normal float")
    raise KernelNotPSD(
        f"covariance for {kernel.family.value} kernel not factorizable on "
        f"{grid.num_nodes} nodes even with jitter {_JITTERS[-1]:.0e} * diag"
    )


def _standard_normals(shape, n: int, master_seed: int, start_index: int) -> np.ndarray:
    """z[k] of the given shape from the child stream of trajectory start_index + k."""
    if n < 1:
        raise ConfigError(f"need n >= 1 realizations, got {n}")
    z = np.empty((n, *shape))
    # One Philox per batch, re-keyed per row.  ``fresh`` is the state
    # child_generator starts from (counter 0, empty buffer, no cached uint32);
    # setting it with key[1] = start_index + k gives the stream of
    # child_generator(master_seed, start_index + k) bit for bit.  Its arrays
    # are held as lists, which the state setter reads faster.
    bits = np.random.Philox(key=np.array([master_seed, start_index], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    fresh["state"] = {name: value.tolist() for name, value in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    for k in range(n):
        key[1] = start_index + k
        bits.state = fresh
        gen.standard_normal(out=z[k])
    return z


def _projection(factor: CovarianceFactor, nodes) -> np.ndarray:
    """B = [L[nodes]; T[nodes] @ L], T the trapezoid rows, so z @ B.T is w and x at nodes.

    T @ L is ``trapezoid_cumulative`` down L's columns: node 0's x row is exactly 0.
    """
    chol = factor.cholesky
    x_rows = factor.grid.dt * (np.cumsum(chol, axis=0)[nodes] - 0.5 * (chol[nodes] + chol[0]))
    return np.vstack([chol[nodes], x_rows])


def sample_paths(
    factor: CovarianceFactor,
    num_processes: int,
    n: int,
    master_seed: int,
    start_index: int = 0,
    nodes=None,
    _b=None,
) -> NoiseBatch:
    """Draw n colored realizations with trajectory indices start_index + 0..n-1.

    Row k is z_k @ L.T, z_k the normals of trajectory start_index + k, or with
    ``nodes`` (grid node indices) z_k @ B.T, B = ``_projection(factor, nodes)``:
    w and x at those nodes only, kind "projected", column j being node nodes[j].
    Either product is stacked, one GEMM per row; a single 2-D GEMM over the
    batch would not do, as its rounding changes with n.  ``_b`` is that B when
    the caller built it once for many batches (``dynamics.ensemble_noise``).
    """
    z = _standard_normals((num_processes, factor.grid.num_nodes), n, master_seed, start_index)
    if nodes is not None:
        wx = z @ (_projection(factor, nodes) if _b is None else _b).T
        k = wx.shape[-1] // 2
        return NoiseBatch("projected", wx[..., :k], wx[..., k:], master_seed, start_index)
    w = z @ factor.cholesky.T  # rows of each path: independent identical processes
    return NoiseBatch("nodes", w, trapezoid_cumulative(w, factor.grid.dt), master_seed, start_index)


def sample_white_increments(
    grid: TimeGrid,
    gamma: float,
    num_processes: int,
    n: int,
    master_seed: int,
    start_index: int = 0,
) -> NoiseBatch:
    """Draw n white realizations: independent per-step values ~ N(0, gamma/dt)."""
    require_strength(gamma)
    z = _standard_normals((num_processes, grid.steps), n, master_seed, start_index)
    w = z * math.sqrt(gamma / grid.dt)
    return NoiseBatch("increments", w, left_cumulative(w, grid.dt), master_seed, start_index)


# ---------------------------------------------------------------------------
# deterministic ordered reductions


def fsum_ordered(values) -> float:
    """Compensated (exact) sum in the given order; the cooking statistics' reduction primitive."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def _stderr(samples: np.ndarray, mean: float) -> float:
    n = samples.size
    var = fsum_ordered((samples - mean) ** 2) / max(n - 1, 1)
    return math.sqrt(var / n)
