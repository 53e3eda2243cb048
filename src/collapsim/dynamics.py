"""Trajectory-level solvers for the stochastic collapse equations.

Three closed cases are implemented, exactly the ones that admit controlled
numerics; ``simulate_ensemble`` selects one through its ``method``:

* ``trotter_white`` -- white noise with an arbitrary Hamiltonian, via
  Trotter splitting: unitary half-step, exact diagonal stochastic factor
  exp(sum_i A_i w_i dt - gamma sum_i A_i^2 dt), unitary half-step; adjacent
  half-steps merge into one exp(-i H0 dt) except beside a recorded
  checkpoint.  The diagonal exponential realizes the Stratonovich reading
  exactly in the noise; the per-step error is O(dt^2) from the splitting.
  The white noise factors come in blocks of 16 steps, one GEMM and one exp
  per block, with the bits of one GEMM per step.
* ``exact_commuting`` -- any kernel when the Hamiltonian commutes with the
  preferred-basis operators (or is absent).  Amplitudes propagate in
  closed form, c_a(t) = c_a(t0) exp(-i E_a (t-t0) + sum_i a_ia x_i(t)
  - gamma sum_i a_ia^2 f(t)), with x from the sampled realization and f from
  the kernel transforms; there is no time-stepping error beyond the
  trapezoid x itself.
* ``raw_linear`` -- the uncompensated linear equation, kept to demonstrate
  that the mean squared norm drifts, which is what motivates the
  compensating term.

Every solver decision (the checkpoints, by ``noise.checkpoint_schedule``, and
the ``hilbert`` checks of psi0, H0 and commutation) is made once in
``_solver``; no step past the last checkpoint is taken.  Noise comes in as a
``NoiseBatch`` and results go out as an ``EnsembleResult``, one row per
trajectory: ``evolve_csl_white`` and ``evolve_colored_commuting`` take a
batch of one and return a one-row result from the same solver chunk.

The general non-commuting colored equation has no closed functional
derivative and is deliberately not time-stepped.

Amplitudes are carried as order-one mantissas with a running log offset
(per-step renormalization), so cooking weights stay finite in log form even
when exponents reach +-1e3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ZeroNorm
from .hilbert import CommutingSet, initial_state, require_commuting, validate_hamiltonian
from .kernels import CorrelationKernel, KernelFamily, kernel_double_integral, require_strength
from .noise import (
    NoiseBatch,
    TimeGrid,
    checkpoint_schedule,
    left_cumulative,
    sample_paths,
    sample_white_increments,
    trapezoid_cumulative,
    build_covariance,
)

__all__ = [
    "EnsembleResult",
    "ProbeResult",
    "evolve_csl_white",
    "evolve_colored_commuting",
    "functional_derivative_probe",
    "bump_realization",
    "simulate_ensemble",
]

CHUNK = 512  # trajectories per chunk, run one after another; ``workers`` changes nothing
METHODS = ("trotter_white", "exact_commuting", "raw_linear")


@dataclass
class EnsembleResult:
    """Gathered trajectories in trajectory-index order (packed arrays).

    Row r is trajectory ``index + r``; a single trajectory is a one-row result.
    """

    grid: TimeGrid
    times: np.ndarray
    amps: np.ndarray  # (n, ncp, d)
    log_weights: np.ndarray  # (n, ncp)
    x: np.ndarray  # (n, m, ncp)
    master_seed: int
    method: str
    index: int  # trajectory index of row 0

    @property
    def n(self) -> int:
        return self.amps.shape[0]

    @property
    def dim(self) -> int:
        return self.amps.shape[2]


def _unitary(h0: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H0 dt) through the eigendecomposition (H0 Hermitian, hbar = 1)."""
    evals, vecs = np.linalg.eigh(h0)
    return (vecs * np.exp(-1j * evals * dt)) @ vecs.conj().T


# ---------------------------------------------------------------------------
# chunk kernels (vectorized over trajectories; result row i = trajectory i)


def _stepped_chunk(aset, psi0, grid, drive, cp_idx, unitaries, comp):
    """Trotter stepping for a chunk: drive is (nc, m, steps), one value per step.

    comp = gamma sum_i a_ia^2 dt, shape (d, 1), gives the compensated
    (norm-average-preserving) dynamics; comp = 0 the raw linear equation.
    psi[:, i] is trajectory i.  ``unitaries`` is None or (exp(-i H0 dt),
    exp(-i H0 dt/2)); half-steps merge except beside a recorded checkpoint.
    The diagonal noise factors come in blocks of 16 steps, one GEMM and one
    exp per block into reused buffers; nc is a multiple of 16, so each factor
    has the bits of a one-step GEMM.
    """
    (nc, m, _), d = drive.shape, psi0.size
    rows, block = np.empty(m * 16 * nc), np.empty(d * 16 * nc)  # one block's drive and factors
    sq, sq_im = np.empty((d, nc)), np.empty((d, nc))
    psi = np.repeat(psi0[:, None], nc, axis=1)
    offsets = np.zeros(nc)
    amps = np.empty((nc, len(cp_idx), d), dtype=np.complex128)
    logw = np.empty((nc, len(cp_idx)))
    start = 0
    for j, stop in enumerate(cp_idx):
        for k in range(start, stop):
            if k % 16 == 0:  # steps k .. k+15, cut at the last checkpoint
                cols = min(16, cp_idx[-1] - k) * nc
                step_rows = rows[: m * cols].reshape(m, cols)
                np.copyto(step_rows.reshape(m, -1, nc), drive[:, :, k : k + cols // nc].transpose(1, 2, 0))
                expo = np.matmul(aset.table.T, step_rows, out=block[: d * cols].reshape(d, cols))
                expo *= grid.dt
                expo -= comp
                fac = expo.reshape(d, -1, nc)
                peaks = fac.max(axis=0)
                np.exp(np.subtract(fac, peaks, out=fac), out=fac)
            if unitaries is not None:
                psi = unitaries[1 if k == start else 0] @ psi
            psi *= fac[:, k % 16]
            offsets += peaks[k % 16]
            if unitaries is not None and k + 1 == stop:
                psi = unitaries[1] @ psi
            np.multiply(psi.real, psi.real, out=sq)
            sq += np.multiply(psi.imag, psi.imag, out=sq_im)
            norms = np.sqrt(sq.sum(axis=0))
            if not norms.min() > 0.0:
                raise ZeroNorm("trajectory norm is zero or not finite")
            psi *= 1.0 / norms
            offsets += np.log(norms)
        amps[:, j, :] = psi.T
        logw[:, j] = 2.0 * offsets
        start = stop
    return amps, logw


def _exact_commuting_chunk(aset, psi0, x_cp, gamma_f_cp, energies_u):
    """Closed-form amplitudes for a chunk: x_cp is (nc, m, ncp).

    gamma_f_cp carries gamma * f(t) at the checkpoints, so the exponent is
    sum_i a_ia x_i(t) - gamma f(t) sum_i a_ia^2 (diagonal cross structure).
    """
    table = aset.table
    a2 = np.sum(table**2, axis=0)  # (d,)
    mag0 = np.abs(psi0)
    with np.errstate(divide="ignore"):
        log_mag0 = np.where(mag0 > 0.0, np.log(np.where(mag0 > 0.0, mag0, 1.0)), -np.inf)
    phase0 = np.where(mag0 > 0.0, psi0 / np.where(mag0 > 0.0, mag0, 1.0), 0.0)
    nc, _, ncp = x_cp.shape
    d = psi0.size
    amps = np.empty((nc, ncp, d), dtype=np.complex128)
    logw = np.empty((nc, ncp))
    for j in range(ncp):
        expo = log_mag0[None, :] + np.tensordot(x_cp[:, :, j], table, axes=(1, 0))
        expo -= gamma_f_cp[j] * a2[None, :]
        peak = expo.max(axis=1)
        if not np.all(np.isfinite(peak)):
            raise ZeroNorm("all amplitudes vanished in the exact solver")
        v = np.exp(expo - peak[:, None]) * phase0[None, :]
        if energies_u is not None:
            v = v @ energies_u[j].T
        norms = np.sqrt(np.sum(np.abs(v) ** 2, axis=1))
        amps[:, j, :] = v / norms[:, None]
        logw[:, j] = 2.0 * (peak + np.log(norms))
    return amps, logw


# ---------------------------------------------------------------------------
# the one solver dispatch


def _f_values(kernel: CorrelationKernel, times, t0: float) -> np.ndarray:
    return np.array([kernel.gamma * kernel_double_integral(kernel, float(t), t0) for t in times])


def _solver(method, aset, psi0, grid, h0, checkpoints, gamma, kernel):
    """Resolve a solver once: returns (method, cp_idx, chunk).

    ``chunk(kind, w, x_cp)`` maps a noise batch -- w (nc, m, steps or nodes)
    of the given kind and x_cp (nc, m, ncp) -- to (amps, log weights).
    ``kernel`` is needed for "auto" and "exact_commuting"; when it is None
    "trotter_white" trusts the caller that the noise is white.
    """
    if method == "auto":
        method = "trotter_white" if kernel.family is KernelFamily.WHITE else "exact_commuting"
    if method not in METHODS:
        raise ConfigError(f"unknown solver method {method!r}; pick from {METHODS}")
    if method == "trotter_white" and kernel is not None and kernel.family is not KernelFamily.WHITE:
        raise ConfigError("trotter_white requires a white kernel")
    psi0 = initial_state(psi0, aset.dim)
    cp_idx = checkpoint_schedule(grid, checkpoints)
    if h0 is not None:
        h0 = validate_hamiltonian(h0, aset.dim)

    if method == "exact_commuting":
        times = grid.nodes()[cp_idx]
        energies_u = None
        if h0 is not None:
            require_commuting(h0, aset)
            energies_u = [_unitary(h0, float(t) - grid.t0) for t in times]
        f_cp = _f_values(kernel, times, grid.t0)

        def chunk(kind, w, x_cp):
            return _exact_commuting_chunk(aset, psi0, x_cp, f_cp, energies_u)

        return method, cp_idx, chunk

    unitaries = None if h0 is None else (_unitary(h0, grid.dt), _unitary(h0, 0.5 * grid.dt))
    with np.errstate(over="ignore"):  # an overflowing table stops at the chunk's norm guard (ZeroNorm)
        comp = gamma * np.sum(aset.table**2, axis=0)[:, None] * grid.dt if method == "trotter_white" else 0.0

    def chunk(kind, w, x_cp):
        # zero rows up to a multiple of 16 keep every real row out of OpenBLAS's partial
        # GEMM panels (the last n mod 4 columns), whose rounding depends on the chunk width
        nc = len(w)
        if nc % 16:
            w = np.pad(w, [(0, -nc % 16), (0, 0), (0, 0)])
        # node-kind (colored) paths step on the trapezoid average of adjacent
        # nodes, so with H0 = 0 the product telescopes to exp(A . x_trap)
        drive = w if kind == "increments" else 0.5 * (w[..., :-1] + w[..., 1:])
        with np.errstate(over="ignore", invalid="ignore"):
            amps, logw = _stepped_chunk(aset, psi0, grid, drive, cp_idx, unitaries, comp)
        return amps[:nc], logw[:nc]

    return method, cp_idx, chunk


def _single(method, aset, psi0, grid, h0, checkpoints, gamma, kernel, realization):
    if len(realization) != 1 or realization.kind == "projected":
        got = f"{len(realization)} {realization.kind} rows"
        raise ConfigError(f"a single trajectory needs a batch of one with full paths, got {got}")
    method, cp_idx, chunk = _solver(method, aset, psi0, grid, h0, checkpoints, gamma, kernel)
    x_cp = realization.x[:, :, cp_idx]
    amps, logw = chunk(realization.kind, realization.w, x_cp)
    return EnsembleResult(
        grid, grid.nodes()[cp_idx], amps, logw, x_cp, realization.master_seed, method, realization.index
    )


# ---------------------------------------------------------------------------
# single-trajectory solvers (batches of one)


def evolve_csl_white(
    h0,
    aset: CommutingSet,
    psi0,
    grid: TimeGrid,
    gamma: float,
    realization: NoiseBatch,
    checkpoints=None,
) -> EnsembleResult:
    """Stratonovich Trotter propagation of one white-noise trajectory."""
    require_strength(gamma)
    if realization.kind != "increments":
        raise ConfigError("evolve_csl_white needs a white (increment-kind) realization")
    return _single("trotter_white", aset, psi0, grid, h0, checkpoints, gamma, None, realization)


def evolve_colored_commuting(
    aset: CommutingSet,
    psi0,
    grid: TimeGrid,
    kernel: CorrelationKernel,
    realization: NoiseBatch,
    h0=None,
    checkpoints=None,
) -> EnsembleResult:
    """Exact per-amplitude propagation for the commuting case (any kernel)."""
    return _single(
        "exact_commuting", aset, psi0, grid, h0, checkpoints, kernel.gamma, kernel, realization
    )


# ---------------------------------------------------------------------------
# functional-derivative probe


@dataclass(frozen=True)
class ProbeResult:
    """Finite-bump estimate of the functional derivative at one time."""

    estimate: np.ndarray  # (psi_pert - psi)/eps on raw vectors
    reference: np.ndarray  # A_j psi_raw(t)
    expected_factor: float  # 1.0 interior, 0.5 at the white endpoint
    rel_error: float


def bump_realization(
    realization: NoiseBatch, grid: TimeGrid, s_index: int, process: int, eps: float
) -> NoiseBatch:
    """Add a unit-area hat bump of area eps centered at node s_index, in every row.

    Node-kind paths get the single-node hat (peak eps/dt); increment-kind
    paths get the per-step average of the same hat, i.e. eps/(2 dt) on the
    two adjacent steps (one step only if s_index is the final node, which is
    how the boundary keeps half the bump's area).
    """
    w = realization.w.copy()
    if realization.kind == "nodes":
        w[:, process, s_index] += eps / grid.dt
        x = trapezoid_cumulative(w, grid.dt)
    else:
        if s_index >= 1:
            w[:, process, s_index - 1] += 0.5 * eps / grid.dt
        if s_index <= grid.steps - 1:
            w[:, process, s_index] += 0.5 * eps / grid.dt
        x = left_cumulative(w, grid.dt)
    return replace(realization, w=w, x=x)


def _raw_vector(record: EnsembleResult, cp: int) -> np.ndarray:
    return record.amps[0, cp] * math.exp(0.5 * record.log_weights[0, cp])


def functional_derivative_probe(
    aset: CommutingSet,
    psi0,
    grid: TimeGrid,
    kernel: CorrelationKernel,
    realization: NoiseBatch,
    s_index: int,
    process: int,
    eps: float,
    h0=None,
    eval_index: int | None = None,
) -> ProbeResult:
    """Re-run one trajectory with a bumped noise path and difference the states.

    Commuting case only.  The estimate is compared against A_j psi(t) for an
    interior bump and against (1/2) A_j psi(t) when the bump sits exactly at
    the endpoint of a white path (the delta then straddles the boundary).
    Bumps strictly beyond the evaluation time must produce the zero vector.
    Both runs take the solver that "auto" picks for ``kernel``.
    """
    if h0 is not None:
        require_commuting(h0, aset)
    eval_index = grid.steps if eval_index is None else int(eval_index)
    cp = np.array([0, eval_index]) if eval_index != 0 else np.array([0])
    base, pert = (
        _single("auto", aset, psi0, grid, h0, cp, kernel.gamma, kernel, rz)
        for rz in (realization, bump_realization(realization, grid, s_index, process, eps))
    )
    raw_base = _raw_vector(base, -1)
    raw_pert = _raw_vector(pert, -1)
    estimate = (raw_pert - raw_base) / eps
    reference = aset.table[process] * raw_base
    factor = 1.0
    if s_index > eval_index:
        factor = 0.0
    elif realization.kind == "increments" and s_index == eval_index:
        factor = 0.5
    expected = factor * reference
    scale = np.linalg.norm(reference)
    rel = float(np.linalg.norm(estimate - expected) / (scale if scale > 0 else 1.0))
    return ProbeResult(estimate, reference, factor, rel)


# ---------------------------------------------------------------------------
# ensembles


def simulate_ensemble(
    aset: CommutingSet,
    psi0,
    grid: TimeGrid,
    kernel: CorrelationKernel,
    n: int,
    master_seed: int,
    h0=None,
    method: str = "auto",
    checkpoints=None,
    workers: int = 1,
    start_index: int = 0,
) -> EnsembleResult:
    """Run n independent trajectories and gather them in index order.

    method: "trotter_white" (white kernel, any H0), "exact_commuting" (any
    kernel, commuting or absent H0), or "raw_linear" (uncompensated).
    "auto" picks trotter_white for white kernels and exact_commuting
    otherwise.  Chunks of ``CHUNK`` trajectories run one after another;
    ``workers`` is accepted and changes nothing.
    """
    if n < 1:
        raise ConfigError(f"ensemble needs n >= 1 trajectories, got {n}")
    method, cp_idx, chunk = _solver(
        method, aset, psi0, grid, h0, checkpoints, kernel.gamma, kernel
    )
    is_white = kernel.family is KernelFamily.WHITE
    factor = None if is_white else build_covariance(grid, kernel)
    # the closed form reads a colored x only at the checkpoints
    nodes = cp_idx if method == "exact_commuting" and not is_white else None

    m = aset.num_ops
    amps = np.empty((n, len(cp_idx), aset.dim), dtype=np.complex128)
    logw = np.empty((n, len(cp_idx)))
    x_out = np.empty((n, m, len(cp_idx)))

    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        if is_white:
            batch = sample_white_increments(grid, kernel.gamma, m, hi - lo, master_seed, start_index + lo)
        else:
            batch = sample_paths(factor, m, hi - lo, master_seed, start_index + lo, nodes=nodes)
        x_cp = batch.x if nodes is not None else batch.x[:, :, cp_idx]
        amps[lo:hi], logw[lo:hi] = chunk(batch.kind, batch.w, x_cp)
        x_out[lo:hi] = x_cp

    return EnsembleResult(grid, grid.nodes()[cp_idx], amps, logw, x_out, master_seed, method, start_index)
