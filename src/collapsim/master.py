"""Deterministic density-matrix evolutions and analytic decay laws.

These are the oracles the stochastic ensembles are checked against.  Because
the preferred-basis operators are diagonal, the double commutator collapses
to an elementwise weight, [A_i, [A_i, rho]]_{ab} = (a_ia - a_ib)^2 rho_ab,
so the master equation is one RK4 driver with a rate,

    drho/dt = -i [H0, rho] - rate(t) W . rho,   rate(t) = gamma G(t),

with W[a, b] = sum_i (a_ia - a_ib)^2 and "." elementwise.  White noise is
the member with G = 1/2 (H0 allowed); colored noise uses the analytic
cumulative G(t) rather than re-quadrature per step, which removes a
discretization axis from every comparison (H0 absent by scope).  The driver
records rho at ``noise.checkpoint_schedule(grid, checkpoints)`` and takes no
step past the last checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateEnsemble, StepSizeRejected
from .hilbert import CommutingSet, DensityMatrix, validate_hamiltonian
from .kernels import CorrelationKernel, kernel_cumulative, kernel_double_integral, require_strength
from .noise import TimeGrid, checkpoint_schedule

__all__ = [
    "DensityPath",
    "evolve_lindblad_csl",
    "evolve_colored_master",
    "offdiag_analytic",
    "ensemble_to_density",
    "fit_exponential_rate",
]

TRACE_DRIFT_TOL = 1.0e-8
STEP_MARGIN = 0.25  # largest dt * (max rate * max W + spread of H0's eigenvalues) an RK4 step takes
BATCHES = 100  # trajectory-index batches behind ensemble_to_density's standard errors


@dataclass
class DensityPath:
    """rho(t) at checkpoint times, with optional entrywise standard errors."""

    times: np.ndarray
    rhos: np.ndarray  # (ncp, d, d)
    stderr_re: np.ndarray | None = None
    stderr_im: np.ndarray | None = None


def _rk4_density(rho0, grid, rhs, cp_idx):
    rho = np.array(rho0, dtype=np.complex128)
    nodes = grid.nodes()
    dt = grid.dt
    out = np.empty((len(cp_idx), *rho.shape), dtype=np.complex128)
    start = 0
    for j, stop in enumerate(cp_idx):
        for k in range(start, stop):
            t = nodes[k]
            k1 = rhs(rho, t)
            k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(rho + dt * k3, t + dt)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tr = np.trace(rho)
            drift = abs(float(tr.real) - 1.0) + abs(float(tr.imag))
            if not drift <= TRACE_DRIFT_TOL:
                raise StepSizeRejected(
                    f"trace drift {drift:.2e} at t={nodes[k + 1]:.6g}; reduce the step size"
                )
        out[j] = rho
        start = stop
    return out


def require_finite_gaps(aset: CommutingSet, where: str = "eigenvalue table") -> None:
    """A ConfigError naming ``where`` unless every gap W_ab is finite; no step count passes the step rule otherwise."""
    if not np.all(np.isfinite(aset.pairwise_gap_sq())):
        raise ConfigError(f"{where} has gaps W_ab = sum_i (a_ia - a_ib)^2 past the float range")


def require_stable_step(h0, aset: CommutingSet, grid: TimeGrid, rate, where: str = "step count") -> None:
    """A ConfigError naming ``where``, and the least step count that passes, unless the step
    margin dt * (max over the nodes of rate * max W + the spread of H0's eigenvalues) is at most
    ``STEP_MARGIN``.  There one RK4 step errs by 1.0e-5 relative on a decaying coherence and by
    1.1e-6 absolute under H0; near 3 the step is unstable, and the trace check cannot see it.
    """
    top = max(map(rate, grid.nodes().tolist())) * float(np.max(aset.pairwise_gap_sq()))
    if h0 is not None:
        evals = np.linalg.eigvalsh(h0)
        top += float(evals[-1] - evals[0])
    margin = grid.dt * top
    if not margin <= STEP_MARGIN:
        span = grid.t1 - grid.t0
        need = span * top / STEP_MARGIN
        if need < 1e15:
            need = math.ceil(need)
            need += span / need * top > STEP_MARGIN  # the ceiling can round one step short
        raise ConfigError(f"{where} gives a master-equation step margin {margin:.3g} above {STEP_MARGIN}; "
                          f"the least step count that passes is {need:.15g}")


def _evolve_master(h0, aset: CommutingSet, rho0: DensityMatrix, grid: TimeGrid, rate, checkpoints):
    """RK4 on drho/dt = -i [H0, rho] - rate(t) W . rho, recording rho at the checkpoints."""
    rho0.validate()
    cp_idx = checkpoint_schedule(grid, checkpoints)
    w = aset.pairwise_gap_sq()
    h0m = validate_hamiltonian(h0, rho0.dim) if h0 is not None else None
    require_finite_gaps(aset)
    require_stable_step(h0m, aset, grid, rate)

    def rhs(rho, t):
        out = -rate(t) * (w * rho)
        if h0m is not None:
            out = out - 1j * (h0m @ rho - rho @ h0m)
        return out

    return DensityPath(grid.nodes()[cp_idx], _rk4_density(rho0.rho, grid, rhs, cp_idx))


def evolve_lindblad_csl(
    h0,
    aset: CommutingSet,
    rho0: DensityMatrix,
    grid: TimeGrid,
    gamma: float,
    checkpoints=None,
) -> DensityPath:
    """White-noise master equation: the rate is gamma G(t) with G = 1/2."""
    require_strength(gamma)
    return _evolve_master(h0, aset, rho0, grid, lambda t: 0.5 * gamma, checkpoints)


def evolve_colored_master(
    aset: CommutingSet,
    rho0: DensityMatrix,
    grid: TimeGrid,
    kernel: CorrelationKernel,
    checkpoints=None,
) -> DensityPath:
    """Colored master equation (Hamiltonian absent by scope): the rate is gamma G(t; grid.t0)."""
    return _evolve_master(
        None, aset, rho0, grid, lambda t: kernel.gamma * kernel_cumulative(kernel, t, grid.t0), checkpoints
    )


def offdiag_analytic(
    aset: CommutingSet,
    kernel: CorrelationKernel,
    alpha: int,
    beta: int,
    t: float,
    t0: float,
) -> float:
    """Damping factor of <alpha| rho |beta> between t0 and t (closed form)."""
    gap = float(aset.pairwise_gap_sq()[alpha, beta])
    if gap == 0.0:
        return 1.0
    f = kernel_double_integral(kernel, t, t0)
    return math.exp(-0.5 * kernel.gamma * gap * f) if f else 1.0  # an overflowing gap times f = 0 is NaN


# ---------------------------------------------------------------------------
# ensemble estimators


def _scaled_value(values: np.ndarray, log_scale: float) -> np.ndarray:
    """exp(log_scale) * values, formed in log space so the product cannot overflow unseen."""
    mag = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        out_log = log_scale + np.log(mag)
        phase = np.where(mag > 0.0, values / mag, 0.0)
    if np.any(out_log > 709.0):
        raise DegenerateEnsemble("ensemble average overflowed; weights too degenerate")
    return phase * np.exp(out_log)


def ensemble_to_density(result, mode: str = "raw") -> DensityPath:
    """Estimate rho(t) from gathered trajectory records.

    raw mode averages the unnormalized projectors |psi><psi| (log-offset
    aware); cooked mode averages weight * |psi_phys><psi_phys| with
    self-normalized weights.  Both estimate the same statistical operator.
    Standard errors come from batch means over trajectory-index batches
    (weights correlate with states, so per-sample variances would lie).
    Each batch's sums at every checkpoint come from one stacked matrix
    product, and the total is the sum of the batch sums, in batch order.
    """
    if mode not in ("raw", "cooked"):
        raise ConfigError(f"mode must be 'raw' or 'cooked', got {mode!r}")
    n, ncp, d = result.amps.shape
    if n < 2:
        raise ConfigError("need at least 2 trajectories for an ensemble estimate")
    nb = max(2, min(BATCHES, n))
    edges = np.linspace(0, n, nb + 1).astype(int)
    peak = np.max(result.log_weights, axis=0)  # (ncp,)
    if np.any(np.exp(np.minimum(peak, 709.0)) == 0.0):
        raise DegenerateEnsemble("all cooking weights underflow at this checkpoint")
    bsums = np.empty((nb, ncp, d, d), dtype=np.complex128)
    wsums = np.empty((nb, ncp))
    tmp = np.empty((2, n // nb + 1, ncp, d), dtype=np.complex128)  # a batch's two products; amps' layout keeps the bits
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        s = np.exp(result.log_weights[lo:hi] - peak)  # (hi - lo, ncp)
        psi = result.amps[lo:hi].transpose(1, 0, 2)  # (ncp, hi - lo, d)
        scaled = np.multiply(psi, s.T[..., None], out=tmp[0, : hi - lo].transpose(1, 0, 2))
        np.matmul(scaled.transpose(0, 2, 1), np.conjugate(psi, out=tmp[1, : hi - lo].transpose(1, 0, 2)), out=bsums[b])
        wsums[b] = s.sum(axis=0)
    total = bsums.sum(axis=0)
    if mode == "cooked":
        if np.any(wsums == 0.0):
            raise DegenerateEnsemble("a weight batch summed to zero")
        rhos = total / wsums.sum(axis=0)[:, None, None]
        bsums /= wsums[:, :, None, None]
    else:
        rhos = _scaled_value(total / n, peak[:, None, None])
        bsums /= np.diff(edges)[:, None, None, None]
    err = [np.std(part, axis=0, ddof=1) / math.sqrt(nb) for part in (bsums.real, bsums.imag)]
    if mode == "raw":
        err = [_scaled_value(e, peak[:, None, None]) for e in err]
    return DensityPath(result.times, rhos, *err)


def fit_exponential_rate(times, values) -> float:
    """Least-squares decay rate r of |v| ~ exp(-r t)."""
    times = np.asarray(times, dtype=float)
    mags = np.abs(np.asarray(values))
    if np.any(mags <= 0.0):
        raise ConfigError("cannot fit a decay rate through zero magnitudes")
    slope = np.polyfit(times, np.log(mags), 1)[0]
    return float(-slope)

