"""Cooking prescription and collapse statistics.

Physical statistics are obtained by reweighting raw trajectories with the
squared norm of the unnormalized state (self-normalized importance
weighting), which implements the cooked probability rule exactly and avoids
ever integrating the nonlinear norm-preserving dynamics.  Weight degeneracy
is guarded by the effective sample size, not repaired by resampling.

Outcome classification is a finite-time operationalization: a trajectory is
assigned to the joint eigenmanifold holding at least a threshold fraction
(default 0.99, config-exposed) of the physical weight, and Undecided
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateEnsemble, TooManyUndecided
from .hilbert import CommutingSet, born_weights
from .kernels import CorrelationKernel, kernel_double_integral
from .noise import _stderr, fsum_ordered

__all__ = [
    "CookedWeights",
    "BornReport",
    "XDistributionReport",
    "cook_weights",
    "classify_outcomes",
    "born_frequencies",
    "cooked_x_distribution",
    "ks_critical_value",
    "UNDECIDED",
]

UNDECIDED = -1
N_EFF_FLOOR = 10.0
KS_ALPHA = 0.01  # level of the Kolmogorov critical distances


def _logsumexp(a: np.ndarray) -> float:
    peak = float(np.max(a))
    return peak + math.log(fsum_ordered(np.exp(a - peak)))


@dataclass
class CookedWeights:
    """Self-normalized cooking weights at one checkpoint."""

    weights: np.ndarray  # normalized to mean 1
    n_eff: float  # (sum w)^2 / sum w^2
    mean_raw: float  # mean of the unnormalized weights (should sit near 1)
    mean_raw_stderr: float


def cook_weights(log_weights) -> CookedWeights:
    """Cooking weights ~ ||psi_raw(t)||^2 from one checkpoint's log-weight column, normalized to mean one.

    The effective sample size is computed in the log domain,
    n_eff = exp(2 LSE(lw) - LSE(2 lw)), and guards downstream statistics.
    """
    lw = np.asarray(log_weights, dtype=float)
    n = lw.size
    if lw.ndim != 1 or n < 1:
        raise ConfigError(f"cook_weights needs one non-empty log-weight column, got shape {lw.shape}")
    n_eff = math.exp(2.0 * _logsumexp(lw) - _logsumexp(2.0 * lw))
    peak = float(np.max(lw))
    scaled = np.exp(lw - peak)
    mean_scaled = fsum_ordered(scaled) / n
    weights = scaled / mean_scaled
    try:
        mean_raw = math.exp(peak + math.log(mean_scaled))
    except OverflowError:
        mean_raw = math.inf
    se = _stderr(scaled, mean_scaled)
    stderr = mean_raw * se / mean_scaled if se else 0.0  # equal weights: 0, even if mean_raw is inf
    if not n_eff >= N_EFF_FLOOR:
        raise DegenerateEnsemble(f"effective sample size {n_eff:.2f} below floor {N_EFF_FLOOR}")
    return CookedWeights(weights, n_eff, mean_raw, stderr)


def require_threshold(threshold: float, where: str = "decision threshold") -> None:
    """A ConfigError naming ``where`` unless the decision threshold lies in (0.5, 1]."""
    if not 0.5 < threshold <= 1.0:
        raise ConfigError(f"{where} must lie in (0.5, 1], got {threshold!r}")


def require_min_decided(min_decided: float, where: str = "minimum decided fraction") -> None:
    """A ConfigError naming ``where`` unless the minimum decided fraction lies in [0, 1]."""
    if not 0.0 <= min_decided <= 1.0:
        raise ConfigError(f"{where} must lie in [0, 1], got {min_decided!r}")


def classify_outcomes(result, aset: CommutingSet, threshold: float = 0.99) -> np.ndarray:
    """Outcome-group index per trajectory and checkpoint, shape (n, ncp), or UNDECIDED (-1).

    A trajectory is decided at a checkpoint when one joint eigenmanifold holds
    at least ``threshold`` of the physical weight |psi_phys|^2 there.
    """
    require_threshold(threshold)
    groups = aset.outcome_groups()
    n, ncp = result.amps.shape[:2]
    out = np.empty((n, ncp), dtype=np.intp)
    for j in range(ncp):  # one checkpoint at a time keeps the temporaries at (n, d)
        probs = np.abs(result.amps[:, j, :]) ** 2
        gp = np.stack([probs[:, g.indices].sum(axis=1) for g in groups], axis=1)  # (n, G)
        best = np.argmax(gp, axis=1)
        out[:, j] = np.where(gp[np.arange(n), best] >= threshold, best, UNDECIDED)
    return out


@dataclass
class BornReport:
    """Cooked outcome frequencies against the quantum-mechanical weights."""

    labels: list[str]
    born: np.ndarray  # ||P_g psi0||^2
    frequency: np.ndarray  # cooked frequency among decided trajectories
    stderr: np.ndarray  # binomial at the decided effective sample size
    n_eff: float  # over decided trajectories
    undecided_fraction: float  # cooked-weighted


def born_frequencies(
    result, aset: CommutingSet, psi0, threshold: float = 0.99, min_decided: float = 0.95
) -> BornReport:
    """Weighted outcome frequencies at the last checkpoint, with binomial standard errors.

    Frequencies are conditional on the decided trajectories; the standard
    error is binomial under the reference weights at the decided effective
    sample size, sqrt(p0 (1 - p0) / n_eff).
    """
    require_min_decided(min_decided)
    w = cook_weights(result.log_weights[:, -1]).weights
    labels = [g.label for g in aset.outcome_groups()]
    last = classify_outcomes(result, aset, threshold)[:, -1]
    decided = last != UNDECIDED
    undecided = fsum_ordered(w[~decided]) / fsum_ordered(w)
    wd, od = w[decided], last[decided]
    denom, square_sum = fsum_ordered(wd), fsum_ordered(wd**2)
    if square_sum == 0.0 or 1.0 - undecided < min_decided:  # no decided weight leaves no statistics
        raise TooManyUndecided(f"cooked decided fraction {1.0 - undecided:.3f} is zero or below {min_decided}")
    n_eff = denom**2 / square_sum
    born = born_weights(psi0, aset)
    freq = np.array([fsum_ordered(wd[od == g]) / denom for g in range(len(labels))])
    stderr = np.sqrt(np.clip(born * (1.0 - born), 0.0, None) / n_eff)
    return BornReport(labels, born, freq, stderr, n_eff, undecided)


def ks_critical_value(n_eff: float) -> float:
    """Asymptotic Kolmogorov critical distance at level ``KS_ALPHA`` for n_eff samples."""
    return math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0)) / math.sqrt(n_eff)


@dataclass
class XDistributionReport:
    """Weighted distribution of the integrated noise vs the analytic mixture."""

    component_means: np.ndarray
    sigma: float
    ks_distance: float
    ks_critical: float
    raw_ks_distance: float
    raw_ks_critical: float
    n_eff: float


def _mixture_cdf(x, means, weights, sigma):
    z = (x[:, None] - means[None, :]) / (sigma * math.sqrt(2.0))
    comp = 0.5 * (1.0 + np.vectorize(math.erf)(z))
    return comp @ weights


def _weighted_ks(x, w, cdf) -> float:
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.cumsum(w[order])
    cum /= cum[-1]
    model = cdf(xs)
    lower = np.concatenate(([0.0], cum[:-1]))
    return float(np.max(np.maximum(np.abs(cum - model), np.abs(lower - model))))


def cooked_x_distribution(result, aset: CommutingSet, psi0, kernel: CorrelationKernel) -> XDistributionReport:
    """Compare the cooked x(t) sample at the last checkpoint with the two-component Gaussian mixture.

    For a single preferred-basis operator the cooked distribution of the
    integrated noise is the mixture of Gaussians centered at 2 a_g gamma f(t)
    with common variance gamma f(t) and the initial-state weights; the raw
    (unweighted) sample must instead follow the single zero-mean Gaussian of
    the same variance.  Distances are Kolmogorov-Smirnov-type with the
    effective sample size in the critical value.
    """
    if aset.num_ops != 1:
        raise ConfigError("cooked_x_distribution is defined for a single operator")
    cw = cook_weights(result.log_weights[:, -1])
    x = result.x[:, 0, -1]
    t = float(result.times[-1])
    t0 = float(result.grid.t0)
    gf = kernel.gamma * kernel_double_integral(kernel, t, t0)
    if gf <= 0.0:
        raise ConfigError("cooked_x_distribution needs f(t) > 0 (t past t0)")
    sigma = math.sqrt(gf)
    groups = aset.outcome_groups()
    means = np.array([2.0 * g.key[0] * gf for g in groups])
    comp_w = born_weights(psi0, aset)
    dist = _weighted_ks(x, cw.weights, lambda xs: _mixture_cdf(xs, means, comp_w, sigma))
    raw_dist = _weighted_ks(
        x, np.ones_like(x), lambda xs: _mixture_cdf(xs, np.array([0.0]), np.array([1.0]), sigma)
    )
    return XDistributionReport(
        means, sigma, dist, ks_critical_value(cw.n_eff), raw_dist, ks_critical_value(float(x.size)), cw.n_eff
    )
