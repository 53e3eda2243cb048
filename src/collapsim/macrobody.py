"""Macroscopic rigid-body sector: physical parameters and spatial decoherence.

Works in CGS-consistent units (cm, s).  The space-time correlation kernel
factorizes into a Gaussian space part g and a normalized Gaussian time part
h; the localization accuracy is 1/sqrt(alpha), the per-constituent rate
lambda, and the noise strength is tied to them by

    gamma = lambda (4 pi / alpha)^(3/2).

For a rigid body (constituents pinned at equilibrium offsets) the smeared
number density acts only on the center of mass, and the coherence between
center-of-mass positions Q' and Q'' decays at the closed-form rate

    Gamma(Q', Q'', t) = gamma(t) (alpha/4pi)^(3/2) *
        sum_ij [ e^{-(alpha/4)(q_i - q_j)^2} - e^{-(alpha/4)(dQ + q_i - q_j)^2} ]

obtained by Gaussian integration of (F'^2 + F''^2)/2 - F'F''; a direct 3-D
quadrature of that integrand is shipped alongside as the cross-check.  The
prefactor gamma(t) (alpha/4pi)^(3/2) is evaluated as lambda * gamma(t)/gamma
so the algebraic cancellation gamma (alpha/4pi)^(3/2) = lambda holds exactly
in floating point; for well-separated constituents the bracket counts pairs,
which is the linear-in-N amplification of the damping rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInterval
from .kernels import _numeric_rows

__all__ = [
    "SPEED_OF_LIGHT_CM_S",
    "MacroParams",
    "MacroBody",
    "gamma_of_t",
    "smeared_density",
    "macro_damping_rate",
    "macro_damping_rate_quadrature",
    "com_offdiag_decay",
]

SPEED_OF_LIGHT_CM_S = 2.99792458e10

# Standard choices: localization accuracy 1e-5 cm and rate 1e-16 / s.
DEFAULT_ALPHA = 1.0e10  # cm^-2
DEFAULT_LAMBDA = 1.0e-16  # s^-1
PADDING_SIGMAS = 8.5  # margin of macro_damping_rate_quadrature's grid, in Gaussian widths
_PAIR_ROWS = 64  # constituents i per block of the pair bracket's sum


@dataclass(frozen=True)
class MacroParams:
    """Physical parameters; gamma and beta are derived unless overridden."""

    alpha: float = DEFAULT_ALPHA
    lam: float = DEFAULT_LAMBDA
    beta: float | None = None  # s^-2; defaults to c^2 alpha
    t0: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0 or self.lam <= 0:
            raise ConfigError("alpha and lambda must be positive")
        object.__setattr__(self, "beta", require_beta(self.alpha, self.beta))

    @property
    def gamma(self) -> float:
        """Noise strength, recomputed from (lam, alpha); never stored."""
        return self.lam * (4.0 * math.pi / self.alpha) ** 1.5

    @property
    def reduction_rate_coeff(self) -> float:
        """gamma (alpha/4pi)^(3/2), which cancels algebraically to lambda."""
        return self.lam


def require_beta(alpha: float, beta: float | None, where: str = "beta") -> float:
    """beta, or c^2 alpha in its place, or a ConfigError naming ``where`` unless that is finite and > 0."""
    value = SPEED_OF_LIGHT_CM_S**2 * alpha if beta is None else beta
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{where} (c^2 alpha when not given) must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class MacroBody:
    """Rigid body given by its constituent equilibrium offsets (N, 3) in cm."""

    offsets: np.ndarray = field(repr=False)

    def __post_init__(self):
        off = np.atleast_2d(np.asarray(self.offsets, dtype=float))
        if off.ndim != 2 or off.shape[1] != 3 or off.shape[0] < 1:
            raise ConfigError("body offsets must be an (N, 3) array")
        if not np.all(np.isfinite(off)):
            raise ConfigError("body offsets must be finite")
        object.__setattr__(self, "offsets", off)

    @property
    def num_constituents(self) -> int:
        return self.offsets.shape[0]

    @classmethod
    def lattice(cls, n: int, spacing: float) -> "MacroBody":
        """n constituents along the x axis, ``spacing`` cm apart, centered."""
        off = np.zeros((n, 3))
        off[:, 0] = spacing * (np.arange(n) - 0.5 * (n - 1))
        return cls(off)

    @classmethod
    def from_csv(cls, path) -> "MacroBody":
        """Load (i, qx, qy, qz) rows; the index column is ignored, a header row allowed."""
        rows = _numeric_rows(path, 4)
        if not len(rows):
            raise ConfigError(f"body file {path} holds no constituents")
        return cls(rows[:, 1:])


def require_after_t0(times, t0: float, where: str = "t") -> None:
    """An InvalidInterval naming ``where`` unless every time is >= t0, where gamma(t) starts."""
    first = float(np.min(times))
    if first < t0:
        raise InvalidInterval(f"{where} must be >= t0 = {t0}, got {first}")


def _gamma_ratio(params: MacroParams, t: float) -> float:
    """gamma(t)/gamma = erf(sqrt(beta) (t - t0) / 2), monotone from 0 to 1."""
    require_after_t0(t, params.t0)
    return math.erf(0.5 * math.sqrt(params.beta) * (t - params.t0))


def gamma_of_t(params: MacroParams, t: float) -> float:
    """Effective strength gamma(t) = 2 gamma int_{t0}^t h(t - s) ds."""
    return params.gamma * _gamma_ratio(params, t)


def smeared_density(body: MacroBody, q: np.ndarray, x: np.ndarray, params: MacroParams):
    """F(Q - x): Gaussian-smeared constituent density seen from point x.

    Accepts x of shape (3,) or (..., 3); the sum runs over constituents at
    Q + offset_i.
    """
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    centers = q[None, :] + body.offsets  # (N, 3)
    diff = x[..., None, :] - centers  # (..., N, 3)
    expo = -(params.alpha / 2.0) * np.sum(diff**2, axis=-1)
    amp = (params.alpha / (2.0 * math.pi)) ** 1.5
    out = amp * np.sum(np.exp(expo), axis=-1)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
@np.errstate(over="ignore")  # a square past the float range is inf, and its exponential 0
def _pair_bracket(body: MacroBody, q1: tuple, q2: tuple, alpha: float) -> float:
    """sum_ij [e^{-(alpha/4)(qi-qj)^2} - e^{-(alpha/4)(dq+qi-qj)^2}], dq = q1 - q2, 0 at dq = 0.

    With k = alpha/4, r = qi - qj, s = r + dq and c = s^2 - r^2 = 2 r.dq + dq^2,
    each term is -e^{-k r^2} expm1(-k c), or e^{-k s^2} expm1(k c) where the
    shifted exponential is the larger by e or more, so it keeps its digits
    as dq -> 0 and never overflows.  Cached (the key is the ``eq=False`` body
    object itself), so the decay and the rate at one displacement compute it once.
    """
    dq = np.asarray(q1, dtype=float) - np.asarray(q2, dtype=float)
    if np.all(dq == 0.0):
        return 0.0
    off, k, total = body.offsets, alpha / 4.0, 0.0
    # a coordinate along which every offset is equal and dq is 0 gives planes of exact +0.0, which add nothing
    axes = [c for c in range(3) if dq[c] != 0.0 or np.any(off[:, c] != off[0, c])]
    for lo in range(0, len(off), _PAIR_ROWS):  # row blocks, so memory grows as N, not N^2
        rel = [off[lo : lo + _PAIR_ROWS, None, c] - off[None, :, c] for c in axes]  # (rows, N) planes
        sh = [r + dq[c] for r, c in zip(rel, axes)]
        r2, s2 = (functools.reduce(np.add, (q * q for q in p)) for p in (rel, sh))
        cross = functools.reduce(np.add, (r * dq[c] for r, c in zip(rel, axes)))
        kc = k * (2.0 * cross + dq @ dq)  # k (s^2 - r^2), no cancellation
        shifted = kc < -1.0
        sign = np.where(shifted, -1.0, 1.0)
        total -= np.sum(sign * np.exp(-k * np.where(shifted, s2, r2)) * np.expm1(-sign * kc))
    return float(total)


def macro_damping_rate(
    body: MacroBody, q1: np.ndarray, q2: np.ndarray, t: float | np.ndarray, params: MacroParams
) -> float | np.ndarray:
    """Closed-form coherence decay rate Gamma(Q', Q'', t), in 1/s.

    ``t`` is one time or an array of times; a float comes back for a scalar,
    an array of t's shape for an array.  The pair bracket is computed once
    for all times, and each rate is (lambda * gamma(t)/gamma) * bracket.
    Vanishes identically at Q' = Q'' and saturates at
    lambda * gamma(t)/gamma * N for well-separated constituents and large
    separation (the linear-in-N amplification).
    """
    times = np.asarray(t, dtype=float)
    ratios = np.array([_gamma_ratio(params, u) for u in times.ravel().tolist()]).reshape(times.shape)
    rates = (params.reduction_rate_coeff * ratios) * _pair_bracket(body, tuple(q1), tuple(q2), params.alpha)
    return float(rates) if rates.ndim == 0 else rates


def macro_damping_rate_quadrature(
    body: MacroBody,
    q1: np.ndarray,
    q2: np.ndarray,
    t: float,
    params: MacroParams,
    nodes_per_axis: int = 96,
) -> float:
    """Direct 3-D Gauss-Legendre quadrature of gamma(t) * int (F' - F'')^2 / 2.

    Independent of the closed form: evaluates the smeared densities on a
    tensor grid covering every Gaussian center plus ``PADDING_SIGMAS`` widths
    of margin.  Practical for N <= 3 at default resolution.
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    sigma = 1.0 / math.sqrt(params.alpha)
    centers = np.vstack([q1[None, :] + body.offsets, q2[None, :] + body.offsets])
    lo = centers.min(axis=0) - PADDING_SIGMAS * sigma
    hi = centers.max(axis=0) + PADDING_SIGMAS * sigma
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_axis)
    axes = [(0.5 * (h - l) * xg + 0.5 * (h + l), 0.5 * (h - l) * wg) for l, h in zip(lo, hi)]
    pts = np.stack(
        np.meshgrid(axes[0][0], axes[1][0], axes[2][0], indexing="ij"), axis=-1
    )  # (n, n, n, 3)
    wprod = (
        axes[0][1][:, None, None] * axes[1][1][None, :, None] * axes[2][1][None, None, :]
    )
    f1 = smeared_density(body, q1, pts, params)
    f2 = smeared_density(body, q2, pts, params)
    integral = float(np.sum(wprod * 0.5 * (f1 - f2) ** 2))
    return gamma_of_t(params, t) * integral


def _gamma_ratio_time_integral(params: MacroParams, t: float) -> float:
    """int_{t0}^{t} gamma(u)/gamma du, closed form via the erf antiderivative."""
    k = 0.5 * math.sqrt(params.beta)
    span = t - params.t0
    z = k * span
    tail = math.exp(-(z**2)) if z < 1e154 else 0.0  # past 1e154 z**2 overflows, and the exponential is 0 anyway
    # int_0^T erf(k u) du = T erf(kT) + (e^{-k^2 T^2} - 1)/(k sqrt(pi)); erf(kT) is _gamma_ratio
    return span * _gamma_ratio(params, t) + (tail - 1.0) / (k * math.sqrt(math.pi))


def com_offdiag_decay(
    body: MacroBody, q1: np.ndarray, q2: np.ndarray, times, params: MacroParams
) -> np.ndarray:
    """Center-of-mass coherence <Q'|rho(t)|Q''> relative to its initial value.

    exp(-int_{t0}^{t} Gamma(Q', Q'', u) du); only gamma(u) depends on time,
    so the geometric pair bracket factors out of the integral.
    """
    bracket = _pair_bracket(body, tuple(q1), tuple(q2), params.alpha)
    coeff = params.reduction_rate_coeff * bracket
    out = np.array(
        [math.exp(-coeff * _gamma_ratio_time_integral(params, float(t))) for t in np.atleast_1d(times)]
    )
    return out
