"""Noise correlation kernels and their time-integral transforms.

A kernel describes the two-point function gamma * D(t1, t2) of the driving
Gaussian processes.  D itself is kept normalized (unit time integral for the
closed-form colored families); the strength prefactor gamma is stored on the
kernel and applied exactly once, either when a discrete covariance matrix is
built or inside an analytic rate formula.

Two integral transforms of D recur in every decay law:

    cumulative       G(t; t0) = int_{t0}^{t} D(t, s) ds
    double integral  f(t; t0) = int_{t0}^{t} int_{t0}^{t} D(s1, s2) ds1 ds2

f is the variance of the integrated process divided by gamma; its divergence
at large times is what drives reduction, which ``divergence_check`` reports.

White noise is kept strictly discrete (per-step variance gamma/dt); it has no
pointwise D value, and its G carries the delta-at-the-edge convention
G = 1/2 for every t >= t0.
"""

from __future__ import annotations

import csv
import enum
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInterval, UnsupportedPointwiseEval

__all__ = [
    "KernelFamily", "CorrelationKernel", "DivergenceReport", "white_kernel", "gaussian_kernel", "exponential_kernel",
    "tabulated_kernel", "kernel_from_config", "load_kernel_table", "kernel_eval", "kernel_cumulative",
    "kernel_double_integral", "divergence_check",
]

class KernelFamily(enum.Enum):
    WHITE = "white"
    GAUSSIAN = "gaussian"
    EXPONENTIAL = "exponential"
    TABULATED = "tabulated"


@dataclass(frozen=True, eq=False)
class CorrelationKernel:
    """Stationary correlation kernel for independent identical processes.

    The cross structure is restricted to delta_ij (each process carries the
    same D, processes are mutually independent), so a single scalar D(|lag|)
    fully describes the family.
    """

    family: KernelFamily
    gamma: float
    tau: float | None = None
    table_lags: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.gamma is None or not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ConfigError(f"kernel strength gamma must be positive, got {self.gamma}")
        if self.family in (KernelFamily.GAUSSIAN, KernelFamily.EXPONENTIAL):
            _require_tau(self.family, self.tau, "tau")
        if self.family is KernelFamily.TABULATED:
            lags, vals = self.table_lags, self.table_values
            if lags is None or vals is None:
                raise ConfigError("tabulated kernel needs (lags, values)")
            lags = np.asarray(lags, dtype=float)
            vals = np.asarray(vals, dtype=float)
            if lags.ndim != 1 or lags.shape != vals.shape or lags.size < 2:
                raise ConfigError("kernel table must be two equal 1-D columns, >= 2 rows")
            if lags[0] != 0.0 or np.any(np.diff(lags) <= 0.0):
                raise ConfigError("kernel table lags must be strictly increasing from 0")
            if not (np.all(np.isfinite(lags)) and np.all(np.isfinite(vals))):
                raise ConfigError("kernel table entries must be finite")
            object.__setattr__(self, "table_lags", lags)
            object.__setattr__(self, "table_values", vals)


def require_strength(gamma: float) -> None:
    """A ConfigError naming gamma unless the white-noise strength is finite and >= 0."""
    if not 0.0 <= gamma < math.inf:
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma!r}")


def _require_tau(family: KernelFamily, tau, where: str) -> None:
    """A ConfigError naming ``where`` unless tau > 0 leaves D's scale finite and nonzero: 2 tau^2 under the
    Gaussian's exponent, which also bounds its D(0), or the exponential's D(0) = 1/(2 tau)."""
    gaussian = family is KernelFamily.GAUSSIAN
    if not (tau is not None and tau > 0.0 and 0.0 < (2.0 * tau * tau if gaussian else 0.5 / tau) < math.inf):
        raise ConfigError(f"{where} of the {family.value} kernel must be > 0 with "
                          f"{'2 tau^2' if gaussian else 'D(0)'} finite and nonzero, got {tau!r}")


def white_kernel(gamma: float) -> CorrelationKernel:
    return CorrelationKernel(KernelFamily.WHITE, gamma)


def gaussian_kernel(gamma: float, tau: float) -> CorrelationKernel:
    return CorrelationKernel(KernelFamily.GAUSSIAN, gamma, tau)


def exponential_kernel(gamma: float, tau: float) -> CorrelationKernel:
    return CorrelationKernel(KernelFamily.EXPONENTIAL, gamma, tau)


def tabulated_kernel(gamma: float, lags, values) -> CorrelationKernel:
    """Symmetric stationary table D(|lag|); D is zero beyond the last lag."""
    lags, values = np.asarray(lags, dtype=float), np.asarray(values, dtype=float)
    return CorrelationKernel(KernelFamily.TABULATED, gamma, table_lags=lags, table_values=values)


def _numeric_rows(path, ncols: int) -> np.ndarray:
    """The (rows, ncols) numbers of a CSV file; only the first non-empty row may be a header.

    Any later row that is not exactly ``ncols`` numbers raises ConfigError
    naming the file and its line.  Shared by the kernel-table and body loaders.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for seen, row in enumerate(filter(None, reader)):
            try:
                values = [float(v) for v in row]
            except ValueError:
                if not seen:  # the header
                    continue
                values = []
            if len(values) != ncols:
                raise ConfigError(f"{path} line {reader.line_num}: need {ncols} numbers, got {row!r}")
            rows.append(values)
    return np.array(rows, dtype=float).reshape(-1, ncols)


def load_kernel_table(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column CSV (lag, D) with an optional header row."""
    table = _numeric_rows(path, 2)
    if len(table) < 2:
        raise ConfigError(f"kernel table {path} has fewer than 2 rows")
    return table[:, 0], table[:, 1]


def kernel_from_config(block: dict, base_dir=None) -> CorrelationKernel:
    """A kernel from a run-config block {family, gamma, tau?, table_path?}; a key the family ignores is an error."""
    try:
        family = KernelFamily(block["family"])
    except (KeyError, ValueError):
        raise ConfigError(f"unknown kernel family in {block!r}")
    if family in (KernelFamily.GAUSSIAN, KernelFamily.EXPONENTIAL):
        _require_tau(family, block.get("tau"), "kernel.tau")
    elif block.get("tau") is not None:
        raise ConfigError(f"kernel.tau is not used by the {family.value} family")
    if block.get("table_path") is not None and family is not KernelFamily.TABULATED:
        raise ConfigError(f"kernel.table_path is not used by the {family.value} family")
    gamma = block.get("gamma")
    if family is KernelFamily.TABULATED:
        path = block.get("table_path")
        if path is None:
            raise ConfigError("kernel.table_path is required for the tabulated family")
        lags, vals = load_kernel_table(os.path.join(base_dir or "", path))
        return tabulated_kernel(gamma, lags, vals)
    return CorrelationKernel(family, gamma, block.get("tau"))


# ---------------------------------------------------------------------------
# pointwise evaluation


def kernel_eval(kernel: CorrelationKernel, t1: float, t2: float):
    """Normalized D(t1, t2) without the gamma prefactor, the one pointwise D that every caller uses.

    Stationary families depend on |t1 - t2| only; a table is zero beyond its
    last lag, the extension G, f and the covariance integrate.  Accepts array
    arguments (broadcast) for grid construction.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
        raise InvalidInterval("kernel_eval needs finite times")
    lag = np.abs(t1 - t2)
    fam = kernel.family
    if fam is KernelFamily.WHITE:
        raise UnsupportedPointwiseEval("white noise has no pointwise kernel value; use the discrete covariance")
    with np.errstate(over="ignore"):  # a lag whose square or ratio to tau overflows has D = 0
        if fam is KernelFamily.GAUSSIAN:
            tau = kernel.tau
            out = np.exp(-(lag**2) / (2.0 * tau * tau)) / (math.sqrt(2.0 * math.pi) * tau)
        elif fam is KernelFamily.EXPONENTIAL:
            tau = kernel.tau
            out = np.exp(-lag / tau) / (2.0 * tau)
        else:
            out = np.interp(lag, kernel.table_lags, kernel.table_values, right=0.0)
    return float(out) if out.ndim == 0 else out


eval_zero_extended = kernel_eval  # the name cli and noise bind, so the bench tracer spans their calls


# ---------------------------------------------------------------------------
# single time integral G(t; t0)


def _check_interval(t: float, t0: float):
    if not math.isfinite(t):
        raise InvalidInterval(f"t must be finite, got {t}")
    if not math.isfinite(t0):
        raise InvalidInterval(f"t0 must be finite, got {t0}")
    if t < t0:
        raise InvalidInterval(f"need t >= t0, got t={t} < t0={t0}")


def _table_moments(kernel: CorrelationKernel, span: float) -> tuple[float, float]:
    """(int_0^span D(u) du, int_0^span (span - u) D(u) du) for the table, zero beyond it.

    Clipping the lags to span leaves segments on which D is linear, so the
    trapezoid rule is exact for the first moment and Simpson's rule for the
    second, whose integrand is quadratic.
    """
    u = np.minimum(kernel.table_lags, span)
    d = np.interp(u, kernel.table_lags, kernel.table_values)
    h, lever = np.diff(u), span - u
    d_mid = 0.5 * (d[:-1] + d[1:])
    simpson = lever[:-1] * d[:-1] + 2.0 * (lever[:-1] + lever[1:]) * d_mid + lever[1:] * d[1:]
    return float(np.sum(h * d_mid)), float(np.sum(h * simpson)) / 6.0


def kernel_cumulative(kernel: CorrelationKernel, t: float, t0: float) -> float:
    """G(t; t0) = int_{t0}^{t} D(t, s) ds, by closed form where available.

    White noise: the delta sits at the interval edge s = t and contributes
    one half, so G = 1/2 for every t >= t0 (including t = t0).
    """
    _check_interval(t, t0)
    fam = kernel.family
    if fam is KernelFamily.WHITE:
        return 0.5
    span = t - t0
    if fam is KernelFamily.GAUSSIAN:
        return 0.5 * math.erf(span / (math.sqrt(2.0) * kernel.tau))
    if fam is KernelFamily.EXPONENTIAL:
        return 0.5 * (1.0 - math.exp(-span / kernel.tau))
    return _table_moments(kernel, span)[0]


# ---------------------------------------------------------------------------
# double integral f(t; t0)


def kernel_double_integral(kernel: CorrelationKernel, t: float, t0: float) -> float:
    """f(t; t0), the double integral of D over [t0, t]^2.

    By stationarity and symmetry f = 2 int_0^T (T - u) D(u) du with T = t - t0,
    which the closed forms below evaluate exactly.
    """
    _check_interval(t, t0)
    span = t - t0
    fam = kernel.family
    if fam is KernelFamily.WHITE:
        return span
    if fam is KernelFamily.EXPONENTIAL:
        tau = kernel.tau
        return span - tau * (1.0 - math.exp(-span / tau))
    if fam is KernelFamily.GAUSSIAN:
        tau = kernel.tau
        if span == 0.0:
            return 0.0
        z = span / (math.sqrt(2.0) * tau)
        try:
            tail = math.exp(-(span**2) / (2.0 * tau * tau))
        except OverflowError:  # span**2 past the float range; span * span would change bits below it
            tail = math.exp(-z * z)
        return span * math.erf(z) + tau * math.sqrt(2.0 / math.pi) * (tail - 1.0)
    return 2.0 * _table_moments(kernel, span)[1]


# ---------------------------------------------------------------------------
# divergence report


@dataclass(frozen=True)
class DivergenceReport:
    """Monotonicity report for f(t) on a geometric sequence of horizons."""

    times: np.ndarray
    values: np.ndarray
    nondecreasing: bool
    last_slope: float
    slope_threshold: float

    @property
    def diverging(self) -> bool:
        return self.nondecreasing and self.last_slope > self.slope_threshold


DIVERGENCE_POINTS = 16  # geometrically spaced horizons that divergence_check probes


def divergence_check(kernel: CorrelationKernel, horizon: float, t0: float) -> DivergenceReport:
    """Probe whether f(t; t0) keeps growing out to ``horizon``.

    Kernels whose double integral saturates (e.g. compactly supported
    oscillatory tables integrating to zero) violate the reduction condition
    and come back flagged; this is report-only, nothing is raised.
    """
    if not horizon > t0:
        raise InvalidInterval(f"horizon {horizon} must exceed t0 {t0}")
    spans = (horizon - t0) * np.geomspace(2.0**-10, 1.0, DIVERGENCE_POINTS)
    times = t0 + spans
    values = np.array([kernel_double_integral(kernel, t, t0) for t in times])
    diffs = np.diff(values)
    nondecreasing = bool(np.all(diffs >= -1e-14 * max(1.0, float(values[-1]))))
    last_slope = float(diffs[-1] / (times[-1] - times[-2]))
    return DivergenceReport(
        times=times,
        values=values,
        nondecreasing=nondecreasing,
        last_slope=last_slope,
        slope_threshold=1.0e-6 * kernel.gamma,
    )
