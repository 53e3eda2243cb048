"""Monte Carlo validation of the Gaussian functional-average identity.

For a zero-mean Gaussian process w with covariance gamma * D, the average of
any functional F[w] times the endpoint value w(t) equals the kernel-weighted
average of the functional derivative:

    << F[w] w(t) >>  =  gamma * int_{t0}^{t} D(t, s) << dF/dw(s) >> ds

(the integral over s beyond [t0, t] drops because the solution functionals
cannot depend on noise outside the window, so the truncated integral is the
full identity).

The left side is a Monte Carlo average over sampled paths; the right side
uses the analytic functional derivative of a fixed menu of functionals:

    constant   F = 1          dF/dw(s) = 0
    linear_x   F = x(t)       dF/dw(s) = 1 on [t0, t]
    exp_x      F = e^{x(t)}   dF/dw(s) = e^{x(t)} on [t0, t]

so the time integral factors into gamma * G(t; t0) times the Monte Carlo
average of the derivative.  The report quotes both sides, the LHS standard
error, and |LHS - RHS| in units of the *paired* standard error (the two
sides are evaluated on the same paths, so the honest error is that of the
per-trajectory difference).

The endpoint values x(t) and w(t) are drawn by ``dynamics.ensemble_noise``
once per (kernel, grid, n, seed) and kept, so checking the whole menu on one
kernel object draws once; colored ones are z @ B.T at the last node only.
A long draw runs its batches in forked processes, each returning only its
rows' two endpoint values; the Cholesky factor is built once, before the fork.

White noise keeps its discrete convention: w(t) at the final node is the
average of the two adjacent step values (the grid is extended by one step to
realize the boundary), which is exactly the half-weight the delta function
puts at the edge and is consistent with G_white = 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, UnknownFunctional
from .kernels import (
    CorrelationKernel,
    KernelFamily,
    kernel_cumulative,
    kernel_double_integral,
)
from .dynamics import CHUNK, ensemble_noise
from .noise import TimeGrid, _stderr, fsum_ordered

__all__ = ["FnReport", "fn_validate", "FN_FUNCTIONALS"]

# name -> (F, dF/dw(s) on [t0, t], both as functions of the sampled x(t);
# closed-form value of both sides from gamma, G(t) and f(t))
_MENU = {
    "constant": (np.ones_like, np.zeros_like, lambda gamma, g_val, f_val: 0.0),
    "linear_x": (lambda xt: xt, np.ones_like, lambda gamma, g_val, f_val: gamma * g_val),
    "exp_x": (np.exp, np.exp, lambda gamma, g_val, f_val: gamma * g_val * math.exp(0.5 * gamma * f_val)),
}
FN_FUNCTIONALS = tuple(_MENU)


@dataclass(frozen=True)
class FnReport:
    """Both sides of the identity for one (kernel, functional) pair."""

    kernel_family: str
    functional: str
    n: int
    lhs: float
    lhs_stderr: float
    rhs: float
    diff_stderr: float  # paired standard error of (F w - gamma G dF)
    sigmas: float  # |LHS - RHS| / diff_stderr
    rhs_analytic: float  # closed-form value of both sides


def require_samples(n: int, where: str = "n") -> None:
    """A ConfigError naming ``where`` unless n >= 2: the paired stderr needs two samples."""
    if n < 2:
        raise ConfigError(f"{where} must be >= 2 for fn-check, got {n}")


def fn_validate(
    kernel: CorrelationKernel,
    functional: str,
    grid: TimeGrid,
    n: int,
    master_seed: int,
) -> FnReport:
    """Monte Carlo check of the identity for one functional and kernel.

    Single-process paths on ``grid``; the endpoint is t = grid.t1.  The RHS
    quadrature is closed-form (G from the kernel transforms), so refining it
    changes nothing; all Monte Carlo noise is shared between the two sides.
    """
    require_samples(n)
    if functional not in FN_FUNCTIONALS:
        raise UnknownFunctional(f"unknown functional {functional!r}; pick from {FN_FUNCTIONALS}")
    gamma = kernel.gamma
    g_val = kernel_cumulative(kernel, grid.t1, grid.t0)
    f_val = kernel_double_integral(kernel, grid.t1, grid.t0)
    x_t, w_end = _endpoints(kernel, grid, n, master_seed)
    f_of, df_of, closed_form = _MENU[functional]
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range fails the run below
        f_vals, df_vals = f_of(x_t), df_of(x_t)
        lhs_samples = f_vals * w_end
        rhs_samples = (gamma * g_val) * df_vals
        diff = lhs_samples - rhs_samples
        try:  # math.fsum and math.exp raise past the float range, where numpy gives inf or nan
            lhs = fsum_ordered(lhs_samples) / n
            rhs = fsum_ordered(rhs_samples) / n
            lhs_err = _stderr(lhs_samples, lhs)
            diff_mean = fsum_ordered(diff) / n
            diff_err = _stderr(diff, diff_mean)
            sigmas = abs(diff_mean) / diff_err if diff_err > 0 else (0.0 if diff_mean == 0 else math.inf)
            analytic = closed_form(gamma, g_val, f_val)
            finite = all(map(math.isfinite, (lhs, rhs, lhs_err, diff_err, sigmas, analytic)))
        except (OverflowError, ValueError):  # fsum of inf and -inf is a ValueError
            finite = False
    if not finite:
        raise NumericalError(f"fn-check {functional} on the {kernel.family.value} kernel leaves the float range: "
                             "a sample or statistic overflows, or the paired stderr underflows to 0")
    return FnReport(kernel_family=kernel.family.value, functional=functional, n=n, lhs=lhs, lhs_stderr=lhs_err,
                    rhs=rhs, diff_stderr=diff_err, sigmas=sigmas, rhs_analytic=analytic)


@functools.lru_cache(maxsize=1)
def _endpoints(kernel: CorrelationKernel, grid: TimeGrid, n: int, master_seed: int):
    """x(t) and w(t) at t = grid.t1 for trajectories 0..n-1, read-only.

    Cached on (kernel, grid, n, master_seed): the kernel is ``eq=False``, so
    the key is the object itself, and checking several functionals on one
    kernel draws its paths once.
    """
    white = kernel.family is KernelFamily.WHITE
    node_t = grid.steps  # index of t on the (possibly extended) node grid
    # white noise takes one extra step, so the boundary value (w_{M-1} + w_M)/2 exists
    on = TimeGrid(grid.t0, grid.t1 + grid.dt, grid.steps + 1) if white else grid

    def ends(batch):  # the rows' w(t) and x(t)
        if white:
            return 0.5 * (batch.w[:, 0, node_t - 1] + batch.w[:, 0, node_t]), batch.x[:, 0, node_t]
        return batch.w[:, 0, 0], batch.x[:, 0, 0]

    batches = ensemble_noise(on, kernel, 1, n, master_seed, CHUNK, nodes=None if white else [node_t], task=ends,
                             work=n * on.steps)
    w_end, x_t = map(np.concatenate, zip(*batches))
    x_t.flags.writeable = False
    w_end.flags.writeable = False
    return x_t, w_end
