"""Gaussian functional-average identity, per kernel family and functional."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from collapsim import (
    TimeGrid,
    build_covariance,
    exponential_kernel,
    fn_validate,
    gaussian_kernel,
    sample_paths,
    white_kernel,
)
from collapsim import dynamics
from collapsim.errors import UnknownFunctional
from collapsim.fncheck import FN_FUNCTIONALS, _endpoints
from collapsim.kernels import kernel_cumulative, kernel_double_integral, kernel_eval

from conftest import forks_at

GRID = TimeGrid(0.0, 1.0, 200)
KERNELS = [white_kernel(0.8), gaussian_kernel(0.8, 0.4), exponential_kernel(0.8, 0.4)]


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family.value)
def test_constant_functional(kernel):
    rep = fn_validate(kernel, "constant", GRID, 20_000, master_seed=5)
    assert rep.rhs == 0.0
    assert rep.rhs_analytic == 0.0
    assert abs(rep.lhs) <= 5.0 * rep.lhs_stderr  # zero-mean noise
    assert rep.sigmas <= 5.0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family.value)
def test_linear_functional(kernel):
    # both sides must sit at gamma G(t); the Gaussian covariance identity
    # <x(t) w(t)> = gamma int D(t, s) ds is the quadrature oracle
    rep = fn_validate(kernel, "linear_x", GRID, 20_000, master_seed=6)
    want = kernel.gamma * kernel_cumulative(kernel, GRID.t1, GRID.t0)
    assert rep.rhs_analytic == pytest.approx(want, rel=1e-14)
    assert abs(rep.lhs - want) <= 5.0 * rep.lhs_stderr
    assert rep.sigmas <= 5.0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.family.value)
def test_exp_functional(kernel):
    # Gaussian moment identity <e^x w> = Cov(x, w) e^{Var(x)/2}
    rep = fn_validate(kernel, "exp_x", GRID, 20_000, master_seed=7)
    g = kernel.gamma * kernel_cumulative(kernel, GRID.t1, GRID.t0)
    f = kernel.gamma * kernel_double_integral(kernel, GRID.t1, GRID.t0)
    assert rep.rhs_analytic == pytest.approx(g * math.exp(0.5 * f), rel=1e-14)
    assert rep.sigmas <= 5.0
    assert abs(rep.lhs - rep.rhs_analytic) <= 5.0 * rep.lhs_stderr


def test_white_half_convention_in_rhs():
    # the delta at the endpoint contributes half: gamma G = gamma / 2
    rep = fn_validate(white_kernel(0.8), "linear_x", GRID, 5_000, master_seed=8)
    assert rep.rhs_analytic == pytest.approx(0.4, rel=1e-14)


def test_functional_aliases_and_unknown():
    # only the exact names in FN_FUNCTIONALS are accepted; there are no aliases
    for name in ("cubic", "LinearX"):
        with pytest.raises(UnknownFunctional):
            fn_validate(white_kernel(1.0), name, GRID, 100, master_seed=1)


@pytest.mark.parametrize(
    "kernel", [gaussian_kernel(0.8, 0.4), exponential_kernel(0.8, 0.4)],
    ids=lambda k: k.family.value,
)
def test_rhs_quadrature_deterministic_and_stable(kernel):
    # the RHS time integral is closed-form; adaptive quadrature at two
    # refinement levels agrees with it to well below 1e-8 relative
    closed = kernel_cumulative(kernel, GRID.t1, GRID.t0)
    coarse, _ = integrate.quad(
        lambda s: kernel_eval(kernel, GRID.t1, s), GRID.t0, GRID.t1, limit=50
    )
    fine, _ = integrate.quad(
        lambda s: kernel_eval(kernel, GRID.t1, s),
        GRID.t0,
        GRID.t1,
        limit=100,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert coarse == pytest.approx(closed, rel=1e-10)
    assert abs(fine - coarse) / abs(closed) < 1e-8


def test_report_carries_sample_count():
    rep = fn_validate(white_kernel(1.0), "constant", GRID, 256, master_seed=2)
    assert rep.n == 256 and rep.kernel_family == "white"


def test_endpoint_draw_is_cached_per_kernel_grid_n_seed():
    kernel = gaussian_kernel(0.8, 0.4)

    def report(fn, k=kernel, n=3000, seed=9):
        return repr(dataclasses.astuple(fn_validate(k, fn, GRID, n, master_seed=seed)))

    cold = {}
    for fn in FN_FUNCTIONALS:
        _endpoints.cache_clear()
        cold[fn] = report(fn)
    # one draw serves every functional, bit for bit as a cold call
    _endpoints.cache_clear()
    warm = {fn: report(fn) for fn in FN_FUNCTIONALS}
    info = _endpoints.cache_info()
    assert (info.hits, info.misses) == (len(FN_FUNCTIONALS) - 1, 1)
    assert warm == cold
    # another seed, another n or an equal-but-distinct kernel object draws again
    for changed in (dict(seed=10), dict(n=3001), dict(k=gaussian_kernel(0.8, 0.4))):
        report("linear_x")
        misses = _endpoints.cache_info().misses
        report("linear_x", **changed)
        assert _endpoints.cache_info().misses == misses + 1
    # the cached arrays cannot be changed under a later caller
    for arr in _endpoints(kernel, GRID, 3000, 9):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("kernel", [exponential_kernel(1.0, 0.3), gaussian_kernel(0.8, 0.4)])
def test_colored_endpoints_agree_with_full_paths(kernel):
    # x(t) and w(t) come from z @ B.T at the last node only; n = 1100 crosses
    # the 1024-row chunk.  They match the full paths' last node to rounding.
    n = 1100
    _endpoints.cache_clear()
    x_t, w_end = _endpoints(kernel, GRID, n, 9)
    full = sample_paths(build_covariance(GRID, kernel), 1, n, 9)
    assert np.max(np.abs(x_t - full.x[:, 0, -1])) <= 1e-14
    assert np.max(np.abs(w_end - full.w[:, 0, -1])) <= 1e-14


@pytest.mark.parametrize("kernel", [white_kernel(0.8), gaussian_kernel(0.8, 0.4)], ids=lambda k: k.family.value)
def test_forked_endpoint_draw_does_not_depend_on_the_core_count(monkeypatch, kernel):
    # a long draw returns each batch's endpoints from forked processes, with the serial bits
    got = {}
    for cores, cut in ((1, 1), (2, 1), (3, 1), (3, 1 << 30)):
        monkeypatch.setattr(dynamics, "FORK_WORK", cut)
        forks = forks_at(monkeypatch, cores)
        got[cores, cut] = [a.tobytes() for a in _endpoints.__wrapped__(kernel, GRID, 3 * dynamics.CHUNK + 5, 9)]
        assert len(forks) == (0 if cores == 1 or cut > 1 else cores)
    assert len(set(map(tuple, got.values()))) == 1


@pytest.mark.parametrize("kernel", [gaussian_kernel(1.0, 0.2), white_kernel(1.0)], ids=lambda k: k.family.value)
def test_paired_stderr_is_calibrated_over_seeds(kernel):
    # z = (LHS - RHS) / diff_stderr over K fixed seeds is a unit normal when the stderr is right, so
    # (K - 1) sd(z)^2 lies within chi^2(K - 1) bounds at a two-sided level of 1e-4; a stderr off by a
    # factor of 2 either way moves sd(z) to about 0.5 or 2, far outside
    from scipy.stats import chi2

    seeds, grid = range(5000, 5200), TimeGrid(0.0, 1.0, 100)
    z = {fn: [] for fn in ("linear_x", "exp_x")}
    for seed in seeds:  # both functionals of a seed share one cached draw
        for fn, values in z.items():
            rep = fn_validate(kernel, fn, grid, 400, master_seed=seed)
            values.append((rep.lhs - rep.rhs) / rep.diff_stderr)
    dof = len(seeds) - 1
    lo, hi = chi2.ppf([0.5e-4, 1.0 - 0.5e-4], dof)
    for fn, values in z.items():
        assert lo <= dof * np.var(values, ddof=1) <= hi, (fn, np.std(values, ddof=1))
