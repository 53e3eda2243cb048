"""Density-matrix integrators, analytic damping, ensemble estimators."""

import dataclasses
import math
import re
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from collapsim import (
    CommutingSet,
    DensityMatrix,
    TimeGrid,
    ensemble_to_density,
    evolve_colored_master,
    evolve_lindblad_csl,
    exponential_kernel,
    gaussian_kernel,
    offdiag_analytic,
    simulate_ensemble,
    white_kernel,
)
from collapsim.errors import ConfigError, DegenerateEnsemble, StepSizeRejected
from collapsim.hilbert import pure_density
from collapsim.master import _rk4_density, fit_exponential_rate


@pytest.fixture
def rho_born(psi_born):
    return DensityMatrix(pure_density(psi_born))


def test_lindblad_offdiag_matches_exponential(two_state, rho_born):
    gamma = 0.5
    grid = TimeGrid(0.0, 1.0, 1000)
    path = evolve_lindblad_csl(None, two_state, rho_born, grid, gamma)
    for t, rho in zip(path.times, path.rhos):
        assert rho[0, 1].real == pytest.approx(0.48 * math.exp(-2.0 * gamma * t), rel=1e-6)
    # diagonal elements do not move without a Hamiltonian
    assert np.allclose(path.rhos[:, 0, 0], 0.36, atol=1e-12)
    assert np.allclose(path.rhos[:, 1, 1], 0.64, atol=1e-12)


def test_lindblad_gamma_zero_is_unitary_conjugation(two_state, rho_born):
    h0 = np.array([[0.4, 0.3], [0.3, -0.2]], dtype=complex)
    grid = TimeGrid(0.0, 1.0, 500)
    path = evolve_lindblad_csl(h0, two_state, rho_born, grid, 0.0)
    eig0 = np.sort(np.linalg.eigvalsh(path.rhos[0]))
    for rho in path.rhos:
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho)), eig0, atol=1e-9)


def test_colored_master_white_reduces_to_lindblad(two_state, rho_born):
    grid = TimeGrid(0.0, 1.0, 400)
    a = evolve_colored_master(two_state, rho_born, grid, white_kernel(0.8))
    b = evolve_lindblad_csl(None, two_state, rho_born, grid, 0.8)
    assert np.max(np.abs(a.rhos - b.rhos)) <= 1e-8


def test_colored_master_gaussian_infinite_history_is_csl(two_state, rho_born):
    # with the full stationary history the instantaneous rate is constant
    kernel = gaussian_kernel(0.8, 0.5)
    grid = TimeGrid(0.0, 1.0, 400)
    path = evolve_colored_master(two_state, rho_born, grid, kernel, kernel_t0=-math.inf)
    ref = evolve_lindblad_csl(None, two_state, rho_born, grid, 0.8)
    assert np.max(np.abs(path.rhos - ref.rhos)) <= 1e-8


def test_colored_master_exponential_rate_factor(two_state, rho_born):
    # instantaneous rate carries 1 - e^{-(t - t0)/tau}
    kernel = exponential_kernel(1.0, 0.4)
    grid = TimeGrid(0.0, 0.9, 900)
    path = evolve_colored_master(two_state, rho_born, grid, kernel)
    vals = path.rhos[:, 0, 1].real
    for target_t in (0.2, 0.4, 0.8):
        j = int(np.argmin(np.abs(path.times - target_t)))
        t = path.times
        rate = -(math.log(abs(vals[j + 1])) - math.log(abs(vals[j - 1]))) / (t[j + 1] - t[j - 1])
        want = 2.0 * kernel.gamma * (1.0 - math.exp(-t[j] / 0.4))
        assert rate == pytest.approx(want, rel=1e-3)


def test_offdiag_analytic_values(two_state):
    assert offdiag_analytic(two_state, white_kernel(0.5), 0, 0, 5.0, 0.0) == 1.0
    # (gamma/2) (Delta a)^2 f = 0.25 * 4 * 1 = 1 -> e^{-1}
    val = offdiag_analytic(two_state, white_kernel(0.5), 0, 1, 1.0, 0.0)
    assert val == pytest.approx(0.36787944117144233, rel=1e-14)


@pytest.mark.parametrize(
    "kernel", [gaussian_kernel(1.0, 0.3), exponential_kernel(1.0, 0.3)]
)
def test_offdiag_analytic_matches_integrator(two_state, rho_born, kernel):
    grid = TimeGrid(0.0, 1.5, 3000)
    cp = np.arange(0, 3001, 300)
    path = evolve_colored_master(two_state, rho_born, grid, kernel, checkpoints=cp)
    for t, rho in zip(path.times, path.rhos):
        want = offdiag_analytic(two_state, kernel, 0, 1, float(t), 0.0) * 0.48
        assert rho[0, 1].real == pytest.approx(want, rel=1e-8)


def expectation(obs, path):
    """Tr(O rho(t)) at every checkpoint of a density path."""
    return np.einsum("ab,tba->t", obs, path.rhos).real


def test_observable_commuting_is_constant(two_state, rho_born):
    # populations commute with the collapse operators: the colored master
    # equation leaves them, and so <diag(1, -1)>, unchanged
    grid = TimeGrid(0.0, 1.0, 200)
    path = evolve_colored_master(two_state, rho_born, grid, exponential_kernel(1.0, 0.3))
    values = expectation(np.diag([1.0, -1.0]), path)
    assert np.allclose(values, values[0], atol=1e-12)
    pops = np.diagonal(path.rhos, axis1=1, axis2=2)
    assert np.allclose(pops, pops[0], atol=1e-12)


def test_observable_white_rhs_has_half_factor(two_state, rho_born):
    # the white kernel's G = 1/2 turns -gamma G W . rho into the Lindblad
    # -(gamma/2) W . rho: d<O>/dt = -(gamma/2) Tr((W . O) rho)
    gamma = 0.8
    grid = TimeGrid(0.0, 1.0, 400)
    kernel = white_kernel(gamma)
    path = evolve_colored_master(
        two_state, rho_born, grid, kernel, checkpoints=np.arange(0, 401, 8)
    )
    obs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w = two_state.pairwise_gap_sq()
    values = expectation(obs, path)
    rhs = -(gamma / 2.0) * expectation(w * obs, path)
    fd = (values[2:] - values[:-2]) / (path.times[2:] - path.times[:-2])
    assert np.max(np.abs(fd - rhs[1:-1])) <= 2e-3  # centered differences on the checkpoint grid


def test_observable_offdiag_decays_like_damping(two_state, rho_born):
    kernel = exponential_kernel(0.9, 0.25)
    grid = TimeGrid(0.0, 1.0, 500)
    path = evolve_colored_master(two_state, rho_born, grid, kernel)
    values = expectation(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), path)
    for j, t in enumerate(path.times):
        damp = offdiag_analytic(two_state, kernel, 0, 1, float(t), 0.0)
        assert values[j] == pytest.approx(values[0] * damp, rel=1e-7)


def test_ensemble_raw_and_cooked_agree(two_state, psi_born):
    kernel = exponential_kernel(1.0, 0.3)
    grid = TimeGrid(0.0, 1.0, 200)
    res = simulate_ensemble(
        two_state, psi_born, grid, kernel, 10_000, 71, checkpoints=np.array([0, 100, 200])
    )
    raw = ensemble_to_density(res, "raw")
    cooked = ensemble_to_density(res, "cooked")
    for j in range(len(raw.times)):
        for a in range(2):
            for b in range(2):
                se = math.hypot(raw.stderr_re[j, a, b], cooked.stderr_re[j, a, b])
                diff = abs(raw.rhos[j, a, b].real - cooked.rhos[j, a, b].real)
                assert diff <= 5.0 * se + 1e-9
    # trace of the raw estimate sits at 1 within its own standard error
    tr = raw.rhos[:, 0, 0].real + raw.rhos[:, 1, 1].real
    tr_se = np.sqrt(raw.stderr_re[:, 0, 0] ** 2 + raw.stderr_re[:, 1, 1] ** 2)
    assert np.all(np.abs(tr - 1.0) <= 5.0 * tr_se + 1e-12)


def test_ensemble_single_pure_projector(two_state, psi_born):
    # negligible noise strength: every trajectory stays the initial projector
    grid = TimeGrid(0.0, 1.0, 50)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(1e-30), 2, 5, checkpoints=np.array([0, 50])
    )
    dp = ensemble_to_density(res, "raw")
    assert np.allclose(dp.rhos[-1], pure_density(psi_born), atol=1e-9)


def test_ensemble_matches_master_every_entry(two_state, psi_born):
    kernel = gaussian_kernel(1.0, 0.3)
    grid = TimeGrid(0.0, 1.0, 200)
    cp = np.array([0, 50, 100, 150, 200])
    res = simulate_ensemble(two_state, psi_born, grid, kernel, 8000, 83, checkpoints=cp)
    est = ensemble_to_density(res, "raw")
    ref = evolve_colored_master(
        two_state, DensityMatrix(pure_density(psi_born)), grid, kernel, checkpoints=cp
    )
    for j in range(len(cp)):
        diff = np.abs(est.rhos[j] - ref.rhos[j])
        se = np.hypot(est.stderr_re[j], est.stderr_im[j])
        assert np.all(diff <= 5.0 * se + 1e-8)


def _fsum_density(res, mode, batches):
    """Reference estimator: exact sums entry by entry, exact batch-mean deviations."""
    n, ncp, d = res.amps.shape
    edges = np.linspace(0, n, batches + 1).astype(int)
    rhos = np.empty((ncp, d, d), dtype=complex)
    se_re = np.empty((ncp, d, d))
    se_im = np.empty((ncp, d, d))
    for c in range(ncp):
        w = [math.exp(v) for v in res.log_weights[:, c]]
        psi = res.amps[:, c].tolist()
        for a in range(d):
            for b in range(d):
                terms = [wi * p[a] * p[b].conjugate() for wi, p in zip(w, psi)]

                def mean(lo, hi):
                    norm = hi - lo if mode == "raw" else math.fsum(w[lo:hi])
                    re = math.fsum(t.real for t in terms[lo:hi]) / norm
                    im = math.fsum(t.imag for t in terms[lo:hi]) / norm
                    return complex(re, im)

                rhos[c, a, b] = mean(0, n)
                bm = [mean(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
                se_re[c, a, b] = statistics.stdev(v.real for v in bm) / math.sqrt(batches)
                se_im[c, a, b] = statistics.stdev(v.imag for v in bm) / math.sqrt(batches)
    return rhos, se_re, se_im


# Without H0 the (1, 1) and (0, 2) entries of three_state are the same on
# every trajectory, so their stderr would be rounding noise.
_H0_MIXING = np.array([[0.0, 0.4, 0.0], [0.4, 0.1, 0.3], [0.0, 0.3, -0.2]], dtype=complex)


@pytest.mark.parametrize("mode", ["raw", "cooked"])
def test_ensemble_matches_exact_sum_reference_unequal_batches(three_state, psi_three, mode):
    # 1037 trajectories in 100 batches: batch sizes 10 and 11
    grid = TimeGrid(0.0, 0.6, 60)
    res = simulate_ensemble(
        three_state, psi_three, grid, white_kernel(0.7), 1037, 17, h0=_H0_MIXING,
        checkpoints=np.array([20, 60]),  # at t0 every batch mean is equal: stderr is pure rounding
    )
    est = ensemble_to_density(res, mode)
    rhos, se_re, se_im = _fsum_density(res, mode, 100)
    np.testing.assert_allclose(est.rhos, rhos, rtol=1e-12, atol=0)
    np.testing.assert_allclose(est.stderr_re, se_re, rtol=1e-12, atol=0)
    # a diagonal entry is real, so its imaginary stderr is rounding noise
    off = ~np.eye(3, dtype=bool)
    np.testing.assert_allclose(est.stderr_im[:, off], se_im[:, off], rtol=1e-12, atol=0)
    assert np.all(est.stderr_im[:, ~off] <= 1e-15)


def test_cooked_zero_weight_batch_is_degenerate(two_state, psi_born):
    grid = TimeGrid(0.0, 1.0, 50)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(0.5), 300, 3, checkpoints=np.array([0, 50])
    )
    res.log_weights[:3] -= 2000.0  # the first of 100 batches underflows to weight zero
    ensemble_to_density(res, "raw")
    with pytest.raises(DegenerateEnsemble, match="weight batch summed to zero"):
        ensemble_to_density(res, "cooked")


def test_ensemble_estimate_byte_identical_across_workers(two_state, psi_born):
    grid = TimeGrid(0.0, 1.0, 100)
    kernel = exponential_kernel(1.0, 0.3)
    kw = dict(checkpoints=np.array([0, 50, 100]))
    ests = [
        ensemble_to_density(
            simulate_ensemble(two_state, psi_born, grid, kernel, 1500, 5, workers=w, **kw), mode
        )
        for w in (1, 2)
        for mode in ("raw", "cooked")
    ]
    for one, two in zip(ests[:2], ests[2:]):
        for field in ("rhos", "stderr_re", "stderr_im"):
            assert getattr(one, field).tobytes() == getattr(two, field).tobytes()


def test_raw_estimate_scale_free_in_log_weights(three_state, psi_three):
    # a common offset of the log weights rescales rho and its stderr together,
    # right up to the edge of the double range, without warnings or clipping
    grid = TimeGrid(0.0, 1.0, 100)
    res = simulate_ensemble(
        three_state, psi_three, grid, white_kernel(0.5), 400, 9, h0=_H0_MIXING,
        checkpoints=np.array([50, 100]),
    )
    base = ensemble_to_density(res, "raw")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shifted = ensemble_to_density(
            dataclasses.replace(res, log_weights=res.log_weights + 700.0), "raw"
        )
    off = ~np.eye(3, dtype=bool)  # diagonal imaginary stderr is rounding noise
    for field, entries in (("stderr_re", np.ones((3, 3), dtype=bool)), ("stderr_im", off)):
        want = getattr(base, field)[:, entries] / np.abs(base.rhos[:, entries])
        got = getattr(shifted, field)[:, entries] / np.abs(shifted.rhos[:, entries])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    with pytest.raises(DegenerateEnsemble, match="overflowed"):
        ensemble_to_density(dataclasses.replace(res, log_weights=res.log_weights + 800.0), "raw")


@pytest.mark.parametrize("mode", ["raw", "cooked"])
def test_density_estimator_peak_memory_below_outer_product_buffer(mode):
    # the estimator never holds one d x d outer product per trajectory
    n, d, ncp = 4000, 6, 20
    grid = TimeGrid(0.0, 0.5, ncp - 1)
    res = simulate_ensemble(
        CommutingSet([np.linspace(-1.0, 1.0, d)]), np.full(d, 1.0 / math.sqrt(d)), grid,
        white_kernel(0.5), n, 7, checkpoints=np.arange(ncp),
    )
    tracemalloc.start()
    try:
        ensemble_to_density(res, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * d * 16


def test_decay_report_and_rate_fit(two_state, psi_born):
    kernel = white_kernel(0.5)
    grid = TimeGrid(0.0, 1.0, 100)
    res = simulate_ensemble(
        two_state, psi_born, grid, kernel, 200, 11, checkpoints=np.arange(0, 101, 10)
    )
    est = ensemble_to_density(res, "raw")
    rho01 = psi_born[0] * psi_born[1]
    analytic = [offdiag_analytic(two_state, kernel, 0, 1, float(t), 0.0) * rho01 for t in est.times]
    assert np.allclose(analytic, est.rhos[:, 0, 1].real, rtol=1e-10)
    rate = fit_exponential_rate(est.times, est.rhos[:, 0, 1].real)
    assert rate == pytest.approx(2.0 * 0.5, rel=1e-9)


def test_trace_drift_guard_trips():
    grid = TimeGrid(0.0, 1.0, 10)
    rho0 = np.diag([0.5, 0.5]).astype(complex)

    def leaky_rhs(rho, t):
        return 0.01 * np.eye(2)  # deliberately violates trace preservation

    with pytest.raises(StepSizeRejected):
        _rk4_density(rho0, grid, leaky_rhs, np.array([0, 10]))


def test_trace_drift_guard_fails_closed_on_nan():
    # a NaN drift compares false with any bound; the guard must still trip
    grid = TimeGrid(0.0, 1.0, 10)
    rho0 = np.diag([0.5, 0.5]).astype(complex)

    def nan_rhs(rho, t):
        return np.full((2, 2), np.nan, dtype=complex)

    with pytest.raises(StepSizeRejected):
        _rk4_density(rho0, grid, nan_rhs, np.array([0, 10]))


def test_integrators_keep_density_physical(two_state, rho_born):
    # Hermiticity / trace / positivity at every checkpoint, both integrators
    grid = TimeGrid(0.0, 1.2, 600)
    h0 = np.array([[0.4, 0.2], [0.2, -0.4]], dtype=complex)
    paths = [
        evolve_lindblad_csl(h0, two_state, rho_born, grid, 0.7),
        evolve_colored_master(two_state, rho_born, grid, gaussian_kernel(1.0, 0.3)),
    ]
    for path in paths:
        for rho in path.rhos:
            assert float(np.max(np.abs(rho - rho.conj().T))) <= 1e-12
            assert abs(float(np.trace(rho).real) - 1.0) <= 1e-10
            assert float(np.linalg.eigvalsh(rho).min()) >= -1e-9


@pytest.mark.parametrize("case", ["white", "gaussian", "hamiltonian"])
def test_step_past_the_margin_is_refused_naming_the_least_count(two_state, rho_born, case):
    # 40 steps over [0, 1] put the step margin at 3, 10 and 3, where RK4 blows up
    # while the trace stays exactly 1
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def run(steps):
        grid = TimeGrid(0.0, 1.0, steps)
        if case == "gaussian":
            return evolve_colored_master(two_state, rho_born, grid, gaussian_kernel(200.0, 0.05))
        if case == "hamiltonian":
            return evolve_lindblad_csl(60.0 * sigma_x, two_state, rho_born, grid, 0.0)
        return evolve_lindblad_csl(None, two_state, rho_born, grid, 60.0)

    with pytest.raises(ConfigError, match="least step count that passes is") as info:
        run(40)
    least = int(re.search(r"passes is (\d+)$", str(info.value)).group(1))
    with pytest.raises(ConfigError):
        run(least - 1)
    rho = run(least).rhos[-1]
    # at the margin a step errs by 1.0e-5 relative on a coherence, 1.1e-6 absolute under H0
    if case == "hamiltonian":
        u = math.cos(60.0) * np.eye(2) - 1j * math.sin(60.0) * sigma_x
        assert np.max(np.abs(rho - u @ rho_born.rho @ u.conj().T)) <= least * 1.2e-6
    else:
        kernel = gaussian_kernel(200.0, 0.05) if case == "gaussian" else white_kernel(60.0)
        want = 0.48 * offdiag_analytic(two_state, kernel, 0, 1, 1.0, 0.0)
        assert rho[0, 1].real == pytest.approx(want, rel=least * 1.1e-5)
