"""Trajectory solvers: exactness, conventions, convergence order, probes."""

import math
import os
import signal
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from collapsim import (
    CommutingSet,
    DensityMatrix,
    KernelFamily,
    TimeGrid,
    build_covariance,
    evolve_colored_commuting,
    evolve_colored_master,
    evolve_csl_white,
    evolve_lindblad_csl,
    exponential_kernel,
    functional_derivative_probe,
    gaussian_kernel,
    sample_paths,
    sample_white_increments,
    simulate_ensemble,
    white_kernel,
)
from collapsim import dynamics
from collapsim.dynamics import CHUNK, bump_realization, ensemble_noise
from collapsim.errors import ConfigError, NonCommuting, NumericalError, ZeroNorm
from collapsim.hilbert import pure_density
from collapsim.kernels import kernel_cumulative, kernel_double_integral
from collapsim.noise import NoiseBatch, left_cumulative, trapezoid_cumulative

from conftest import forks_at, stderr_of_mean


def zero_realization(grid, m=1, kind="nodes"):
    if kind == "nodes":
        w = np.zeros((1, m, grid.num_nodes))
        return NoiseBatch("nodes", w, trapezoid_cumulative(w, grid.dt), 0, 0)
    w = np.zeros((1, m, grid.steps))
    return NoiseBatch("increments", w, left_cumulative(w, grid.dt), 0, 0)


def raw_amplitudes(record, cp=-1):
    return record.amps[0, cp] * math.exp(0.5 * record.log_weights[0, cp])


def test_gamma_zero_is_unitary(two_state, psi_born):
    grid = TimeGrid(0.0, 1.0, 1000)
    h0 = np.array([[0.2, 0.5], [0.5, -0.3]], dtype=complex)
    rz = sample_white_increments(grid, 1.0, 1, 1, master_seed=4)[0]
    rz = NoiseBatch("increments", np.zeros_like(rz.w), np.zeros_like(rz.x), 0, 0)
    rec = evolve_csl_white(h0, two_state, psi_born, grid, 0.0, rz)
    assert np.all(np.abs(rec.log_weights) <= 1e-10)


def test_mean_weight_one_white_every_checkpoint(two_state, psi_born):
    grid = TimeGrid(0.0, 1.0, 200)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(0.5), 10_000, 17,
        checkpoints=np.arange(0, 201, 20),
    )
    for j in range(1, len(res.times)):
        w = np.exp(res.log_weights[:, j])
        assert abs(w.mean() - 1.0) <= 5.0 * stderr_of_mean(w)


def test_white_offdiag_is_exact_closed_form(two_state, psi_born):
    # for eigenvalues +-1 the raw product c1 c2* is deterministic e^{-2 gamma t}
    gamma = 0.5
    grid = TimeGrid(0.0, 1.0, 400)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(gamma), 16, 3,
        checkpoints=np.array([0, 200, 400]),
    )
    for j, t in enumerate(res.times):
        raw = res.amps[:, j, 0] * res.amps[:, j, 1].conj() * np.exp(res.log_weights[:, j])
        assert np.allclose(raw, 0.48 * math.exp(-2.0 * gamma * t), rtol=1e-12)


def test_colored_zero_noise_decays_deterministically(three_state, psi_three):
    kernel = gaussian_kernel(0.9, 0.4)
    grid = TimeGrid(0.0, 1.2, 120)
    rec = evolve_colored_commuting(
        three_state, psi_three, grid, kernel, zero_realization(grid)
    )
    t = grid.t1
    f = kernel_double_integral(kernel, t, 0.0)
    expected = psi_three * np.exp(-kernel.gamma * np.array([1.0, 0.0, 1.0]) * f)
    got = raw_amplitudes(rec)
    assert np.allclose(got, expected, rtol=1e-12)


def test_log_ratio_of_eigenmanifold_weights():
    # single operator with eigenvalues alpha=1.3, beta=0.4:
    # d ln(w_a / w_b) = 2 (a - b) x(t) - 2 gamma (a^2 - b^2) f(t)
    aset = CommutingSet([[1.3, 0.4]])
    kernel = exponential_kernel(0.8, 0.3)
    grid = TimeGrid(0.0, 1.0, 250)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=8)[0]
    rec = evolve_colored_commuting(aset, [0.6, 0.8], grid, kernel, rz)
    for cp in (1, len(rec.times) - 1):
        t = rec.times[cp]
        x = rec.x[0, 0, cp]
        f = kernel_double_integral(kernel, float(t), 0.0)
        probs = np.abs(rec.amps[0, cp]) ** 2
        got = math.log(probs[0] / probs[1]) - math.log(0.36 / 0.64)
        want = 2.0 * (1.3 - 0.4) * x - 2.0 * kernel.gamma * (1.3**2 - 0.4**2) * f
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_white_kernel_exact_solver_matches_trotter(two_state, psi_born):
    # identical increments, H0 = 0: weights agree trajectory-by-trajectory
    gamma = 0.7
    grid = TimeGrid(0.0, 1.0, 300)
    paths = sample_white_increments(grid, gamma, 1, 50, master_seed=23)
    cp = np.array([0, 150, 300])
    for rz in paths:
        a = evolve_csl_white(None, two_state, psi_born, grid, gamma, rz, checkpoints=cp)
        b = evolve_colored_commuting(
            two_state, psi_born, grid, white_kernel(gamma), rz, checkpoints=cp
        )
        assert np.allclose(a.log_weights, b.log_weights, rtol=0, atol=1e-6)
        assert np.allclose(np.abs(a.amps[0]), np.abs(b.amps[0]), atol=1e-6)


def test_raw_linear_white_matches_closed_form(two_state, psi_born):
    # white noise, H0 = 0, no compensator: the step product telescopes to
    # psi0_a exp(a . x(t)), so |psi_raw|^2 = sum_a |psi0_a|^2 exp(2 a . x)
    grid = TimeGrid(0.0, 1.0, 100)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(0.9), 64, 10, method="raw_linear",
        checkpoints=np.array([0, 37, 100]),
    )
    expo = 2.0 * np.einsum("ia,nij->nja", two_state.table, res.x)  # (n, ncp, d)
    expo += np.log(np.abs(psi_born) ** 2)
    peak = expo.max(axis=2)
    want = peak + np.log(np.sum(np.exp(expo - peak[:, :, None]), axis=2))
    assert np.allclose(res.log_weights, want, rtol=0, atol=1e-12)


def test_raw_linear_drift_detected(two_state, psi_born):
    # colored Gaussian kernel, H0 = 0: mean squared norm grows above 1
    kernel = gaussian_kernel(1.2, 0.3)
    grid = TimeGrid(0.0, 1.0, 200)
    gf = kernel.gamma * kernel_double_integral(kernel, 1.0, 0.0)
    assert gf >= 0.5
    res = simulate_ensemble(
        two_state, psi_born, grid, kernel, 4000, 29, method="raw_linear",
        checkpoints=np.array([0, 200]),
    )
    w = np.exp(res.log_weights[:, -1])
    drift = w.mean() - 1.0
    assert drift > 5.0 * stderr_of_mean(w)
    # expected mean square norm is e^{2 gamma f} for +-1 eigenvalues
    assert w.mean() == pytest.approx(math.exp(2.0 * gf), rel=0.25)


def test_raw_linear_gamma_to_zero_stays_unit(two_state, psi_born):
    kernel = gaussian_kernel(1e-6, 0.3)
    grid = TimeGrid(0.0, 1.0, 100)
    res = simulate_ensemble(
        two_state, psi_born, grid, kernel, 2000, 31, method="raw_linear",
        checkpoints=np.array([0, 100]),
    )
    w = np.exp(res.log_weights[:, -1])
    assert abs(w.mean() - 1.0) <= 5.0 * stderr_of_mean(w) + 1e-5


def test_step_halving_order_on_weights(two_state, psi_born):
    # Strang splitting with a non-commuting H0: the strong error in psi is
    # first order, but its leading term is an anti-Hermitian rotation, so the
    # weight converges at second order; observed order must be >= 1.8.
    gamma = 0.4
    h0 = np.array([[0.3, 0.7], [0.7, -0.1]], dtype=complex)
    fine = TimeGrid(0.0, 1.0, 1024)
    w_fine = sample_white_increments(fine, gamma, 1, 1, master_seed=12)[0].w

    def weight_at(level):
        steps = 1024 // 2**level
        agg = w_fine.reshape(1, 1, steps, 2**level).mean(axis=3)
        grid = TimeGrid(0.0, 1.0, steps)
        rz = NoiseBatch("increments", agg, left_cumulative(agg, grid.dt), 0, 0)
        rec = evolve_csl_white(h0, two_state, psi_born, grid, gamma, rz)
        return rec.log_weights[0, -1]

    w3, w2, w1 = weight_at(3), weight_at(2), weight_at(1)
    order = math.log2(abs(w3 - w2) / abs(w2 - w1))
    assert order >= 1.8


def test_exactness_vs_step_doubled_ode(three_state, psi_three):
    # independent oracle: RK4 on d c_a/dt = [a_a w_hat(t) - 2 gamma a_a^2 G(t)] c_a
    # with w_hat the linear interpolant of the sampled nodes; step-doubling
    # confirms convergence and the refined solution must match the closed form.
    kernel = gaussian_kernel(0.7, 0.5)
    grid = TimeGrid(0.0, 1.0, 100)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=77)[0]
    rec = evolve_colored_commuting(three_state, psi_three, grid, kernel, rz)
    exact = raw_amplitudes(rec)

    a = three_state.table[0]
    nodes = grid.nodes()
    w = rz.w[0, 0]

    def ode_solution(substeps):
        c = psi_three.astype(complex).copy()
        h = grid.dt / substeps
        for k in range(grid.steps):
            for s in range(substeps):
                t = nodes[k] + s * h

                def rhs(cv, tv):
                    wv = np.interp(tv, nodes, w)
                    g = kernel_cumulative(kernel, tv, 0.0)
                    return (a * wv - 2.0 * kernel.gamma * a**2 * g) * cv

                k1 = rhs(c, t)
                k2 = rhs(c + 0.5 * h * k1, t + 0.5 * h)
                k3 = rhs(c + 0.5 * h * k2, t + 0.5 * h)
                k4 = rhs(c + h * k3, t + h)
                c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return c

    c8 = ode_solution(8)
    c16 = ode_solution(16)
    assert np.max(np.abs(c16 - c8)) <= 1e-9  # step-doubling consistency
    assert np.max(np.abs(c16 - exact) / np.abs(exact)) <= 1e-8


def test_gauge_global_phase_does_not_matter(two_state, psi_born):
    kernel = exponential_kernel(1.0, 0.4)
    grid = TimeGrid(0.0, 1.0, 150)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=6)[0]
    rec1 = evolve_colored_commuting(two_state, psi_born, grid, kernel, rz)
    rec2 = evolve_colored_commuting(
        two_state, psi_born * np.exp(1j * 0.813), grid, kernel, rz
    )
    assert np.allclose(rec1.log_weights, rec2.log_weights, rtol=0, atol=1e-12)
    assert np.allclose(np.abs(rec1.amps), np.abs(rec2.amps), atol=1e-13)


def test_commuting_hamiltonian_phases(two_state, psi_born):
    # diagonal H0 only rotates phases; weights and probabilities untouched
    kernel = gaussian_kernel(0.8, 0.3)
    grid = TimeGrid(0.0, 1.0, 100)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=14)[0]
    h0 = np.diag([0.9, -0.4]).astype(complex)
    with_h = evolve_colored_commuting(two_state, psi_born, grid, kernel, rz, h0=h0)
    without = evolve_colored_commuting(two_state, psi_born, grid, kernel, rz)
    assert np.allclose(with_h.log_weights, without.log_weights, atol=1e-12)
    t = grid.t1
    expected_phase = np.exp(-1j * np.diag(h0) * t)
    ratio = with_h.amps[0, -1] / without.amps[0, -1]
    assert np.allclose(ratio, expected_phase, atol=1e-10)


@pytest.mark.parametrize("psi0", [[0.0, 0.0], [1.0, 0.0, 0.0], [math.inf, 1.0]])
def test_bad_initial_state_is_a_config_error(two_state, psi0):
    # an input condition (exit 2), not a numerical failure found mid-run
    with pytest.raises(ConfigError, match="initial state must be 2 amplitudes"):
        simulate_ensemble(two_state, psi0, TimeGrid(0.0, 1.0, 10), white_kernel(1.0), 4, 1)


def test_noncommuting_h0_rejected(two_state, psi_born):
    kernel = gaussian_kernel(0.8, 0.3)
    grid = TimeGrid(0.0, 0.5, 50)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=2)[0]
    h0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NonCommuting) as err:
        evolve_colored_commuting(two_state, psi_born, grid, kernel, rz, h0=h0)
    # an input condition, not a numerical failure: the CLI exits 2 for it
    assert isinstance(err.value, ConfigError)
    assert "drop H0 or make it commute with the eigenvalue table" in str(err.value)


def test_single_trajectory_needs_a_batch_of_one(two_state, psi_born):
    grid = TimeGrid(0.0, 0.5, 50)
    kernel = gaussian_kernel(0.8, 0.3)
    colored = sample_paths(build_covariance(grid, kernel), 1, 2, master_seed=3)
    white = sample_white_increments(grid, 0.8, 1, 2, master_seed=3)
    with pytest.raises(ConfigError, match="batch of one"):
        evolve_colored_commuting(two_state, psi_born, grid, kernel, colored)
    with pytest.raises(ConfigError, match="batch of one"):
        evolve_csl_white(None, two_state, psi_born, grid, 0.8, white)
    rec = evolve_colored_commuting(two_state, psi_born, grid, kernel, colored[1])
    assert rec.n == 1 and rec.index == 1 and rec.method == "exact_commuting"


# ---------------------------------------------------------------------------
# functional-derivative probe


def test_probe_interior_richardson(three_state, psi_three):
    kernel = gaussian_kernel(0.7, 0.5)
    grid = TimeGrid(0.0, 1.0, 200)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=42)[0]

    def estimate(eps):
        return functional_derivative_probe(
            three_state, psi_three, grid, kernel, rz, s_index=100, process=0, eps=eps
        )

    p3, p4 = estimate(1e-3), estimate(1e-4)
    assert p3.rel_error < 2e-3 and p4.rel_error < 2e-4  # O(eps) convergence
    rich = (1e-3 * p4.estimate - 1e-4 * p3.estimate) / (1e-3 - 1e-4)
    scale = np.linalg.norm(p3.reference)
    assert np.linalg.norm(rich - p3.reference) / scale <= 1e-4


def test_probe_beyond_final_time_is_zero(two_state, psi_born):
    kernel = exponential_kernel(0.9, 0.4)
    grid = TimeGrid(0.0, 1.0, 100)
    rz = sample_paths(build_covariance(grid, kernel), 1, 1, master_seed=9)[0]
    res = functional_derivative_probe(
        two_state, psi_born, grid, kernel, rz,
        s_index=80, process=0, eps=1e-3, eval_index=60,
    )
    assert res.expected_factor == 0.0
    assert np.max(np.abs(res.estimate)) == 0.0


def test_probe_white_endpoint_half(two_state, psi_born):
    gamma = 0.5
    kernel = white_kernel(gamma)
    grid = TimeGrid(0.0, 1.0, 200)
    rz = sample_white_increments(grid, gamma, 1, 1, master_seed=33)[0]
    h0 = np.diag([0.7, -0.3]).astype(complex)  # commuting

    def estimate(eps):
        return functional_derivative_probe(
            two_state, psi_born, grid, kernel, rz,
            s_index=grid.steps, process=0, eps=eps, h0=h0,
        )

    p3, p4 = estimate(1e-3), estimate(1e-4)
    assert p3.expected_factor == 0.5
    rich = (1e-3 * p4.estimate - 1e-4 * p3.estimate) / (1e-3 - 1e-4)
    target = 0.5 * p3.reference
    assert np.linalg.norm(rich - target) / np.linalg.norm(target) <= 1e-2


def test_probe_noncommuting_rejected(two_state, psi_born):
    kernel = white_kernel(0.5)
    grid = TimeGrid(0.0, 1.0, 50)
    rz = sample_white_increments(grid, 0.5, 1, 1, master_seed=1)[0]
    h0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NonCommuting):
        functional_derivative_probe(
            two_state, psi_born, grid, kernel, rz, s_index=25, process=0, eps=1e-3, h0=h0
        )


def test_bump_area_is_eps():
    grid = TimeGrid(0.0, 1.0, 100)
    rz = zero_realization(grid)
    bumped = bump_realization(rz, grid, s_index=50, process=0, eps=1e-3)
    assert bumped.x[0, 0, -1] == pytest.approx(1e-3, rel=1e-12)
    rzw = zero_realization(grid, kind="increments")
    bw = bump_realization(rzw, grid, s_index=50, process=0, eps=1e-3)
    assert bw.x[0, 0, -1] == pytest.approx(1e-3, rel=1e-12)
    # endpoint bump keeps only half its area inside the window
    be = bump_realization(rzw, grid, s_index=100, process=0, eps=1e-3)
    assert be.x[0, 0, -1] == pytest.approx(0.5e-3, rel=1e-12)


# ---------------------------------------------------------------------------
# ensemble plumbing


def test_ensemble_worker_invariance(two_state, psi_born):
    grid = TimeGrid(0.0, 1.0, 100)
    kernel = exponential_kernel(1.0, 0.3)
    kw = dict(checkpoints=np.array([0, 50, 100]))
    r1 = simulate_ensemble(two_state, psi_born, grid, kernel, 1500, 5, workers=1, **kw)
    r4 = simulate_ensemble(two_state, psi_born, grid, kernel, 1500, 5, workers=4, **kw)
    assert np.array_equal(r1.amps, r4.amps)
    assert np.array_equal(r1.log_weights, r4.log_weights)
    assert np.array_equal(r1.x, r4.x)


@pytest.mark.parametrize("family", ["white", "exponential"])
def test_prefix_shard_and_batch_of_one_invariance(family):
    # trajectory k depends only on (master_seed, k): a prefix, a shard and a
    # single trajectory all reproduce the matching rows across the CHUNK edge
    d, n, seed = 6, 2100, 21
    assert n > 2 * CHUNK
    aset = CommutingSet([np.linspace(-1.0, 1.0, d), np.arange(d) % 2])
    psi0 = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    grid = TimeGrid(0.0, 0.5, 40)
    cp = np.array([0, 13, 40])
    if family == "white":
        kernel = white_kernel(0.6)
        h0 = np.diag(np.full(d - 1, 0.3), 1) + np.diag(np.full(d - 1, 0.3), -1)
    else:
        kernel = exponential_kernel(0.6, 0.2)
        h0 = np.diag(np.linspace(0.0, 0.5, d))
    run = lambda count, start=0: simulate_ensemble(  # noqa: E731
        aset, psi0, grid, kernel, count, seed, h0=h0, checkpoints=cp, start_index=start
    )
    full = run(n)
    for part, rows in ((run(1200), slice(0, 1200)), (run(900, 1200), slice(1200, n))):
        assert np.array_equal(part.amps, full.amps[rows])
        assert np.array_equal(part.log_weights, full.log_weights[rows])
        assert np.array_equal(part.x, full.x[rows])

    # a single trajectory is a batch of one.  A white Trotter row is bit-identical
    # to its ensemble row (test_rows_do_not_depend_on_chunk_width holds that
    # exactly).  A colored row agrees to rounding, not bit for bit: the ensemble
    # reads x from the checkpoint projection z @ B.T and the single trajectory
    # from its full path (x within 2.2e-16 on these rows, 8.9e-16 over all 1100;
    # amps within about 2e-16, OpenBLAS 0.3 on x86-64).  The tolerances below
    # cover both families.
    if family == "white":
        paths = sample_white_increments(grid, kernel.gamma, aset.num_ops, 3, seed, start_index=700)
        recs = [evolve_csl_white(h0, aset, psi0, grid, kernel.gamma, rz, checkpoints=cp) for rz in paths]
    else:
        paths = sample_paths(build_covariance(grid, kernel), aset.num_ops, 3, seed, start_index=700)
        recs = [evolve_colored_commuting(aset, psi0, grid, kernel, rz, h0=h0, checkpoints=cp) for rz in paths]
    for j, rec in enumerate(recs):
        rows = slice(700 + j, 701 + j)
        assert rec.index == 700 + j
        assert np.allclose(rec.x, full.x[rows], rtol=0, atol=1e-14)
        assert np.allclose(rec.amps, full.amps[rows], rtol=0, atol=1e-12)
        assert np.allclose(rec.log_weights, full.log_weights[rows], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel, nodes", [(white_kernel(0.6), None), (gaussian_kernel(0.6, 0.2), None),
                                           (gaussian_kernel(0.6, 0.2), [0, 13, 40])],
                         ids=["white", "colored", "projected"])
def test_ensemble_noise_chunks_are_one_sampler_call(kernel, nodes):
    # the one noise owner's chunks, concatenated, are one sampler call's rows bit for bit
    grid, m, seed = TimeGrid(0.0, 0.5, 40), 2, 21
    batches = list(ensemble_noise(grid, kernel, m, 20, seed, rows=7, start_index=3, nodes=nodes))
    if kernel.family is KernelFamily.WHITE:
        whole = sample_white_increments(grid, kernel.gamma, m, 20, seed, start_index=3)
    else:
        whole = sample_paths(build_covariance(grid, kernel), m, 20, seed, start_index=3, nodes=nodes)
    assert [(b.index, len(b)) for b in batches] == [(3, 7), (10, 7), (17, 6)]
    assert {b.kind for b in batches} == {whole.kind}
    assert np.array_equal(np.concatenate([b.w for b in batches]), whole.w)
    assert np.array_equal(np.concatenate([b.x for b in batches]), whole.x)


def test_ensemble_noise_projects_the_factor_once(monkeypatch):
    # the projection B is a cumulative sum over the whole factor: one per ensemble, not one per chunk
    built = []

    def counting(factor, nodes, _projection=dynamics._projection):
        built.append(list(nodes))
        return _projection(factor, nodes)

    monkeypatch.setattr(dynamics, "_projection", counting)
    grid, nodes = TimeGrid(0.0, 0.5, 40), [0, 13, 40]
    batches = list(ensemble_noise(grid, gaussian_kernel(0.6, 0.2), 2, 20, 21, rows=7, nodes=nodes))
    assert len(batches) == 3 and built == [nodes]


@pytest.mark.parametrize("n", [1, 3, 515, 700])
def test_rows_do_not_depend_on_chunk_width(n):
    # a white Trotter row is bit-identical whatever the width of its chunk:
    # a prefix of any length, a shard, and a single trajectory all match the
    # rows of a 1024-trajectory run (one full chunk)
    d, seed = 6, 21
    aset = CommutingSet([np.linspace(-1.0, 1.0, d), np.arange(d) % 2])
    psi0 = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    grid = TimeGrid(0.0, 0.5, 40)
    cp, kernel = np.array([0, 13, 40]), white_kernel(0.6)
    h0 = np.diag(np.full(d - 1, 0.3), 1) + np.diag(np.full(d - 1, 0.3), -1)
    run = lambda count, start=0: simulate_ensemble(  # noqa: E731
        aset, psi0, grid, kernel, count, seed, h0=h0, checkpoints=cp, start_index=start
    )
    full = run(1024)
    for part, rows in ((run(n), slice(0, n)), (run(n, 3), slice(3, 3 + n))):
        assert np.array_equal(part.amps, full.amps[rows])
        assert np.array_equal(part.log_weights, full.log_weights[rows])
    rz = sample_white_increments(grid, kernel.gamma, aset.num_ops, 1, seed, start_index=n - 1)[0]
    one = evolve_csl_white(h0, aset, psi0, grid, kernel.gamma, rz, checkpoints=cp)
    assert np.array_equal(one.amps, full.amps[n - 1 : n])
    assert np.array_equal(one.log_weights, full.log_weights[n - 1 : n])


def _pool_problem(d=4):
    aset = CommutingSet([np.linspace(-1.0, 1.0, d), np.arange(d) % 2])
    h0 = np.diag(np.full(d - 1, 0.3), 1) + np.diag(np.full(d - 1, 0.3), -1)
    return aset, np.full(d, 1.0 / math.sqrt(d), dtype=complex), TimeGrid(0.0, 0.5, 40), h0, np.array([0, 13, 40])


@pytest.mark.parametrize("method", ["trotter_white", "raw_linear"])
def test_white_ensemble_pool_bytes_do_not_depend_on_the_core_count(monkeypatch, method):
    # a long stepped white ensemble runs one contiguous share of its chunks per usable core, each in a forked process
    monkeypatch.setattr(dynamics, "FORK_WORK", 1)  # this short one too
    aset, psi0, grid, h0, cp = _pool_problem()
    n = 3 * CHUNK + 5  # four chunks, the last of five rows
    h0 = h0 if method == "trotter_white" else None
    arrays = {}
    for cores in (1, 2, 3):
        forks = forks_at(monkeypatch, cores)
        threads = threading.active_count()
        res = simulate_ensemble(aset, psi0, grid, white_kernel(0.6), n, 21, h0=h0, method=method, checkpoints=cp)
        assert len(forks) == (0 if cores == 1 else cores)
        assert threading.active_count() == threads
        arrays[cores] = [a.tobytes() for a in (res.amps, res.log_weights, res.x)]
    assert arrays[1] == arrays[2] == arrays[3]


def test_other_ensembles_fork_nothing(monkeypatch):
    aset, psi0, grid, h0, cp = _pool_problem()
    n = 3 * CHUNK + 5
    forks = forks_at(monkeypatch, 3)
    assert n * cp[-1] < dynamics.FORK_WORK  # too short to pay for the forks
    simulate_ensemble(aset, psi0, grid, white_kernel(0.6), n, 21, h0=h0, checkpoints=cp)
    for method in ("exact_commuting", "raw_linear"):
        simulate_ensemble(aset, psi0, grid, exponential_kernel(0.6, 0.2), n, 21, method=method, checkpoints=cp)
    monkeypatch.setattr(dynamics, "FORK_WORK", 1)
    simulate_ensemble(aset, psi0, grid, white_kernel(0.6), 1, 21, h0=h0, checkpoints=cp)  # one trajectory
    simulate_ensemble(aset, psi0, grid, exponential_kernel(0.6, 0.2), 1, 21, checkpoints=cp)
    wide, psi_wide, _, h0_wide, _ = _pool_problem(12)  # OpenBLAS threads its unitary product even at CHUNK // 2
    simulate_ensemble(wide, psi_wide, grid, white_kernel(0.6), n, 21, h0=h0_wide, checkpoints=cp)
    assert len(forks) == 0


@pytest.mark.parametrize("method", ["exact_commuting", "raw_linear"])
def test_colored_ensemble_pool_bytes_do_not_depend_on_the_core_count(monkeypatch, method):
    # a long colored ensemble forks too, and its Cholesky factor and projection are built once, before the fork
    monkeypatch.setattr(dynamics, "FORK_WORK", 1)
    aset, psi0, grid, _, cp = _pool_problem()
    parent, built, build, project = os.getpid(), [], dynamics.build_covariance, dynamics._projection

    def here_only(step):
        def call(*args):
            assert os.getpid() == parent, "a forked process factorizes"
            built.append(step.__name__)
            return step(*args)
        return call

    monkeypatch.setattr(dynamics, "build_covariance", here_only(build))
    monkeypatch.setattr(dynamics, "_projection", here_only(project))
    arrays = {}
    for cores in (1, 2, 3):
        forks = forks_at(monkeypatch, cores)
        built.clear()
        res = simulate_ensemble(aset, psi0, grid, exponential_kernel(0.6, 0.2), 3 * CHUNK + 5, 21, method=method,
                                checkpoints=cp)
        assert len(forks) == (0 if cores == 1 else cores)
        assert built == (["build_covariance", "_projection"] if method == "exact_commuting" else ["build_covariance"])
        arrays[cores] = [a.tobytes() for a in (res.amps, res.log_weights, res.x)]
    assert arrays[1] == arrays[2] == arrays[3]


def test_one_chunk_above_the_cut_is_cut_into_shares(monkeypatch):
    # the shares are contiguous ranges of trajectories, so even a one-chunk ensemble runs on every core
    monkeypatch.setattr(dynamics, "FORK_WORK", 1)
    aset, psi0, grid, h0, cp = _pool_problem()
    arrays = {}
    for cores in (1, 2):
        forks = forks_at(monkeypatch, cores)
        res = simulate_ensemble(aset, psi0, grid, white_kernel(0.6), CHUNK - 3, 21, h0=h0, checkpoints=cp)
        assert len(forks) == (0 if cores == 1 else cores)
        arrays[cores] = [a.tobytes() for a in (res.amps, res.log_weights, res.x)]
    assert arrays[1] == arrays[2]


@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_failing_ensemble_worker_fails_the_ensemble(monkeypatch, failure):
    monkeypatch.setattr(dynamics, "FORK_WORK", 1)
    aset, psi0, grid, h0, cp = _pool_problem()
    forks = forks_at(monkeypatch, 2)
    parent, stepped = os.getpid(), dynamics._stepped_chunk

    def failing_in_child(*args):
        if os.getpid() != parent:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ZeroNorm("trajectory norm fails in a worker")
        return stepped(*args)

    monkeypatch.setattr(dynamics, "_stepped_chunk", failing_in_child)
    expected = pytest.raises(ZeroNorm, match="^trajectory norm fails in a worker$") if failure == "raise" \
        else pytest.raises(NumericalError, match=r"^a forked process ended without a report \(killed by SIGKILL\)$")
    with expected:
        simulate_ensemble(aset, psi0, grid, white_kernel(0.6), 2 * CHUNK, 21, h0=h0, checkpoints=cp)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


BAD_SCHEDULES = {
    "repeated": [0, 13, 13, 40],
    "decreasing": [0, 30, 13],
    "negative": [0, -1],
    "past-steps": [0, 13, 80],
    "float": [0.0, 13.0, 40.0],
    "empty": [],
}


@pytest.mark.parametrize("entry", ["trotter", "exact", "single-white", "lindblad", "colored-master"])
@pytest.mark.parametrize("schedule", list(BAD_SCHEDULES.values()), ids=list(BAD_SCHEDULES))
def test_bad_checkpoint_schedule_raises_config_error(entry, schedule, two_state, psi_born):
    grid = TimeGrid(0.0, 0.5, 40)
    cp = np.array(schedule)
    rho0 = DensityMatrix(pure_density(psi_born))
    runs = {
        "trotter": lambda: simulate_ensemble(two_state, psi_born, grid, white_kernel(0.6), 3, 1, checkpoints=cp),
        "exact": lambda: simulate_ensemble(
            two_state, psi_born, grid, exponential_kernel(0.6, 0.2), 3, 1, checkpoints=cp
        ),
        "single-white": lambda: evolve_csl_white(
            None, two_state, psi_born, grid, 0.6, sample_white_increments(grid, 0.6, 1, 1, 1), checkpoints=cp
        ),
        "lindblad": lambda: evolve_lindblad_csl(None, two_state, rho0, grid, 0.6, checkpoints=cp),
        "colored-master": lambda: evolve_colored_master(
            two_state, rho0, grid, exponential_kernel(0.6, 0.2), checkpoints=cp
        ),
    }
    with pytest.raises(ConfigError, match="checkpoints"):
        runs[entry]()


@pytest.mark.parametrize("gamma", [-0.5, math.nan, math.inf])
def test_white_gamma_must_be_finite_and_nonnegative(gamma, two_state, psi_born):
    # one rule for every white entry point.  A negative strength drives |rho_01|
    # above its initial bound (0.48 -> 1.30 at gamma = -0.5), which no density
    # matrix can do, and the sampler would draw NaN paths or hit a math domain
    # error; gamma = 0 (unitary) stays valid
    grid = TimeGrid(0.0, 1.0, 50)
    rho0 = DensityMatrix(pure_density(psi_born))
    rz = sample_white_increments(grid, 0.5, 1, 1, master_seed=2)
    with pytest.raises(ConfigError, match="gamma"):
        evolve_lindblad_csl(None, two_state, rho0, grid, gamma)
    with pytest.raises(ConfigError, match="gamma"):
        evolve_csl_white(None, two_state, psi_born, grid, gamma, rz)
    with pytest.raises(ConfigError, match="gamma"):
        sample_white_increments(grid, gamma, 1, 1, master_seed=2)


def _naive_trotter(aset, psi0, grid, h0, gamma, w, cp, compensated):
    """Half-step, diagonal factor, half-step on every step, renormalizing each time."""
    half = np.eye(aset.dim) if h0 is None else expm(-0.5j * h0 * grid.dt)
    comp = gamma * np.sum(aset.table**2, axis=0) * grid.dt if compensated else 0.0
    psi = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    log_norm = 0.0
    amps, logw = {0: psi}, {0: 0.0}
    for k in range(grid.steps):
        psi = half @ (np.exp(aset.table.T @ w[:, k] * grid.dt - comp) * (half @ psi))
        norm = np.linalg.norm(psi)
        psi = psi / norm
        log_norm += 2.0 * math.log(norm)
        amps[k + 1], logw[k + 1] = psi, log_norm
    return np.array([amps[int(c)] for c in cp]), np.array([logw[int(c)] for c in cp])


@pytest.mark.parametrize("with_h0", [True, False])
@pytest.mark.parametrize(
    "cp", [np.arange(13), np.array([0, 12]), np.array([2, 3, 7, 8, 9])], ids=["every", "ends", "irregular"]
)
@pytest.mark.parametrize("method", ["trotter_white", "raw_linear"])
def test_trotter_matches_naive_half_step_reference(method, cp, with_h0):
    # full steps merge adjacent half-steps everywhere except on either side of
    # a recorded checkpoint; a checkpoint recorded one half-step off misses by ~dt |H0|
    aset = CommutingSet([[1.0, 0.5, -0.5, -1.0], [0.0, 1.0, 1.0, 0.0]])
    psi0 = np.array([0.5, 0.5j, -0.5, 0.5])
    h0 = np.array(
        [[0.3, 0.4, 0.0, 0.1j], [0.4, -0.2, 0.5, 0.0], [0.0, 0.5, 0.1, 0.2], [-0.1j, 0.0, 0.2, -0.4]]
    ) if with_h0 else None
    grid = TimeGrid(0.0, 0.6, 12)
    gamma, seed = 0.8, 13
    res = simulate_ensemble(
        aset, psi0, grid, white_kernel(gamma), 1, seed, h0=h0, method=method, checkpoints=cp
    )
    w = sample_white_increments(grid, gamma, aset.num_ops, 1, seed).w[0]
    amps, logw = _naive_trotter(aset, psi0, grid, h0, gamma, w, cp, method == "trotter_white")
    np.testing.assert_allclose(res.amps[0], amps, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.log_weights[0], logw, rtol=0, atol=1e-12)


def test_checkpoint_times_subset_of_nodes(two_state, psi_born):
    grid = TimeGrid(0.0, 1.0, 97)
    res = simulate_ensemble(two_state, psi_born, grid, white_kernel(0.3), 2, 1)
    nodes = grid.nodes()
    assert np.all(np.isin(res.times, nodes))


def _per_step_chunk(aset, psi0, grid, drive, cp_idx, unitaries, comp):
    """Reference Trotter chunk: one GEMM, one exp and one division per step."""
    nc = drive.shape[0]
    drive = np.ascontiguousarray(drive.transpose(2, 1, 0))  # (steps, m, nc)
    psi = np.repeat(psi0[:, None], nc, axis=1)
    offsets = np.zeros(nc)
    amps = np.empty((nc, len(cp_idx), psi0.size), dtype=np.complex128)
    logw = np.empty((nc, len(cp_idx)))
    start = 0
    for j, stop in enumerate(cp_idx):
        for k in range(start, stop):
            if unitaries is not None:
                psi = unitaries[1 if k == start else 0] @ psi
            expo = aset.table.T @ drive[k] * grid.dt - comp
            peak = expo.max(axis=0)
            psi *= np.exp(expo - peak)
            offsets += peak
            if unitaries is not None and k + 1 == stop:
                psi = unitaries[1] @ psi
            norms = np.sqrt((psi.real**2 + psi.imag**2).sum(axis=0))
            assert np.all(norms > 0.0)
            psi /= norms
            offsets += np.log(norms)
        amps[:, j, :] = psi.T
        logw[:, j] = 2.0 * offsets
        start = stop
    return amps, logw


@pytest.mark.parametrize("cp", [[0, 15, 16, 17, 33, 37], [5, 36]], ids=["block-edges", "inner"])
@pytest.mark.parametrize("method", ["trotter_white", "raw_linear"])
@pytest.mark.parametrize("with_h0", [True, False])
@pytest.mark.parametrize("m", [1, 3])
def test_blocked_noise_factors_match_per_step_reference(m, with_h0, method, cp, monkeypatch):
    # the chunk builds its noise factors 16 steps at a time and renormalizes by
    # a reciprocal; every amplitude and log weight keeps the bits of the
    # per-step loop, at block edges, inside blocks and past the last block
    rng = np.random.default_rng(3)
    d = 5
    aset = CommutingSet([np.linspace(-1.0, 1.0, d)] + [rng.normal(size=d) for _ in range(m - 1)])
    psi0 = np.array([0.3, 0.5j, -0.4, 0.2, 0.6])
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h0 = h + h.conj().T if with_h0 else None
    grid = TimeGrid(0.0, 0.4, 37)
    for n in (1, 37, 700):
        run = lambda: simulate_ensemble(  # noqa: E731
            aset, psi0, grid, white_kernel(0.7), n, 9, h0=h0, method=method, checkpoints=np.array(cp)
        )
        blocked = run()
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_stepped_chunk", _per_step_chunk)
            reference = run()
        assert blocked.amps.tobytes() == reference.amps.tobytes()
        assert blocked.log_weights.tobytes() == reference.log_weights.tobytes()
