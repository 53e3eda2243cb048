"""Sampling moments, reproducibility, and the integrated-process law."""

import math
import tracemalloc

import numpy as np
import pytest

from collapsim import (
    CommutingSet,
    TimeGrid,
    build_covariance,
    evolve_colored_commuting,
    exponential_kernel,
    gaussian_kernel,
    sample_paths,
    sample_white_increments,
    tabulated_kernel,
    white_kernel,
)
from collapsim import noise
from collapsim.errors import ConfigError, KernelNotPSD, UnsupportedPointwiseEval
from collapsim.kernels import kernel_double_integral
from collapsim.noise import (
    _projection,
    checkpoint_indices,
    child_generator,
    fsum_ordered,
    left_cumulative,
    trapezoid_cumulative,
)

from conftest import stderr_of_mean


def test_grid_validation():
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ConfigError):
        TimeGrid(0.0, 1.0, 0)
    g = TimeGrid(-1.0, 1.0, 4)
    assert g.dt == 0.5
    assert np.allclose(g.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.node_index(0.5) == 3
    with pytest.raises(ConfigError):
        g.node_index(0.3)


def test_checkpoint_indices_cover_ends():
    g = TimeGrid(0.0, 1.0, 400)
    idx = checkpoint_indices(g, 11)
    assert idx[0] == 0 and idx[-1] == 400 and len(idx) == 11
    small = checkpoint_indices(TimeGrid(0.0, 1.0, 3), 50)
    assert small.tolist() == [0, 1, 2, 3]


def test_checkpoint_indices_are_np_unique_of_the_rounded_linspace():
    # adjacent equal entries are dropped, as np.unique drops them from the sorted rounded nodes
    for steps in (1, 2, 3, 7, 10, 49, 50, 51, 99, 330, 1000):
        for count in (2, 3, 4, 11, 49, 50, 51, 52, 100, 331, 2000):
            want = np.unique(np.round(np.linspace(0, steps, min(count, steps + 1))).astype(int))
            got = checkpoint_indices(TimeGrid(0.0, 1.0, steps), count)
            assert got.dtype == want.dtype and np.array_equal(got, want), (steps, count)


@pytest.mark.parametrize("count", [1, 0, -5])
def test_checkpoint_count_below_two_is_refused(count):
    # both ends take two checkpoints; a smaller count is an error, not lifted to 2
    with pytest.raises(ConfigError, match=f"checkpoint count must be >= 2, got {count}"):
        checkpoint_indices(TimeGrid(0.0, 1.0, 10), count)


def test_covariance_entries_frozen():
    # high-precision oracle: (1/sqrt(2 pi)) e^{-2} = 0.05399096651318806
    # checked on L L^T off the diagonal, which the jitter (on the diagonal) leaves alone;
    # both mirror entries, so the sampled covariance is symmetric to the same tolerance
    grid = TimeGrid(0.0, 2.0, 2)
    chol = build_covariance(grid, gaussian_kernel(1.0, 1.0)).cholesky
    cov = chol @ chol.T
    assert cov[0, 2] == pytest.approx(0.05399096651318806, rel=1e-12)
    assert cov[2, 0] == pytest.approx(0.05399096651318806, rel=1e-12)
    # exponential: gamma e^{-|lag|/tau} / (2 tau) at lag 1 is 4 e^{-4}
    chol = build_covariance(grid, exponential_kernel(2.0, 0.25)).cholesky
    cov = chol @ chol.T
    assert cov[0, 1] == pytest.approx(4.0 * math.exp(-4.0), rel=1e-14)
    assert cov[1, 0] == pytest.approx(4.0 * math.exp(-4.0), rel=1e-14)


def test_covariance_white_bypasses():
    with pytest.raises(UnsupportedPointwiseEval):
        build_covariance(TimeGrid(0.0, 1.0, 4), white_kernel(1.0))


def test_covariance_not_psd_raises():
    # zig-zag table with a strongly negative spectral lobe
    k = tabulated_kernel(1.0, [0.0, 0.5, 1.0], [1.0, -0.9, 0.8])
    with pytest.raises(KernelNotPSD, match="tabulated kernel not factorizable"):
        build_covariance(TimeGrid(0.0, 4.0, 128), k)
    # a strength whose gamma * D(0) underflows gets the blame, not the kernel's shape
    with pytest.raises(KernelNotPSD, match=r"gamma = 5e-324 .* gamma \* D\(0\) = 5e-324"):
        build_covariance(TimeGrid(0.0, 1.0, 32), gaussian_kernel(5e-324, 0.3))


@pytest.mark.parametrize(
    "kernel, bound",
    [
        (gaussian_kernel(1.0, 0.3), 3.2),  # evaluating a closed form holds three N^2 arrays
        (tabulated_kernel(1.0, [0.0, 0.5, 1.0], [1.0, 0.5, 0.0]), 2.2),
    ],
    ids=["gaussian", "tent-table"],
)
def test_covariance_peak_memory(kernel, bound):
    # the jitter goes onto the matrix's diagonal in place: no identity, no jittered copy
    tracemalloc.start()
    try:
        factor = build_covariance(TimeGrid(0.0, 2.0, 1023), kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * factor.cholesky.nbytes


def test_covariance_jitter_rungs_do_not_accumulate(monkeypatch):
    # a failed rung (a negative jitter zeroes the diagonal) leaves the next rung the unjittered matrix
    grid, kernel = TimeGrid(0.0, 2.0, 64), gaussian_kernel(1.0, 0.3)
    monkeypatch.setattr(noise, "_JITTERS", (1e-12,))
    want = build_covariance(grid, kernel)
    monkeypatch.setattr(noise, "_JITTERS", (-1.0, 1e-12))
    got = build_covariance(grid, kernel)
    assert got.jitter == want.jitter
    assert np.array_equal(got.cholesky, want.cholesky)


def test_sampling_reproducibility_bitwise():
    grid = TimeGrid(0.0, 1.0, 32)
    factor = build_covariance(grid, gaussian_kernel(1.0, 0.4))
    gamma = 0.7
    nodes = np.array([0, 5, 17, 32])

    def draw(kind, count, seed=99, start=0):
        if kind == "nodes":
            return sample_paths(factor, 2, count, seed, start_index=start)
        if kind == "projected":
            return sample_paths(factor, 2, count, seed, start_index=start, nodes=nodes)
        return sample_white_increments(grid, gamma, 2, count, seed, start_index=start)

    def assert_rows_are_child_streams(batch):
        # row r is the stream of (seed, index + r) through the transform, bit for bit
        for r in range(len(batch)):
            if batch.kind == "projected":
                z = child_generator(batch.master_seed, batch.index + r).standard_normal((2, grid.num_nodes))
                assert np.array_equal(np.concatenate([batch.w[r], batch.x[r]], axis=-1),
                                      z @ _projection(factor, nodes).T)
                continue
            z = child_generator(batch.master_seed, batch.index + r).standard_normal((2, batch.w.shape[2]))
            want = z @ factor.cholesky.T if batch.kind == "nodes" else z * math.sqrt(gamma / grid.dt)
            assert np.array_equal(batch.w[r], want)

    # n = 1100 crosses the 1024-row chunk of the ensemble (CHUNK) and of fncheck
    for kind in ("nodes", "increments", "projected"):
        for n in (3, 1100):
            a, b = draw(kind, n), draw(kind, n)
            assert len(a) == n and a.index == 0 and a.kind == kind
            assert np.array_equal(a.w, b.w) and np.array_equal(a.x, b.x)
            assert_rows_are_child_streams(a)
            # trajectory identity is absolute, not positional
            for r in (0, 2, n - 1):
                solo = draw(kind, 1, start=r)
                assert a[r].index == r and solo.index == r
                assert np.array_equal(a[r].w, solo.w) and np.array_equal(a[r].x, solo.x)
            with pytest.raises(IndexError):
                a[n]
            other = draw(kind, 1, seed=100, start=2)
            assert not np.allclose(other.w, a[2].w)
        # the re-keyed draw at the key extremes: the largest seed, an index
        # of 2**63, and a batch that ends at index 2**64 - 1
        for seed, start in ((2**64 - 1, 0), (99, 2**63), (2**64 - 1, 2**64 - 5)):
            top = draw(kind, 5, seed=seed, start=start)
            assert top.master_seed == seed and top.index == start
            assert_rows_are_child_streams(top)
        # single rows at the ends of both key words
        for seed, index in ((0, 0), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (123, 2**63), (2**63, 5)):
            assert_rows_are_child_streams(draw(kind, 1, seed=seed, start=index))
        with pytest.raises(OverflowError):  # an index past 2**64 - 1 never wraps to 0
            draw(kind, 2, start=2**64 - 1)


def test_child_generator_streams_differ():
    g0 = child_generator(7, 0).standard_normal(8)
    g1 = child_generator(7, 1).standard_normal(8)
    assert not np.allclose(g0, g1)


def test_integrated_path_invariants():
    grid = TimeGrid(0.0, 1.0, 64)
    factor = build_covariance(grid, exponential_kernel(1.0, 0.3))
    p = sample_paths(factor, 2, 1, master_seed=5)[0]
    assert np.all(p.x[..., 0] == 0.0)
    assert np.array_equal(p.x, trapezoid_cumulative(p.w, grid.dt))
    wh = sample_white_increments(grid, 1.0, 2, 1, master_seed=5)[0]
    assert np.all(wh.x[..., 0] == 0.0)
    assert np.array_equal(wh.x, left_cumulative(wh.w, grid.dt))


@pytest.mark.parametrize("kernel", [exponential_kernel(1.0, 0.3), gaussian_kernel(0.8, 0.25)])
def test_projected_batch_is_the_full_path_at_its_nodes(kernel):
    # w and x at a few nodes, read from z @ B.T, agree with the full path to
    # rounding; x at t0 stays exactly +0.0
    grid = TimeGrid(0.0, 1.65, 330)
    factor = build_covariance(grid, kernel)
    nodes = checkpoint_indices(grid, 11)
    full = sample_paths(factor, 2, 700, master_seed=21)
    proj = sample_paths(factor, 2, 700, master_seed=21, nodes=nodes)
    assert proj.kind == "projected" and proj.w.shape == proj.x.shape == (700, 2, len(nodes))
    assert np.max(np.abs(proj.x - full.x[:, :, nodes])) <= 1e-14
    assert np.max(np.abs(proj.w - full.w[:, :, nodes])) <= 1e-14
    assert nodes[0] == 0 and np.all(proj.x[:, :, 0] == 0.0) and not np.any(np.signbit(proj.x[:, :, 0]))
    # B against the trapezoid rows written out one coefficient at a time
    trap = np.zeros((len(nodes), grid.num_nodes))
    for row, j in enumerate(nodes):
        for i in range(1, j + 1):
            trap[row, i - 1] += 0.5 * grid.dt
            trap[row, i] += 0.5 * grid.dt
    want = np.vstack([factor.cholesky[nodes], trap @ factor.cholesky])
    assert np.allclose(_projection(factor, nodes), want, rtol=0, atol=1e-14)
    # a batch of one projected row is no path for a single-trajectory solver
    with pytest.raises(ConfigError, match="full paths"):
        evolve_colored_commuting(CommutingSet([[1.0, -1.0], [0.0, 1.0]]), [0.6, 0.8], grid, kernel, proj[0])


def test_colored_sample_moments():
    grid = TimeGrid(0.0, 1.0, 8)
    kernel = gaussian_kernel(1.0, 0.5)
    factor = build_covariance(grid, kernel)
    n = 10_000
    w = sample_paths(factor, 1, n, master_seed=31).w[:, 0, :]  # (n, nodes)
    # zero mean within 4 sample standard errors per node
    for k in range(w.shape[1]):
        bound = 4.0 * w[:, k].std(ddof=1) / math.sqrt(n)
        assert abs(w[:, k].mean()) <= bound
    # entrywise covariance within 5 standard errors of C = L L^T, the covariance
    # that is sampled (SE computed here)
    cov_hat = np.cov(w.T, ddof=1)
    c = factor.cholesky @ factor.cholesky.T
    se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c**2) / n)
    assert np.all(np.abs(cov_hat - c) <= 5.0 * se)


def test_gaussianity_kurtosis():
    grid = TimeGrid(0.0, 1.0, 8)
    factor = build_covariance(grid, exponential_kernel(1.0, 0.4))
    n = 10_000
    w = sample_paths(factor, 1, n, master_seed=13).w[:, 0, :]
    bound = 5.0 * math.sqrt(24.0 / n)
    for k in (0, 4, 8):
        col = w[:, k]
        z = (col - col.mean()) / col.std(ddof=0)
        kurt = float(np.mean(z**4))
        assert abs(kurt - 3.0) <= bound


def test_white_increment_variance_and_x():
    grid = TimeGrid(0.0, 1.0, 50)
    gamma, n = 0.8, 10_000
    paths = sample_white_increments(grid, gamma, 1, n, master_seed=21)
    w = paths.w[:, 0, :]
    target = gamma / grid.dt
    var_hat = w.var(ddof=1, axis=0)
    se = target * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(var_hat - target) <= 5.0 * se)
    # <x(t1)^2> = gamma * (t1 - t0): the white double-integral law
    x1 = paths.x[:, 0, -1]
    vx = float(np.mean(x1**2))
    se_x = stderr_of_mean(x1**2)
    assert abs(vx - gamma * 1.0) <= 5.0 * se_x


def test_white_dt_invariance():
    gamma, n = 1.0, 8_000
    vs = []
    for steps in (64, 128):
        grid = TimeGrid(0.0, 1.0, steps)
        x1 = sample_white_increments(grid, gamma, 1, n, 77).x[:, 0, -1]
        vs.append((float(np.mean(x1**2)), stderr_of_mean(x1**2)))
    (v1, s1), (v2, s2) = vs
    assert abs(v1 - v2) <= 5.0 * math.hypot(s1, s2)


@pytest.mark.parametrize(
    "kernel",
    [
        white_kernel(0.9),
        gaussian_kernel(1.1, 0.3),
        exponential_kernel(0.7, 0.5),
        tabulated_kernel(0.8, np.linspace(0.0, 0.6, 13), 2.0 * (1.0 - np.linspace(0.0, 0.6, 13) / 0.6)),
    ],
)
def test_integrated_variance_matches_gamma_f(kernel):
    grid = TimeGrid(0.0, 1.5, 150)
    n = 10_000
    if kernel.family.value == "white":
        paths = sample_white_increments(grid, kernel.gamma, 1, n, master_seed=55)
    else:
        paths = sample_paths(build_covariance(grid, kernel), 1, n, master_seed=55)
    x = paths.x[:, 0, :]
    for idx in checkpoint_indices(grid, 6)[1:]:  # 5 checkpoints past t0
        t = grid.nodes()[idx]
        target = kernel.gamma * kernel_double_integral(kernel, float(t), 0.0)
        sample = x[:, idx] ** 2
        assert abs(float(np.mean(sample)) - target) <= 5.0 * stderr_of_mean(sample)


def test_sample_count_validation():
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        sample_white_increments(grid, 1.0, 1, 0, master_seed=1)
    factor = build_covariance(grid, gaussian_kernel(1.0, 1.0))
    with pytest.raises(ConfigError):
        sample_paths(factor, 1, 0, master_seed=1)


def test_fsum_ordered_keeps_the_exact_sum_and_its_errors():
    # fncheck reads both errors: an undefined sum raises ValueError, an overflowing one OverflowError
    values = np.random.default_rng(3).normal(size=(40, 400)) * 10.0 ** np.arange(-20, 20)[:, None]
    assert fsum_ordered(values) == math.fsum(values.ravel())
    with pytest.raises(ValueError):
        fsum_ordered([math.inf, -math.inf])
    with pytest.raises(OverflowError):
        fsum_ordered([1e308, 1e308])
