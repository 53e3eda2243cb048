"""Cooking weights, outcome classification, Born statistics, x-distribution."""

import dataclasses
import math

import numpy as np
import pytest

from collapsim import (
    CommutingSet,
    TimeGrid,
    born_frequencies,
    classify_outcomes,
    cook_weights,
    cooked_x_distribution,
    exponential_kernel,
    gaussian_kernel,
    sample_white_increments,
    simulate_ensemble,
    white_kernel,
)
from collapsim.errors import ConfigError, DegenerateEnsemble, TooManyUndecided
from collapsim.kernels import kernel_double_integral
from collapsim.noise import fsum_ordered
from collapsim.reduction import UNDECIDED, ks_critical_value

from conftest import weighted_fraction_stderr


def run_white(aset, psi0, gamma, t1, steps, n, seed, cp=None):
    grid = TimeGrid(0.0, t1, steps)
    cp = np.array([0, steps]) if cp is None else cp
    return simulate_ensemble(aset, psi0, grid, white_kernel(gamma), n, seed, checkpoints=cp)


def test_cook_weights_unit_for_vanishing_noise(two_state, psi_born):
    res = run_white(two_state, psi_born, 1e-30, 1.0, 50, 500, 3)
    cw = cook_weights(res.log_weights[:, -1])
    assert np.allclose(cw.weights, 1.0, atol=1e-10)
    assert cw.n_eff == pytest.approx(500.0, rel=1e-10)
    assert cw.mean_raw == pytest.approx(1.0, abs=1e-12)


def test_mean_raw_weight_is_one(two_state, psi_born):
    res = run_white(two_state, psi_born, 0.5, 1.0, 200, 10_000, 19)
    cw = cook_weights(res.log_weights[:, -1])
    assert abs(cw.mean_raw - 1.0) <= 5.0 * cw.mean_raw_stderr
    assert cw.weights.mean() == pytest.approx(1.0, rel=1e-12)  # self-normalized


def test_mean_raw_stderr_scale_free_in_log_weights(two_state, psi_born):
    # a common offset of the log weights rescales mean_raw and its stderr
    # together for as long as mean_raw itself is a finite double
    # (the peak log weight is 8.2 here, so +703 takes it past 709)
    grid = TimeGrid(0.0, 2.0, 100)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(1.0), 400, 9, method="raw_linear"
    )
    base = cook_weights(res.log_weights[:, -1])
    shifted = cook_weights(res.log_weights[:, -1] + 703.0)
    assert math.isfinite(shifted.mean_raw)
    assert shifted.mean_raw_stderr / shifted.mean_raw == pytest.approx(
        base.mean_raw_stderr / base.mean_raw, rel=1e-12
    )


def test_neff_decreases_with_gamma_f(two_state, psi_born):
    neffs = []
    for gamma in (0.25, 0.5, 1.0):
        res = run_white(two_state, psi_born, gamma, 1.0, 100, 20_000, 101)
        neffs.append(cook_weights(res.log_weights[:, -1]).n_eff)
    assert neffs[0] > neffs[1] > neffs[2]


def test_degenerate_ensemble_guard(two_state, psi_born):
    res = run_white(two_state, psi_born, 1.0, 6.0, 300, 50, 7)
    with pytest.raises(DegenerateEnsemble):
        cook_weights(res.log_weights[:, -1])


def test_degenerate_ensemble_guard_fails_closed_on_nan(two_state, psi_born):
    # one NaN log weight makes n_eff NaN, which compares false with the floor
    res = run_white(two_state, psi_born, 0.5, 1.0, 50, 500, 3)
    log_weights = res.log_weights[:, -1].copy()
    log_weights[7] = np.nan
    with pytest.raises(DegenerateEnsemble):
        cook_weights(log_weights)


def test_cook_weights_refuses_more_than_one_column(two_state, psi_born):
    # a whole (n, checkpoints) array would cook every checkpoint together
    res = run_white(two_state, psi_born, 0.5, 1.0, 50, 500, 3)
    with pytest.raises(ConfigError, match="one non-empty log-weight column"):
        cook_weights(res.log_weights)


def test_eigenstate_never_undecided(two_state):
    res = run_white(two_state, [1.0, 0.0], 1.0, 2.0, 100, 300, 23)
    labels = classify_outcomes(res, two_state, threshold=0.99)
    assert np.all(labels == 0)


def test_high_separation_undecided_below_one_percent(two_state, psi_born):
    # gamma f = 6, (Delta a)^2 = 4: the mixture components are far apart
    res = run_white(two_state, psi_born, 1.0, 6.0, 600, 10_000, 41)
    labels = classify_outcomes(res, two_state, threshold=0.99)[:, -1]
    # unguarded cooking weights (n_eff is about 5 here, below cook_weights' floor
    # of 10): this probes the labels, and the ratio needs no normalization
    lw = res.log_weights[:, -1]
    weights = np.exp(lw - np.max(lw))
    undecided = fsum_ordered(weights[labels == UNDECIDED]) / fsum_ordered(weights)
    assert undecided < 0.01


def test_threshold_sweep_label_agreement(two_state, psi_born):
    res = run_white(two_state, psi_born, 1.0, 6.0, 600, 5_000, 43)
    strict = classify_outcomes(res, two_state, threshold=0.99)
    loose = classify_outcomes(res, two_state, threshold=0.51)
    decided = strict != UNDECIDED
    assert np.all(strict[decided] == loose[decided])


def test_born_frequencies_two_state(two_state, psi_born):
    # gamma f(T) = 1.4 with threshold 0.9: ~2.5% cooked-undecided, n_eff ~ 70
    res = run_white(two_state, psi_born, 1.0, 1.4, 280, 10_000, 57)
    rep = born_frequencies(res, two_state, psi_born, threshold=0.9)
    assert rep.undecided_fraction < 0.05
    for g in range(2):
        assert abs(rep.frequency[g] - rep.born[g]) <= 5.0 * rep.stderr[g]
    assert rep.frequency.sum() == pytest.approx(1.0, rel=1e-12)


def test_born_reports_normalize_psi0(two_state):
    # [3, 4] is 5 * [0.6, 0.8]: the Born weights are 0.36 and 0.64 for both
    kernel = exponential_kernel(1.0, 0.25)
    res = simulate_ensemble(two_state, [0.6, 0.8], TimeGrid(0.0, 1.0, 100), kernel, 400, 5)
    reports = (
        lambda psi0: born_frequencies(res, two_state, psi0, threshold=0.9, min_decided=0.0),
        lambda psi0: cooked_x_distribution(res, two_state, psi0, kernel),
    )
    for report in reports:
        unit, scaled = report([0.6, 0.8]), report([3.0, 4.0])
        for field in dataclasses.fields(unit):
            got, want = getattr(scaled, field.name), getattr(unit, field.name)
            if field.name == "labels":
                assert got == want
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=field.name)


def test_born_equal_superposition(two_state):
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    res = run_white(two_state, psi0, 1.0, 1.4, 280, 10_000, 61)
    rep = born_frequencies(res, two_state, psi0, threshold=0.9)
    assert abs(rep.frequency[0] - 0.5) <= 5.0 * rep.stderr[0]


def test_born_eigenstate_exact(two_state):
    res = run_white(two_state, [0.0, 1.0], 0.8, 1.0, 100, 400, 67)
    rep = born_frequencies(res, two_state, [0.0, 1.0], threshold=0.9)
    assert rep.frequency.tolist() == [0.0, 1.0]
    assert rep.undecided_fraction == 0.0


def test_too_many_undecided_raises(two_state, psi_born):
    res = run_white(two_state, psi_born, 1.0, 1.4, 280, 2_000, 57)
    with pytest.raises(TooManyUndecided):
        born_frequencies(res, two_state, psi_born, threshold=0.9, min_decided=0.999)


def test_no_decided_trajectory_raises_too_many_undecided(two_state, psi_born):
    # weak noise leaves every trajectory near its Born weights, so none reaches 0.99
    res = run_white(two_state, psi_born, 1e-3, 1.0, 50, 50, 5)
    assert np.all(classify_outcomes(res, two_state, 0.99) == UNDECIDED)
    with pytest.raises(TooManyUndecided, match="decided fraction 0.000 is zero"):
        born_frequencies(res, two_state, psi_born, threshold=0.99, min_decided=0.0)


def test_decided_fraction_grows_with_horizon(two_state, psi_born):
    # weighted decided fraction at 2T must not fall below the value at T
    # beyond two standard errors (batch means computed here)
    grid = TimeGrid(0.0, 2.8, 560)
    res = simulate_ensemble(
        two_state, psi_born, grid, white_kernel(0.5), 10_000, 73,
        checkpoints=np.array([0, 280, 560]),
    )
    fracs, errs = [], []
    for cp in (1, 2):
        labels = classify_outcomes(res, two_state, threshold=0.9)[:, cp]
        cw = cook_weights(res.log_weights[:, cp])
        dec = (labels != UNDECIDED).astype(float)
        fracs.append(fsum_ordered(cw.weights * dec) / fsum_ordered(cw.weights))
        errs.append(weighted_fraction_stderr(cw.weights, dec))
    assert fracs[1] >= fracs[0] - 2.0 * math.hypot(*errs)


def test_white_and_colored_solvers_give_identical_labels(two_state, psi_born):
    gamma = 1.0
    grid = TimeGrid(0.0, 1.4, 280)
    cp = np.array([0, 280])
    n = 400
    paths = sample_white_increments(grid, gamma, 1, n, master_seed=57)
    from collapsim import evolve_colored_commuting, evolve_csl_white

    kernel = white_kernel(gamma)
    amps_a = np.concatenate(
        [evolve_csl_white(None, two_state, psi_born, grid, gamma, p, cp).amps for p in paths]
    )
    amps_b = np.concatenate(
        [
            evolve_colored_commuting(two_state, psi_born, grid, kernel, p, checkpoints=cp).amps
            for p in paths
        ]
    )

    class Shim:
        pass

    a, b = Shim(), Shim()
    a.amps, b.amps = amps_a, amps_b
    la = classify_outcomes(a, two_state, threshold=0.9)
    lb = classify_outcomes(b, two_state, threshold=0.9)
    assert np.array_equal(la, lb)


def test_cooked_x_matches_mixture(two_state, psi_born):
    # moderate separation keeps the importance weights healthy
    kernel = exponential_kernel(1.0, 0.2)
    grid = TimeGrid(0.0, 0.7, 350)
    res = simulate_ensemble(
        two_state, psi_born, grid, kernel, 20_000, 89, checkpoints=np.array([0, 350])
    )
    rep = cooked_x_distribution(res, two_state, psi_born, kernel)
    assert rep.n_eff >= 5000
    assert rep.ks_distance <= rep.ks_critical
    assert rep.raw_ks_distance <= rep.raw_ks_critical
    gf = kernel.gamma * kernel_double_integral(kernel, 0.7, 0.0)
    assert rep.sigma == pytest.approx(math.sqrt(gf), rel=1e-12)
    assert sorted(rep.component_means.tolist()) == pytest.approx(
        [-2.0 * gf, 2.0 * gf], rel=1e-12
    )


def test_cooked_x_degenerate_eigenvalues_unimodal(psi_born):
    # both basis states share the eigenvalue: single Gaussian at 2 a gamma f
    aset = CommutingSet([[0.7, 0.7]])
    kernel = gaussian_kernel(1.0, 0.15)
    grid = TimeGrid(0.0, 0.6, 300)
    res = simulate_ensemble(
        aset, psi_born, grid, kernel, 10_000, 97, checkpoints=np.array([0, 300])
    )
    rep = cooked_x_distribution(res, aset, psi_born, kernel)
    assert len(rep.component_means) == 1
    assert rep.ks_distance <= rep.ks_critical


def test_separation_ratio_shrinks_with_horizon():
    kernel = exponential_kernel(1.0, 1.0)
    gaps = 2.0  # |alpha - beta| for eigenvalues +-1
    ratios = []
    for t in (1.0, 2.0, 4.0):
        gf = kernel.gamma * kernel_double_integral(kernel, t, 0.0)
        ratios.append(math.sqrt(gf) / (2.0 * gaps * gf))
    assert ratios[0] > ratios[1] > ratios[2]


def test_ks_critical_value_formula():
    # standard asymptotic inverse at the 1% level: K = 1.6276...
    assert ks_critical_value(1.0) == pytest.approx(1.6276236307187293, rel=1e-12)
    assert ks_critical_value(100.0) == pytest.approx(0.16276236307187292, rel=1e-12)
