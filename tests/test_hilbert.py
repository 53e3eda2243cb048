"""Operator, Hamiltonian, and density-matrix primitives."""

import numpy as np
import pytest

from collapsim import CommutingSet, DensityMatrix, born_weights, commutation_check
from collapsim.errors import ConfigError
from collapsim.hilbert import pure_density, validate_hamiltonian


def test_commutation_check_cases(two_state):
    d = two_state.dim
    assert commutation_check(np.diag([0.4, -0.2]), two_state) == 0.0
    assert commutation_check(np.eye(d), two_state) == 0.0
    # hand-computed and verified with a dense-matrix oracle: max |[A, X]| = 2
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a = np.diag([1.0, -1.0]).astype(complex)
    oracle = float(np.max(np.abs(a @ sx - sx @ a)))
    assert oracle == 2.0
    assert commutation_check(sx, two_state) == pytest.approx(2.0)


def test_validate_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ConfigError):
        validate_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
    h = validate_hamiltonian(np.array([[1.0, 1j], [-1j, 0.5]]), 2)
    assert h.shape == (2, 2)


def test_outcome_groups_degenerate():
    aset = CommutingSet([[1.0, 1.0, -1.0]])
    groups = aset.outcome_groups()
    assert len(groups) == 2
    assert groups[0].indices.tolist() == [0, 1]
    assert groups[1].indices.tolist() == [2]
    # joint grouping over two operators distinguishes (1, 0) from (1, 1)
    joint = CommutingSet([[1.0, 1.0, -1.0], [0.0, 1.0, 0.0]])
    assert [g.indices.tolist() for g in joint.outcome_groups()] == [[0], [1], [2]]


def test_pairwise_gap_sq(two_state):
    w = two_state.pairwise_gap_sq()
    assert np.array_equal(w, np.array([[0.0, 4.0], [4.0, 0.0]]))


def test_born_weights_sum_to_one(three_state, psi_three):
    bw = born_weights(psi_three, three_state)
    assert bw.tolist() == pytest.approx([0.36, 0.2304, 0.4096])
    assert float(bw.sum()) == pytest.approx(1.0)


def test_density_matrix_validation():
    DensityMatrix(pure_density(np.array([0.6, 0.8]))).validate()
    with pytest.raises(ConfigError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]])).validate()  # not Hermitian
    with pytest.raises(ConfigError):
        DensityMatrix(np.diag([0.7, 0.7])).validate()  # trace 1.4
    with pytest.raises(ConfigError):
        DensityMatrix(np.diag([1.5, -0.5])).validate()  # negative eigenvalue
