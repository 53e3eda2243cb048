"""Preferred-basis operators, the psi0 and H0 checks, and density matrices.

Everything lives in the joint eigenbasis of the preferred-basis operators,
given as an eigenvalue table a[i, alpha] (operator i, basis state alpha), so
they are simultaneously diagonal by construction; hbar = 1.  psi0 and H0 are
checked only here, by ``initial_state``, ``validate_hamiltonian`` and
``require_commuting``, each naming the config key the CLI passes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonCommuting

__all__ = [
    "CommutingSet",
    "OutcomeGroup",
    "DensityMatrix",
    "commutation_check",
    "validate_hamiltonian",
    "born_weights",
]

HERMITICITY_TOL = 1.0e-12
COMMUTATION_TOL = 1.0e-10
TRACE_TOL = 1.0e-10
EIGENVALUE_FLOOR = -1.0e-9


@dataclass(frozen=True)
class OutcomeGroup:
    """One joint eigenmanifold: shared eigenvalue vector and its basis states."""

    key: tuple
    indices: np.ndarray
    label: str


@dataclass(frozen=True, eq=False)
class CommutingSet:
    """Preferred-basis operators as an eigenvalue table a[i, alpha].

    Outcome classification groups basis states by the full eigenvalue vector
    (exact equality on the input values), so degenerate eigenmanifolds may be
    multi-dimensional.
    """

    table: np.ndarray

    def __post_init__(self):
        table = np.atleast_2d(np.asarray(self.table, dtype=float))
        if table.ndim != 2 or table.size == 0:
            raise ConfigError("eigenvalue table must be a (num_ops, dim) array")
        if not np.all(np.isfinite(table)):
            raise ConfigError("eigenvalue table must be finite")
        object.__setattr__(self, "table", table)

    @property
    def num_ops(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    def pairwise_gap_sq(self) -> np.ndarray:
        """W[a, b] = sum_i (a_ia - a_ib)^2, the double-commutator weight matrix."""
        diff = self.table[:, :, None] - self.table[:, None, :]
        return np.sum(diff**2, axis=0)

    def outcome_groups(self) -> list[OutcomeGroup]:
        """Joint eigenmanifolds in order of first appearance over the basis."""
        groups: dict[tuple, list[int]] = {}
        for alpha in range(self.dim):
            key = tuple(float(v) for v in self.table[:, alpha])
            groups.setdefault(key, []).append(alpha)
        out = []
        for key, idx in groups.items():
            label = "(" + ", ".join(repr(v) for v in key) + ")"
            out.append(OutcomeGroup(key, np.asarray(idx, dtype=int), label))
        return out


def initial_state(psi0, dim: int, where: str = "initial state") -> np.ndarray:
    """psi0 / |psi0|, or a ConfigError naming ``where`` unless psi0 is ``dim`` amplitudes of finite nonzero norm."""
    psi0 = np.asarray(psi0, dtype=np.complex128)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below, not warned about
        norm = np.linalg.norm(psi0)
    if psi0.shape != (dim,) or not 0.0 < norm < np.inf:
        raise ConfigError(f"{where} must be {dim} amplitudes with a finite nonzero norm")
    return psi0 / norm


def validate_hamiltonian(h0, dim: int, where: str = "Hamiltonian") -> np.ndarray:
    """h0 as a complex array, or a ConfigError naming ``where`` unless it is a Hermitian dim x dim matrix."""
    h0 = np.array(h0, dtype=object)  # ragged rows stay lists, so they fail the shape check
    if h0.shape != (dim, dim):
        raise ConfigError(f"{where} must be a {dim}x{dim} matrix")
    h0 = h0.astype(np.complex128)
    if np.max(np.abs(h0 - h0.conj().T)) > HERMITICITY_TOL:
        raise ConfigError(f"{where} must be Hermitian within {HERMITICITY_TOL:g}")
    return h0


def commutation_check(h0: np.ndarray, aset: CommutingSet) -> float:
    """max_i of the entrywise norm of [A_i, H0]; diagonal A makes this cheap."""
    h0 = np.asarray(h0, dtype=np.complex128)
    worst = 0.0
    for i in range(aset.num_ops):
        a = aset.table[i]
        comm = (a[:, None] - a[None, :]) * h0
        worst = max(worst, float(np.max(np.abs(comm))))
    return worst


def require_commuting(h0: np.ndarray, aset: CommutingSet, where: str = "H0") -> None:
    """NonCommuting naming ``where`` unless H0 commutes with the table, as colored noise needs."""
    worst = commutation_check(h0, aset)
    if worst > COMMUTATION_TOL:
        raise NonCommuting(
            f"{where} does not commute with the preferred basis (max dev {worst:.2e}); "
            "colored noise with a non-commuting Hamiltonian has no closed solver: "
            "drop H0 or make it commute with the eigenvalue table"
        )


def born_weights(psi0, aset: CommutingSet) -> np.ndarray:
    """||P_g psi0||^2 per outcome group, with psi0 normalized by ``initial_state``."""
    p = np.abs(initial_state(psi0, aset.dim)) ** 2
    return np.array([float(np.sum(p[g.indices])) for g in aset.outcome_groups()])


@dataclass
class DensityMatrix:
    """Statistical operator with the standard physicality checks."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.complex128)
        if self.rho.ndim != 2 or self.rho.shape[0] != self.rho.shape[1]:
            raise ConfigError("density matrix must be square")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def validate(self) -> None:
        """Raise ConfigError unless Hermitian, unit trace, and nearly PSD."""
        h_err = float(np.max(np.abs(self.rho - self.rho.conj().T)))
        if h_err > HERMITICITY_TOL:
            raise ConfigError(f"density matrix not Hermitian: max dev {h_err:.2e}")
        tr_err = abs(float(np.trace(self.rho).real) - 1.0)
        if tr_err > TRACE_TOL or abs(float(np.trace(self.rho).imag)) > TRACE_TOL:
            raise ConfigError(f"density matrix trace off unity by {tr_err:.2e}")
        eigs = np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))
        if float(eigs.min()) < EIGENVALUE_FLOOR:
            raise ConfigError(f"density matrix eigenvalue {eigs.min():.2e} below floor")


def pure_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    return np.outer(psi, psi.conj())
