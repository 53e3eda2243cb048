"""Exception hierarchy shared by all collapsim modules.

Two broad classes matter for the CLI exit-status contract: configuration /
usage problems (exit 2) and numerical failures discovered mid-run (exit 3).
"""


class CollapsimError(Exception):
    """Base class; ``exit_code`` is what the CLI returns when it escapes."""

    exit_code = 1


class ConfigError(CollapsimError):
    """Bad run configuration or invalid call arguments."""

    exit_code = 2


class NumericalError(CollapsimError):
    """Numerical failure (not representable / guard tripped)."""

    exit_code = 3


class UnsupportedPointwiseEval(ConfigError):
    """White noise has no pointwise kernel value; use the discrete covariance path."""


class InvalidInterval(ConfigError):
    """Time interval with t < t0 (or a non-finite bound where one is required)."""


class UnknownFunctional(ConfigError):
    """Functional name not in the fixed analytic menu."""


class NonCommuting(ConfigError):
    """Hamiltonian does not commute with the preferred-basis operators.

    An input condition (no closed solver exists for it), so it exits 2.
    """


class KernelNotPSD(NumericalError):
    """Covariance factorization failed even after jitter escalation."""


class ZeroNorm(NumericalError):
    """State vector norm underflowed to zero, or went non-finite, despite log-offset bookkeeping."""


class DegenerateEnsemble(NumericalError):
    """Importance weights too degenerate to carry statistics (n_eff guard)."""


class TooManyUndecided(NumericalError):
    """Decided trajectory fraction below the required minimum."""


class StepSizeRejected(NumericalError):
    """Density-matrix integrator detected trace drift beyond tolerance."""
