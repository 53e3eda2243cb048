"""collapsim: stochastic state-vector reduction with general Gaussian noises.

Samples correlated noise paths, propagates collapse trajectories through the
closed solvable cases, applies the cooked-probability rule, and verifies the
analytic predictions (decay laws, Born statistics, the Gaussian
functional-average identity, macroscopic amplification) at desk scale.
"""

__version__ = "0.1.0"

from .kernels import (  # noqa: F401
    CorrelationKernel,
    KernelFamily,
    divergence_check,
    exponential_kernel,
    gaussian_kernel,
    kernel_cumulative,
    kernel_double_integral,
    kernel_eval,
    tabulated_kernel,
    white_kernel,
)
from .noise import (  # noqa: F401
    NoiseBatch,
    TimeGrid,
    build_covariance,
    child_generator,
    sample_paths,
    sample_white_increments,
)
from .hilbert import (  # noqa: F401
    CommutingSet,
    DensityMatrix,
    born_weights,
    commutation_check,
)
from .dynamics import (  # noqa: F401
    EnsembleResult,
    evolve_colored_commuting,
    evolve_csl_white,
    functional_derivative_probe,
    simulate_ensemble,
)
from .master import (  # noqa: F401
    DensityPath,
    ensemble_to_density,
    evolve_colored_master,
    evolve_lindblad_csl,
    offdiag_analytic,
)
from .reduction import (  # noqa: F401
    born_frequencies,
    classify_outcomes,
    cook_weights,
    cooked_x_distribution,
)
from .fncheck import fn_validate  # noqa: F401
from .macrobody import (  # noqa: F401
    MacroBody,
    MacroParams,
    com_offdiag_decay,
    gamma_of_t,
    macro_damping_rate,
    macro_damping_rate_quadrature,
    smeared_density,
)
