"""bellres: minimal state resources required for a given Bell violation.

Given any Hermitian Bell operator this package computes the minimal purity
(generalized robustness, Renyi 2-purity, relative entropy of purity) needed
to reach a prescribed Bell value, and for two-qubit Bell-diagonal operators
also the matching coherence / discord / entanglement robustness together
with the optimal witnessing states.
"""

from .bell import (
    BellScenario,
    CorrelationScenario,
    build_bell_operator,
    build_correlation_operator,
    chsh_scenario,
    i3322_fixture,
    incompatibility,
    local_bound,
    observable_from_bloch,
    steering_operator_f2,
)
from .bounds import (
    RankSolution,
    construct_optimal_state,
    max_value_given_probustness,
    max_value_given_renyi2,
    min_lambda1_for_value,
    min_relent_purity_for_value,
    min_renyi2_for_value,
)
from .linalg import (
    DensityState,
    Spectrum,
    commutator_norm,
    density_state,
    eig_hermitian,
    partial_transpose,
    state_functionals,
    tensor,
)
from .twoqubit import (
    BdsState,
    ResourceReport,
    c_max,
    chsh_eigenvalues,
    chsh_max_value,
    cr_fixed_basis,
    cr_min_over_product_bases,
    er_min_for_value,
    er_ppt_solver,
    is_bell_diagonal,
    lambda1_heatmap,
    min_er_vs_c_curve,
    min_er_vs_ca_curve,
    min_resources_for_value,
    steering_eigenvalues,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
