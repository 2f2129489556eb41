"""Finite optimal POVMs for pure-state estimation from N copies.

Construction by exact product quadratures on the state sphere,
verification against exact Haar moments, estimation statistics, and
the optimal symmetric-projection cloner in occupation coordinates.
"""

from .cloner import (
    ClonerOutput,
    clone,
    single_particle_fidelity,
    single_particle_reduced,
    two_step_components,
    two_step_estimate,
)
from .errors import (
    ConstructionError,
    InputFormatError,
    PovmQuadError,
    ResourceLimitError,
)
from .estimation import (
    FidelityReport,
    majority_vote_fidelity_mc,
    mean_fidelity_exact,
    mean_fidelity_mc,
    optimal_fidelity,
    outcome_probs,
    pointwise_fidelity,
    sample_outcomes,
)
from .moments import contraction_count, moment_value
from .povm import (
    Povm,
    build_povm,
    check_completeness,
    check_optimality,
    check_universality,
    load_povm,
    restrict_povm,
    save_povm,
)
from .quadrature import (
    gauss_legendre,
    sphere_grid,
    verify_exactness,
)
from .symmetric import (
    PureState,
    fidelity,
    frame_operator,
    frame_residual,
    haar_random_state,
    haar_random_states,
    haar_random_unitary,
    occupation_basis,
    overlap,
    sym_dim,
    sym_embed,
    sym_embed_batch,
    sym_isometry,
    symmetric_projector_full,
)

__version__ = "0.5.0"

__all__ = [
    "ClonerOutput",
    "ConstructionError",
    "FidelityReport",
    "InputFormatError",
    "Povm",
    "PovmQuadError",
    "PureState",
    "ResourceLimitError",
    "build_povm",
    "check_completeness",
    "check_optimality",
    "check_universality",
    "clone",
    "contraction_count",
    "fidelity",
    "frame_operator",
    "frame_residual",
    "gauss_legendre",
    "haar_random_state",
    "haar_random_states",
    "haar_random_unitary",
    "load_povm",
    "majority_vote_fidelity_mc",
    "mean_fidelity_exact",
    "mean_fidelity_mc",
    "moment_value",
    "occupation_basis",
    "optimal_fidelity",
    "outcome_probs",
    "overlap",
    "pointwise_fidelity",
    "restrict_povm",
    "sample_outcomes",
    "save_povm",
    "single_particle_fidelity",
    "single_particle_reduced",
    "sphere_grid",
    "sym_dim",
    "sym_embed",
    "sym_embed_batch",
    "sym_isometry",
    "symmetric_projector_full",
    "two_step_components",
    "two_step_estimate",
    "verify_exactness",
]
