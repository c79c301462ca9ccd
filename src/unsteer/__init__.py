"""Nonclassicality of two-qubit Bell-diagonal states beyond steering.

Schroedinger strength, steering cost, dimension-bounded hidden-state
simulability, and the random access code efficiencies these resources buy.
"""

from types import ModuleType as _ModuleType

from .boxes import (
    Assemblage,
    Box,
    MeasurementSet,
    assemblage_from_state,
    box_from_json_dict,
    box_from_state,
    box_to_json_dict,
    correlator,
    correlator_matrix,
    deterministic_strategies,
    estimate_params_from_box,
    pauli_axes,
    steering_functional,
    strategy_table,
    white_noise_bb84,
)
from .decompose import (
    CLASSICAL_AT_DIMENSION,
    SUPERUNSTEERABLE,
    UNDECIDED,
    WITNESSED_STEERABLE,
    Certificate,
    ConvexSplit,
    InfeasibilityTrace,
    LhvLhsModel,
    build_lhs_model_2set,
    build_lhs_model_3set,
    canonical_box_split,
    canonical_split_2set,
    canonical_split_3set,
    certify_quantumness,
    schrodinger_strength_bb84,
    schrodinger_strength_bd,
    search_lhs_bounded,
    steering_cost_bb84,
    steering_cost_split_bb84,
    three_set_model_parameters,
    three_set_remainder,
    two_set_remainder,
    verify_lhv_lhs,
)
from .errors import (
    DegenerateAxis,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidBox,
    InvalidModel,
    NonUnitDirection,
    OutOfRange,
    ParseError,
    PhaseDomainError,
    PreconditionViolated,
    UnphysicalParams,
    UnsteerError,
    UnsupportedN,
)
from .rac import (
    RacResult,
    RacSpec,
    SweepReport,
    encoding_directions,
    optimal_rac_spec,
    optimize_rac,
    rac_classical_bound,
    rac_efficiency_bd,
    simulate_rac,
    sweep_csv_lines,
    sweep_separable_max,
)
from .states import (
    BellDiagonalParams,
    CanonicalFormRecord,
    Projector,
    apply_canonical_transform,
    bd_eigenvalues,
    bell_diagonal,
    bell_state,
    canonical_form,
    geometric_discord,
    is_ppt,
    is_separable_bd,
    partial_transpose,
    projector_matrix,
    state_from_bloch,
)
from .version import __version__

# Every name imported above, except the submodules those imports bind.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
