"""Singularity classification for quiver settings, toric moduli, and the conifold algebra."""

__version__ = "0.1.0"

from .classification import (
    SingularityReport,
    SingularTypeClass,
    SmoothListEntry,
    counting_lower_bound,
    defect,
    enumerate_reduced_singular,
    expected_dim,
    is_smooth_setting,
    singular_type_classes,
)
from .core import (
    Arrow,
    MarkedQuiverSetting,
    Representation,
    canonical_key,
    euler_form,
    evaluate_path,
    strip_degenerate_marks,
    validate,
)
from .local_structure import (
    DecompositionType,
    classify_point,
    enumerate_decomposition_types,
    is_simple_dimvector,
    local_setting,
)
from .reduction import Move, ReductionResult, applicable_moves, apply_move, reduce_setting
from .toric import (
    DeterminantalMatrix,
    ProjChart,
    central_fiber,
    evaluate_determinantal_semi_invariant,
    hilbert_basis,
    invariant_generators,
    is_theta_semistable,
    proj_charts,
    semi_invariant_generators,
    semigroup_isomorphism,
    semistable_via_semiinvariants,
    toric_relations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
