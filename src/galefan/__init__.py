"""Exact Gale duality, strongly regular fans and Demazure-root combinatorics.

The package connects two descriptions of the same data: spanning
configurations of lattice vectors on one side, and finitely generated
abelian groups with distinguished generating collections on the other.
All computations are exact (integer and rational arithmetic only).
"""

from .errors import (
    CapExceededError,
    DegenerateConfigurationError,
    GalefanError,
    InternalError,
    InvalidFanError,
    InvalidRootError,
    NotAdmissibleError,
    NotGeneratingError,
)
from .linalg import (
    DiophantineSolution,
    IntMatrix,
    LinearSystem,
    SnfResult,
    ilp_feasible,
    integer_kernel,
    lp_feasible,
    matrix_rank,
    row_hermite_form,
    smith_normal_form,
    solve_diophantine,
)
from .groups import (
    AbelianGroup,
    AdmissibilityResult,
    CokernelMap,
    DirectSum,
    ElementCollection,
    GroupElement,
    direct_sum,
    direct_sum_collection,
    generates_full_semigroup,
    generates_group,
    group_from_cokernel,
    is_admissible,
    is_link,
    semigroup_membership,
    subgroup_membership,
)
from .fans import (
    DemazureRoot,
    FanReport,
    FanViolation,
    SimplicialFan,
    StrongRegularityResult,
    SuitabilityResult,
    VectorConfiguration,
    cone_key,
    cones_meet_in_common_face,
    he_connected_pairs,
    is_demazure_root,
    is_primitive,
    is_regular_cone,
    is_strictly_convex,
    is_strongly_regular,
    is_suitable,
    one_skeleton_fan,
    one_skeleton_strongly_regular,
    primitivize,
    root_connecting,
    roots_in_box,
    validate_fan,
)
from .gale import (
    canonical_form,
    configs_equivalent,
    inverse_gale_transform,
    lattice_gale_transform,
    linear_gale_transform,
    pairs_equivalent,
)
from .classify import (
    ClassificationReport,
    ConnectednessResult,
    GSet,
    ShapeReport,
    build_maximal_fan,
    classify_pair,
    enumerate_connected_gsets,
    gset_from_subfan,
    is_big_open_subfan,
    is_connected_gset,
    semisimple_shape,
    subfan_from_gset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
