"""chebdens: prime splitting statistics with Chebotarev cross-checks,
Dirichlet/natural density estimation, an exact-rational density calculus,
Weyl group constants, and the explicit index-bound pipeline built on them.
"""

from .bounds import (
    BoundReport,
    FactoredBound,
    csp_bound_pipeline,
    factorial_bound,
    idele_index_bound,
    index_divisor_bound,
    minimal_tower_count,
    report_to_dict,
)
from .calculus import (
    ThetaBound,
    TowerSpec,
    as_density,
    compositum_degree,
    disjoint_union_density,
    inclusion_exclusion_density,
    intersection_lower_bound,
    pigeonhole_threshold,
    selection_lower_bound,
    tower_theta,
    truncated_inclusion_exclusion_check,
    union_upper_bound,
)
from .density import (
    DEFAULT_CUTOFF,
    DEFAULT_S_GRID,
    DensityEstimate,
    PartialZetaValue,
    chebotarev_reference,
    dirichlet_density_estimate,
    lift_density,
    member_mask,
    natural_density_estimate,
    partial_zeta,
    upper_density_estimate,
)
from .errors import (
    ContainmentError,
    HypothesisFailureError,
    InconsistencyError,
    InvariantViolationError,
    ModelFormatError,
    RamifiedPrimeError,
    ResourceLimitError,
)
from .primes import PrimeRange, is_prime, prime_count, primes_upto, sieve_primes
from .splitting import (
    AbelianModel,
    FrobeniusCycleType,
    GaloisExtensionModel,
    SplittingFieldModel,
    SplittingPredicate,
    abelian_model,
    cycle_type_predicate,
    frobenius_cycle_type,
    in_progression,
    intersect_splitting,
    load_model,
    model_from_dict,
    model_to_dict,
    poly_discriminant,
    residue_class_predicate,
    split_mask,
    splits_completely,
    splitting_field_model,
)
from .weyl import (
    GroupConstants,
    RootSystemData,
    RootSystemType,
    build_root_system,
    class_count,
    constants_for_group,
    enumerated_constants,
    invariant_degrees,
    parse_type,
    simple_reflection_perms,
    weyl_order,
)

__version__ = "0.1.0"
