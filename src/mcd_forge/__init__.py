"""Marginally coupled designs over prime-power level counts.

A marginally coupled design pairs an s-level orthogonal array (for m
qualitative factors) with an n-level Latin hypercube (for k quantitative
factors) on the same n = s^u runs, such that for every qualitative
column the quantitative levels split evenly across its level classes.
The Latin hypercubes built here are additionally non-cascading: no two
quantitative columns collapse to the same grouping of runs.

Everything is constructed from vectors over GF(s) and every claimed
property is re-checked by exhaustive counting — nothing is trusted on
the strength of the algebra alone.
"""

from .bundle import (
    DesignBundle,
    bundle_from_design,
    read_bundle,
    write_bundle,
)
from .catalog import (
    CatalogRow,
    all_rows,
    direct_rows,
    materialize,
    subspace_rows,
    verify_row,
)
from .construct import (
    ConstructionParams,
    MarginallyCoupledDesign,
    NonorthogonalIntersection,
    Provenance,
    admissible_set,
    anti_mirror_construction,
    common_nonorthogonal,
    direct_construction,
    expected_intersection_size,
    general_construction,
    orthogonal_witness,
    partition_admissible,
    stratified_generator_choice,
    subspace_construction,
    unit_combinations,
)
from .designs import (
    IDENTITY_SEED,
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    collapse_levels,
    expand_levels,
    method_of_replacement,
)
from .errors import (
    BadGridError,
    BadParamsError,
    LevelOutOfRangeError,
    MalformedBundleError,
    MalformedCollapsedDesignError,
    McdForgeError,
    NotApplicableError,
    NotDivisibleError,
    NotPrimePowerError,
    OrthogonalityViolationError,
    ProportionalVectorsError,
    RunCountMismatchError,
    StrengthExceedsColumnsError,
    TooLargeError,
    TooManyColumnsError,
    UnsupportedOrderError,
    VOutOfRangeError,
    ZeroVectorError,
)
from .gf import GaloisField, galois_field
from .linalg import (
    SubspaceBasis,
    enumerate_span,
    generate_linear_array,
    orthogonal_complement_basis,
    rank,
)
from .nstar import PrefixSearch, max_independent_prefixes
from .verify import (
    CheckResult,
    VerificationReport,
    battery,
    check_grid_stratification,
    check_mcd,
    check_mcd_by_slices,
    check_noncascading,
    check_oa_strength,
)

__version__ = "0.1.0"

__all__ = [
    "BadGridError",
    "BadParamsError",
    "CatalogRow",
    "CheckResult",
    "CollapsedDesign",
    "ConstructionParams",
    "DesignBundle",
    "GaloisField",
    "IDENTITY_SEED",
    "LatinHypercube",
    "LevelOutOfRangeError",
    "MalformedBundleError",
    "MalformedCollapsedDesignError",
    "MarginallyCoupledDesign",
    "McdForgeError",
    "NonorthogonalIntersection",
    "NotApplicableError",
    "NotDivisibleError",
    "NotPrimePowerError",
    "OrthogonalArray",
    "OrthogonalityViolationError",
    "PrefixSearch",
    "ProportionalVectorsError",
    "Provenance",
    "RunCountMismatchError",
    "StrengthExceedsColumnsError",
    "SubspaceBasis",
    "TooLargeError",
    "TooManyColumnsError",
    "UnsupportedOrderError",
    "VOutOfRangeError",
    "VerificationReport",
    "ZeroVectorError",
    "admissible_set",
    "all_rows",
    "anti_mirror_construction",
    "battery",
    "bundle_from_design",
    "check_grid_stratification",
    "check_mcd",
    "check_mcd_by_slices",
    "check_noncascading",
    "check_oa_strength",
    "collapse_levels",
    "common_nonorthogonal",
    "direct_construction",
    "direct_rows",
    "enumerate_span",
    "expand_levels",
    "expected_intersection_size",
    "galois_field",
    "general_construction",
    "generate_linear_array",
    "materialize",
    "max_independent_prefixes",
    "method_of_replacement",
    "orthogonal_complement_basis",
    "orthogonal_witness",
    "partition_admissible",
    "rank",
    "read_bundle",
    "stratified_generator_choice",
    "subspace_construction",
    "subspace_rows",
    "unit_combinations",
    "verify_row",
    "write_bundle",
]
