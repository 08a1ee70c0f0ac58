"""Exact Hoeffding decompositions of symmetric statistics of sampling without
replacement, and their identification with two-row Specht modules.

Everything is computed in exact rational arithmetic; every identity the
library claims is checked with zero tolerance.  See the `verify` module for
the executable statements of those identities and the CLI (`spechtstat`) for
file-based workflows.
"""

from .algebra import (
    ModuleVector,
    act,
    indicator,
    inner_product,
    rank_of_span,
)
from .characters import (
    CharacterTable,
    character_table,
    conjugacy_class_size,
    dimension,
    partitions,
    two_row_character,
)
from .combinatorics import (
    DEFAULT_ORACLE_CEILING,
    CycleType,
    Permutation,
    Subset,
    Tableau,
    Tabloid,
    apply_perm_to_subset,
    enumerate_permutations,
    enumerate_subsets,
    fixed_subset_count,
    standard_tableau_count,
    standard_tableaux,
)
from .errors import DomainError, ParseError, ResourceLimitError
from .fileformats import (
    decomposition_from_text,
    decomposition_to_text,
    load_decomposition,
    load_module_vector,
    module_vector_from_text,
    module_vector_to_text,
    save_decomposition,
    save_module_vector,
)
from .hoeffding import (
    HoeffdingDecomposition,
    conditional_expectation,
    decompose,
    hoeffding_kernel,
    is_completely_degenerate,
    project,
    u_statistic_lift,
)
from .specht import polytabloid, specht_basis
from .verify import (
    BenchResult,
    CoefficientTable,
    Lcg64,
    RunConfig,
    VerificationReport,
    bench,
    character_projection_oracle,
    random_module_vector,
    run_suites,
    verify_decomposition,
    verify_equivalence,
    verify_shift_orthogonality,
    verify_specht,
)

__version__ = "0.1.0"

__all__ = [
    "BenchResult",
    "CharacterTable",
    "CoefficientTable",
    "CycleType",
    "DEFAULT_ORACLE_CEILING",
    "DomainError",
    "HoeffdingDecomposition",
    "Lcg64",
    "ModuleVector",
    "ParseError",
    "Permutation",
    "ResourceLimitError",
    "RunConfig",
    "Subset",
    "Tableau",
    "Tabloid",
    "VerificationReport",
    "act",
    "apply_perm_to_subset",
    "bench",
    "character_projection_oracle",
    "character_table",
    "conditional_expectation",
    "conjugacy_class_size",
    "decompose",
    "decomposition_from_text",
    "decomposition_to_text",
    "dimension",
    "enumerate_permutations",
    "enumerate_subsets",
    "fixed_subset_count",
    "hoeffding_kernel",
    "indicator",
    "inner_product",
    "is_completely_degenerate",
    "load_decomposition",
    "load_module_vector",
    "module_vector_from_text",
    "module_vector_to_text",
    "partitions",
    "polytabloid",
    "project",
    "random_module_vector",
    "rank_of_span",
    "run_suites",
    "save_decomposition",
    "save_module_vector",
    "specht_basis",
    "standard_tableau_count",
    "standard_tableaux",
    "two_row_character",
    "u_statistic_lift",
    "verify_decomposition",
    "verify_equivalence",
    "verify_shift_orthogonality",
    "verify_specht",
]
