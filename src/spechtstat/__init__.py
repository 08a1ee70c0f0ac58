"""Exact Hoeffding decompositions of symmetric statistics of sampling without
replacement, and their identification with two-row Specht modules.

Everything is computed in exact rational arithmetic; every identity the
library claims is checked with zero tolerance.  See the `verify` module for
the executable statements of those identities, `references` for the
independent routes they compare with, and the CLI (`spechtstat`) for
file-based workflows.

Submodules are loaded on first use: `import spechtstat` imports none of
them, and reading a public name such as `spechtstat.decompose` imports its
home module (here `spechtstat.hoeffding`) the first time.
"""

from importlib import import_module as _import_module

#: The public names of each submodule, imported on first read by `__getattr__`
#: below (PEP 562).
_EXPORTS = {
    "algebra": ("ModuleVector", "act", "indicator", "inner_product", "rank_of_span"),
    "characters": ("character_table", "dimension", "two_row_character"),
    "combinatorics": (
        "DEFAULT_ORACLE_CEILING",
        "CycleType",
        "Permutation",
        "Subset",
        "Tableau",
        "enumerate_permutations",
        "enumerate_subsets",
        "fixed_subset_count",
        "standard_tableaux",
    ),
    "errors": ("DomainError", "ParseError", "ResourceLimitError"),
    "fileformats": (
        "decomposition_from_text",
        "decomposition_to_text",
        "load_decomposition",
        "load_module_vector",
        "module_vector_from_text",
        "module_vector_to_text",
        "save_decomposition",
        "save_module_vector",
    ),
    "hoeffding": (
        "HoeffdingDecomposition",
        "decompose",
        "hoeffding_kernel",
        "is_completely_degenerate",
        "project",
        "u_statistic_lift",
    ),
    "references": ("CoefficientTable", "character_projection_oracle", "conditional_expectation"),
    "specht": ("polytabloid", "specht_basis"),
    "verify": (
        "RunConfig",
        "bench",
        "random_module_vector",
        "run_suites",
    ),
}
#: Home module of each public name.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
