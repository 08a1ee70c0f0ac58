import ast
import importlib
import inspect

import pytest

import spechtstat

SURVIVING = [
    "BenchResult", "CharacterTable", "CoefficientTable", "CycleType",
    "DEFAULT_ORACLE_CEILING", "DomainError",
    "HoeffdingDecomposition", "Lcg64", "ModuleVector", "ParseError", "Permutation",
    "ResourceLimitError", "RunConfig", "Subset", "Tableau", "Tabloid",
    "VerificationReport", "act", "apply_perm_to_subset", "bench",
    "character_projection_oracle", "character_table", "conditional_expectation",
    "conjugacy_class_size", "decompose", "decomposition_from_text",
    "decomposition_to_text", "dimension",
    "enumerate_permutations", "enumerate_subsets", "fixed_subset_count",
    "hoeffding_kernel", "indicator", "inner_product", "is_completely_degenerate",
    "load_decomposition", "load_module_vector", "module_vector_from_text",
    "module_vector_to_text", "partitions", "polytabloid", "project",
    "random_module_vector", "rank_of_span", "run_suites", "save_decomposition",
    "save_module_vector", "specht_basis", "standard_tableau_count", "standard_tableaux",
    "two_row_character", "u_statistic_lift", "verify_decomposition",
    "verify_equivalence", "verify_shift_orthogonality", "verify_specht",
]

DELETED = [
    "Rational", "GramMatrix", "cycle_type", "tabloid_of", "columns",
    "ColumnOperator", "lift_to_hoeffding", "coefficient_table",
    "DEFAULT_PERMUTATION_CEILING",
]

MODULES = [
    "algebra", "characters", "cli", "combinatorics", "errors", "fileformats",
    "hoeffding", "specht", "verify",
]


def test_all_is_the_surviving_surface():
    assert sorted(spechtstat.__all__) == sorted(SURVIVING)
    assert len(set(spechtstat.__all__)) == len(spechtstat.__all__)
    for name in spechtstat.__all__:
        assert hasattr(spechtstat, name), name


@pytest.mark.parametrize("module", ["spechtstat"] + [f"spechtstat.{m}" for m in MODULES])
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in DELETED if hasattr(mod, name)] == []


def test_hoeffding_holds_only_the_kernel_route():
    # The references live in `verify`, apart from the route they check.
    hoeffding = importlib.import_module("spechtstat.hoeffding")
    tree = ast.parse(inspect.getsource(hoeffding))
    imported = {node.module.rpartition(".")[2] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    imported |= {alias.name.rpartition(".")[2] for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert imported.isdisjoint({"characters", "verify"})
    moved = [
        "CoefficientTable", "character_projection_oracle", "clear_oracle_cache",
        "_orbit_counts", "_projection_weights", "enumerate_permutations", "subset_images",
    ]
    assert [name for name in moved if hasattr(hoeffding, name)] == []
