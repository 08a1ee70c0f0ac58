import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spechtstat

SURVIVING = [
    "CoefficientTable", "CycleType",
    "DEFAULT_ORACLE_CEILING", "DomainError",
    "HoeffdingDecomposition", "ModuleVector", "ParseError", "Permutation",
    "ResourceLimitError", "RunConfig", "Subset", "Tableau",
    "act", "bench",
    "character_projection_oracle", "character_table", "conditional_expectation",
    "decompose", "decomposition_from_text",
    "decomposition_to_text", "dimension",
    "enumerate_permutations", "enumerate_subsets", "fixed_subset_count",
    "hoeffding_kernel", "indicator", "inner_product", "is_completely_degenerate",
    "load_decomposition", "load_module_vector", "module_vector_from_text",
    "module_vector_to_text", "polytabloid", "project",
    "random_module_vector", "rank_of_span", "run_suites", "save_decomposition",
    "save_module_vector", "specht_basis", "standard_tableaux",
    "two_row_character", "u_statistic_lift",
]

#: Off the surface, but still defined in `verify`, whose `SUITES` and
#: `run_suites` reach the suites.
VERIFY_ONLY = [
    "BenchResult", "Lcg64", "VerificationReport", "verify_decomposition",
    "verify_equivalence", "verify_shift_orthogonality", "verify_specht",
]

DELETED = [
    "Rational", "GramMatrix", "cycle_type", "tabloid_of", "columns",
    "ColumnOperator", "lift_to_hoeffding", "coefficient_table",
    "DEFAULT_PERMUTATION_CEILING", "Tabloid", "apply_perm_to_subset",
    "standard_tableau_count", "subset_index", "parse_cycle_type",
]

#: Methods that nothing but the tests called, by class and home module.
DELETED_METHODS = [
    ("combinatorics", "Permutation", "identity"),
    ("combinatorics", "Permutation", "inverse"),
    ("combinatorics", "Permutation", "__mul__"),
    ("combinatorics", "Permutation", "fixed_points"),
    ("combinatorics", "Permutation", "transposition"),
    ("combinatorics", "Tableau", "parse"),
    ("combinatorics", "Tableau", "is_standard"),
    ("characters", "CharacterTable", "column"),
    ("algebra", "ModuleVector", "support"),
]

#: Still defined in `characters`, which uses them, but not exported.
UNEXPORTED = ["CharacterTable", "conjugacy_class_size", "partitions"]

MODULES = [
    "algebra", "characters", "cli", "combinatorics", "errors", "fileformats",
    "hoeffding", "references", "specht", "verify",
]

#: The reference routes, all defined in `references`.
REFERENCES = [
    "CoefficientTable", "character_projection_oracle", "clear_oracle_cache",
    "conditional_expectation", "_double_sum_values", "_group_walk", "_carrier",
    "_transported_weights", "_projection_weights", "_fixed_point_route",
]


def test_all_is_the_surviving_surface():
    assert sorted(spechtstat.__all__) == sorted(SURVIVING)
    assert len(spechtstat.__all__) == 43
    assert spechtstat.__all__ == sorted(spechtstat._HOME)
    for name in spechtstat.__all__:
        assert hasattr(spechtstat, name), name


def test_test_only_names_are_off_the_surface():
    characters = importlib.import_module("spechtstat.characters")
    for name in UNEXPORTED:
        assert not hasattr(spechtstat, name), name
        assert hasattr(characters, name), name
    assert not hasattr(importlib.import_module("spechtstat.combinatorics").Tableau, "tabloid")


@pytest.mark.parametrize("module", ["spechtstat"] + [f"spechtstat.{m}" for m in MODULES])
def test_deleted_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in DELETED if hasattr(mod, name)] == []


@pytest.mark.parametrize("module,cls,name", DELETED_METHODS)
def test_deleted_methods_are_gone(module, cls, name):
    assert not hasattr(getattr(importlib.import_module(f"spechtstat.{module}"), cls), name)


def test_permutation_call_is_gone():
    # A class always has the metaclass's __call__, so ask an instance.
    assert not callable(spechtstat.Permutation((2, 1)))


@pytest.mark.parametrize("name", VERIFY_ONLY)
def test_verify_only_names_stay_in_verify(name):
    verify = importlib.import_module("spechtstat.verify")
    assert name not in spechtstat.__all__ and not hasattr(spechtstat, name)
    assert getattr(verify, name).__module__ == verify.__name__
    if name.startswith("verify_"):
        assert getattr(verify, name) in verify.SUITES.values()


def _imports(module: str) -> set[str]:
    """The last dotted component of every module that `module`'s source imports from."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"spechtstat.{module}")))
    imported = {node.module.rpartition(".")[2] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    imported |= {alias.name.rpartition(".")[2] for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    return imported


def test_hoeffding_holds_only_the_kernel_route():
    # The references live in `references`, apart from the route they check.
    assert _imports("hoeffding").isdisjoint({"characters", "references", "verify"})
    hoeffding = importlib.import_module("spechtstat.hoeffding")
    moved = REFERENCES + ["_check_shape", "enumerate_permutations", "subset_images"]
    assert [name for name in moved if hasattr(hoeffding, name)] == []


def test_references_import_none_of_the_routes_they_check():
    assert _imports("references").isdisjoint({"hoeffding", "verify", "fileformats", "specht"})
    references = importlib.import_module("spechtstat.references")
    assert [name for name in REFERENCES
            if getattr(references, name).__module__ != references.__name__] == []
    # `verify` defines no reference route of its own: any it holds is imported.
    verify = importlib.import_module("spechtstat.verify")
    assert [name for name in REFERENCES
            if getattr(verify, name, None) not in (None, getattr(references, name))] == []
    assert not hasattr(verify, "_check_shape")


def _loaded_after(code: str) -> list[str]:
    """The `spechtstat` modules a fresh interpreter has loaded after running `code`."""
    env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
    report = "import sys; print(sorted(m for m in sys.modules if m.startswith('spechtstat')))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env=env, cwd=Path(__file__).parent, check=True,
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1])


class TestOnDemandLoading:
    def test_import_loads_no_submodule(self):
        assert _loaded_after("import spechtstat") == ["spechtstat"]

    def test_references_load_only_what_they_use(self):
        assert _loaded_after("import spechtstat.references") == [
            f"spechtstat{suffix}" for suffix in
            ["", ".algebra", ".characters", ".combinatorics", ".errors", ".references"]
        ]

    def test_verify_loads_no_file_formats(self):
        # A failed check formats its input on demand; nothing else needs them.
        assert "spechtstat.fileformats" not in _loaded_after("import spechtstat.verify")

    def test_decompose_command_loads_only_what_it_uses(self, tmp_path):
        out = tmp_path / "out.dec"
        loaded = _loaded_after(
            "import spechtstat.cli\n"
            "assert spechtstat.cli.main(['decompose', '--n', '10', '--m', '5', "
            f"'--input', 'data/decompose_n10_m5.mv', '--out', {str(out)!r}]) == 0"
        )
        assert out.read_bytes() == (Path(__file__).parent / "data/decompose_n10_m5.dec").read_bytes()
        assert {"spechtstat.fileformats", "spechtstat.hoeffding"} <= set(loaded)
        assert {
            "spechtstat.references", "spechtstat.verify", "spechtstat.characters", "spechtstat.specht"
        }.isdisjoint(loaded)

    def test_an_argument_spelled_verify_loads_no_verify(self, tmp_path):
        data = Path(__file__).parent / "data"
        (tmp_path / "verify").write_bytes((data / "decompose_n10_m5.mv").read_bytes())
        loaded = _loaded_after(
            f"import os, spechtstat.cli; os.chdir({str(tmp_path)!r})\n"
            "assert spechtstat.cli.main(['decompose', '--n', '10', '--m', '5', "
            "'--input', 'verify', '--out', 'out.dec']) == 0"
        )
        assert "spechtstat.verify" not in loaded
        assert (tmp_path / "out.dec").read_bytes() == (data / "decompose_n10_m5.dec").read_bytes()

    def test_reading_a_name_loads_its_home_module(self):
        loaded = _loaded_after("import spechtstat; spechtstat.dimension")
        assert "spechtstat.characters" in loaded and "spechtstat.verify" not in loaded

    @pytest.mark.parametrize("name", SURVIVING)
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"spechtstat.{spechtstat._HOME[name]}")
        obj = getattr(spechtstat, name)
        assert obj is getattr(home, name)
        if not isinstance(obj, (int, types.GenericAlias)):  # defined in its home module
            assert obj.__module__ == home.__name__

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from spechtstat import *", namespace)
        assert sorted(k for k in namespace if k != "__builtins__") == sorted(spechtstat.__all__)

    def test_dir_lists_every_public_name_before_loading_any(self):
        code = "import spechtstat; assert set(spechtstat.__all__) <= set(dir(spechtstat))"
        assert _loaded_after(code) == ["spechtstat"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            spechtstat.no_such_name
        assert not hasattr(spechtstat, "no_such_name")

    def test_verify_help_lists_every_suite(self, capsys):
        from spechtstat import verify
        from spechtstat.cli import main

        assert main(["verify", "--help"]) == 0
        usage = capsys.readouterr().out
        assert "{" + ",".join(["all", *verify.SUITES]) + "}" in usage
