import importlib
import itertools
import os
import pkgutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_perm_to_subset,
    brute_fixed_subset_count,
    compose,
    cycle_lengths,
    fixed_points,
    invert,
    standard_tableau_count,
    transposition,
)
from spechtstat import (
    DEFAULT_ORACLE_CEILING,
    DomainError,
    Permutation,
    ResourceLimitError,
    Tableau,
    enumerate_permutations,
    enumerate_subsets,
    fixed_subset_count,
    standard_tableaux,
)
from spechtstat.combinatorics import (
    _mask_index,
    fixed_subset_count_of_type,
    format_cycle_type,
    format_subset,
    parse_subset,
    subset_position,
)
import spechtstat
from spechtstat import algebra, combinatorics, fileformats, hoeffding, verify
from spechtstat import decompose, decomposition_to_text, random_module_vector


class TestEnumerateSubsets:
    def test_n3_l2(self):
        assert enumerate_subsets(3, 2) == ((1, 2), (1, 3), (2, 3))

    def test_empty_subset(self):
        assert enumerate_subsets(5, 0) == ((),)

    def test_count_n5_l2(self):
        assert len(enumerate_subsets(5, 2)) == 10

    def test_lexicographic_and_stable(self):
        subs = enumerate_subsets(6, 3)
        assert list(subs) == sorted(subs)
        assert len(set(subs)) == comb(6, 3)
        assert enumerate_subsets(6, 3) == subs  # the same table on every call

    @pytest.mark.parametrize("l", [-1, 6])
    def test_out_of_range(self, l):
        with pytest.raises(DomainError):
            enumerate_subsets(5, l)

    def test_index_agrees(self):
        idx = _mask_index(5, 2)
        for i, s in enumerate(enumerate_subsets(5, 2)):
            assert idx[sum(1 << (a - 1) for a in s)] == i
            assert subset_position(5, s) == i


class TestSubsetPosition:
    def test_equals_the_canonical_position_for_every_small_layer(self):
        for n in range(1, 11):
            for l in range(n + 1):
                positions = [subset_position(n, s) for s in enumerate_subsets(n, l)]
                assert positions == list(range(comb(n, l))), (n, l)

    @pytest.mark.parametrize("n, l", [(40, 20), (60, 2)])
    def test_first_and_last_subsets_of_large_layers(self, n, l):
        assert subset_position(n, tuple(range(1, l + 1))) == 0
        assert subset_position(n, tuple(range(n - l + 1, n + 1))) == comb(n, l) - 1


class TestPermutation:
    def test_identity_action_on_subset(self):
        e = Permutation(range(1, 6))
        assert apply_perm_to_subset(e, (2, 4)) == (2, 4)

    def test_three_cycle_on_subset(self):
        x = Permutation.from_cycles(5, (1, 2, 3))
        assert apply_perm_to_subset(x, (1, 3)) == (1, 2)

    def test_transposition_fixes_its_support_setwise(self):
        x = Permutation(transposition(5, 4, 5))
        assert apply_perm_to_subset(x, (4, 5)) == (4, 5)

    def test_degree_mismatch(self):
        x = Permutation(range(1, 4))
        with pytest.raises(DomainError):
            apply_perm_to_subset(x, (1, 4))

    def test_not_a_bijection(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))

    def test_composition_convention(self):
        # the oracles' compose(x, y) is a -> x(y(a))
        x = Permutation.from_cycles(4, (1, 2))
        y = Permutation.from_cycles(4, (2, 3))
        assert compose(x.images, y.images)[3 - 1] == x.images[y.images[3 - 1] - 1] == 1

    def test_inverse(self):
        x = Permutation.from_cycles(5, (1, 4, 2), (3, 5)).images
        assert compose(x, invert(x)) == compose(invert(x), x) == (1, 2, 3, 4, 5)
        assert fixed_points(x) == 0 and fixed_points(compose(x, invert(x))) == 5

    def test_action_law_exhaustive_n4(self):
        perms = list(enumerate_permutations(4))
        s = (1, 3)
        for x in perms:
            for y in perms:
                assert apply_perm_to_subset(x, apply_perm_to_subset(y, s)) == apply_perm_to_subset(
                    Permutation(compose(x.images, y.images)), s
                )


class TestCycleType:
    def test_identity(self):
        assert Permutation(range(1, 5)).cycle_type() == (1, 1, 1, 1)

    def test_double_transposition(self):
        assert Permutation.from_cycles(4, (1, 2), (3, 4)).cycle_type() == (2, 2)

    def test_four_cycle(self):
        assert Permutation.from_cycles(4, (1, 2, 3, 4)).cycle_type() == (4,)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_permutation_against_its_cycles_followed_in_order(self, n):
        for x in enumerate_permutations(n):
            assert x.cycle_type() == cycle_lengths(x.images)

    def test_text_form(self):
        assert format_cycle_type((3, 2, 1, 1)) == "3-2-1-1"


class TestFixedSubsetCount:
    def test_identity_fixes_everything(self):
        assert fixed_subset_count(Permutation(range(1, 5)), 2) == 6

    def test_double_transposition(self):
        x = Permutation.from_cycles(4, (1, 2), (3, 4))
        assert fixed_subset_count(x, 2) == 2  # {1,2} and {3,4}

    def test_three_cycle(self):
        x = Permutation.from_cycles(4, (1, 2, 3))
        assert fixed_subset_count(x, 2) == 0

    def test_matches_brute_force_scan_up_to_n6(self):
        for n in range(1, 7):
            for x in enumerate_permutations(n):
                for l in range(n + 1):
                    assert fixed_subset_count(x, l) == brute_fixed_subset_count(x, l)

    def test_class_function(self):
        seen = {}
        for x in enumerate_permutations(5):
            key = x.cycle_type()
            value = tuple(fixed_subset_count(x, l) for l in range(6))
            assert seen.setdefault(key, value) == value

    def test_generating_polynomial_total(self):
        # coefficients sum to 2^(number of cycles)
        x = Permutation.from_cycles(6, (1, 2, 3), (4, 5))
        total = sum(fixed_subset_count(x, l) for l in range(7))
        assert total == 2 ** len(x.cycle_type())

    def test_out_of_range_orders_are_zero(self):
        x = Permutation(range(1, 4))
        assert fixed_subset_count_of_type(x.cycle_type(), -1) == 0
        assert fixed_subset_count_of_type(x.cycle_type(), 4) == 0


class TestTableau:
    def test_columns_worked_example(self):
        t = Tableau((2, 1, 3), (5, 4))
        assert t.columns() == [(2, 5), (1, 4), (3,)]

    def test_columns_shape_4_2(self):
        t = Tableau((1, 2, 3, 4), (5, 6))
        assert t.columns() == [(1, 5), (2, 6), (3,), (4,)]

    def test_single_column(self):
        t = Tableau((1,), (2,))
        assert t.columns() == [(1, 2)]

    def test_invalid_rows(self):
        with pytest.raises(DomainError):
            Tableau((1, 2, 3), (3, 4))  # repeated entry
        with pytest.raises(DomainError):
            Tableau((1, 2), (3, 4, 5))  # bottom longer than top

    def test_apply_permutes_entrywise(self):
        t = Tableau((2, 1, 3), (5, 4))
        x = Permutation.from_cycles(5, (1, 5))
        assert t.apply(x) == Tableau((2, 5, 3), (1, 4))

    def test_text_form(self):
        assert Tableau((2, 1, 3), (5, 4)).text() == "2,1,3;5,4"

    def test_subset_text_forms(self):
        assert parse_subset("1,4,7") == (1, 4, 7)
        assert format_subset((1, 4, 7)) == "1,4,7"
        assert parse_subset("-") == ()
        assert format_subset(()) == "-"


class TestStandardTableaux:
    def test_hook_shape_count(self):
        for n in range(2, 9):
            assert standard_tableau_count(n, 1) == n - 1

    def test_n4_l2(self):
        assert standard_tableau_count(4, 2) == 2

    def test_l0_is_one(self):
        assert standard_tableau_count(7, 0) == 1

    def test_matches_binomial_difference_up_to_n12(self):
        for n in range(1, 13):
            for l in range(n // 2 + 1):
                want = comb(n, l) - (comb(n, l - 1) if l >= 1 else 0)
                assert standard_tableau_count(n, l) == want

    def test_all_enumerated_are_standard_and_distinct(self):
        ts = standard_tableaux(6, 3)
        assert len(set(ts)) == len(ts)
        for t in ts:  # rows and columns strictly increase
            assert list(t.top_row) == sorted(t.top_row) and list(t.bottom_row) == sorted(t.bottom_row)
            assert all(a < b for a, b in zip(t.top_row, t.bottom_row))

    def test_shape_out_of_range(self):
        with pytest.raises(DomainError):
            standard_tableau_count(4, 3)


class TestEnumeratePermutations:
    def test_counts(self):
        assert len(list(enumerate_permutations(3))) == 6
        assert list(enumerate_permutations(1)) == [Permutation((1,))]

    def test_n5_unique(self):
        perms = list(enumerate_permutations(5))
        assert len(perms) == 120
        assert len(set(perms)) == 120

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_validated_permutations_in_lex_order(self, n):
        want = [Permutation(t) for t in itertools.permutations(range(1, n + 1))]
        assert list(enumerate_permutations(n)) == want

    def test_ceiling_raises_at_call_time(self):
        with pytest.raises(ResourceLimitError):
            enumerate_permutations(10)

    def test_default_ceiling_is_the_oracle_ceiling(self):
        assert DEFAULT_ORACLE_CEILING == 8
        with pytest.raises(ResourceLimitError):
            enumerate_permutations(9)
        assert next(enumerate_permutations(9, ceiling=9)) == Permutation(range(1, 10))

    def test_ceiling_override_is_lazy(self):
        gen = enumerate_permutations(10, ceiling=None)
        first = next(gen)
        assert first == Permutation(range(1, 11))


class TestLayerGate:
    @pytest.mark.parametrize(
        "build",
        [enumerate_subsets, standard_tableaux, lambda n, l: random_module_vector(n, l, 0)],
        ids=["enumerate_subsets", "standard_tableaux", "random_module_vector"],
    )
    def test_layer_past_the_list_limit_is_refused(self, build):
        with pytest.raises(ResourceLimitError, match=r"C\(70, 35\)"):
            build(70, 35)

    def test_one_gate_sizes_every_layer(self):
        gate = combinatorics._layer_size
        assert [m.__name__ for m in (algebra, fileformats, verify) if m._layer_size is not gate] == []
        assert gate(60, 30) == comb(60, 30)
        with pytest.raises(DomainError):
            enumerate_subsets(0, 0)


class TestSubsetCaches:
    def test_every_cache_is_bounded(self):
        caches = {}
        for info in pkgutil.iter_modules(spechtstat.__path__):
            module = importlib.import_module(f"spechtstat.{info.name}")
            caches.update(
                (f"{info.name}.{name}", obj) for name, obj in vars(module).items()
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
            )
        # Only the tables that some caller reads again.
        assert set(caches) == {
            "combinatorics._mask_index", "combinatorics._fixed_subset_poly",
            "hoeffding._face_columns", "references._group_walk",
            "references._projection_weights", "verify._projection_images",
        }
        assert [name for name, c in caches.items() if c.cache_info().maxsize is None] == []

    def test_interleaved_shapes_past_the_bound_give_their_first_results(self):
        # 17 shapes, each putting 2 layers in the face cache: 34 (n, b) keys,
        # more than the cache holds.
        shapes = [(n, 2) for n in range(5, 22)]
        inputs = {shape: random_module_vector(*shape, 60 + shape[0]) for shape in shapes}
        first = {shape: decomposition_to_text(decompose(h)) for shape, h in inputs.items()}
        bound = hoeffding._face_columns.cache_info().maxsize
        assert 2 * len(shapes) > bound
        for shape in shapes[::-1] + shapes:
            assert decomposition_to_text(decompose(inputs[shape])) == first[shape]
            assert hoeffding._face_columns.cache_info().currsize <= bound
        assert hoeffding._face_columns.cache_info().currsize == bound

    def test_decompose_builds_no_subset_tuples(self):
        # A fresh process: the caches hold only what one decompose put there.
        code = (
            "import sys\n"
            "from spechtstat import ModuleVector, decompose\n"
            "from spechtstat import combinatorics as c\n"
            "calls, real = [], c.enumerate_subsets\n"
            "for mod in list(sys.modules.values()):\n"
            "    if vars(mod).get('enumerate_subsets') is real:\n"
            "        mod.enumerate_subsets = lambda *a: calls.append(a) or real(*a)\n"
            "decompose(ModuleVector.from_numerators(12, 6, range(-462, 462), 7))\n"
            "print(len(calls), c._mask_index.cache_info().currsize, hasattr(c, 'subset_index'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(combinatorics.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        # No tuple layer, no position table kept, and no tuple-keyed table.
        assert proc.stdout.split() == ["0", "0", "False"]


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_action_law_property(n, data):
    perm_lists = st.permutations(list(range(1, n + 1)))
    x = Permutation(data.draw(perm_lists))
    y = Permutation(data.draw(perm_lists))
    l = data.draw(st.integers(0, n))
    s = tuple(sorted(data.draw(st.permutations(list(range(1, n + 1))))[:l]))
    xy = Permutation(compose(x.images, y.images))
    assert apply_perm_to_subset(x, apply_perm_to_subset(y, s)) == apply_perm_to_subset(xy, s)
