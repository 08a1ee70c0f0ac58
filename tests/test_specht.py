import ast
import inspect
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import polytabloid_by_column_product
from spechtstat import specht
from spechtstat import (
    DomainError,
    Tableau,
    act,
    decompose,
    dimension,
    enumerate_subsets,
    indicator,
    inner_product,
    polytabloid,
    project,
    rank_of_span,
    specht_basis,
    standard_tableaux,
    u_statistic_lift,
)
from spechtstat.verify import Lcg64


class TestPolytabloid:
    def test_four_term_expansion_shape_4_2(self):
        t = Tableau((1, 2, 3, 4), (5, 6))
        expected = (
            indicator(6, (5, 6))
            - indicator(6, (1, 6))
            - indicator(6, (2, 5))
            + indicator(6, (1, 2))
        )
        assert polytabloid(t) == expected

    def test_expansion_with_split_top_row(self):
        t = Tableau((1, 2, 3, 6), (4, 5))
        expected = (
            indicator(6, (4, 5))
            - indicator(6, (1, 5))
            - indicator(6, (4, 2))
            + indicator(6, (1, 2))
        )
        assert polytabloid(t) == expected

    def test_unsorted_rows_pair_columns_by_position(self):
        # columns (2, 5) and (1, 4), not the sorted pairs (1, 4) and (3, 5)
        t = Tableau((2, 1, 3), (5, 4))
        expected = (
            indicator(5, (4, 5))
            - indicator(5, (2, 4))
            - indicator(5, (1, 5))
            + indicator(5, (1, 2))
        )
        assert polytabloid(t) == expected

    def test_single_column(self):
        t = Tableau((1,), (2,))
        assert polytabloid(t) == indicator(2, (2,)) - indicator(2, (1,))

    def test_term_count_before_cancellation(self):
        # disjoint swaps produce 2^m distinct signed indicators
        t = Tableau((1, 2, 3), (4, 5, 6))
        values = [v for v in polytabloid(t).values if v != 0]
        assert len(values) == 8
        assert sorted(values) == [-1, -1, -1, -1, 1, 1, 1, 1]

    def test_equivariance_random_n5(self):
        gen = Lcg64(99)
        for _ in range(10):
            arrangement = gen.shuffle(list(range(1, 6)))
            t = Tableau(tuple(arrangement[:3]), tuple(arrangement[3:]))
            x = gen.permutation(5)
            assert polytabloid(t.apply(x)) == act(x, polytabloid(t))

    def test_mean_zero(self):
        for t in standard_tableaux(6, 2):
            assert polytabloid(t).mean() == 0

    def test_equals_column_product_for_every_standard_tableau_up_to_n10(self):
        for n in range(2, 11):
            for l in range(1, n // 2 + 1):
                for t in standard_tableaux(n, l):
                    assert polytabloid(t) == polytabloid_by_column_product(t), t.text()

    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(1, n // 2))
    ))
    @settings(max_examples=60, deadline=None)
    def test_equals_column_product_for_any_tableau(self, case):
        arrangement, m = case
        t = Tableau(tuple(arrangement[m:]), tuple(arrangement[:m]))
        assert polytabloid(t) == polytabloid_by_column_product(t)

    def test_builds_from_swap_sets_without_the_group_action(self):
        tree = ast.parse(inspect.getsource(specht))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert imported.isdisjoint({"act", "Permutation"})


class TestSpechtBasis:
    def test_order_one_differences(self):
        basis = specht_basis(5, 1)
        assert len(basis) == 4
        for v in basis:
            nonzero = sorted(x for x in v.values if x != 0)
            assert nonzero == [-1, 1]

    def test_rank_6_2(self):
        assert rank_of_span(specht_basis(6, 2)) == 9

    def test_rank_4_2(self):
        assert rank_of_span(specht_basis(4, 2)) == 2

    def test_rank_equals_dimension_up_to_n10(self):
        for n in range(2, 11):
            for l in range(1, n // 2 + 1):
                basis = specht_basis(n, l)
                assert len(basis) == comb(n, l) - comb(n, l - 1)
                assert rank_of_span(basis) == dimension(n, l)

    def test_shape_out_of_range(self):
        with pytest.raises(DomainError):
            specht_basis(5, 3)


class TestLiftToHoeffding:
    def test_same_order_identity(self):
        v = specht_basis(6, 3)[0]
        assert u_statistic_lift(v, 3) == v

    def test_lifted_basis_lands_in_single_order(self):
        for v in specht_basis(6, 2):
            lifted = u_statistic_lift(v, 3)
            assert lifted.mean() == 0
            assert project(lifted, 2) == lifted
            assert project(lifted, 1).is_zero()
            assert project(lifted, 3).is_zero()

    def test_lift_injective_on_basis(self):
        for l in (1, 2):
            lifted = [u_statistic_lift(v, 3) for v in specht_basis(6, l)]
            assert rank_of_span(lifted) == dimension(6, l)

    def test_lift_equivariance(self):
        gen = Lcg64(7)
        v = specht_basis(5, 1)[2]
        for _ in range(6):
            x = gen.permutation(5)
            assert u_statistic_lift(act(x, v), 2) == act(x, u_statistic_lift(v, 2))

    def test_order_too_large(self):
        with pytest.raises(DomainError):
            u_statistic_lift(specht_basis(6, 3)[0], 2)


class TestSpanIdentity:
    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3)])
    def test_lifted_specht_equals_projection_image(self, n, m):
        comps = [decompose(indicator(n, K)).components for K in enumerate_subsets(n, m)]
        for l in range(1, m + 1):
            lifted = [u_statistic_lift(v, m) for v in specht_basis(n, l)]
            image = [c[l] for c in comps]
            want = dimension(n, l)
            assert rank_of_span(lifted) == want
            assert rank_of_span(image) == want
            assert rank_of_span(lifted + image) == want

    def test_lifted_spans_are_mutually_orthogonal(self):
        for i in (1, 2):
            for j in (1, 2):
                if i == j:
                    continue
                for u in specht_basis(6, i):
                    for v in specht_basis(6, j):
                        assert inner_product(
                            u_statistic_lift(u, 3), u_statistic_lift(v, 3)
                        ) == 0
