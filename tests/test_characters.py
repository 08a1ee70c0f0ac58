from collections import Counter
from math import comb, factorial

import pytest

from oracles import brute_fixed_subset_count, fixed_points, standard_tableau_count
from spechtstat import (
    DomainError,
    Permutation,
    character_table,
    dimension,
    enumerate_permutations,
    two_row_character,
)
from spechtstat.characters import conjugacy_class_size, partitions


class TestTwoRowCharacter:
    def test_trivial_column(self):
        for x in enumerate_permutations(5):
            assert two_row_character(5, 0, x) == 1

    def test_order_one_is_fixed_points_minus_one(self):
        for n in range(2, 7):
            for x in enumerate_permutations(n):
                assert two_row_character(n, 1, x) == fixed_points(x.images) - 1

    def test_n4_l2_values_by_class(self):
        expected = {
            (1, 1, 1, 1): 2,
            (2, 1, 1): 0,
            (2, 2): 2,
            (3, 1): -1,
            (4,): 0,
        }
        for ct, value in expected.items():
            assert two_row_character(4, 2, ct) == value

    def test_matches_brute_force_difference(self):
        for x in enumerate_permutations(5):
            for l in range(3):
                want = brute_fixed_subset_count(x, l) - (
                    brute_fixed_subset_count(x, l - 1) if l >= 1 else 0
                )
                assert two_row_character(5, l, x) == want

    def test_accepts_permutation_or_cycle_type(self):
        x = Permutation.from_cycles(6, (1, 2), (3, 4))
        assert two_row_character(6, 2, x) == two_row_character(6, 2, x.cycle_type())

    def test_shape_out_of_range(self):
        with pytest.raises(DomainError):
            two_row_character(4, 3, Permutation(range(1, 5)))

    def test_degree_mismatch(self):
        with pytest.raises(DomainError):
            two_row_character(5, 1, Permutation(range(1, 5)))

    @pytest.mark.parametrize(
        "ct", [(3, 2, 0), (6, -1), (2.5, 2.5)], ids=["zero-part", "negative-part", "float-parts"]
    )
    def test_refuses_a_part_that_is_not_a_positive_int(self, ct):
        for l in range(3):
            with pytest.raises(DomainError, match="not a positive integer"):
                two_row_character(5, l, ct)

    def test_parts_in_any_order(self):
        for l in range(3):
            assert two_row_character(5, l, (1, 3, 1)) == two_row_character(5, l, (3, 1, 1))


class TestDimension:
    def test_order_one(self):
        for n in range(2, 10):
            assert dimension(n, 1) == n - 1

    def test_order_zero(self):
        assert dimension(9, 0) == 1

    def test_n6_l2(self):
        assert dimension(6, 2) == 9

    def test_triple_agreement_up_to_n12(self):
        for n in range(1, 13):
            identity = Permutation(range(1, n + 1))
            for l in range(n // 2 + 1):
                d = dimension(n, l)
                assert d == two_row_character(n, l, identity)
                assert d == standard_tableau_count(n, l)

    def test_dimensions_sum_to_binomial(self):
        for n in range(1, 13):
            for m in range(n // 2 + 1):
                assert sum(dimension(n, l) for l in range(m + 1)) == comb(n, m)

    def test_shape_out_of_range(self):
        with pytest.raises(DomainError):
            dimension(4, 3)


class TestClassSizes:
    def test_n4_sizes(self):
        table = character_table(4, 2)
        assert [row.class_size for row in table.rows] == [1, 6, 3, 8, 6]

    def test_matches_enumeration_up_to_n6(self):
        for n in range(1, 7):
            counts = Counter(x.cycle_type() for x in enumerate_permutations(n))
            for ct in partitions(n):
                assert conjugacy_class_size(n, ct) == counts[ct]

    def test_sizes_sum_to_group_order(self):
        for n in range(1, 9):
            assert sum(conjugacy_class_size(n, ct) for ct in partitions(n)) == factorial(n)

    def test_invalid_partition(self):
        with pytest.raises(DomainError):
            conjugacy_class_size(4, (1, 2, 1))

    @pytest.mark.parametrize("ct", [(2.5, 2.5), (5.0,), (3, 2, 0), (4, 2, -1)])
    def test_part_that_is_not_a_positive_int(self, ct):
        with pytest.raises(DomainError, match="not a positive integer"):
            conjugacy_class_size(5, ct)


class TestCharacterTable:
    def test_row_order_and_count_n4(self):
        table = character_table(4, 2)
        assert [row.cycle_type for row in table.rows] == [
            (1, 1, 1, 1),
            (2, 1, 1),
            (2, 2),
            (3, 1),
            (4,),
        ]

    def test_trivial_column_all_ones(self):
        table = character_table(6, 3)
        assert {row.values[0] for row in table.rows} == {1}

    def test_first_orthogonality(self):
        for n in range(2, 9):
            table = character_table(n, n // 2)
            for l in range(n // 2 + 1):
                total = sum(
                    row.class_size * row.values[l] ** 2 for row in table.rows
                )
                assert total == factorial(n)

    def test_column_orthogonality_distinct_shapes(self):
        for n in range(2, 9):
            table = character_table(n, n // 2)
            for i in range(n // 2 + 1):
                for j in range(i + 1, n // 2 + 1):
                    total = sum(
                        row.class_size * row.values[i] * row.values[j] for row in table.rows
                    )
                    assert total == 0

    def test_identity_row_carries_dimensions(self):
        table = character_table(8, 4)
        identity_row = table.rows[0]
        assert identity_row.cycle_type == (1,) * 8
        assert identity_row.values == tuple(dimension(8, l) for l in range(5))

    def test_class_function_property_exhaustive_n6(self):
        table = character_table(6, 3)
        values = {row.cycle_type: row.values for row in table.rows}
        for x in enumerate_permutations(6):
            for l in range(4):
                assert two_row_character(6, l, x) == values[x.cycle_type()][l]

    def test_max_l_out_of_range(self):
        with pytest.raises(DomainError):
            character_table(4, 3)

    def test_csv_export(self):
        table = character_table(4, 2)
        text = table.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "cycle_type,class_size,chi_0,chi_1,chi_2"
        assert lines[1] == "1-1-1-1,1,1,3,2"
        assert len(lines) == 6
