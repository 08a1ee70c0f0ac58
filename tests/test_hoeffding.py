import copy
import dataclasses
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_perm_to_subset,
    brute_isotypic_projection,
    degenerate_by_subset_scan,
    hoeffding_projection_by_least_squares,
    lifted_indicator,
    naive_down,
    naive_up,
    subset_scan_lift,
)
from spechtstat import (
    CoefficientTable,
    DomainError,
    ModuleVector,
    ResourceLimitError,
    act,
    character_projection_oracle,
    conditional_expectation,
    decompose,
    enumerate_permutations,
    enumerate_subsets,
    hoeffding_kernel,
    indicator,
    inner_product,
    is_completely_degenerate,
    project,
    random_module_vector,
    two_row_character,
    u_statistic_lift,
)
from spechtstat import hoeffding, references
from spechtstat.references import clear_oracle_cache


# Inputs at the edges of the common denominator D of the integer passes.
_PRIMES_NEAR_1E6 = (
    999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907, 999883, 999863,
    999853, 999809, 999773, 999769, 999763, 999749, 999727, 999721, 999683, 999671,
)
EDGE_INPUTS = {
    "all_zero": ModuleVector.zero(6, 3),
    "all_integer": ModuleVector(6, 3, [(7 * k) % 11 - 5 for k in range(20)]),
    "single_nonzero": ModuleVector.from_mapping(6, 3, {(2, 4, 6): Fraction(-5, 7)}),
    "coprime_denominators": ModuleVector(
        6, 3, [Fraction((-1) ** k * (k + 1), p) for k, p in enumerate(_PRIMES_NEAR_1E6)]
    ),
}


class TestCoefficientTable:
    def test_unit_diagonal(self):
        table = CoefficientTable(12, 6)
        for l in range(1, 7):
            assert table.ratio(l, l) == 1
            assert table.weight(l, l) == 1

    def test_n5_values(self):
        table = CoefficientTable(5, 2)
        assert table.ratio(2, 1) == Fraction(4, 3)
        assert table.weight(2, 1) == Fraction(-4, 3)

    def test_ratio_is_the_stated_product(self):
        n = 9
        table = CoefficientTable(n, 4)
        for l in range(2, 5):
            for j in range(1, l):
                prod = Fraction(1)
                for r in range(j, l):
                    prod *= Fraction(n - r, n - r - j)
                assert table.ratio(l, j) == prod

    def test_shape_out_of_range(self):
        with pytest.raises(DomainError):
            CoefficientTable(5, 3)

    def test_index_out_of_range(self):
        table = CoefficientTable(6, 2)
        with pytest.raises(DomainError):
            table.ratio(3, 1)

    def test_closed_form_chain_coefficients_match_the_recursion(self):
        # The kernel route's integer k(l, a) / M_l against the same coefficient
        # derived from this table: ratio(m, l) * weight(l, a) / (C(n-a, m-a) * (l-a)!),
        # with weight(l, 0) = -sum over a >= 1 of C(l, a) * weight(l, a).
        for n in range(2, 41):
            for m in range(1, n // 2 + 1):
                table = CoefficientTable(n, m)
                assert hoeffding._chain_coefficients(n, m, 0) == (comb(n, m), [1])
                for l in range(1, m + 1):
                    weights = [table.weight(l, a) for a in range(1, l + 1)]
                    weights.insert(0, -sum(comb(l, a) * w for a, w in enumerate(weights, 1)))
                    want = [
                        table.ratio(m, l) * w / (comb(n - a, m - a) * factorial(l - a))
                        for a, w in enumerate(weights)
                    ]
                    scale, coeffs = hoeffding._chain_coefficients(n, m, l)
                    assert [Fraction(k, scale) for k in coeffs] == want, (n, m, l)


def test_kernel_route_never_builds_the_coefficient_table(monkeypatch):
    def refuse(n, m):
        raise AssertionError("the kernel route built a CoefficientTable")

    assert not hasattr(hoeffding, "CoefficientTable")
    monkeypatch.setattr(references, "CoefficientTable", refuse)
    n, m = 8, 4
    h = random_module_vector(n, m, 41)
    dec = decompose(h)
    for l in range(m + 1):
        want = hoeffding_projection_by_least_squares(h, l)
        assert dec.components[l] == want
        assert project(h, l) == want
        if l:
            assert u_statistic_lift(hoeffding_kernel(h, l), m) == want


class TestConditionalExpectation:
    def test_fully_conditioned_returns_value(self):
        h = random_module_vector(6, 3, 5)
        for K in enumerate_subsets(6, 3):
            assert conditional_expectation(h, K) == h[K]

    def test_constant(self):
        h = ModuleVector.constant(6, 3, Fraction(5, 7))
        for a in range(4):
            for A in enumerate_subsets(6, a):
                assert conditional_expectation(h, A) == Fraction(5, 7)

    def test_indicator_partial(self):
        h = indicator(4, (1, 2))
        assert conditional_expectation(h, (1,)) == Fraction(1, 3)

    def test_empty_assignment_is_mean(self):
        h = random_module_vector(6, 3, 6)
        assert conditional_expectation(h, ()) == h.mean()

    def test_too_many_points(self):
        h = random_module_vector(6, 2, 7)
        with pytest.raises(DomainError):
            conditional_expectation(h, (1, 2, 3))


class TestKernel:
    def test_single_draw_kernel_is_centering(self):
        h = random_module_vector(5, 1, 8)
        phi = hoeffding_kernel(h, 1)
        assert phi == h - ModuleVector.constant(5, 1, h.mean())

    def test_constant_input_gives_zero_kernels(self):
        h = ModuleVector.constant(6, 3, Fraction(-2, 9))
        for l in (1, 2, 3):
            assert hoeffding_kernel(h, l).is_zero()

    def test_worked_values_n4(self):
        # mean 1/6; one-point conditional means 1/3 on {1,2} and 0 outside,
        # scaled by ratio(2,1) = 3/2.
        h = indicator(4, (1, 2))
        phi = hoeffding_kernel(h, 1)
        q = Fraction(1, 4)
        assert phi == ModuleVector(4, 1, [q, q, -q, -q])
        lifted = u_statistic_lift(phi, 2)
        half = Fraction(1, 2)
        assert lifted == ModuleVector(4, 2, [half, 0, 0, 0, 0, -half])

    def test_kernels_are_completely_degenerate(self):
        h = random_module_vector(6, 3, 10)
        for l in (1, 2, 3):
            assert is_completely_degenerate(hoeffding_kernel(h, l))

    def test_order_out_of_range(self):
        h = random_module_vector(6, 2, 11)
        with pytest.raises(DomainError):
            hoeffding_kernel(h, 3)
        with pytest.raises(DomainError):
            hoeffding_kernel(h, 0)


class TestLift:
    def test_same_order_is_identity(self):
        phi = random_module_vector(6, 3, 12)
        # The same vector, not an equal copy: a decomposition file's component m
        # then shares kernel m's entries.
        assert u_statistic_lift(phi, 3) is phi

    def test_containment_indicator(self):
        lifted = u_statistic_lift(indicator(5, (1, 2)), 3)
        assert lifted == lifted_indicator(5, (1, 2), 3)
        assert [K for K, v in lifted.items() if v] == [(1, 2, 3), (1, 2, 4), (1, 2, 5)]

    def test_linearity(self):
        a = random_module_vector(6, 2, 13)
        b = random_module_vector(6, 2, 14)
        assert u_statistic_lift(a + b, 3) == u_statistic_lift(a, 3) + u_statistic_lift(b, 3)

    def test_order_too_large(self):
        with pytest.raises(DomainError):
            u_statistic_lift(random_module_vector(6, 3, 15), 2)


class TestProject:
    def test_order_zero_is_constant_mean(self):
        h = random_module_vector(6, 3, 16)
        assert project(h, 0) == ModuleVector.constant(6, 3, h.mean())

    def test_reconstruction(self):
        h = random_module_vector(6, 3, 17)
        total = ModuleVector.zero(6, 3)
        for l in range(4):
            total = total + project(h, l)
        assert total == h

    def test_reprojection_of_pure_component(self):
        h = random_module_vector(6, 3, 18)
        pure = u_statistic_lift(hoeffding_kernel(h, 2), 3)
        assert project(pure, 2) == pure
        assert project(pure, 1).is_zero()
        assert project(pure, 3).is_zero()
        assert pure.mean() == 0

    def test_matches_least_squares_oracle(self):
        for n, m, seed in ((5, 2, 19), (6, 3, 20)):
            h = random_module_vector(n, m, seed)
            for l in range(m + 1):
                assert project(h, l) == hoeffding_projection_by_least_squares(h, l)

    def test_equivariance(self):
        h = random_module_vector(5, 2, 21)
        for x in list(enumerate_permutations(5))[::13]:
            for l in range(3):
                assert project(act(x, h), l) == act(x, project(h, l))

    def test_component_orthogonality_across_inputs(self):
        h = random_module_vector(6, 3, 22)
        f = random_module_vector(6, 3, 23)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert inner_product(project(h, i), project(f, j)) == 0

    def test_order_out_of_range(self):
        h = random_module_vector(6, 3, 24)
        with pytest.raises(DomainError):
            project(h, 4)

    def test_every_order_rejects_more_than_half_the_points(self):
        h = ModuleVector(5, 3, range(10))
        for l in range(4):
            with pytest.raises(DomainError):
                project(h, l)


class TestDegeneracy:
    def test_zero_vector(self):
        assert is_completely_degenerate(ModuleVector.zero(5, 2))

    def test_rejects_perturbed_kernels(self):
        h = EDGE_INPUTS["coprime_denominators"]
        for l in (1, 2, 3):
            phi = hoeffding_kernel(h, l)
            assert is_completely_degenerate(phi)
            bump = indicator(6, tuple(range(1, l + 1)))
            assert not is_completely_degenerate(phi + Fraction(1, 999983) * bump)

    def test_indicator_is_not(self):
        assert not is_completely_degenerate(indicator(4, (1, 2)))

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            is_completely_degenerate(ModuleVector.zero(4, 0))


def _seeded_ints(rng: random.Random, size: int) -> list[int]:
    # Small and large integers, negatives and plenty of zeros among them.
    return [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6))) for _ in range(size)]


class TestPasses:
    SHAPES = [(n, b) for n in range(1, 10) for b in range(1, n + 1)]

    @pytest.mark.parametrize("n,b", SHAPES)
    def test_passes_equal_their_definitions(self, n, b):
        rng = random.Random(1000 * n + b)
        cols = hoeffding._face_columns(n, b)
        for _ in range(3):
            x = _seeded_ints(rng, comb(n, b - 1))
            y = _seeded_ints(rng, comb(n, b))
            up, down = hoeffding._up(x, cols), hoeffding._down(y, cols, comb(n, b - 1))
            assert up == naive_up(x, n, b)
            assert down == naive_down(y, n, b)
            # The down pass is the transpose of the up pass.
            assert sum(map(int.__mul__, up, y)) == sum(map(int.__mul__, x, down))

    def test_columns_follow_their_definition(self):
        for n in range(1, 8):
            for b in range(1, n + 1):
                below = list(combinations(range(1, n + 1), b - 1))
                above = list(combinations(range(1, n + 1), b))
                want = tuple(
                    tuple(below.index(B[:k] + B[k + 1 :]) for B in above) for k in range(b)
                )
                assert hoeffding._face_columns(n, b) == want


class TestFaceCache:
    def test_cache_is_bounded_and_holds_only_tuples(self):
        assert isinstance(hoeffding._face_columns.cache_info().maxsize, int)
        decompose(random_module_vector(9, 4, 3))
        for b in range(1, 5):
            cols = hoeffding._face_columns(9, b)
            assert type(cols) is tuple and len(cols) == b
            assert all(type(col) is tuple and len(col) == comb(9, b) for col in cols)

    def test_interleaved_shapes_give_their_first_results(self):
        hoeffding._face_columns.cache_clear()
        shapes = [(12, 6), (10, 5), (9, 3)]
        inputs = {shape: random_module_vector(*shape, 40 + shape[1]) for shape in shapes}
        first = {shape: decompose(h) for shape, h in inputs.items()}
        phi = hoeffding_kernel(random_module_vector(8, 3, 7), 2)
        lift_first = u_statistic_lift(phi, 5)
        for shape in shapes + [(12, 6)]:
            assert decompose(inputs[shape]) == first[shape]
            assert u_statistic_lift(phi, 5) == lift_first
            assert is_completely_degenerate(phi)
            assert not is_completely_degenerate(indicator(11, (2, 5, 7)))


class TestDecompose:
    def test_matches_separate_projections(self):
        for n, m, seed in ((7, 3, 25), (6, 3, 26), (8, 4, 27), (12, 6, 28)):
            h = random_module_vector(n, m, seed)
            dec = decompose(h)
            assert dec.mean == h.mean()
            for l in range(m + 1):
                assert dec.components[l] == project(h, l)
            for l in range(1, m + 1):
                assert dec.kernels[l] == hoeffding_kernel(h, l)
                assert project(h, l) == u_statistic_lift(hoeffding_kernel(h, l), m)

    def test_reconstruction_method(self):
        h = random_module_vector(6, 3, 26)
        assert decompose(h).reconstruction() == h

    def test_exhaustive_indicators_n5_m2(self):
        for K in enumerate_subsets(5, 2):
            h = indicator(5, K)
            dec = decompose(h)
            assert dec.reconstruction() == h
            for i in range(3):
                for j in range(i + 1, 3):
                    assert inner_product(dec.components[i], dec.components[j]) == 0
            assert all(is_completely_degenerate(dec.kernels[l]) for l in (1, 2))
            for l in (1, 2):
                assert project(dec.components[l], l) == dec.components[l]
                other = 2 if l == 1 else 1
                assert project(dec.components[l], other).is_zero()

    def test_rejects_large_m(self):
        with pytest.raises(DomainError):
            decompose(ModuleVector.zero(5, 3))

    def test_result_is_plain_data(self):
        # The components are a view over the packed top layer, which holds no closure.
        dec = decompose(random_module_vector(7, 3, 27))
        assert pickle.loads(pickle.dumps(dec)) == dec
        assert copy.deepcopy(dec) == dec
        assert dataclasses.asdict(dec)["components"] == dict(dec.components)
        assert repr(dec.components) == repr(dict(dec.components))
        assert not re.search(r"0x[0-9a-f]+", repr(dec))

    def test_m_up_passes_and_m_down_passes(self, monkeypatch):
        passes = Counter()

        def counted(name, op):
            def wrapper(*args):
                passes[name] += 1
                return op(*args)

            return wrapper

        monkeypatch.setattr(hoeffding, "_up", counted("up", hoeffding._up))
        monkeypatch.setattr(hoeffding, "_down", counted("down", hoeffding._down))
        for n, m in ((2, 1), (9, 4), (12, 6)):
            h = random_module_vector(n, m, 50 + m)
            passes.clear()
            dec = decompose(h)
            assert passes == {"up": m, "down": m}, (n, m)
            # The view unpacks each component from the held top layer, with no pass.
            comps = list(dec.components.values())
            assert passes == {"up": m, "down": m}, (n, m)
            assert comps == [project(h, l) for l in range(m + 1)]

    def test_each_lane_is_unpacked_once(self, monkeypatch):
        # The views unpack one lane of the chain's last layer (project(h, 0), the
        # constant mean, none), and decompose one kernel per layer as it arrives;
        # the components wait for their lookup.
        lanes = []

        def counted(layer, l):
            lanes.append(l)
            return lane(layer, l)

        lane = hoeffding._lane
        monkeypatch.setattr(hoeffding, "_lane", counted)
        h = random_module_vector(8, 4, 3)
        for view, l in ((project, 2), (project, 4), (project, 0), (hoeffding_kernel, 2), (hoeffding_kernel, 4)):
            lanes.clear()
            view(h, l)
            assert lanes == ([l] if l else []), (view.__name__, l)
        lanes.clear()
        decompose(h)
        assert lanes == [1, 2, 3, 4]


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
class TestCommonDenominatorEdges:
    def test_views_agree_with_decompose(self, name):
        h = EDGE_INPUTS[name]
        dec = decompose(h)
        assert dec.mean == Fraction(sum(h.values), len(h.values))
        assert dec.reconstruction() == h
        assert project(h, 0) == dec.components[0]
        for l in range(1, 4):
            kernel = dec.kernels[l]
            assert hoeffding_kernel(h, l) == kernel
            assert project(h, l) == dec.components[l]
            assert u_statistic_lift(kernel, 3) == dec.components[l]
            assert subset_scan_lift(kernel, 3) == dec.components[l]
            assert is_completely_degenerate(kernel)
            assert degenerate_by_subset_scan(kernel)

    def test_matches_both_oracles(self, name):
        h = EDGE_INPUTS[name]
        for l in range(4):
            want = hoeffding_projection_by_least_squares(h, l)
            assert project(h, l) == want
            assert character_projection_oracle(h, l) == want

    def test_lift_of_edge_input(self, name):
        h = EDGE_INPUTS[name]
        for m in (3, 4, 5, 6):
            assert u_statistic_lift(h, m) == subset_scan_lift(h, m)


class TestOracle:
    def test_order_zero_is_mean(self):
        f = random_module_vector(5, 2, 28)
        assert character_projection_oracle(f, 0) == ModuleVector.constant(5, 2, f.mean())

    def test_oracle_components_sum_to_input(self):
        f = random_module_vector(5, 2, 29)
        total = ModuleVector.zero(5, 2)
        for l in range(3):
            total = total + character_projection_oracle(f, l)
        assert total == f

    def test_oracle_equals_kernel_route(self):
        for seed in range(5):
            f = random_module_vector(5, 2, seed)
            for l in range(3):
                assert character_projection_oracle(f, l) == project(f, l)

    def test_oracle_equals_literal_per_permutation_average(self):
        f = random_module_vector(5, 2, 30)
        for l in range(3):
            chi = lambda x, l=l: two_row_character(5, l, x)
            assert character_projection_oracle(f, l) == brute_isotypic_projection(f, l, chi)

    @pytest.mark.parametrize("name", ["coprime_denominators", "all_zero"])
    def test_integer_weights_equal_literal_average_at_n6(self, name):
        f = EDGE_INPUTS[name]
        for l in range(f.l + 1):
            chi = lambda x, l=l: two_row_character(6, l, x)
            assert character_projection_oracle(f, l) == brute_isotypic_projection(f, l, chi)

    def test_clear_oracle_cache_empties_every_oracle_cache(self):
        caches = (references._group_walk, references._projection_weights)
        character_projection_oracle(random_module_vector(5, 2, 34), 1)
        assert all(c.cache_info().currsize > 0 for c in caches)
        clear_oracle_cache()
        assert all(c.cache_info().currsize == 0 for c in caches)

    def test_ceiling(self):
        f = random_module_vector(9, 2, 31)
        with pytest.raises(ResourceLimitError):
            character_projection_oracle(f, 1)

    def test_pathwise_orthogonality(self):
        # For fixed K, summing over all n! permutations weights every m-subset
        # by m!(n-m)!; the weighted subset sum must vanish across orders.
        n, m = 5, 2
        f = random_module_vector(n, m, 32)
        h = random_module_vector(n, m, 33)
        weight = factorial(m) * factorial(n - m)
        for i in range(m + 1):
            for j in range(m + 1):
                if i == j:
                    continue
                fi = project(f, i)
                hj = project(h, j)
                total = sum(
                    (weight * a * b for a, b in zip(fi.values, hj.values)), Fraction(0)
                )
                assert total == 0
                # direct x-loop cross-check on one base subset
                base = (1, 2)
                direct = sum(
                    (
                        fi[apply_perm_to_subset(x, base)] * hj[apply_perm_to_subset(x, base)]
                        for x in enumerate_permutations(n)
                    ),
                    Fraction(0),
                )
                assert direct == 0


@given(st.integers(0, 2**64 - 1), st.sampled_from([(4, 2), (5, 2), (6, 2)]))
@settings(max_examples=20, deadline=None)
def test_kernel_degeneracy_property(seed, shape):
    n, m = shape
    h = random_module_vector(n, m, seed)
    for l in range(1, m + 1):
        assert is_completely_degenerate(hoeffding_kernel(h, l))


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_reconstruction_property(seed):
    h = random_module_vector(6, 2, seed)
    assert decompose(h).reconstruction() == h


#: Shapes for the lane-width properties, all with n <= 8, m = 1 and n = 2m among them.
_LANE_SHAPES = [(2, 1), (3, 1), (4, 2), (5, 1), (5, 2), (6, 3), (7, 1), (7, 3), (8, 1), (8, 4)]
#: Denominators up to 400 bits, coprime and not, so that the common D grows huge.
_HUGE_DENOMINATORS = (
    1, 999983, 2**61 - 1, 2**127 - 1, 3**100, 10**40 + 1, 2**400, 999983 * (2**127 - 1),
)


@st.composite
def _adversarial_vectors(draw):
    n, m = draw(st.sampled_from(_LANE_SHAPES))
    size = comb(n, m)
    # The maximal magnitude sits just below, at or just above a power of two.
    big = 2 ** draw(st.integers(0, 400)) + draw(st.sampled_from([-1, 0, 1]))
    kinds = ["alternating", "one_against_the_rest", "single", "huge_denominators"]
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, size - 1))
    if kind == "alternating":
        values = [(-1) ** i * big for i in range(size)]
    elif kind == "one_against_the_rest":
        values = [big if i == at else -big for i in range(size)]
    elif kind == "single":
        values = [0] * size
        values[at] = Fraction(-big, draw(st.sampled_from(_HUGE_DENOMINATORS)))
    else:
        denominators = draw(
            st.lists(st.sampled_from(_HUGE_DENOMINATORS), min_size=size, max_size=size)
        )
        values = [Fraction(draw(st.integers(-big, big)), q) for q in denominators]
    return ModuleVector(n, m, values)


@given(_adversarial_vectors())
@settings(max_examples=40, deadline=None)
def test_packed_lanes_match_the_references(h):
    # decompose carries every order as one bit lane of a shared int: at the edge of
    # the lane width's bound no lane may carry into another, so each projection
    # equals the n!-permutation oracle, the double sum and least squares, none of
    # which packs anything, and the one-lane views and per-order lifts agree.
    n, m = h.n, h.l
    dec = decompose(h)
    assert dec.mean == h.mean()
    for l in range(m + 1):
        want = character_projection_oracle(h, l)
        assert dec.components[l] == project(h, l) == want
        if l:
            assert dec.kernels[l] == hoeffding_kernel(h, l)
            assert u_statistic_lift(dec.kernels[l], m) == want
            if n <= 7:
                assert references._double_sum_values(h, l) == want
        if n <= 6:
            assert hoeffding_projection_by_least_squares(h, l) == want


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lane_width_holds_where_its_bound_is_attained(n):
    # At m = 1, one entry against all the others reaches the width's bound exactly
    # (lane 1 is 2(n-1) * big there); with big just below a power of two the lane
    # then fills its field up to one spare bit.
    for k in range(1, 80):
        big = 2**k - 1
        h = ModuleVector(n, 1, [big] + [-big] * (n - 1))
        centered = h - ModuleVector.constant(n, 1, h.mean())
        assert hoeffding_kernel(h, 1) == project(h, 1) == decompose(h).kernels[1] == centered
