import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import compose, perm_average_inner_product, rank_reversed_pivots
import spechtstat
from spechtstat import (
    DomainError,
    ModuleVector,
    Permutation,
    ResourceLimitError,
    act,
    enumerate_permutations,
    enumerate_subsets,
    indicator,
    inner_product,
    module_vector_from_text,
    random_module_vector,
    rank_of_span,
)


@st.composite
def module_vectors(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    l = draw(st.integers(1, n // 2))
    k = comb(n, l)
    nums = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    dens = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    return ModuleVector(n, l, [Fraction(a, b) for a, b in zip(nums, dens)])


class TestModuleVector:
    def test_indicator_single_unit_entry(self):
        f = indicator(4, (1, 2))
        assert f[(1, 2)] == 1
        assert sum(1 for v in f.values if v != 0) == 1

    def test_indicators_sum_to_ones(self):
        total = ModuleVector.zero(4, 2)
        for s in enumerate_subsets(4, 2):
            total = total + indicator(4, s)
        assert total == ModuleVector.constant(4, 2, 1)

    def test_from_mapping_sparse(self):
        f = ModuleVector.from_mapping(4, 2, {(1, 3): Fraction(-7, 3)})
        assert f[(1, 3)] == Fraction(-7, 3)
        assert f[(1, 2)] == 0

    def test_getitem_unsorted_key(self):
        f = indicator(5, (2, 5))
        assert f[(5, 2)] == 1

    def test_getitem_bad_key(self):
        f = indicator(5, (2, 5))
        with pytest.raises(DomainError):
            f[(1, 2, 3)]

    @pytest.mark.parametrize(
        "key", [(0, 2), (2, 6), (2, 2), (1, 2, 3), (2, 0), (1.5, 2), (2.0, 5), ("a", "b")]
    )
    def test_getitem_keys_off_the_layer(self, key):
        f = indicator(5, (2, 5))
        s = tuple(sorted(key))
        with pytest.raises(DomainError) as exc:
            f[key]
        assert str(exc.value) == f"{s} is not an 2-subset of [1..5]"

    @pytest.mark.parametrize("s", [(1.5, 2), (2.0, 5), ("a", "b")])
    def test_non_integer_points_are_refused(self, s):
        with pytest.raises(DomainError, match="non-integer"):
            indicator(5, s)
        with pytest.raises(DomainError, match="non-integer"):
            ModuleVector.from_mapping(5, 2, {s: 1})

    @pytest.mark.parametrize("bad", [0.1, "1/2", "2.5", "1e4000000", None])
    def test_entries_are_int_or_fraction_only(self, bad):
        # Fraction(v) would take the float as 3602879701896397/36028797018963968
        # and expand the exponent string into a 13-Mbit integer.
        with pytest.raises(DomainError, match="int or Fraction"):
            ModuleVector(2, 1, [bad, 1])
        with pytest.raises(DomainError, match="int or Fraction"):
            ModuleVector.constant(2, 1, bad)
        with pytest.raises(DomainError, match="int or Fraction"):
            ModuleVector.from_mapping(2, 1, {(1,): bad})

    def test_wrong_value_count(self):
        with pytest.raises(DomainError):
            ModuleVector(4, 2, [1, 2, 3])

    @pytest.mark.parametrize("n, l", [(3, 5), (-1, 2), (0, 0), (4, -1)])
    def test_shape_outside_the_subset_bounds(self, n, l):
        with pytest.raises(DomainError):
            ModuleVector(n, l, [])
        with pytest.raises(DomainError):
            ModuleVector.from_numerators(n, l, [], 1)
        with pytest.raises(DomainError):
            ModuleVector.constant(n, l, 1)

    def test_shape_mismatch_add(self):
        with pytest.raises(DomainError):
            indicator(4, (1, 2)) + indicator(5, (1, 2))

    def test_add_scale_zero(self):
        f = random_module_vector(5, 2, 11)
        assert (f + (-1) * f).is_zero()
        assert (0 * f).is_zero()
        assert (f - f).is_zero()
        assert 2 * f == f + f

    def test_mean(self):
        f = indicator(4, (1, 2))
        assert f.mean() == Fraction(1, 6)


class TestLayerSizeLimit:
    """A layer longer than the interpreter's list limit is refused before any allocation."""

    MESSAGE = r"C\(70, 35\) = 112186277816662845432 entries, more than .* sys.maxsize"

    def test_indicator(self):
        with pytest.raises(ResourceLimitError, match=self.MESSAGE):
            indicator(70, range(1, 36))

    def test_constant(self):
        with pytest.raises(ResourceLimitError, match=self.MESSAGE):
            ModuleVector.constant(70, 35, 1)

    def test_from_mapping(self):
        # In a child with a timeout, so that a table of the whole layer fails
        # the test instead of hanging it.
        code = (
            "from spechtstat import ModuleVector, ResourceLimitError\n"
            "try:\n    ModuleVector.from_mapping(70, 35, {})\n"
            "except ResourceLimitError as exc:\n    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(spechtstat.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert "C(70, 35)" in proc.stdout and "sys.maxsize" in proc.stdout


class TestAct:
    def test_identity(self):
        f = random_module_vector(5, 2, 3)
        assert act(Permutation(range(1, 6)), f) == f

    def test_indicator_transport(self):
        # the swap 1 <-> 5 carries the {5,6} indicator to the {1,6} indicator
        x = Permutation.from_cycles(6, (1, 5))
        assert act(x, indicator(6, (5, 6))) == indicator(6, (1, 6))

    def test_action_law_random(self):
        f = random_module_vector(5, 2, 9)
        perms = list(enumerate_permutations(5))
        for x, y in zip(perms[::7], perms[::11]):
            assert act(x, act(y, f)) == act(Permutation(compose(x.images, y.images)), f)

    def test_linearity(self):
        f = random_module_vector(5, 2, 1)
        g = random_module_vector(5, 2, 2)
        x = Permutation.from_cycles(5, (1, 2, 3), (4, 5))
        assert act(x, f + g) == act(x, f) + act(x, g)

    def test_degree_mismatch(self):
        with pytest.raises(DomainError):
            act(Permutation(range(1, 5)), indicator(5, (1, 2)))


class TestInnerProduct:
    def test_indicator_overlap(self):
        a = indicator(5, (1, 2))
        b = indicator(5, (1, 3))
        assert inner_product(a, a) == Fraction(1, 10)
        assert inner_product(a, b) == 0

    def test_ones_normalized(self):
        ones = ModuleVector.constant(6, 2, 1)
        assert inner_product(ones, ones) == 1

    def test_equals_permutation_average(self):
        f = random_module_vector(5, 2, 21)
        g = random_module_vector(5, 2, 22)
        assert inner_product(f, g) == perm_average_inner_product(f, g)
        assert inner_product(f, g) == inner_product(g, f)

    def test_invariance_exhaustive_n5(self):
        f = random_module_vector(5, 2, 31)
        g = random_module_vector(5, 2, 32)
        expected = inner_product(f, g)
        for x in enumerate_permutations(5):
            assert inner_product(act(x, f), act(x, g)) == expected

    def test_invariance_sampled_n8(self):
        f = random_module_vector(8, 3, 41)
        g = random_module_vector(8, 3, 42)
        expected = inner_product(f, g)
        xs = [
            Permutation.from_cycles(8, (1, 2)),
            Permutation.from_cycles(8, (1, 2, 3, 4, 5, 6, 7, 8)),
            Permutation.from_cycles(8, (1, 3, 5), (2, 4), (6, 8)),
            Permutation((5, 3, 8, 1, 7, 2, 6, 4)),
        ]
        for x in xs:
            assert inner_product(act(x, f), act(x, g)) == expected

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            inner_product(indicator(5, (1,)), indicator(5, (1, 2)))


class TestRank:
    def test_scalar_multiple(self):
        f = random_module_vector(5, 2, 5)
        assert rank_of_span([f, 2 * f]) == 1

    def test_full_indicator_basis(self):
        vecs = [indicator(4, s) for s in enumerate_subsets(4, 2)]
        assert rank_of_span(vecs) == 6

    def test_empty(self):
        assert rank_of_span([]) == 0

    def test_zero_vector_only(self):
        assert rank_of_span([ModuleVector.zero(4, 2)]) == 0

    def test_agrees_with_reversed_pivot_elimination(self):
        for seed in range(8):
            vecs = [random_module_vector(6, 2, 100 * seed + i) for i in range(seed % 5 + 2)]
            if seed % 3 == 0:
                vecs.append(vecs[0] + vecs[-1])  # force dependence sometimes
            assert rank_of_span(vecs) == rank_reversed_pivots(vecs)

    def test_agrees_with_reversed_pivots_on_hard_rows(self):
        primes = (999983, 999979, 999961, 999959, 999953, 999931, 999917)
        big = [
            ModuleVector(
                5, 2, [Fraction((-1) ** k * (k + i + 1), primes[(k * i + i) % 7]) for k in range(10)]
            )
            for i in range(4)
        ]
        small = [random_module_vector(5, 2, 40 + i) for i in range(3)]
        zero = ModuleVector.zero(5, 2)
        combo = Fraction(3, 999983) * big[0] - Fraction(5, 999979) * small[1]
        cases = [
            big,
            big + [big[2], big[0]],
            [zero, big[1], zero, zero],
            small + big + [combo, zero, small[0]],
            [combo, zero, big[0], small[1], big[3], big[3]],
            [indicator(5, (1, 2)), Fraction(1, 999983) * indicator(5, (1, 2)), zero],
        ]
        for vecs in cases:
            assert rank_of_span(vecs) == rank_reversed_pivots(vecs)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            rank_of_span([indicator(4, (1, 2)), indicator(5, (1, 2))])


@given(module_vectors(), st.data())
@settings(max_examples=30, deadline=None)
def test_vector_space_axioms(f, data):
    k = comb(f.n, f.l)
    nums = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    g = ModuleVector(f.n, f.l, nums)
    h = data.draw(st.sampled_from([f, g, f + g]))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + ModuleVector.zero(f.n, f.l) == f
    c = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 5)))
    assert c * (f + g) == c * f + c * g


@given(module_vectors(max_n=5), st.data())
@settings(max_examples=25, deadline=None)
def test_act_is_linear_and_invariant(f, data):
    x = Permutation(data.draw(st.permutations(list(range(1, f.n + 1)))))
    g_vals = data.draw(
        st.lists(st.integers(-4, 4), min_size=len(f.values), max_size=len(f.values))
    )
    g = ModuleVector(f.n, f.l, g_vals)
    assert act(x, f + g) == act(x, f) + act(x, g)
    assert inner_product(act(x, f), act(x, g)) == inner_product(f, g)


def assert_canonical(f):
    assert f.denominator > 0
    assert gcd(f.denominator, *f.numerators) == 1
    if f.is_zero():
        assert f.denominator == 1
    assert f.values == tuple(Fraction(x, f.denominator) for x in f.numerators)


scalars = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@given(module_vectors(max_n=5), st.data())
@settings(max_examples=40, deadline=None)
def test_operations_agree_with_entrywise_fractions(f, data):
    k = len(f.values)
    g = ModuleVector(f.n, f.l, data.draw(st.lists(scalars, min_size=k, max_size=k)))
    c = data.draw(st.one_of(scalars, st.integers(-3, 3)))
    x = Permutation(data.draw(st.permutations(list(range(1, f.n + 1)))))
    results = {
        "add": (f + g, [a + b for a, b in zip(f.values, g.values)]),
        "sub": (f - g, [a - b for a, b in zip(f.values, g.values)]),
        "neg": (-f, [-a for a in f.values]),
        "scale": (c * f, [c * a for a in f.values]),
        "zero": (f - f, [Fraction(0)] * k),
    }
    images = {s: i for i, s in enumerate(enumerate_subsets(f.n, f.l))}
    moved = [Fraction(0)] * k
    for s, v in zip(enumerate_subsets(f.n, f.l), f.values):
        moved[images[tuple(sorted(x.images[a - 1] for a in s))]] = v
    results["act"] = (act(x, f), moved)
    for name, (got, want) in results.items():
        assert got.values == tuple(want), name
        assert_canonical(got)
    assert inner_product(f, g) == sum(a * b for a, b in zip(f.values, g.values)) / k
    assert f.mean() == sum(f.values) / k


@given(module_vectors(max_n=5), st.integers(-30, 30).filter(bool))
@settings(max_examples=40, deadline=None)
def test_constructor_and_from_numerators_agree(f, scale):
    assert_canonical(f)
    den, nums = f.denominator, f.numerators
    for d, xs in ((den, nums), (scale * den, [scale * x for x in nums])):
        g = ModuleVector.from_numerators(f.n, f.l, xs, d)
        assert g == f
        assert hash(g) == hash(f)
        assert_canonical(g)
    assert ModuleVector(f.n, f.l, list(f.values)) == f


def test_canonical_form_of_special_vectors():
    zero = ModuleVector.from_numerators(4, 2, [0] * 6, -12)
    assert (zero.numerators, zero.denominator) == ((0,) * 6, 1)
    assert zero == ModuleVector.zero(4, 2) == 0 * indicator(4, (1, 2))
    half = ModuleVector.constant(4, 2, Fraction(-2, 4))
    assert (half.numerators, half.denominator) == ((-1,) * 6, 2)
    with pytest.raises(DomainError):
        ModuleVector.from_numerators(4, 2, [1] * 6, 0)
    with pytest.raises(DomainError):
        ModuleVector.from_numerators(4, 2, [1] * 5, 1)


@given(st.integers(2, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_reader_reduces_unreduced_records(n, data):
    l = data.draw(st.integers(0, n))
    k = comb(n, l)
    reduced = data.draw(st.lists(scalars, min_size=k, max_size=k))
    lines = [f"n = {n}", f"l = {l}"]
    for s, q in zip(enumerate_subsets(n, l), reduced):
        if q:
            m = data.draw(st.integers(1, 4))  # written as (m p)/(m q), e.g. 2/4 for 1/2
            key = ",".join(map(str, s)) or "-"
            lines.append(f"{key} = {m * q.numerator}/{m * q.denominator}")
    f = module_vector_from_text("\n".join(lines) + "\n")
    assert f.values == tuple(reduced)
    assert_canonical(f)
    assert f == ModuleVector(n, l, reduced)
    assert all(f[s] == q for s, q in zip(enumerate_subsets(n, l), reduced))
