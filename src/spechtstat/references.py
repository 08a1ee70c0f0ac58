"""Reference computations: the independent routes the kernel route is checked against.

Each one computes a Hoeffding projection, or a count behind one, along a
route that shares no code with `hoeffding`:

  * `conditional_expectation`, the direct average of h over the completions
    of one partial assignment, subset by subset;
  * the double sum built on `CoefficientTable`, the fully spelled-out
    projection expression over those conditional expectations;
  * the n!-permutation `character_projection_oracle` (Diaconis 1988, ch. 8),
    with its caches and `clear_oracle_cache`;
  * the order-1 fixed-point route and the shift suite's n! walk.

S_n is walked at most twice per (n, m): once by `_orbit_counts`, whose
permutation counts by cycle type serve both the oracle and the fixed-point
route, and once by `_shift_pair_counts`, which looks up only the m + 2 subset
images it reads.  The oracle refuses n above its `ceiling`, by default
`combinatorics.DEFAULT_ORACLE_CEILING`.

This module imports only `algebra`, `characters`, `combinatorics` and
`errors`; the `verify` suites compare its results with the kernel route's.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

from .algebra import ModuleVector
from .characters import dimension, two_row_character
from .combinatorics import (
    DEFAULT_ORACLE_CEILING,
    CycleType,
    Subset,
    _mask_index,
    check_shape,
    check_subset,
    enumerate_permutations,
    enumerate_subsets,
    subset_images,
    subset_position,
)
from .errors import DomainError, ResourceLimitError

_ZERO = Fraction(0)


def conditional_expectation(h: ModuleVector, assigned: Subset) -> Fraction:
    """Exact average of h(assigned ∪ S) over all (m-a)-subsets S of the complement.

    With a = len(assigned): a = 0 gives the global mean, a = m gives
    h(assigned) itself.
    """
    n, m = h.n, h.l
    assigned = check_subset(n, assigned)
    a = len(assigned)
    if a > m:
        raise DomainError(f"assigned {assigned} has size {a} > m={m}")
    taken = set(assigned)
    complement = [j for j in range(1, n + 1) if j not in taken]
    nums = h.numerators
    total = 0
    for extra in itertools.combinations(complement, m - a):
        total += nums[subset_position(n, sorted(assigned + extra))]
    return Fraction(total, h.denominator * comb(n - a, m - a))


class CoefficientTable:
    """The rational coefficients that turn centered conditional expectations
    into completely degenerate kernels, for statistics of m draws from [1..n].

    ratio(l, j) is a product of factors (n-r)/(n-r-j); weight(l, j) follows a
    signed binomial recursion with unit diagonal.  Both families have
    ratio(l, l) = weight(l, l) = 1.  The kernel route uses their closed form
    instead; this recursion is the double-sum oracle's own derivation.
    """

    __slots__ = ("n", "m", "_ratio", "_weight")

    def __init__(self, n: int, m: int):
        check_shape(n, m)
        self.n = n
        self.m = m
        ratio: dict[tuple[int, int], Fraction] = {}
        weight: dict[tuple[int, int], Fraction] = {}
        for l in range(1, m + 1):
            ratio[l, l] = Fraction(1)
            weight[l, l] = Fraction(1)
            for j in range(1, l):
                prod = Fraction(1)
                for r in range(j, l):
                    prod *= Fraction(n - r, n - r - j)
                ratio[l, j] = prod
        for l in range(2, m + 1):
            for j in range(1, l):
                acc = _ZERO
                for i in range(j, l):
                    acc += comb(l - j, i - j) * ratio[l, i] * weight[i, j]
                weight[l, j] = -acc
        self._ratio = ratio
        self._weight = weight

    def ratio(self, l: int, j: int) -> Fraction:
        self._check(l, j)
        return self._ratio[l, j]

    def weight(self, l: int, j: int) -> Fraction:
        self._check(l, j)
        return self._weight[l, j]

    def _check(self, l: int, j: int) -> None:
        if not (1 <= j <= l <= self.m):
            raise DomainError(f"indices (l={l}, j={j}) outside 1 <= j <= l <= {self.m}")

    def __repr__(self) -> str:
        return f"CoefficientTable(n={self.n}, m={self.m})"


def _double_sum_values(f: ModuleVector, l: int) -> ModuleVector:
    # The fully spelled-out projection expression: at each m-subset, sum over
    # its l-subsets of the weighted centered conditional expectations.  Kept
    # free of the kernel/lift plumbing on purpose.
    n, m = f.n, f.l
    table = CoefficientTable(n, m)
    mean = f.mean()
    scale = table.ratio(m, l)
    cond: dict[tuple[int, ...], Fraction] = {}

    def centered(points: tuple[int, ...]) -> Fraction:
        got = cond.get(points)
        if got is None:
            got = conditional_expectation(f, points)
            cond[points] = got
        return got - mean

    out = []
    for K in enumerate_subsets(n, m):
        total = _ZERO
        for J in itertools.combinations(K, l):
            acc = _ZERO
            for a in range(1, l + 1):
                w = table.weight(l, a)
                for A in itertools.combinations(J, a):
                    acc += w * centered(A)
            total += acc
        out.append(scale * total)
    return ModuleVector(n, m, out)


@lru_cache(maxsize=1)
def _orbit_counts(n: int, m: int) -> dict[CycleType, Counter]:
    """For each cycle type ct, a Counter of the position pairs (K, J) with the
    number of permutations of type ct that map the m-subset J onto K.

    One literal walk over all n! permutations per (n, m), shared by every order
    l of the character oracle and by the fixed-point route.  Held in an LRU
    cache of fixed maxsize 1: the counts of one shape, the last one asked for.
    """
    counts: defaultdict[CycleType, Counter] = defaultdict(Counter)
    positions = range(comb(n, m))
    for x in enumerate_permutations(n, ceiling=None):
        counts[x.cycle_type()].update(zip(subset_images(x, m), positions))
    return dict(counts)


@lru_cache(maxsize=8)
def _projection_weights(n: int, m: int, l: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix W with W[K][J] = sum of chi_{(n-l,l)}(x) over all x mapping J to K.

    Assembled as the sum over cycle types ct of chi_{(n-l,l)}(ct) times the
    permutation counts of `_orbit_counts`, so that the n! walk happens once per
    (n, m), grouped by cycle type, whatever the number of orders l asked for.
    The caller applies W to a vector and scales by dimension/n!.  Held in an
    LRU cache of fixed maxsize 8, which covers every order l = 0..m of one
    shape with m <= 7, i.e. of every shape whose n! walk is feasible.
    """
    size = comb(n, m)
    weights = [[0] * size for _ in range(size)]
    for ct, cnt in _orbit_counts(n, m).items():
        chi = two_row_character(n, l, ct)
        if chi:
            for (k, j), c in cnt.items():
                weights[k][j] += chi * c
    return tuple(tuple(row) for row in weights)


def character_projection_oracle(
    f: ModuleVector, l: int, ceiling: int | None = DEFAULT_ORACLE_CEILING
) -> ModuleVector:
    """Isotypic projection of f by direct group averaging over all n! permutations:

        (dimension/n!) * sum over x of chi_{(n-l,l)}(x) * f(x^{-1} K)

    at every m-subset K.  Factorial cost by design: this is the slow oracle the
    kernel route is checked against.  The n! walk is done once per (n, m) and
    grouped by cycle type (see `_projection_weights`); the weights are applied to
    f's integer numerators over its denominator.  Refuses n above `ceiling`.
    """
    n, m = f.n, f.l
    if l < 0 or l > m:
        raise DomainError(f"projection order l={l} outside [0..{m}]")
    if ceiling is not None and n > ceiling:
        raise ResourceLimitError(
            f"oracle projection at n={n} exceeds the ceiling {ceiling}; "
            f"pass ceiling={n} (or None) to override"
        )
    weights = _projection_weights(n, m, l)
    nums, dim = f.numerators, dimension(n, l)
    out = [dim * sum(map(mul, row, nums)) for row in weights]
    return ModuleVector.from_numerators(n, m, out, factorial(n) * f.denominator)


def clear_oracle_cache() -> None:
    """Drop the memoized permutation counts and weight matrices.

    Used when timing the oracle honestly.
    """
    _orbit_counts.cache_clear()
    _projection_weights.cache_clear()


def _fixed_point_route(f: ModuleVector) -> ModuleVector:
    # Order-1 projection via the explicit fixed-point count weighting
    # (fix(x) - 1), summed over all n! permutations on f's integer numerators.
    # The sum is regrouped by cycle type: every permutation of type ct has
    # ct.count(1) fixed points, and `_orbit_counts` holds how many of them map
    # each J onto each K.
    n, m = f.n, f.l
    nums = f.numerators
    acc = [0] * len(nums)
    for ct, cnt in _orbit_counts(n, m).items():
        w = ct.count(1) - 1
        if w:
            for (k, j), c in cnt.items():
                acc[j] += w * c * nums[k]
    return ModuleVector.from_numerators(
        n, m, [(n - 1) * a for a in acc], factorial(n) * f.denominator
    )


def _shift_pair_counts(n: int, m: int) -> list[Counter]:
    """For each overlap r = 0..m, a Counter of the position pairs (B, K) with the
    number of permutations x such that x(base) = B and x(k_r) = K, where
    base = {1..m} and k_r = {1..r, m+1..2m-r}.  k_m is base itself.

    One literal walk over all n! permutations.  Each image is found from the
    point bits 1 << (x(a)-1) of the first 2m points: the mask of x(k_0) is the
    sum of the bits of m+1..2m, and each step r -> r+1 trades the bit of 2m-r
    for the bit of r+1.  One int-keyed lookup per image, m + 2 per permutation.
    """
    position = _mask_index(n, m).__getitem__
    pairs = [Counter() for _ in range(m + 1)]
    for x in enumerate_permutations(n, ceiling=None):
        bits = [1 << (b - 1) for b in x.images[: 2 * m]]
        bpos = position(sum(bits[:m]))
        mask = sum(bits[m:])
        for r, counter in enumerate(pairs):
            counter[bpos, position(mask)] += 1
            if r < m:
                mask += bits[r] - bits[2 * m - 1 - r]
    return pairs
