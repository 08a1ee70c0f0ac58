"""Reference computations: the independent routes the kernel route is checked against.

Each one computes a Hoeffding projection, or a count behind one, along a
route that shares no code with `hoeffding`:

  * `conditional_expectation`, the direct average of h over the completions
    of one partial assignment, subset by subset;
  * the double sum built on `CoefficientTable`, the fully spelled-out
    projection expression over those conditional expectations;
  * the n!-permutation `character_projection_oracle` (Diaconis 1988, ch. 8),
    with its caches and `clear_oracle_cache`;
  * the order-1 fixed-point route and the shift suite's pair counts.

S_n is walked once per (n, m), by `_group_walk`.  For each permutation x it
records x's cycle type, the position of x({1..m}) and the shift suite's pairs
(x({1..m}), x(k_r)): m + 1 subset lookups, not C(n, m).  The oracle and the
fixed-point route need, for every J and K, how many x of each cycle type send
J onto K.  Conjugation gives these from the walk: if sigma_J sends J onto
{1..m}, then sigma_J x sigma_J^-1 has x's cycle type and sends {1..m} to
sigma_J K, so that count is the walk's count at x({1..m}) = sigma_J K.  The
oracle refuses n above its `ceiling`, by default
`combinatorics.DEFAULT_ORACLE_CEILING`.

This module imports only `algebra`, `characters`, `combinatorics` and
`errors`; the `verify` suites compare its results with the kernel route's.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial
from operator import mul
from typing import Callable, NamedTuple

from .algebra import ModuleVector
from .characters import dimension, two_row_character
from .combinatorics import (
    DEFAULT_ORACLE_CEILING,
    CycleType,
    Permutation,
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


class _Walk(NamedTuple):
    # What the one walk over S_n records for a shape (n, m); see `_group_walk`.
    rows: dict[CycleType, list[int]]
    pairs: list[Counter]


@lru_cache(maxsize=1)
def _group_walk(n: int, m: int) -> _Walk:
    """The one literal walk over all n! permutations per (n, m), base = {1..m}.

    For each permutation x it records x's cycle type, the position of x(base),
    and the shift suite's pairs (x(base), x(k_r)), k_r = {1..r, m+1..2m-r}:

      * rows[ct][p] is the number of x of type ct with x(base) at position p;
      * pairs[r] is a Counter of the position pairs (B, K) with the number of x
        such that x(base) = B and x(k_r) = K.  k_m is base itself, so pairs[m]
        is read from the rows.

    Each image is found from the point bits 1 << (x(a)-1) of the first 2m
    points: the mask of x(k_0) is the sum of the bits of m+1..2m, and each step
    r -> r+1 trades the bit of 2m-r for the bit of r+1.  One int-keyed lookup
    per image, m + 1 per permutation.  Every other count the references read
    follows from the rows by conjugation (`_transported_weights`).  Held in an
    LRU cache of fixed maxsize 1: the walk of one shape, the last one asked for.
    """
    position = _mask_index(n, m).__getitem__
    heads: Counter = Counter()
    pairs = [Counter() for _ in range(m + 1)]
    for x in enumerate_permutations(n, ceiling=None):
        bits = [1 << (b - 1) for b in x.images[: 2 * m]]
        bpos = position(sum(bits[:m]))
        heads[x.cycle_type(), bpos] += 1
        mask = sum(bits[m:])
        for r in range(m):
            pairs[r][bpos, position(mask)] += 1
            mask += bits[r] - bits[2 * m - 1 - r]
    rows: defaultdict[CycleType, list[int]] = defaultdict(lambda: [0] * comb(n, m))
    for (ct, b), c in heads.items():
        rows[ct][b] = c
        pairs[m][b, b] += c
    return _Walk(dict(rows), pairs)


def _carrier(n: int, J: Subset) -> Permutation:
    # A permutation sending the subset J onto {1..len(J)}: J's points to 1..len(J)
    # and the other points to the rest, each in increasing order.
    taken = set(J)
    images = [0] * n
    order = itertools.chain(J, (a for a in range(1, n + 1) if a not in taken))
    for b, a in enumerate(order, 1):
        images[a - 1] = b
    return Permutation._trusted(tuple(images))


def _transported_weights(
    n: int, m: int, weight: Callable[[CycleType], int]
) -> list[list[int]]:
    """The columns of the matrix W[K][J] = sum of weight(x) over all x with x(J) = K.

    Conjugation moves every count onto base = {1..m}: if sigma_J sends J onto
    base, then x -> sigma_J x sigma_J^-1 keeps the cycle type and sends x(J) = K
    to a permutation sending base to sigma_J K.  So the number of x of type ct
    with x(J) = K is `_group_walk`'s rows[ct] at the position of sigma_J K, and
    one `subset_images(sigma_J, m)` per J carries the weighted row to column J.
    The sums are still over all n! permutations, taken by the walk.
    """
    row = [0] * comb(n, m)
    for ct, counts in _group_walk(n, m).rows.items():
        w = weight(ct)
        if w:
            row = [a + w * c for a, c in zip(row, counts)]
    return [
        list(map(row.__getitem__, subset_images(_carrier(n, J), m)))
        for J in enumerate_subsets(n, m)
    ]


@lru_cache(maxsize=8)
def _projection_weights(n: int, m: int, l: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix W with W[K][J] = sum of chi_{(n-l,l)}(x) over all x mapping J to K.

    The transported counts of `_transported_weights`, weighted by
    chi_{(n-l,l)} of each cycle type, so that S_n is walked once per (n, m)
    whatever the number of orders l asked for.  The caller applies W to a
    vector and scales by dimension/n!.  Held in an LRU cache of fixed maxsize
    8, which covers every order l = 0..m of one shape with m <= 7, i.e. of
    every shape whose n! walk is feasible.
    """
    columns = _transported_weights(n, m, partial(two_row_character, n, l))
    return tuple(zip(*columns))


def character_projection_oracle(
    f: ModuleVector, l: int, ceiling: int | None = DEFAULT_ORACLE_CEILING
) -> ModuleVector:
    """Isotypic projection of f by direct group averaging over all n! permutations:

        (dimension/n!) * sum over x of chi_{(n-l,l)}(x) * f(x^{-1} K)

    at every m-subset K.  Factorial cost by design: this is the slow oracle the
    kernel route is checked against.  The n! walk is done once per (n, m) and
    grouped by cycle type (see `_group_walk` and `_projection_weights`); the
    weights are applied to f's integer numerators over its denominator.
    Refuses n above `ceiling`.
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
    _group_walk.cache_clear()
    _projection_weights.cache_clear()


def _fixed_point_route(f: ModuleVector) -> ModuleVector:
    # Order-1 projection via the explicit fixed-point count weighting
    # (fix(x) - 1), summed over all n! permutations on f's integer numerators.
    # Every permutation of type ct has ct.count(1) fixed points, so the sum at
    # J reads column J of the walk's counts transported by conjugation.
    n, m = f.n, f.l
    nums = f.numerators
    columns = _transported_weights(n, m, lambda ct: ct.count(1) - 1)
    acc = [sum(map(mul, column, nums)) for column in columns]
    return ModuleVector.from_numerators(
        n, m, [(n - 1) * a for a in acc], factorial(n) * f.denominator
    )
