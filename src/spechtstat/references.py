"""Reference computations: the independent routes the kernel route is checked against.

Each one computes a Hoeffding projection, or a count behind one, along a
route that shares no code with `hoeffding`:

  * `conditional_expectation`, the direct average of h over the completions
    of one partial assignment, subset by subset;
  * the double sum built on `CoefficientTable`, the fully spelled-out
    projection expression over those conditional expectations, on integers
    over one common denominator;
  * the n!-permutation `character_projection_oracle` (Diaconis 1988, ch. 8),
    with its caches and `clear_oracle_cache`;
  * the order-1 fixed-point route and the shift suite's pair counts;
  * the literal neighbour sum of the Johnson graph J(n, m), whose theta_l
    eigenspace is the order-l Hoeffding space (Delsarte 1973): the `verify`
    suites certify their ranks with it, with no elimination.

S_n is walked once per (n, m), by `_group_walk`, which reaches each
permutation x by inserting point n into a permutation of S_{n-1}.  For each x
it records x's cycle type, the position of x({1..m}) and the shift suite's
pairs (x({1..m}), x(k_r)).  The oracle and the fixed-point route need, for
every J and K, how many x of each cycle type send J onto K.  Conjugation gives
these from the walk: if sigma_J sends J onto {1..m}, then sigma_J x sigma_J^-1
has x's cycle type and sends {1..m} to sigma_J K, so that count is the walk's
count at x({1..m}) = sigma_J K.  The oracle refuses n above its `ceiling`, by
default `combinatorics.DEFAULT_ORACLE_CEILING`.

This module imports only `algebra`, `characters`, `combinatorics` and
`errors`; the `verify` suites compare its results with the kernel route's.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

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
    return Fraction(_completion_sum(h, assigned), h.denominator * comb(n - a, m - a))


def _completion_sum(h: ModuleVector, assigned: Subset) -> int:
    # The sum of h's numerators over the m-subsets that contain `assigned`, a
    # validated subset of at most m points: each completion is placed by its
    # bitmask, the sum of the point bits 1 << (a-1).
    n, m = h.n, h.l
    taken = sum(1 << (a - 1) for a in assigned)
    free = [1 << j for j in range(n) if not taken >> j & 1]
    masks = map(taken.__add__, map(sum, itertools.combinations(free, m - len(assigned))))
    return sum(map(h.numerators.__getitem__, map(_mask_index(n, m).__getitem__, masks)))


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
    # free of the kernel/lift plumbing on purpose.  It runs on integers over
    # one common denominator: with S(A) the completion sum of A and D f's
    # denominator, weight(l, a) * (cond(A) - mean) = (U[a] S(A) - V[a]) / (L D),
    # where U[a] and V[a] are integers and L the least common denominator.
    n, m = f.n, f.l
    table = CoefficientTable(n, m)
    scale = table.ratio(m, l)
    mean = Fraction(sum(f.numerators), comb(n, m))  # over D
    u = {a: table.weight(l, a) / comb(n - a, m - a) for a in range(1, l + 1)}
    v = {a: table.weight(l, a) * mean for a in range(1, l + 1)}
    common = lcm(*(c.denominator for c in (*u.values(), *v.values())))
    U = {a: int(c * common) for a, c in u.items()}
    V = {a: int(c * common) for a, c in v.items()}
    cond: dict[tuple[int, ...], int] = {}

    def centered(points: tuple[int, ...]) -> int:
        got = cond.get(points)
        if got is None:
            a = len(points)
            got = U[a] * _completion_sum(f, points) - V[a]
            cond[points] = got
        return got

    out = []
    for K in enumerate_subsets(n, m):
        total = 0
        for J in itertools.combinations(K, l):
            for a in range(1, l + 1):
                for A in itertools.combinations(J, a):
                    total += centered(A)
        out.append(scale.numerator * total)
    return ModuleVector.from_numerators(n, m, out, scale.denominator * common * f.denominator)


class _Walk(NamedTuple):
    # What the one walk over S_n records for a shape (n, m); see `_group_walk`.
    rows: dict[CycleType, list[int]]
    pairs: list[Counter]
    carried: list[list[int]]


def _cycle_lengths(images: tuple[int, ...]) -> tuple[list[int], CycleType]:
    # The length of the cycle through each point, and the cycle type.
    length = [0] * len(images)
    parts = []
    for start in range(len(images)):
        if not length[start]:
            cycle = [start]
            a = images[start] - 1
            while a != start:
                cycle.append(a)
                a = images[a] - 1
            for a in cycle:
                length[a] = len(cycle)
            parts.append(len(cycle))
    parts.sort(reverse=True)
    return length, tuple(parts)


def _grown(ct: CycleType, n: int) -> list[CycleType]:
    # Entry c is ct with one part c grown to c + 1 (the first such part, so the
    # parts stay in decreasing order); entry 0 is ct with a new part 1.
    out = [ct + (1,)] * n
    for c in set(ct):
        i = ct.index(c)
        out[c] = ct[:i] + (c + 1,) + ct[i + 1 :]
    return out


@lru_cache(maxsize=1)
def _group_walk(n: int, m: int) -> _Walk:
    """The one walk over all n! permutations per (n, m), base = {1..m}.

    For each permutation x it records x's cycle type, the position of x(base),
    and the shift suite's pairs (x(base), x(k_r)), k_r = {1..r, m+1..2m-r}:

      * rows[ct][p] is the number of x of type ct with x(base) at position p;
      * pairs[r] is a Counter of the position pairs (B, K) with the number of x
        such that x(base) = B and x(k_r) = K.  k_m is base itself, so pairs[m]
        is read from the rows;
      * carried[j] lists the position of sigma_J(K) for every m-subset K, with
        J the j-th m-subset and sigma_J its `_carrier`: what
        `_transported_weights` reads, built once per shape.

    Each x is reached once by insertion from sigma in S_{n-1}, point n fixed:
    either x = sigma (n stays fixed, the cycle type gains a part 1), or n is
    placed after i in i's cycle, so x(i) = n and x(n) = sigma(i) (the part
    through i grows by one, a lookup in `_grown`).  Cycle types are thus
    found once per sigma, not per x.  An image x(S) is a bitmask, the sum of
    the point bits 1 << (x(a)-1) over a in S; inserting n after i adds
    d = 2^(n-1) - 2^(sigma(i)-1) to it when i is in S and subtracts d when n
    is, so of each tracked set (base and k_0..k_{m-1}, all within the first 2m
    points) only m children move, each one int-keyed lookup.  The n children
    of a sigma are counted with one `Counter.update`, and no list grows with
    n!.  Every other count the references read follows from the rows by
    conjugation.  Held in an LRU cache of fixed maxsize 1: the walk of one
    shape, the last one asked for.
    """
    position = _mask_index(n, m).__getitem__
    top = 1 << (n - 1)
    # The tracked sets, 0-based: base, then k_0..k_{m-1}.  For each, the points
    # i < n-1 whose insertion moves its image, with the sign of the move: +1
    # for i in S; -1 for i outside S when n is in S (k_0 at 2m = n).
    tracked = [range(m)] + [[*range(r), *range(m, 2 * m - r)] for r in range(m)]
    moves = [
        [(i, 1) for i in S] if n - 1 not in S
        else [(i, -1) for i in range(n - 1) if i not in S]
        for S in tracked
    ]
    # One Counter for the whole walk: (ct, B) keys count the rows, (r, B, K)
    # keys the pairs of overlap r.
    counts: Counter = Counter()
    grown: dict[CycleType, list[CycleType]] = {}
    overlaps = [itertools.repeat(r) for r in range(m)]
    for sigma in enumerate_permutations(n - 1, ceiling=None):
        length, ct = _cycle_lengths(sigma.images)
        grow = grown.get(ct)
        if grow is None:
            grow = grown[ct] = _grown(ct, n)
        bits = [1 << (b - 1) for b in (sigma.images + (n,))[: 2 * m]]
        delta = [top - b for b in bits]
        mask = sum(bits[m:])
        masks = [sum(bits[:m]), mask]
        for r in range(m - 1):
            mask += bits[r] - bits[2 * m - 1 - r]
            masks.append(mask)
        # Child i < n-1 inserts n after point i + 1; child n-1 is sigma itself.
        columns = []
        for S_mask, S_moves in zip(masks, moves):
            column = [position(S_mask)] * n
            for i, sign in S_moves:
                column[i] = position(S_mask + sign * delta[i])
            columns.append(column)
        length.append(0)
        bpos = columns[0]
        counts.update(
            itertools.chain(
                zip(map(grow.__getitem__, length), bpos),
                *map(zip, overlaps, itertools.repeat(bpos), columns[1:]),
            )
        )
    rows: defaultdict[CycleType, list[int]] = defaultdict(lambda: [0] * comb(n, m))
    pairs = [Counter() for _ in range(m + 1)]
    for key, c in counts.items():
        if len(key) == 3:
            pairs[key[0]][key[1:]] = c
        else:
            ct, b = key
            rows[ct][b] = c
            pairs[m][b, b] += c
    carried = [subset_images(_carrier(n, J), m) for J in enumerate_subsets(n, m)]
    return _Walk(dict(rows), pairs, carried)


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
    the walk's `carried` images of sigma_J carry the weighted row to column J.
    The sums are still over all n! permutations, taken by the walk.
    """
    walk = _group_walk(n, m)
    row = [0] * comb(n, m)
    for ct, counts in walk.rows.items():
        w = weight(ct)
        if w:
            row = [a + w * c for a, c in zip(row, counts)]
    return [list(map(row.__getitem__, images)) for images in walk.carried]


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


def _neighbours(n: int, m: int) -> list[list[int]]:
    # For each m-subset K in canonical order, the positions of its m(n-m)
    # neighbours in J(n, m), the m-subsets sharing m - 1 points with K: K with
    # one point swapped for one outside it, on bitmasks.
    index = _mask_index(n, m)
    bits = [1 << a for a in range(n)]
    table = []
    for mask in index:
        inside = [b for b in bits if mask & b]
        outside = [b for b in bits if not mask & b]
        table.append([index[mask - a + b] for a in inside for b in outside])
    return table


def _johnson_eigenvectors(vectors: Sequence[ModuleVector], l: int) -> bool:
    """True when A v = theta_l v for every v: A is the adjacency of the Johnson
    graph J(n, m), and theta_l = (m - l)(n - m - l) - l its eigenvalue on the
    order-l Hoeffding space.

    The literal neighbour sum, (A v)(K) = the sum of v over the m(n-m)
    neighbours of K, on the vectors' integer numerators, all vectors at once:
    entry K of the i-th vector is the i-th signed lane of one int per K.  A
    lane of either side is at most m(n-m) times the largest numerator in
    absolute value, below half the lane's range, so no lane carries into the
    next and the two ints are equal exactly when every lane is.  So the cost
    is C(n, m) m(n-m) adds of wide ints, plus one pass to pack the entries.
    Every vector has the shape (n, m) of the first.
    """
    if not vectors:
        return True
    n, m = vectors[0].n, vectors[0].l
    for v in vectors:
        if (v.n, v.l) != (n, m):
            raise DomainError(f"shape mismatch: (n={v.n}, l={v.l}) vs (n={n}, l={m})")
    theta = (m - l) * (n - m - l) - l  # strictly decreasing in l = 0..m
    bound = m * (n - m) * max(max(map(abs, v.numerators)) for v in vectors)
    width = (bound.bit_length() + 8) // 8  # bytes per lane: 2^(8 width - 1) > bound
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * len(vectors), "little")
    packed = [
        int.from_bytes(b"".join([(a + half).to_bytes(width, "little") for a in entries]), "little")
        - offset
        for entries in zip(*(v.numerators for v in vectors))
    ]
    return all(
        sum(map(packed.__getitem__, row)) == theta * p
        for row, p in zip(_neighbours(n, m), packed)
    )
