"""Exact rational vectors on the l-subsets of [1..n], with the natural group action.

Nothing in the library ever rounds.  A `ModuleVector` is a function from the
l-subsets of [1..n] to the rationals, stored densely in the canonical subset
order as integer numerators over one positive common denominator, reduced by
their joint gcd.  That form is unique, so equality and hashing are exact, and
the vector operations run on Python ints.  The `Fraction` entries (`.values`)
are built only when a caller first asks for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .combinatorics import (
    Permutation,
    Subset,
    _layer_size,
    check_subset,
    enumerate_subsets,
    subset_images,
    subset_position,
)
from .errors import DomainError


def _check_entry(v: object) -> None:
    # Only exact rationals: Fraction(v) would also take floats and arbitrary text.
    if not isinstance(v, (int, Fraction)):
        raise DomainError(f"vector entries must be int or Fraction, got {type(v).__name__}")


class ModuleVector:
    """A rational-valued function on the l-subsets of [1..n].

    Stored as `numerators`, a tuple of ints in the canonical (lexicographic)
    subset order, over one `denominator` > 0 with gcd(denominator, *numerators)
    == 1; the zero vector has denominator 1.  `values` gives the entries as
    `Fraction`s.  The vector is immutable and usable as a dict key.  Entries
    passed in must be `int` or `Fraction`; anything else is a `DomainError`.
    """

    __slots__ = ("n", "l", "numerators", "denominator", "_values")

    def __init__(self, n: int, l: int, values: Iterable[int | Fraction]):
        vals = list(values)
        for v in vals:
            _check_entry(v)
        den = lcm(*(v.denominator for v in vals))
        self._set(n, l, [v.numerator * (den // v.denominator) for v in vals], den)

    @classmethod
    def from_numerators(
        cls, n: int, l: int, numerators: Iterable[int], denominator: int
    ) -> "ModuleVector":
        """The vector with entries numerators[i] / denominator, in canonical subset order.

        Any nonzero denominator is accepted; the result is reduced by the joint gcd.
        """
        if denominator == 0:
            raise DomainError("denominator must be nonzero")
        out = cls.__new__(cls)
        out._set(n, l, numerators, denominator)
        return out

    def _set(self, n: int, l: int, nums: Iterable[int], den: int) -> None:
        size = _layer_size(n, l)
        nums = tuple(nums)
        if len(nums) != size:
            raise DomainError(f"expected {size} values for shape (n={n}, l={l}), got {len(nums)}")
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
        self.n = n
        self.l = l
        self.numerators = nums
        self.denominator = den
        self._values = None

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as `Fraction`s, in canonical subset order; built once, on first use."""
        if self._values is None:
            den = self.denominator
            self._values = tuple([Fraction(x, den) for x in self.numerators])
        return self._values

    @classmethod
    def zero(cls, n: int, l: int) -> "ModuleVector":
        return cls.constant(n, l, 0)

    @classmethod
    def constant(cls, n: int, l: int, c: int | Fraction) -> "ModuleVector":
        _check_entry(c)
        c = Fraction(c)
        size = _layer_size(n, l)
        out = cls.from_numerators(n, l, [c.numerator] * size, c.denominator)
        out._values = (c,) * size  # one shared Fraction, as the entries are all equal
        return out

    @classmethod
    def from_mapping(cls, n: int, l: int, mapping: Mapping[Subset, object]) -> "ModuleVector":
        """Build from a sparse {subset: value} mapping; absent subsets read as zero."""
        vals = [0] * _layer_size(n, l)
        for key, v in mapping.items():
            s = check_subset(n, key)
            if len(s) != l:
                raise DomainError(f"subset {s} has size {len(s)}, expected {l}")
            vals[subset_position(n, s)] = v
        return cls(n, l, vals)

    def __getitem__(self, key: Iterable[int]) -> Fraction:
        n, l = self.n, self.l
        s = tuple(sorted(key))
        if not (len(s) == len(set(s)) == l and all(isinstance(a, int) and 0 < a <= n for a in s)):
            raise DomainError(f"{s} is not an {l}-subset of [1..{n}]")
        return Fraction(self.numerators[subset_position(n, s)], self.denominator)

    def items(self) -> Iterator[tuple[Subset, Fraction]]:
        return zip(enumerate_subsets(self.n, self.l), self.values)

    def mean(self) -> Fraction:
        """Average value over all subsets: the expectation under a uniform draw."""
        return Fraction(sum(self.numerators), self.denominator * comb(self.n, self.l))

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def _check_shape(self, other: "ModuleVector") -> None:
        if self.n != other.n or self.l != other.l:
            raise DomainError(
                f"shape mismatch: (n={self.n}, l={self.l}) vs (n={other.n}, l={other.l})"
            )

    def _combine(self, other: "ModuleVector", sign: int) -> "ModuleVector":
        # self + sign * other over the lcm of the two denominators.
        self._check_shape(other)
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        ka, kb = den // da, sign * (den // db)
        nums = [ka * a + kb * b for a, b in zip(self.numerators, other.numerators)]
        return ModuleVector.from_numerators(self.n, self.l, nums, den)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector.from_numerators(
            self.n, self.l, [-a for a in self.numerators], self.denominator
        )

    def __rmul__(self, c) -> "ModuleVector":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        p, q = c.numerator, c.denominator
        return ModuleVector.from_numerators(
            self.n, self.l, [p * a for a in self.numerators], q * self.denominator
        )

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleVector)
            and self.n == other.n
            and self.l == other.l
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.n, self.l, self.denominator, self.numerators))

    def __repr__(self) -> str:
        nonzero = sum(1 for x in self.numerators if x)
        return f"ModuleVector(n={self.n}, l={self.l}, {nonzero} nonzero of {len(self.numerators)})"


def indicator(n: int, s: Iterable[int]) -> ModuleVector:
    """The basis vector equal to 1 at subset s and 0 elsewhere."""
    s = check_subset(n, s)
    l = len(s)
    nums = [0] * _layer_size(n, l)
    nums[subset_position(n, s)] = 1
    return ModuleVector.from_numerators(n, l, nums, 1)


def act(x: Permutation, f: ModuleVector) -> ModuleVector:
    """The action (x f)(K) = f(x^{-1} K); sends indicator(J) to indicator(x J)."""
    if x.n != f.n:
        raise DomainError(f"degree mismatch: permutation of [1..{x.n}] on vector with n={f.n}")
    out = [0] * len(f.numerators)
    for v, k in zip(f.numerators, subset_images(x, f.l)):
        out[k] = v
    return ModuleVector.from_numerators(f.n, f.l, out, f.denominator)


def inner_product(f: ModuleVector, g: ModuleVector) -> Fraction:
    """The probability inner product: the average of f*g over all subsets.

    Equals the expectation E[f(S) g(S)] for a uniformly random l-subset S, and
    is invariant under the group action.
    """
    f._check_shape(g)
    total = sum([a * b for a, b in zip(f.numerators, g.numerators) if a and b])
    return Fraction(total, f.denominator * g.denominator * comb(f.n, f.l))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def rank_of_span(vectors: Sequence[ModuleVector]) -> int:
    """Dimension of the linear span, by exact fraction-free Gaussian elimination.

    Each row is the vector's integer numerators divided by their gcd; an update
    replaces a row by pval*row - factor*pivot_row and divides it by its gcd, so
    every entry has the zero pattern of the rational elimination.  Pivot rule:
    scan columns in canonical subset order, picking the first row with a
    nonzero entry; fully deterministic.
    """
    if not vectors:
        return 0
    first = vectors[0]
    for v in vectors[1:]:
        first._check_shape(v)
    rows = [_primitive(list(v.numerators)) for v in vectors]
    ncols = len(rows[0])
    pivot = 0
    for col in range(ncols):
        hit = None
        for r in range(pivot, len(rows)):
            if rows[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        rows[pivot], rows[hit] = rows[hit], rows[pivot]
        prow = rows[pivot]
        pval = prow[col]
        for r in range(pivot + 1, len(rows)):
            factor = rows[r][col]
            if factor == 0:
                continue
            rows[r] = _primitive([pval * a - factor * b for a, b in zip(rows[r], prow)])
        pivot += 1
        if pivot == len(rows):
            break
    return pivot
