"""Exact rational vectors on the l-subsets of [1..n], with the natural group action.

Scalars are `fractions.Fraction` throughout; nothing in the library ever
rounds.  A `ModuleVector` is a function from the l-subsets of [1..n] to the
rationals, stored densely in the canonical subset order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .combinatorics import (
    Permutation,
    Subset,
    check_subset,
    enumerate_subsets,
    subset_images,
    subset_index,
)
from .errors import DomainError

_ZERO = Fraction(0)


def _as_fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def integer_numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The common denominator D of the values (lcm of their denominators) and the integers D*v."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


class ModuleVector:
    """A rational-valued function on the l-subsets of [1..n].

    Values are kept in the canonical (lexicographic) subset order; the vector
    is immutable and usable as a dict key.
    """

    __slots__ = ("n", "l", "values")

    def __init__(self, n: int, l: int, values: Iterable):
        vals = tuple(_as_fraction(v) for v in values)
        if len(vals) != comb(n, l):
            raise DomainError(
                f"expected {comb(n, l)} values for shape (n={n}, l={l}), got {len(vals)}"
            )
        self.n = n
        self.l = l
        self.values = vals

    @classmethod
    def zero(cls, n: int, l: int) -> "ModuleVector":
        return cls(n, l, [_ZERO] * comb(n, l))

    @classmethod
    def constant(cls, n: int, l: int, c) -> "ModuleVector":
        return cls(n, l, [_as_fraction(c)] * comb(n, l))

    @classmethod
    def from_mapping(cls, n: int, l: int, mapping: Mapping[Subset, object]) -> "ModuleVector":
        """Build from a sparse {subset: value} mapping; absent subsets read as zero."""
        idx = subset_index(n, l)
        vals = [_ZERO] * comb(n, l)
        for key, v in mapping.items():
            s = check_subset(n, key)
            if len(s) != l:
                raise DomainError(f"subset {s} has size {len(s)}, expected {l}")
            vals[idx[s]] = _as_fraction(v)
        return cls(n, l, vals)

    def __getitem__(self, key: Iterable[int]) -> Fraction:
        s = tuple(sorted(key))
        try:
            return self.values[subset_index(self.n, self.l)[s]]
        except KeyError:
            raise DomainError(f"{s} is not an {self.l}-subset of [1..{self.n}]") from None

    def items(self) -> Iterator[tuple[Subset, Fraction]]:
        return zip(enumerate_subsets(self.n, self.l), self.values)

    def mean(self) -> Fraction:
        """Average value over all subsets: the expectation under a uniform draw."""
        return Fraction(sum(self.values), comb(self.n, self.l))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def support(self) -> tuple[Subset, ...]:
        return tuple(s for s, v in self.items() if v != 0)

    def _check_shape(self, other: "ModuleVector") -> None:
        if self.n != other.n or self.l != other.l:
            raise DomainError(
                f"shape mismatch: (n={self.n}, l={self.l}) vs (n={other.n}, l={other.l})"
            )

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        self._check_shape(other)
        return ModuleVector(self.n, self.l, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        self._check_shape(other)
        return ModuleVector(self.n, self.l, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.n, self.l, [-a for a in self.values])

    def __rmul__(self, c) -> "ModuleVector":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = _as_fraction(c)
        return ModuleVector(self.n, self.l, [c * a for a in self.values])

    __mul__ = __rmul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleVector)
            and self.n == other.n
            and self.l == other.l
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.n, self.l, self.values))

    def __repr__(self) -> str:
        nonzero = sum(1 for v in self.values if v != 0)
        return f"ModuleVector(n={self.n}, l={self.l}, {nonzero} nonzero of {len(self.values)})"


def indicator(n: int, s: Iterable[int]) -> ModuleVector:
    """The basis vector equal to 1 at subset s and 0 elsewhere."""
    s = check_subset(n, s)
    l = len(s)
    vals = [_ZERO] * comb(n, l)
    vals[subset_index(n, l)[s]] = Fraction(1)
    return ModuleVector(n, l, vals)


def act(x: Permutation, f: ModuleVector) -> ModuleVector:
    """The action (x f)(K) = f(x^{-1} K); sends indicator(J) to indicator(x J)."""
    if x.n != f.n:
        raise DomainError(f"degree mismatch: permutation of [1..{x.n}] on vector with n={f.n}")
    out = [_ZERO] * len(f.values)
    for v, k in zip(f.values, subset_images(x, f.l)):
        out[k] = v
    return ModuleVector(f.n, f.l, out)


def inner_product(f: ModuleVector, g: ModuleVector) -> Fraction:
    """The probability inner product: the average of f*g over all subsets.

    Equals the expectation E[f(S) g(S)] for a uniformly random l-subset S, and
    is invariant under the group action.
    """
    f._check_shape(g)
    total = sum((a * b for a, b in zip(f.values, g.values) if a and b), _ZERO)
    return Fraction(total, comb(f.n, f.l))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def rank_of_span(vectors: Sequence[ModuleVector]) -> int:
    """Dimension of the linear span, by exact fraction-free Gaussian elimination.

    Each row is scaled to integers by the lcm of its denominators; an update
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
    rows = [_primitive(integer_numerators(v.values)[1]) for v in vectors]
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
