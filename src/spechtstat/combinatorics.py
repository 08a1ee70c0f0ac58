"""Subsets, permutations, cycle types and two-row tableaux over [1..n].

Everything here is 1-based: the ground set is [n] = {1, ..., n}.  A subset is
a strictly increasing tuple of ints, a cycle type is a weakly decreasing tuple
of positive ints summing to n.  All values are immutable and hashable.  A
layer's canonical order is lexicographic: `subset_position` ranks one subset
in closed form, and `_mask_index`, the only cached position table, places
whole layers by bitmask.  Every whole layer in the package is sized by
`_layer_size`, which refuses one longer than `sys.maxsize`.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ResourceLimitError

Subset = tuple[int, ...]
CycleType = tuple[int, ...]


def _layer_size(n: int, l: int) -> int:
    """C(n, l), once n >= 1 and 0 <= l <= n hold (the bounds of `enumerate_subsets`).

    Every allocation of a whole layer is sized here.  A layer longer than
    `sys.maxsize`, the interpreter's hard limit on a list's length, is refused.
    """
    if n < 1 or l < 0 or l > n:
        raise DomainError(f"shape (n={n}, l={l}) outside n >= 1, 0 <= l <= n")
    size = comb(n, l)
    if size > sys.maxsize:
        raise ResourceLimitError(
            f"the layer of {l}-subsets of [1..{n}] has C({n}, {l}) = {size} entries, "
            f"more than the interpreter's list limit sys.maxsize = {sys.maxsize}"
        )
    return size


def enumerate_subsets(n: int, l: int) -> tuple[Subset, ...]:
    """All l-element subsets of [1..n], sorted tuples in lexicographic order.

    This order is the canonical indexing contract: vector coordinates and
    serialized records always follow it.  Built afresh on each call, sized by
    `_layer_size`; no caller reads one table often enough to keep it.
    """
    _layer_size(n, l)
    return tuple(itertools.combinations(range(1, n + 1), l))


def subset_position(n: int, s: Sequence[int]) -> int:
    """Canonical position of a sorted, validated subset s of [1..n], with no table.

    Its combinatorial-number-system rank: C(n, l) - 1 - sum over i of C(n - s[i], l - i),
    with l = len(s) and i counted from 0; the sum counts the l-subsets after s.
    """
    l = len(s)
    return comb(n, l) - 1 - sum(comb(n - a, l - i) for i, a in enumerate(s))


@lru_cache(maxsize=32)
def _mask_index(n: int, l: int) -> dict[int, int]:
    # Position of each l-subset in the canonical order, keyed by its bitmask, the
    # sum of its point bits 1 << (a-1): the only cached position table, built
    # from the bits with no subset tuple.  Cached (maxsize 32) for the callers
    # that read it again: `subset_images`, once per permutation, and the walk
    # over S_n in `references`.  `hoeffding._face_columns` reads each table
    # once, via `__wrapped__`.
    bits = [1 << a for a in range(n)]
    return dict(zip(map(sum, itertools.combinations(bits, l)), itertools.count()))


def subset_images(x: Permutation, l: int) -> list[int]:
    """Canonical position of x(S) for every l-subset S, listed in canonical order.

    Each image is the sum of the point bits 1 << (x(a)-1) over a in S, found by
    `itertools.combinations` over the image bits, and one int-keyed lookup.
    """
    bits = [1 << (b - 1) for b in x.images]
    position = _mask_index(len(bits), l).__getitem__
    return list(map(position, map(sum, itertools.combinations(bits, l))))


def check_subset(n: int, elements: Iterable[int]) -> Subset:
    """Validate and canonicalize a subset of [1..n] (sorted, distinct ints, in range)."""
    elems = tuple(sorted(elements))
    if not all(isinstance(e, int) for e in elems):
        raise DomainError(f"subset {elems} has a non-integer element")
    if len(set(elems)) != len(elems):
        raise DomainError(f"subset has repeated elements: {elems}")
    if elems and (elems[0] < 1 or elems[-1] > n):
        raise DomainError(f"subset {elems} not contained in [1..{n}]")
    return elems


def check_shape(n: int, m: int) -> None:
    """Validate a statistic's shape: m draws from [1..n] with 1 <= m <= n/2."""
    if m < 1 or 2 * m > n:
        raise DomainError(f"need 1 <= m <= n/2, got n={n}, m={m}")


def _ascii_int(text: str) -> int:
    # int() of ASCII text only: int() alone also reads "1_2" and "١٢" as 12.
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not an ASCII integer")
    return int(text)


def parse_subset(text: str) -> Subset:
    """Parse the comma-joined text form, e.g. '1,4,7'.  '-' denotes the empty set."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        elems = tuple(map(_ascii_int, text.split(",")))
    except ValueError:
        raise DomainError(f"bad subset text {text!r}") from None
    if any(e < 1 for e in elems) or tuple(sorted(set(elems))) != tuple(sorted(elems)):
        raise DomainError(f"bad subset text {text!r}")
    return tuple(sorted(elems))


def format_subset(s: Subset) -> str:
    return ",".join(str(e) for e in s) if s else "-"


def format_cycle_type(ct: CycleType) -> str:
    return "-".join(str(p) for p in ct)


class Permutation:
    """A bijection of [1..n], stored as the image tuple: images[a-1] = x(a).

    It acts on vectors and tableaux (`algebra.act`, `Tableau.apply`) and has a
    cycle type.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise DomainError(f"not a permutation of [1..{len(images)}]: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        # For image tuples already known to be permutations of [1..n]: skips the check.
        out = cls.__new__(cls)
        out.images = images
        return out

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, n: int, *cycles: Iterable[int]) -> "Permutation":
        """Build from disjoint cycles, e.g. from_cycles(5, (1, 2, 3), (4, 5))."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cyc = tuple(cycle)
            if any(a < 1 or a > n for a in cyc) or seen.intersection(cyc) or len(set(cyc)) != len(cyc):
                raise DomainError(f"bad cycle {cyc} on [1..{n}]")
            seen.update(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    def cycle_type(self) -> CycleType:
        """Multiset of cycle lengths, sorted descending."""
        images = self.images
        unseen = set(images)
        lengths = []
        while unseen:
            start = unseen.pop()
            a = images[start - 1]
            length = 1
            while a != start:
                unseen.remove(a)
                a = images[a - 1]
                length += 1
            lengths.append(length)
        lengths.sort(reverse=True)
        return tuple(lengths)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


@lru_cache(maxsize=1024)
def _fixed_subset_poly(ct: CycleType) -> tuple[int, ...]:
    # Coefficients of prod over cycle lengths c of (1 + z^c); coefficient of
    # z^l counts the l-subsets that are unions of whole cycles, i.e. the
    # setwise-fixed l-subsets.  maxsize 1024 holds every cycle type of one
    # degree n <= 22 (there are 1002 at n = 22).
    coeffs = [1]
    for c in ct:
        nxt = coeffs + [0] * c
        for i, v in enumerate(coeffs):
            nxt[i + c] += v
        coeffs = nxt
    return tuple(coeffs)


def fixed_subset_count_of_type(ct: CycleType, l: int) -> int:
    """Number of l-subsets fixed setwise by any permutation of cycle type ct."""
    if l < 0:
        return 0
    poly = _fixed_subset_poly(tuple(ct))
    return poly[l] if l < len(poly) else 0


def fixed_subset_count(x: Permutation, l: int) -> int:
    """Number of l-subsets S that x fixes setwise: {x(j) : j in S} = S."""
    return fixed_subset_count_of_type(x.cycle_type(), l)


#: Every n!-cost route (this enumeration, the verify oracles, `bench`) is
#: refused above this degree unless overridden.
DEFAULT_ORACLE_CEILING = 8


def enumerate_permutations(
    n: int, ceiling: int | None = DEFAULT_ORACLE_CEILING
) -> Iterator[Permutation]:
    """All n! permutations of [1..n] in lexicographic order of image tuples.

    Factorial cost by design; refuses n above `ceiling` at call time (pass a
    larger bound or None to override).
    """
    if n < 1:
        raise DomainError(f"degree must be positive, got n={n}")
    if ceiling is not None and n > ceiling:
        raise ResourceLimitError(
            f"enumerating S_{n} exceeds the ceiling {ceiling}; "
            f"pass ceiling={n} (or None) to override"
        )
    return map(Permutation._trusted, itertools.permutations(range(1, n + 1)))


@dataclass(frozen=True)
class Tableau:
    """An ordered two-row arrangement of [1..n]: top row of length n-m, bottom of length m."""

    top_row: tuple[int, ...]
    bottom_row: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "top_row", tuple(self.top_row))
        object.__setattr__(self, "bottom_row", tuple(self.bottom_row))
        n = len(self.top_row) + len(self.bottom_row)
        m = len(self.bottom_row)
        if m < 1 or 2 * m > n:
            raise DomainError(f"bottom row length {m} outside [1..{n}/2]")
        if sorted(self.top_row + self.bottom_row) != list(range(1, n + 1)):
            raise DomainError(
                f"rows {self.top_row} and {self.bottom_row} do not partition [1..{n}]"
            )

    @property
    def n(self) -> int:
        return len(self.top_row) + len(self.bottom_row)

    @property
    def m(self) -> int:
        return len(self.bottom_row)

    def columns(self) -> list[tuple[int, ...]]:
        """The m vertical pairs (top[k], bottom[k]) followed by the n-2m singletons."""
        m = self.m
        pairs = [(self.top_row[k], self.bottom_row[k]) for k in range(m)]
        singles = [(a,) for a in self.top_row[m:]]
        return pairs + singles

    def apply(self, x: Permutation) -> "Tableau":
        """Entrywise image under x, preserving positions."""
        if x.n != self.n:
            raise DomainError(f"degree mismatch: {x.n} vs {self.n}")
        img = x.images
        return Tableau(
            tuple(img[a - 1] for a in self.top_row),
            tuple(img[a - 1] for a in self.bottom_row),
        )

    def text(self) -> str:
        return ";".join(",".join(str(a) for a in row) for row in (self.top_row, self.bottom_row))


def standard_tableaux(n: int, l: int) -> tuple[Tableau, ...]:
    """All standard tableaux with top row of length n-l and bottom row of length l.

    Bottom rows run over l-subsets in lexicographic order; the top row is the
    sorted complement; keep the fillings whose columns strictly increase.
    """
    if l < 1 or 2 * l > n:
        raise DomainError(f"bottom row length l={l} outside [1..{n}/2]")
    out = []
    full = set(range(1, n + 1))
    for bottom in enumerate_subsets(n, l):
        top = tuple(sorted(full.difference(bottom)))
        if all(top[k] < bottom[k] for k in range(l)):
            out.append(Tableau(top, bottom))
    return tuple(out)

