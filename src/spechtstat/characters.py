"""Irreducible characters of two-row shapes (n-l, l), their dimensions, and tables.

The value of the two-row character on a permutation x is computed as a
telescoping difference of fixed-subset counts:

    chi_{(n-l,l)}(x) = #{l-subsets fixed by x} - #{(l-1)-subsets fixed by x}

with the l=0 column identically 1 (the trivial character).  The first-
orthogonality sum over classes is checked at table-construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .combinatorics import (
    CycleType,
    Permutation,
    fixed_subset_count_of_type,
    format_cycle_type,
)
from .errors import DomainError


def partitions(n: int) -> tuple[CycleType, ...]:
    """All partitions of n as weakly decreasing tuples, in ascending tuple order."""
    if n < 1:
        raise DomainError(f"partitions need n >= 1, got {n}")

    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))


def conjugacy_class_size(n: int, ct: CycleType) -> int:
    """Size of the conjugacy class of cycle type ct, via the centralizer formula."""
    ct = _as_cycle_type(n, ct)
    if list(ct) != sorted(ct, reverse=True):
        raise DomainError(f"{ct} is not a partition of {n}")
    centralizer = 1
    for length in set(ct):
        mult = ct.count(length)
        centralizer *= length**mult * factorial(mult)
    return factorial(n) // centralizer


def _as_cycle_type(n: int, x: Permutation | CycleType) -> CycleType:
    if isinstance(x, Permutation):
        if x.n != n:
            raise DomainError(f"degree mismatch: permutation of [1..{x.n}], n={n}")
        return x.cycle_type()
    ct = tuple(x)
    # Any order of parts counts the same, but a part that is not a positive int
    # would index the fixed-subset polynomial wrongly or not at all.
    if not all(isinstance(p, int) and p >= 1 for p in ct):
        raise DomainError(f"cycle type {ct} has a part that is not a positive integer")
    if sum(ct) != n:
        raise DomainError(f"cycle type {ct} does not sum to {n}")
    return ct


def two_row_character(n: int, l: int, x: Permutation | CycleType) -> int:
    """Integer character value of the shape (n-l, l) irreducible at x."""
    if l < 0 or 2 * l > n:
        raise DomainError(f"shape ({n - l},{l}) is not a valid two-row shape")
    ct = _as_cycle_type(n, x)
    return fixed_subset_count_of_type(ct, l) - fixed_subset_count_of_type(ct, l - 1)


def dimension(n: int, l: int) -> int:
    """Dimension of the shape (n-l, l) irreducible: C(n,l) - C(n,l-1)."""
    if l < 0 or 2 * l > n:
        raise DomainError(f"shape ({n - l},{l}) is not a valid two-row shape")
    return comb(n, l) - (comb(n, l - 1) if l >= 1 else 0)


@dataclass(frozen=True)
class CharacterRow:
    cycle_type: CycleType
    class_size: int
    values: tuple[int, ...]  # chi_{(n-l,l)} for l = 0..max_l


@dataclass(frozen=True)
class CharacterTable:
    """Two-row character values on every conjugacy class of the degree-n group."""

    n: int
    max_l: int
    rows: tuple[CharacterRow, ...]

    def csv_text(self) -> str:
        """CSV export: header then one row per cycle type in table order."""
        header = "cycle_type,class_size," + ",".join(f"chi_{l}" for l in range(self.max_l + 1))
        lines = [header]
        for row in self.rows:
            lines.append(
                f"{format_cycle_type(row.cycle_type)},{row.class_size},"
                + ",".join(str(v) for v in row.values)
            )
        return "\n".join(lines) + "\n"


def character_table(n: int, max_l: int) -> CharacterTable:
    """Tabulate all two-row characters chi_{(n-l,l)}, l = 0..max_l, by cycle type."""
    if max_l < 0 or 2 * max_l > n:
        raise DomainError(f"max_l={max_l} outside [0..{n}/2]")
    rows = []
    for ct in partitions(n):
        size = conjugacy_class_size(n, ct)
        values = tuple(two_row_character(n, l, ct) for l in range(max_l + 1))
        rows.append(CharacterRow(ct, size, values))
    table = CharacterTable(n, max_l, tuple(rows))
    _check_first_orthogonality(table)
    return table


def _check_first_orthogonality(table: CharacterTable) -> None:
    # Irreducibility guard: sum of class_size * chi^2 must equal n! per column.
    want = factorial(table.n)
    for l in range(table.max_l + 1):
        got = sum(row.class_size * row.values[l] ** 2 for row in table.rows)
        if got != want:
            raise RuntimeError(
                f"character table failed first orthogonality at l={l}: {got} != {want}"
            )
