"""Two-block Specht modules inside the subset permutation module.

A tableau's polytabloid is the product over its column pairs (i, j) of
(1 - (i j)), applied to the indicator of its bottom-row set.  The column pairs
are disjoint, so the product expands into one signed indicator per swap set:
the bottom row with the chosen column pairs swapped, with sign (-1)^{#swaps}.
The polytabloids of standard tableaux form a basis of the irreducible
submodule of shape (n-l, l); lifting them as U-statistics lands them inside
the order-l symmetric Hoeffding space.
"""

from __future__ import annotations

import itertools

from .algebra import ModuleVector
from .combinatorics import Tableau, _layer_size, standard_tableaux, subset_position


def polytabloid(t: Tableau) -> ModuleVector:
    """The signed sum of 2^m indicators, one per set of t's column pairs swapped.

    Swapping a column pair replaces its bottom-row entry by its top-row entry.
    Each of the 2^m swap sets gives a distinct m-subset, placed by
    `subset_position`, so the cost is 2^m ranks on one layer of C(n, m) zeros.
    """
    n, m = t.n, t.m
    nums = [0] * _layer_size(n, m)
    columns = list(zip(t.bottom_row, t.top_row))
    for swaps in itertools.product((0, 1), repeat=m):
        bottom = sorted(pair[s] for pair, s in zip(columns, swaps))
        nums[subset_position(n, bottom)] = (-1) ** sum(swaps)
    return ModuleVector.from_numerators(n, m, nums, 1)


def specht_basis(n: int, l: int) -> tuple[ModuleVector, ...]:
    """Polytabloids of all standard tableaux of shape (n-l, l).

    Ordered lexicographically by bottom row; spans a subspace of dimension
    C(n,l) - C(n,l-1).
    """
    return tuple(polytabloid(t) for t in standard_tableaux(n, l))
