"""Two-block Specht modules inside the subset permutation module.

A polytabloid is built from a tableau by applying, to the indicator of its
bottom-row set, one signed swap operator per column pair: f -> f - (swap f).
The polytabloids of standard tableaux form a basis of the irreducible
submodule of shape (n-l, l); lifting them as U-statistics lands them inside
the order-l symmetric Hoeffding space.
"""

from __future__ import annotations

from .algebra import ModuleVector, act, indicator
from .combinatorics import Permutation, Tableau, standard_tableaux


def polytabloid(t: Tableau) -> ModuleVector:
    """The signed sum of 2^m indicators generated by t's column swaps."""
    out = indicator(t.n, t.bottom_row)
    for i, j in zip(t.top_row, t.bottom_row):
        out = out - act(Permutation.transposition(t.n, i, j), out)
    return out


def specht_basis(n: int, l: int) -> tuple[ModuleVector, ...]:
    """Polytabloids of all standard tableaux of shape (n-l, l).

    Ordered lexicographically by bottom row; spans a subspace of dimension
    C(n,l) - C(n,l-1).
    """
    return tuple(polytabloid(t) for t in standard_tableaux(n, l))
