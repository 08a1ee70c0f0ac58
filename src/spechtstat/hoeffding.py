"""Exact Hoeffding decomposition of symmetric statistics of draws without replacement.

A statistic is a `ModuleVector` h on the m-subsets of [1..n], read as
h(X(1), ..., X(m)) for the first m extractions without replacement.  This
module holds the kernel route and nothing else: the down and up passes, the
Horner chains built on them, the views `hoeffding_kernel`, `u_statistic_lift`,
`project` and `is_completely_degenerate`, and `decompose`.  It computes, in
exact rational arithmetic:

  * the order-l completely degenerate kernels and their U-statistic lifts,
  * the orthogonal projections onto each symmetric Hoeffding space.

The references it is checked against live apart from it, in `references`
(the per-subset conditional expectation, the n!-permutation
character-projection oracle, the double sum with its `CoefficientTable`, the
fixed-point route and the shift walk) and in the test suite's own oracles.

The kernel route runs on Python ints over one common denominator D, the lcm
of the input's denominators, with two inclusion-matrix operators between
adjacent subset layers: the down pass (sum over the supersets with one more
point) and the up pass (sum over the subsets with one point fewer).  Each
pass into or out of layer b costs C(n, b) * b integer adds.  Both read layer
b's face table, built once per (n, b) from subset bitmasks, with no subset
tuple, and held in a bounded cache in column form: b tuples, column k listing
the position of each b-subset minus its k-th point.  These columns are the
only table a `decompose` leaves behind.  An up pass is b C-level gathers over
the columns, and a down pass scatters over the same columns.
Down passes give the superset sums behind every conditional expectation; one
Horner chain of up passes per order l gives the kernel, and m - l more give
its component.  Each output vector is built from its integer numerators and
one denominator; no `Fraction` is made per entry.

The chain's coefficients are integers in closed form (see
`_chain_coefficients`): k(l, a) = (-1)^(l-a) C(m-a, l-a) perm(n-l+1, a) over
M_l = C(n-2l, m-l) perm(n-l+1, l).  It rests on two identities for the
`references.CoefficientTable` recursion, weight(l, j) = (-1)^(l-j)
C(n-j, l-j) / C(n-l-j+1, l-j) and ratio(l, j) = C(n-j, l-j) / C(n-2j, l-j).
The route itself never builds that table; the double-sum oracle in
`references` does, so the two check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb, factorial, perm
from operator import add
from typing import Iterable, Iterator

from .algebra import ModuleVector
from .combinatorics import _mask_index, check_shape
from .errors import DomainError


@lru_cache(maxsize=16)
def _face_columns(n: int, b: int) -> tuple[tuple[int, ...], ...]:
    """Layer b's face table in column form: b tuples of length C(n, b).

    Column k holds, for each b-subset B in canonical order, the position of B
    minus its k-th point among the (b-1)-subsets, found by the face's bitmask in
    `combinatorics._mask_index`, with no subset tuple.  That mask table is read
    once, here, so it is built uncached (`__wrapped__`) and dropped; the columns
    are built once per (n, b) and held in an LRU cache of fixed maxsize 16,
    which covers every layer of one `decompose` with m <= 16.
    """
    bits = [1 << a for a in range(n)]
    get = _mask_index.__wrapped__(n, b - 1).__getitem__
    faces = chain.from_iterable(map(combinations, combinations(bits, b), repeat(b - 1)))
    flat = list(map(get, map(sum, faces)))  # row by row; combinations drops the last point first
    return tuple(tuple(flat[b - 1 - k :: b]) for k in range(b))


def _up(lower: list[int], cols: tuple[tuple[int, ...], ...]) -> list[int]:
    """The up operator: (up V)(B) = sum of V over the faces of B.  b gathers, C(n,b)*b adds."""
    get = lower.__getitem__
    out = list(map(get, cols[0]))
    for col in cols[1:]:
        out = list(map(add, out, map(get, col)))
    return out


def _down(upper: list[int], cols: tuple[tuple[int, ...], ...], size: int) -> list[int]:
    """The down operator, transpose of `_up`: (down V)(A) = sum of V(A ∪ {j}) over j outside A."""
    out = [0] * size
    for col in cols:
        for i, v in zip(col, upper):
            out[i] += v
    return out


def _superset_sums(h: ModuleVector) -> tuple[int, list[list[int]]]:
    """Down passes: D and S_a for a = 0..m.

    S_a(A) is D times the sum of h over the m-subsets containing A, so that
    S_a(A) / (D * C(n-a, m-a)) is the conditional expectation of h given the
    points of A (`references.conditional_expectation`).  Each step
    divides the down pass exactly by m - a, the number of ways to add a point.
    """
    n, m = h.n, h.l
    sums = [h.numerators]
    for a in range(m - 1, -1, -1):
        down = _down(sums[-1], _face_columns(n, a + 1), comb(n, a))
        sums.append([s // (m - a) for s in down])
    sums.reverse()
    return h.denominator, sums


def _chain_coefficients(n: int, m: int, l: int) -> tuple[int, list[int]]:
    """Integer Horner coefficients k(l, a) for a = 0..l, and their common scale M_l:

        k(l, a) = (-1)^(l-a) * C(m-a, l-a) * perm(n-l+1, a),
        M_l = C(n-2l, m-l) * perm(n-l+1, l).

    k(l, a) / M_l = ratio(m, l) * weight(l, a) / (C(n-a, m-a) * (l-a)!), where
    weight(l, 0) = -sum over a >= 1 of C(l, a) * weight(l, a) subtracts the mean;
    at l = 0 this is 1 / C(n, m), the mean itself.  The closed form follows from
    weight(l, j) = (-1)^(l-j) * C(n-j, l-j) / C(n-l-j+1, l-j) and
    ratio(l, j) = C(n-j, l-j) / C(n-2j, l-j).
    """
    top = n - l + 1
    coeffs = [(-1) ** (l - a) * comb(m - a, l - a) * perm(top, a) for a in range(l + 1)]
    return comb(n - 2 * l, m - l) * perm(top, l), coeffs


def _chains(h: ModuleVector, orders: Iterable[int]) -> Iterator[tuple[int, list[int], int]]:
    """Check h's shape, run its down passes once, then one Horner chain per order l.

    Yields (l, v, scale): v / scale is the order-l kernel on the l-subsets,
    built from V_0 = k(l,0) * S_0 by V_{a+1} = up(V_a) + k(l,a+1) * S_{a+1}.
    """
    n, m = h.n, h.l
    check_shape(n, m)
    den, sums = _superset_sums(h)
    for l in orders:
        mult, coeffs = _chain_coefficients(n, m, l)
        v = [coeffs[0] * sums[0][0]]
        for a in range(1, l + 1):
            c = coeffs[a]
            v = [x + c * s for x, s in zip(_up(v, _face_columns(n, a)), sums[a])]
        yield l, v, mult * den


def _component(n: int, m: int, l: int, v: list[int], scale: int) -> ModuleVector:
    """The U-statistic lift of the layer-l vector v / scale: m - l up passes, then / (m-l)!."""
    for b in range(l + 1, m + 1):
        v = _up(v, _face_columns(n, b))
    return ModuleVector.from_numerators(n, m, v, scale * factorial(m - l))


def hoeffding_kernel(h: ModuleVector, l: int) -> ModuleVector:
    """The order-l completely degenerate kernel of h, on the l-subsets of [1..n].

    At each l-subset: ratio(m, l) times the weighted sum, over nonempty
    sub-assignments of the l points, of centered conditional expectations of h;
    computed by the down passes and one Horner chain of up passes.
    """
    if l < 1 or l > h.l:
        raise DomainError(f"kernel order l={l} outside [1..{h.l}]")
    _, v, scale = next(_chains(h, [l]))
    return ModuleVector.from_numerators(h.n, l, v, scale)


def u_statistic_lift(phi: ModuleVector, m: int) -> ModuleVector:
    """Lift an order-l kernel to m draws: f(K) = sum of phi over l-subsets of K.

    m - l up passes on integer numerators, divided by (m - l)! at the end.  For
    phi = indicator(J) the lift is the containment indicator K -> 1 if J ⊆ K else 0.
    On the span of `specht.specht_basis(n, l)` the lift is injective and lands
    exactly in the order-l symmetric Hoeffding space: it is fixed by
    project(., l) and killed by every other order.
    """
    n, l = phi.n, phi.l
    if l > m:
        raise DomainError(f"cannot lift order-{l} kernel to m={m} < {l} draws")
    if m > n:
        raise DomainError(f"cannot draw m={m} points from [1..{n}]")
    if l == m:
        return phi
    return _component(n, m, l, phi.numerators, phi.denominator)


def project(h: ModuleVector, l: int) -> ModuleVector:
    """Orthogonal projection of h onto the order-l symmetric Hoeffding space.

    l = 0 gives the constant mean vector; l >= 1 is the U-statistic lift of the
    order-l kernel.  Summing over l = 0..m reconstructs h exactly.
    """
    if l < 0 or l > h.l:
        raise DomainError(f"projection order l={l} outside [0..{h.l}]")
    _, v, scale = next(_chains(h, [l]))
    return _component(h.n, h.l, l, v, scale)


def is_completely_degenerate(phi: ModuleVector) -> bool:
    """True iff every conditional expectation of phi given l-1 points vanishes.

    Concretely: one down pass, the sum of phi(A ∪ {j}) over j outside A for
    every (l-1)-subset A, is zero everywhere.
    """
    n, l = phi.n, phi.l
    if l < 1:
        raise DomainError("degeneracy is defined for kernels of order >= 1")
    return not any(_down(phi.numerators, _face_columns(n, l), comb(n, l - 1)))


@dataclass(frozen=True)
class HoeffdingDecomposition:
    """The full orthogonal decomposition of a statistic of m draws.

    components[0] is the constant mean vector; components[l] for l >= 1 is
    the lift of kernels[l]; the components sum back to the input exactly and
    are pairwise orthogonal.
    """

    n: int
    m: int
    mean: Fraction
    kernels: dict[int, ModuleVector]  # l -> kernel on l-subsets, l = 1..m
    components: dict[int, ModuleVector]  # l -> component on m-subsets, l = 0..m

    def reconstruction(self) -> ModuleVector:
        total = ModuleVector.zero(self.n, self.m)
        for l in range(self.m + 1):
            total = total + self.components[l]
        return total


def decompose(h: ModuleVector) -> HoeffdingDecomposition:
    """Compute every kernel and component of h from one set of down passes.

    The superset sums S_0..S_m are computed once on integers over the common
    denominator D; each order l then costs one Horner chain of l up passes for
    its kernel and m - l more for its component, C(n, b) * b integer adds per
    pass into layer b.  Each output vector keeps its integer numerators,
    reduced by one joint gcd.
    """
    n, m = h.n, h.l
    mean = h.mean()
    kernels = {}
    components = {0: ModuleVector.constant(n, m, mean)}
    for l, v, scale in _chains(h, range(1, m + 1)):
        kernels[l] = ModuleVector.from_numerators(n, l, v, scale)
        components[l] = kernels[l] if l == m else _component(n, m, l, v, scale)
    return HoeffdingDecomposition(n, m, mean, kernels, components)
