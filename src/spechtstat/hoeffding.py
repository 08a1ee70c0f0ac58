"""Exact Hoeffding decomposition of symmetric statistics of draws without replacement.

A statistic is a `ModuleVector` h on the m-subsets of [1..n], read as
h(X(1), ..., X(m)) for the first m extractions without replacement.  This
module holds the kernel route and nothing else: the down and up passes, the
packed Horner chain built on them, the views `hoeffding_kernel`,
`u_statistic_lift`, `project` (the lift of its kernel) and
`is_completely_degenerate`, and `decompose`.  `decompose` runs the chain once
and returns a view that unpacks each component when it is looked up.  The
module computes, in exact rational arithmetic:

  * the order-l completely degenerate kernels and their U-statistic lifts,
  * the orthogonal projections onto each symmetric Hoeffding space.

The references it is checked against live apart from it, in `references`
(the per-subset conditional expectation, the n!-permutation
character-projection oracle, the double sum with its `CoefficientTable`, the
fixed-point route and the shift suite's pair counts) and in the test suite's
own oracles.

The kernel route runs on Python ints over one common denominator D, the lcm
of the input's denominators, with two inclusion-matrix operators between
adjacent subset layers: the down pass (sum over the supersets with one more
point) and the up pass (sum over the subsets with one point fewer).  Each
pass into or out of layer b costs C(n, b) * b integer adds.  Both read layer
b's face table, built once per (n, b) from subset bitmasks, with no subset
tuple, and held in a bounded cache in column form: b tuples, column k listing
the position of each b-subset minus its k-th point.  These columns are the
only table a `decompose` leaves behind.  An up pass is b gathers over the
columns, one list comprehension each, and a down pass scatters over the same
columns.
Down passes give the superset sums behind every conditional expectation.  One
Horner chain of up passes (`_chain`) then carries every order l at once, as a
bit lane of one int per subset: lane l of layer l is kernel l, and lane l of
layer m is its component.  So a `decompose` is m down passes and m up passes,
each visiting layer b once with C(n, b) * b adds of ints m lanes wide.  Each
output vector is built from its integer numerators and one denominator; no
`Fraction` is made per entry.  Timings are in `decompose`.

The chain's coefficients are integers in closed form (see
`_chain_coefficients`): k(l, a) = (-1)^(l-a) C(m-a, l-a) perm(n-l+1, a) over
M_l = C(n-2l, m-l) perm(n-l+1, l).  It rests on two identities for the
`references.CoefficientTable` recursion, weight(l, j) = (-1)^(l-j)
C(n-j, l-j) / C(n-l-j+1, l-j) and ratio(l, j) = C(n-j, l-j) / C(n-2j, l-j).
The route itself never builds that table; the double-sum oracle in
`references` does, so the two check each other.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb, factorial, perm
from typing import Iterator, NamedTuple, Sequence

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


def _up(lower: Sequence[int], cols: tuple[tuple[int, ...], ...]) -> list[int]:
    """The up operator: (up V)(B) = sum of V over the faces of B.  b gathers, C(n,b)*b adds.

    List comprehensions, as int + and [] compile to specialised bytecode there,
    which runs faster than map over operator.add or bound dunder methods.
    """
    out = [lower[i] for i in cols[0]]
    for col in cols[1:]:
        out = [x + lower[i] for x, i in zip(out, col)]
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


class _Packed(NamedTuple):
    """Layer a of `_chain`: one int per a-subset, lane l at bit offset width * (hi - l)."""

    n: int
    a: int
    ints: list[int]
    width: int
    hi: int
    half: int  # half_0: each lane of layer a is offset by half * a!
    scales: dict[int, int]  # l -> M_l * D


def _lane(layer: _Packed, l: int) -> ModuleVector:
    """Lane l of a packed layer as a vector: a shift, a mask and one subtraction per entry."""
    n, a, ints, width, hi, half, scales = layer
    s, mask, half_a = width * (hi - l), (1 << width) - 1, half * factorial(a)
    nums = [(x >> s & mask) - half_a for x in ints]
    return ModuleVector.from_numerators(n, a, nums, factorial(a - l) * scales[l])


def _chain(h: ModuleVector, orders: range) -> Iterator[_Packed]:
    """Check h's shape, run its down passes once, then one packed Horner chain for every order.

    Lane l, for l in orders, is the order-l chain, held at bit offset w * (hi - l)
    of one int per subset, hi = max(orders), so the lanes that still take a
    superset sum at layer a are the low ones.  With the packed coefficient
    K_a = sum over l >= a of k(l, a) * 2^(w (hi - l)), one up pass per layer
    advances every lane at once:

        V_0 = K_0 * S_0 + O_0,   V_a = up(V_{a-1}) + K_a * S_a   (a = 1..hi).

    At layer a, lane a is M_a * D times kernel a; at layer a >= l, lane l is
    (a - l)! * M_l * D times the lift of kernel l to a draws.  The offset O_0
    puts half_0 in every lane, and since an up pass into layer a multiplies a
    constant by a, layer a carries half_a = a! * half_0 in every lane.  A lane
    of layer a is then read with a shift, a mask and one subtraction of half_a.

    The lane width w rests on an exact bound, known before the chain runs:
    B_0 = |k(l, 0)| * max|S_0| and B_a = a * B_{a-1} + |k(l, a)| * max|S_a|
    (the last term for a <= l only) bound lane l at layer a.  B_a / a! never
    decreases, so with half_0 = ceil(max_l B_hi / hi!) every lane of layer a
    lies in [-half_a, half_a], and w = bits(half_hi) + 1 keeps each lane plus
    its offset in [0, 2^w): no lane borrows from or carries into another, and
    the same integers come out as from one chain per order.

    Yields each packed layer a = 1..hi as it is built, whose lanes `_lane`
    reads: kernel a is lane a of layer a, and layer hi, the last, holds the
    lift of every kernel to order hi.  A caller that keeps only the layer it
    is reading drops each layer once the next one is built.
    """
    n, m = h.n, h.l
    check_shape(n, m)
    den, sums = _superset_sums(h)
    hi = orders[-1]
    scales, coeffs = {}, {}
    for l in orders:
        scale, coeffs[l] = _chain_coefficients(n, m, l)
        scales[l] = scale * den
    peaks = [max(map(abs, s)) for s in sums[: hi + 1]]
    bound = 0
    for k in coeffs.values():
        b = 0
        for a, peak in enumerate(peaks):
            b = a * b + (abs(k[a]) * peak if a < len(k) else 0)
        bound = max(bound, b)
    half = -(-bound // factorial(hi))  # half_0, at least bound / hi!
    width = (factorial(hi) * half).bit_length() + 1
    shift = {l: width * (hi - l) for l in orders}

    def packed(a: int) -> int:
        return sum(coeffs[l][a] << shift[l] for l in orders if l >= a)

    v = [packed(0) * sums[0][0] + sum(half << s for s in shift.values())]
    for a in range(1, hi + 1):
        v = _up(v, _face_columns(n, a))
        k = packed(a)
        v = [x + k * y for x, y in zip(v, sums[a])]
        yield _Packed(n, a, v, width, hi, half, scales)


def hoeffding_kernel(h: ModuleVector, l: int) -> ModuleVector:
    """The order-l completely degenerate kernel of h, on the l-subsets of [1..n].

    At each l-subset: ratio(m, l) times the weighted sum, over nonempty
    sub-assignments of the l points, of centered conditional expectations of h;
    computed by the down passes and one Horner chain of l up passes (`_chain`
    with one lane), whose last layer is the only one kept and unpacked.
    """
    if l < 1 or l > h.l:
        raise DomainError(f"kernel order l={l} outside [1..{h.l}]")
    for layer in _chain(h, range(l, l + 1)):
        pass
    return _lane(layer, l)


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
    v = phi.numerators
    for b in range(l + 1, m + 1):
        v = _up(v, _face_columns(n, b))
    return ModuleVector.from_numerators(n, m, v, phi.denominator * factorial(m - l))


def project(h: ModuleVector, l: int) -> ModuleVector:
    """Orthogonal projection of h onto the order-l symmetric Hoeffding space.

    l = 0 gives the constant mean vector; l >= 1 is the U-statistic lift of the
    order-l kernel: `hoeffding_kernel`'s l up passes, then the m - l of
    `u_statistic_lift`.  Summing over l = 0..m reconstructs h exactly.
    """
    if l < 0 or l > h.l:
        raise DomainError(f"projection order l={l} outside [0..{h.l}]")
    if l:
        return u_statistic_lift(hoeffding_kernel(h, l), h.l)
    check_shape(h.n, h.l)
    return ModuleVector.constant(h.n, h.l, h.mean())


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
    are pairwise orthogonal.  Neither `decompose` nor `load_decomposition`
    keeps a component: the first unpacks each one from its packed chain on
    lookup, the second lifts kernel l on lookup, so a caller that reads a
    component twice should keep it in a local.
    """

    n: int
    m: int
    mean: Fraction
    kernels: dict[int, ModuleVector]  # l -> kernel on l-subsets, l = 1..m
    components: Mapping[int, ModuleVector]  # l -> component on m-subsets, l = 0..m

    def reconstruction(self) -> ModuleVector:
        total = ModuleVector.zero(self.n, self.m)
        for l in range(self.m + 1):
            total = total + self.components[l]
        return total


class _LiftedComponents(Mapping):
    """Components 0..m of a decomposition, each built from the kernels on lookup.

    Component 0 is the constant mean, component m is kernel m itself (its lift
    to order m is the identity), and component l in between is lane l of the
    packed top layer that `_chain` yields last (`_lane`), or, in a view that
    holds no packed layer (a loaded file's), `u_statistic_lift` of kernel l.
    This is the one statement of what a valid component is: the file loader
    builds this view over the kernels it has read and checks each component
    block against the view's component.  No component is kept, so a caller that
    reads one component at a time holds one component at a time, and one that
    reads a component twice builds it twice.
    """

    def __init__(
        self, n: int, m: int, mean: Fraction, kernels: dict[int, ModuleVector], top: _Packed | None = None
    ):
        self._n, self._m, self._mean, self._kernels, self._top = n, m, mean, kernels, top

    def __getitem__(self, l: int) -> ModuleVector:
        if l == 0:
            return ModuleVector.constant(self._n, self._m, self._mean)
        phi = self._kernels[l]
        if self._top is None or l == self._m:
            return u_statistic_lift(phi, self._m)
        return _lane(self._top, l)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._m + 1))

    def __len__(self) -> int:
        return self._m + 1

    def __repr__(self) -> str:
        return repr(dict(self))


def decompose(h: ModuleVector) -> HoeffdingDecomposition:
    """h's mean, kernels and components from m down passes and m up passes.

    The superset sums S_0..S_m are computed once on integers over the common
    denominator D; then one packed chain (`_chain`) carries all m orders as bit
    lanes of one int per subset, so each layer b is visited by one up pass,
    C(n, b) * b adds of ints m lanes wide.  Kernel a is unpacked from lane a
    of layer a as that layer arrives, and the top layer, the last, holds every
    component at once: `components` is a `_LiftedComponents` view over it,
    which unpacks a component each time it is looked up, one pass over the
    C(n, m) entries.  So a writer can read, format and drop the components one
    at a time, and a caller that reads a component twice should keep it in a
    local.  Each output vector keeps its integer numerators, reduced by one
    joint gcd.

    Median wall time in one process on `random_module_vector(n, m, 1)`,
    entries p/q with |p| <= 9 and q <= 9, without and with one read of every
    component (Python 3.11.7, 2 shared vCPUs): (12, 6) 2.8 and 3.9 ms,
    (16, 8) 53 and 78 ms, (18, 9) 0.30 and 0.42 s, and (20, 10) 4.1 and
    4.5 s, a first call that also builds the face columns.  Up passes: 6, 8,
    9 and 10; lane width 38, 49, 54 and 60 bits.
    """
    n, m = h.n, h.l
    kernels = {}
    for top in _chain(h, range(1, m + 1)):
        kernels[top.a] = _lane(top, top.a)
    mean = h.mean()
    return HoeffdingDecomposition(n, m, mean, kernels, _LiftedComponents(n, m, mean, kernels, top))
