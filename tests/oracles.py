"""Independent brute-force oracles used only by the tests.

Everything here recomputes library results from first principles along a
different route: subset scanning instead of generating polynomials, exact
least-squares against lifted-indicator spans instead of the coefficient
recursion, a reversed-pivot elimination for ranks, subset images one point
at a time, standard tableaux counted by enumeration, and lifts, degeneracy
tests and the two inclusion-matrix passes themselves, found by set containment
over `itertools.combinations` instead of the library's face tables, and the
n!-walk of `references` done one permutation at a time over full subset-image
tables instead of read at a few positions and moved by conjugation.

Permutations are composed, inverted, counted and built as plain image tuples,
images[a-1] = x(a), by `compose`, `invert`, `fixed_points` and
`transposition`, so the library's `Permutation` needs none of these
operations; `cycle_lengths` recounts its cycle types on the same tuples.
`polytabloid_by_column_product` builds a polytabloid as the
literal product of (1 - (i j)) over its column pairs, applied to a dense
indicator, with these helpers and no code of `specht`.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

from spechtstat import (
    DomainError,
    ModuleVector,
    Permutation,
    Subset,
    Tableau,
    enumerate_permutations,
    enumerate_subsets,
    indicator,
    inner_product,
    standard_tableaux,
)
from spechtstat.combinatorics import subset_images


Images = tuple[int, ...]


def compose(x: Images, y: Images) -> Images:
    """The image tuple of x after y: a -> x(y(a))."""
    return tuple(x[b - 1] for b in y)


def invert(x: Images) -> Images:
    """The image tuple of the inverse of x."""
    inv = [0] * len(x)
    for a, b in enumerate(x, start=1):
        inv[b - 1] = a
    return tuple(inv)


def fixed_points(x: Images) -> int:
    """The number of points a with x(a) = a."""
    return sum(1 for a, b in enumerate(x, start=1) if a == b)


def cycle_lengths(x: Images) -> tuple[int, ...]:
    """The lengths of x's cycles, each followed from its least point, largest first."""
    lengths, seen = [], set()
    for start in range(1, len(x) + 1):
        length, a = 0, start
        while a not in seen:
            seen.add(a)
            a = x[a - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def transposition(n: int, i: int, j: int) -> Images:
    """The image tuple of the permutation of [1..n] swapping i and j."""
    assert 1 <= i <= n and 1 <= j <= n and i != j
    return tuple(j if a == i else i if a == j else a for a in range(1, n + 1))


def _image(img: Images, s: Subset) -> Subset:
    return tuple(sorted(img[j - 1] for j in s))


def apply_perm_to_subset(x: Permutation, s: Subset) -> Subset:
    """Pointwise image {x(j) : j in s}, re-sorted ascending."""
    img = x.images
    n = len(img)
    if any(j < 1 or j > n for j in s):
        raise DomainError(f"subset {s} not contained in [1..{n}]")
    return _image(img, s)


def polytabloid_by_column_product(t: Tableau) -> ModuleVector:
    """The product over t's column pairs (i, j) of (1 - (i j)), applied factor by
    factor to the dense indicator of t's bottom-row set.  Each factor moves every
    entry of a {subset: value} table to its image under the transposition's
    image tuple, (x f)(x S) = f(S), and subtracts the moved table."""
    n, m = t.n, t.m
    bottom = tuple(sorted(t.bottom_row))
    f = {S: Fraction(int(S == bottom)) for S in combinations(range(1, n + 1), m)}
    for i, j in zip(t.top_row, t.bottom_row):
        swap = transposition(n, i, j)
        moved = {_image(swap, S): v for S, v in f.items()}
        f = {S: v - moved[S] for S, v in f.items()}
    return ModuleVector(n, m, list(f.values()))


def standard_tableau_count(n: int, l: int) -> int:
    """Number of standard two-row tableaux, counted by direct enumeration."""
    if l < 0 or 2 * l > n:
        raise DomainError(f"shape ({n - l},{l}) is not a valid two-row shape")
    if l == 0:
        return 1
    return len(standard_tableaux(n, l))


def brute_fixed_subset_count(x: Permutation, l: int) -> int:
    """Count setwise-fixed l-subsets by scanning every subset."""
    return sum(1 for s in enumerate_subsets(x.n, l) if apply_perm_to_subset(x, s) == s)


def perm_average_inner_product(f: ModuleVector, g: ModuleVector) -> Fraction:
    """(1/n!) * sum over all permutations x of f(x{1..m}) g(x{1..m})."""
    assert (f.n, f.l) == (g.n, g.l)
    base = tuple(range(1, f.l + 1))
    total = Fraction(0)
    for x in enumerate_permutations(f.n, ceiling=None):
        s = apply_perm_to_subset(x, base)
        total += f[s] * g[s]
    return total / factorial(f.n)


def rank_reversed_pivots(vectors) -> int:
    """Rank by Gaussian elimination scanning columns right-to-left and picking
    the last candidate row: a deliberately different pivot path."""
    if not vectors:
        return 0
    rows = [list(v.values) for v in vectors]
    ncols = len(rows[0])
    pivot = 0
    for col in range(ncols - 1, -1, -1):
        hit = None
        for r in range(len(rows) - 1, pivot - 1, -1):
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
            ratio = factor / pval
            for c in range(ncols):
                if prow[c]:
                    rows[r][c] -= ratio * prow[c]
        pivot += 1
        if pivot == len(rows):
            break
    return pivot


def solve_exact(matrix, rhs):
    """Solve a square nonsingular rational system by elimination with the
    largest-absolute-value pivot."""
    k = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        pval = a[col][col]
        for r in range(k):
            if r == col or a[r][col] == 0:
                continue
            ratio = a[r][col] / pval
            for c in range(col, k + 1):
                a[r][c] -= ratio * a[col][c]
    return [a[i][k] / a[i][i] for i in range(k)]


def lifted_indicator(n: int, points, m: int) -> ModuleVector:
    """Containment indicator K -> 1 if points ⊆ K else 0, built directly."""
    points = tuple(sorted(points))
    vals = [Fraction(1) if set(points) <= set(K) else Fraction(0) for K in enumerate_subsets(n, m)]
    return ModuleVector(n, m, vals)


def _numerators_by_subset(f: ModuleVector) -> tuple[int, dict]:
    """The lcm of f's denominators, and {subset: that lcm times f(subset)} as ints."""
    den = lcm(*(v.denominator for v in f.values))
    subsets = combinations(range(1, f.n + 1), f.l)
    return den, {s: int(v * den) for s, v in zip(subsets, f.values)}


def subset_scan_lift(phi: ModuleVector, m: int) -> ModuleVector:
    """U-statistic lift f(K) = sum of phi(J) over the l-subsets J of K, found by
    scanning itertools.combinations(K, l) for every m-subset K."""
    den, at = _numerators_by_subset(phi)
    out = [
        Fraction(sum(at[J] for J in combinations(K, phi.l)), den)
        for K in combinations(range(1, phi.n + 1), m)
    ]
    return ModuleVector(phi.n, m, out)


def degenerate_by_subset_scan(phi: ModuleVector) -> bool:
    """True iff, for every (l-1)-subset A, phi(A + {j}) summed over j outside A is 0."""
    n, l = phi.n, phi.l
    _, at = _numerators_by_subset(phi)
    for A in combinations(range(1, n + 1), l - 1):
        if sum(at[tuple(sorted(A + (j,)))] for j in range(1, n + 1) if j not in A):
            return False
    return True


def naive_up(lower: list[int], n: int, b: int) -> list[int]:
    """(up V)(B) = sum of V(A) over the (b-1)-subsets A contained in B, for every
    b-subset B of [1..n] in lexicographic order; V is listed on the (b-1)-subsets."""
    below = [set(A) for A in combinations(range(1, n + 1), b - 1)]
    return [
        sum(v for A, v in zip(below, lower) if A <= set(B))
        for B in combinations(range(1, n + 1), b)
    ]


def naive_down(upper: list[int], n: int, b: int) -> list[int]:
    """(down V)(A) = sum of V(B) over the b-subsets B containing A, for every
    (b-1)-subset A of [1..n] in lexicographic order; V is listed on the b-subsets."""
    above = [set(B) for B in combinations(range(1, n + 1), b)]
    return [
        sum(v for B, v in zip(above, upper) if set(A) <= B)
        for A in combinations(range(1, n + 1), b - 1)
    ]


def least_squares_onto_lifted_span(h: ModuleVector, l: int) -> ModuleVector:
    """Orthogonal projection of h onto the span of all lifted order-l indicators,
    via exact normal equations.  l = 0 projects onto constants."""
    n, m = h.n, h.l
    if l == 0:
        return ModuleVector.constant(n, m, h.mean())
    basis = [subset_scan_lift(indicator(n, J), m) for J in enumerate_subsets(n, l)]
    gram = [[inner_product(u, v) for v in basis] for u in basis]
    rhs = [inner_product(u, h) for u in basis]
    coeffs = solve_exact(gram, rhs)
    out = ModuleVector.zero(n, m)
    for c, v in zip(coeffs, basis):
        out = out + c * v
    return out


def hoeffding_projection_by_least_squares(h: ModuleVector, l: int) -> ModuleVector:
    """project(h, l) recomputed as the difference of two exact least-squares
    projections: onto the order-l lifted span minus onto the order-(l-1) span."""
    if l == 0:
        return ModuleVector.constant(h.n, h.l, h.mean())
    return least_squares_onto_lifted_span(h, l) - least_squares_onto_lifted_span(h, l - 1)


def brute_isotypic_projection(f: ModuleVector, l: int, chi) -> ModuleVector:
    """Literal per-permutation group average with caller-supplied character
    values: (dim/n!) sum_x chi(x) f(x^{-1} K).  No weight-matrix shortcut."""
    from spechtstat import dimension

    n, m = f.n, f.l
    out = []
    for K in enumerate_subsets(n, m):
        total = Fraction(0)
        for x in enumerate_permutations(n, ceiling=None):
            total += chi(x) * f[_image(invert(x.images), K)]
        out.append(Fraction(dimension(n, l), factorial(n)) * total)
    return ModuleVector(n, m, out)


def fixed_point_walk(f: ModuleVector) -> ModuleVector:
    """Order-1 projection as the literal walk: at each m-subset J, (n-1)/n! times
    the sum over every permutation x of (fix(x) - 1) f(x J), with fix(x) counted
    point by point and x J read from x's full table of subset images."""
    n, m = f.n, f.l
    nums = f.numerators
    acc = [0] * len(nums)
    for x in enumerate_permutations(n, ceiling=None):
        w = fixed_points(x.images) - 1
        if w:
            acc = [a + w * nums[p] for a, p in zip(acc, subset_images(x, m))]
    return ModuleVector.from_numerators(
        n, m, [(n - 1) * a for a in acc], factorial(n) * f.denominator
    )


def orbit_counts_from_tables(n: int, m: int) -> dict[tuple[int, ...], Counter]:
    """For each cycle type, how many permutations of that type send each m-subset
    J onto each K: a Counter of the position pairs (x(J), J) over every J, read
    from x's full table of subset images."""
    counts: dict[tuple[int, ...], Counter] = {}
    positions = range(len(enumerate_subsets(n, m)))
    for x in enumerate_permutations(n, ceiling=None):
        counts.setdefault(cycle_lengths(x.images), Counter()).update(
            zip(subset_images(x, m), positions)
        )
    return counts


def shift_pairs_from_tables(n: int, m: int) -> list[Counter]:
    """For each overlap r = 0..m, how many permutations x send ({1..m}, k_r) to
    each pair of positions, k_r = {1..r, m+1..2m-r}, read from x's full table of
    subset images."""
    idx = {s: i for i, s in enumerate(combinations(range(1, n + 1), m))}
    overlap = [
        idx[tuple(range(1, r + 1)) + tuple(range(m + 1, 2 * m - r + 1))] for r in range(m + 1)
    ]
    pairs = [Counter() for _ in range(m + 1)]
    for x in enumerate_permutations(n, ceiling=None):
        img = subset_images(x, m)
        for r, k in enumerate(overlap):
            pairs[r][img[0], img[k]] += 1
    return pairs


def combinations_of(population, r):
    return combinations(population, r)
