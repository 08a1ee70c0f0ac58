"""Walkthrough: two-row tableaux, polytabloids, and the Specht basis.

Builds the classic four-term polytabloid at n = 6, shows the column structure
of a tableau, and checks that standard polytabloids span a space of the
predicted dimension.  Run as: python demos/02_specht_polytabloids.py
"""

from spechtstat import (
    Permutation,
    Tableau,
    act,
    dimension,
    polytabloid,
    rank_of_span,
    specht_basis,
    standard_tableaux,
)

t = Tableau((2, 1, 3), (5, 4))
print(f"tableau {t.text()} on [1..5]:")
print("  columns:", t.columns())
print("  tabloid bottom block:", tuple(sorted(t.bottom_row)))

print("\nthe four-term polytabloid at n = 6:")
t6 = Tableau((1, 2, 3, 4), (5, 6))
pt = polytabloid(t6)
terms = " ".join(
    f"{'+' if v > 0 else '-'} 1_{{{','.join(map(str, s))}}}" for s, v in pt.items() if v
)
print(f"  kappa applied to 1_{{5,6}} = {terms.lstrip('+ ')}")

print("\nstandard tableaux of shape (4,2):")
for st in standard_tableaux(6, 2):
    print(f"  {st.text()}")

print("\nbasis ranks equal the irreducible dimensions:")
for n, l in ((4, 2), (6, 2), (6, 3), (8, 2)):
    basis = specht_basis(n, l)
    print(f"  shape ({n - l},{l}): {len(basis)} polytabloids, "
          f"rank {rank_of_span(basis)}, dimension {dimension(n, l)}")

print("\nthe construction is equivariant: relabeling the tableau relabels the vector")
x = Permutation.from_cycles(6, (1, 5), (2, 6))
print("  polytabloid(x t) == x . polytabloid(t):", polytabloid(t6.apply(x)) == act(x, pt))
