"""
Graded bases and where a monomial sits
======================================

Each graded piece of the algebra has one fixed listing of its standard
monomials.  Rows and columns of every matrix in the package follow it, and
the block matrices of the paper's induction are built on how it splits over
the last variable.
"""
from math import comb

from slpkit import AlgebraSpec, basis_positions, graded_basis

###############################################################################
# Degree 2 in four square-free variables.  The first element is x1*x2, the
# last always involves the last variable.

spec = AlgebraSpec.quadratic(4)
listing = graded_basis(spec, 2)
for k, m in enumerate(listing):
    print(f"position {k}: {m}")

###############################################################################
# The order is decreasing reverse-lexicographic: sorting ascending by the
# reversed exponent tuple gives the listing back, for any killed powers.

mixed = AlgebraSpec(3, (3, 2, 4))
for t in range(mixed.socle_degree + 1):
    basis = graded_basis(mixed, t)
    assert list(basis) == sorted(basis, key=lambda m: m.exponents[::-1])
print(f"degree 3 of killed powers {mixed.exponents}: {', '.join(str(m) for m in graded_basis(mixed, 3))}")

###############################################################################
# basis_positions reads a monomial's row or column off the listing.

positions = basis_positions(spec, 2)
m = listing[4]
print(f"{m} lives at position {positions[m]} of degree {m.degree}")

###############################################################################
# Counting sanity: the degree-t listing in n square-free variables has
# C(n, t) elements.

for n in range(1, 7):
    sizes = [len(graded_basis(AlgebraSpec.quadratic(n), t)) for t in range(n + 1)]
    assert sizes == [comb(n, t) for t in range(n + 1)]
    print(f"n={n}: {sizes}")

###############################################################################
# The listing splits over the last variable: first every monomial without it,
# in the order of the listing on the first n-1 variables, then that variable
# times the previous degree's listing.  blockrec.decompose builds its blocks
# on exactly this split.

n, t = 5, 3
listing = graded_basis(AlgebraSpec.quadratic(n), t)
without = [m.exponents[:-1] for m in listing if m.exponents[-1] == 0]
with_last = [m.exponents[:-1] for m in listing if m.exponents[-1] == 1]
restricted = AlgebraSpec.quadratic(n - 1)
print(f"degree {t} in {n} variables: {len(without)} without x{n}, {len(with_last)} with")
assert without == [m.exponents for m in graded_basis(restricted, t)]
assert with_last == [m.exponents for m in graded_basis(restricted, t - 1)]
assert [m.exponents[-1] for m in listing] == [0] * len(without) + [1] * len(with_last)
