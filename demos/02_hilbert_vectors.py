"""
Graded dimensions
=================

hilbert_vector gives the graded dimensions (h_0, ..., h_m) as a plain tuple.
Every algebra here has a symmetric unimodal one, which this demo checks; the
middle dimensions are the sizes of the matrices whose ranks decide
everything else.
"""
from slpkit import AlgebraSpec, graded_basis, hilbert_vector

###############################################################################
# Square-free algebras give rows of Pascal's triangle.

for n in range(1, 9):
    hv = hilbert_vector(AlgebraSpec.quadratic(n))
    print(f"n={n}: {','.join(str(h) for h in hv)}")

###############################################################################
# Mixed killed powers flatten the profile but keep symmetry and unimodality.

for bounds in ((3, 4), (2, 3, 4), (3, 3, 3), (5, 2)):
    spec = AlgebraSpec(len(bounds), bounds)
    hv = hilbert_vector(spec)
    m = spec.socle_degree
    print(f"killed powers {bounds}: {hv} (socle degree {m})")
    assert hv == hv[::-1], "h_i = h_(m-i)"
    assert all(hv[j] <= hv[j + 1] for j in range(m // 2)), "rising to the middle"

###############################################################################
# The vector counts actual basis monomials, degree by degree.

spec = AlgebraSpec(2, (3, 3))
for t in range(spec.socle_degree + 1):
    names = ", ".join(str(m) for m in graded_basis(spec, t))
    print(f"degree {t} ({spec.dim(t)}): {names}")
