"""
Embedding into a square-free algebra
====================================

Substituting a block sum of fresh variables for each original variable
embeds any of these algebras into the square-free one on m variables, m the
socle degree.  The substitution respects the defining relations exactly,
scales the socle by a product of factorials, and transfers strong Lefschetz
verdicts between source and target.
"""
from slpkit import (
    EmbeddingSpec,
    phi_monomial,
    phi_matrix,
    transfer_slp,
    verify_kernel_dims,
    verify_socle_image,
)

###############################################################################
# Two variables with socle exponents (2, 2): y1 -> x1 + x2, y2 -> x3 + x4.

es = EmbeddingSpec.from_powers((2, 2))
print("source killed powers:", es.source_spec.exponents)
print("target variables:", es.m)
img = phi_monomial(es, (1, 0))
print("image of y1:", img)

###############################################################################
# The socle monomial y1^2 y2^2 lands on 2! * 2! times x1 x2 x3 x4.

socle = verify_socle_image(es)
print(f"socle scalar {socle.scalar}, non-zero: {socle.nonzero}, verified: {socle.ok}")

###############################################################################
# Injectivity is certified degree by degree: the substitution matrix of each
# graded piece has full column rank.

kernel = verify_kernel_dims(es)
for d in kernel.degrees:
    print(f"degree {d.degree}: rank {d.rank} of a {d.dim_target}x{d.dim_source} matrix, ok={d.ok}")

###############################################################################
# The degree-1 matrix for (2, 1) shows the block structure directly.

small = EmbeddingSpec.from_powers((2, 1))
print(phi_matrix(small, 1).to_rows())

###############################################################################
# Lefschetz verdicts transfer: deciding the property upstairs on the
# square-free algebra agrees with the direct computation downstairs.

rec = transfer_slp(es)
print(f"direct: {rec.slp_direct}, via embedding: {rec.slp_via_embedding}, agree: {rec.agree}")

###############################################################################
# In characteristic 3 the scalar 2!*3! of the (2, 3) embedding dies, and the
# per-degree ranks report exactly where injectivity is lost.

bad = EmbeddingSpec.from_powers((2, 3), 3)
print("socle scalar mod 3:", verify_socle_image(bad).scalar_in_field)
print("all degrees injective:", verify_kernel_dims(bad).all_ok)
