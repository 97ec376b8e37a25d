"""
Splitting off the last variable
===============================

Ordering the square-free basis by the last variable turns every
multiplication matrix into four blocks built from the algebra on one fewer
variable.  For the square middle maps the split collapses the rank
computation to a recursion, which is much cheaper than eliminating the
full matrix.  Through the block-sum embedding the same recursion decides
the middle maps of every spec.
"""
import time

from slpkit import (
    AlgebraSpec,
    LinearForm,
    build_matrix,
    decompose,
    rank_fraction_free,
    recursive_middle_rank,
    slp_check,
)

###############################################################################
# The four-variable golden matrix, split.  Top-left is the restricted map of
# the same power, bottom-right the restricted map one degree down, and the
# bottom-left block carries the scalar (last coefficient) * (power).

spec = AlgebraSpec.quadratic(4)
form = LinearForm.ones(4)
dec = decompose(spec, form, 1, 2)
print("top-left:   ", dec.top_left.to_rows())
print("bottom-left:", dec.bottom_left.to_rows(), "scalar", dec.bottom_left_scalar)
print("bottom-right:", dec.bottom_right.to_rows())
assert dec.assemble() == build_matrix(spec, form, 1, 2).matrix

###############################################################################
# The recursion against dense elimination on the widest middle map for
# each variable count.  Both are exact; the recursion is the paper's
# induction on variables, whose steps and 1x1 base maps l^k: A_0 -> A_k are
# invertible in characteristic 0 with no zero coefficient, so it checks
# those hypotheses and builds only the 1x1 socle map l^n: A_0 -> A_n.

for n in (8, 9, 10):
    spec = AlgebraSpec.quadratic(n)
    form = LinearForm.ones(n)
    i = (n - 1) // 2
    t = n - 2 * i

    t0 = time.perf_counter()
    rec = recursive_middle_rank(spec, form, i)
    t1 = time.perf_counter()
    mm = build_matrix(spec, form, i, t)
    dense = rank_fraction_free(mm.matrix)
    t2 = time.perf_counter()

    assert rec.rank == dense.rank
    print(
        f"n={n}, map {mm.matrix.rows}x{mm.matrix.cols}: rank {rec.rank}"
        f" (recursive {1e3 * (t1 - t0):.1f} ms, dense {1e3 * (t2 - t1):.1f} ms)"
    )

###############################################################################
# When the structured path's preconditions fail (here a zero coefficient),
# the rank comes from the Jordan-type fold, which builds no map either, and
# the notes say why the recursion was not used.

rr = recursive_middle_rank(AlgebraSpec.quadratic(4), LinearForm((1, 1, 1, 0)), 1)
print(f"rank {rr.rank} by {rr.method}, notes: {rr.notes}")

###############################################################################
# Any other spec reaches the same induction through the block-sum embedding.
# On killed powers (3, 4, 5) the form 2x1 - x2 + 3x3 becomes the square-free
# form (2, 2, -1, -1, -1, 3, 3, 3, 3) on m = 9 variables, whose middle maps
# the induction makes bijective; the dense check of every power agrees.

spec = AlgebraSpec(3, (3, 4, 5))
form = LinearForm((2, -1, 3))
report = slp_check(spec, form)
full = slp_check(spec, form, mode="full", method="dense")
assert report.slp == full.slp
methods = sorted({c.method for c in report.maps})
print(f"killed powers (3, 4, 5): SLP {'holds' if report.slp else 'fails'} by {methods};"
      f" the dense check of all {len(full.maps)} powers agrees")
