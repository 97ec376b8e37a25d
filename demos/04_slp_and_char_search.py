"""
Strong Lefschetz verdicts
=========================

A form has the strong Lefschetz property when every power of it multiplies
one graded piece onto another with maximal rank.  The dimension vectors of
these algebras are symmetric, so only the square "middle" maps need
checking, in any characteristic.
"""
from slpkit import AlgebraSpec, LinearForm, char_search, slp_check

###############################################################################
# Over the rationals the sum of variables works in every square-free algebra.

for n in (3, 6, 9):
    report = slp_check(AlgebraSpec.quadratic(n), LinearForm.ones(n))
    print(f"n={n}: slp={report.slp} ({len(report.maps)} maps, {report.total_ms:.1f} ms)")

###############################################################################
# In small characteristic the property can fail; the report says where.

report = slp_check(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3))
print(f"n=3 mod 2: slp={report.slp}, failing maps {report.failures}")

###############################################################################
# Scanning primes separates small characteristic from large.  For four
# variables exactly 2 and 3 fail.  Each prime gets slp_check's full report.

reports = char_search(AlgebraSpec.quadratic(4), LinearForm.ones(4), (2, 3, 5, 7, 11, 13))
for r in reports:
    verdict = "holds" if r.slp else f"fails at {r.failures}"
    print(f"p={r.spec.characteristic}: {verdict}")

###############################################################################
# Other killed powers check their middle maps too; mode="full" runs every
# power and reaches the same verdict.

spec = AlgebraSpec(2, (3, 4))
report = slp_check(spec, LinearForm.ones(2))
full = slp_check(spec, LinearForm.ones(2), mode="full")
print(f"killed powers (3,4): slp={report.slp} across {len(report.maps)} middle maps")
print(f"  mode='full': slp={full.slp} across {len(full.maps)} maps")

###############################################################################
# A zero coefficient always breaks the property: the top power of the form
# cannot reach the socle.

report = slp_check(AlgebraSpec.quadratic(3), LinearForm((1, 0, 1)))
print(f"form with a zero coefficient: slp={report.slp}")
