"""Acceptance runs: nine headline checks, one verdict line each.

Run with output visible to see the verdict lines:

    pytest tests/test_acceptance.py -v -s

Correctness is asserted exactly.  Wall-clock budgets are asserted with a 2x
slack over the intended envelope so slow shared hardware does not turn a
correct run into a red one; the measured time is printed either way.
"""
from itertools import product as iproduct
from math import comb, factorial, prod
import random
import time

import pytest

from slpkit.blockrec import decompose, recursive_middle_rank
from slpkit.embedding import EmbeddingSpec, transfer_slp, verify_kernel_dims, verify_socle_image
from slpkit.exactmat import (
    ExactMatrix,
    block_assemble,
    certified_rank,
    determinant,
    mat_mul,
    rank_fraction_free,
    rank_mod_p,
)
from slpkit.lefschetz import LinearForm, build_matrix, char_search, slp_check
from slpkit.quotient import AlgebraSpec

GOLDEN = [[2, 2, 2, 0], [2, 2, 0, 2], [2, 0, 2, 2], [0, 2, 2, 2]]


def _verdict(number, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {number}] {status}: {description} ({elapsed:.2f} s, budget {budget:.0f} s)")
    assert ok, f"acceptance {number}: {description}"
    assert elapsed < budget, f"acceptance {number} exceeded {budget} s"


def test_acceptance_1_golden_matrix():
    start = time.perf_counter()
    mm = build_matrix(AlgebraSpec.quadratic(4), LinearForm.ones(4), 1, 2)
    build_s = time.perf_counter() - start
    ok = (
        mm.matrix.to_rows() == GOLDEN
        and determinant(mm.matrix) == -48
        and rank_fraction_free(mm.matrix).rank == 4
        and rank_mod_p(mm.matrix, 5).rank == 4
        and rank_mod_p(mm.matrix, 3).rank == 3
        and rank_mod_p(mm.matrix, 2).rank == 0
    )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "golden 4x4 power-two map: entries, determinant -48, ranks mod 2/3/5",
        ok and build_s < 0.25,
        elapsed,
        1.0,
    )


def test_acceptance_2_quadratic_sweep_both_methods():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        spec = AlgebraSpec.quadratic(n)
        form = LinearForm.ones(n)
        for method in ("dense", "auto"):
            report = slp_check(spec, form, method=method)
            ok = ok and report.slp and not report.failures
    _verdict(
        2,
        "square-free algebras hold through 10 variables, dense and recursive",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_acceptance_3_all_small_killed_power_tuples():
    start = time.perf_counter()
    specs = [
        AlgebraSpec(n, bounds)
        for n in (1, 2, 3)
        for bounds in iproduct((2, 3, 4), repeat=n)
    ]
    ok = len(specs) == 39
    for spec in specs:
        report = slp_check(spec, LinearForm.ones(spec.n), mode="full", method="dense")
        ok = ok and report.slp
    _verdict(
        3,
        "every killed-power tuple with n<=3, d<=4 passes the full check (39 specs)",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_4_characteristic_scan():
    start = time.perf_counter()
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    ok = True
    for n in (3, 4, 5):
        reports = char_search(AlgebraSpec.quadratic(n), LinearForm.ones(n), primes)
        failing = {r.spec.characteristic for r in reports if not r.slp}
        ok = ok and failing == {p for p in primes if p <= n}
    _verdict(
        4,
        "prime scan 2..31: failures are exactly the primes up to n (n=3,4,5)",
        ok,
        time.perf_counter() - start,
        20.0,
    )


def test_acceptance_5_pivot_block_identity_trials():
    start = time.perf_counter()
    rng = random.Random(101)
    p = 101
    violations = 0
    for _ in range(500):
        adim, ndim, bdim = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        while True:
            pivot = ExactMatrix.from_rows(
                [[rng.randrange(p) for _ in range(ndim)] for _ in range(ndim)], p
            )
            if rank_mod_p(pivot, p).rank == ndim:
                break
        a = ExactMatrix.from_rows([[rng.randrange(p) for _ in range(ndim)] for _ in range(adim)], p)
        b = ExactMatrix.from_rows([[rng.randrange(p) for _ in range(bdim)] for _ in range(ndim)], p)
        # rank [[AP, 0], [P, PB]] = size(P) + rank(APB) for nonsingular P
        ap = mat_mul(a, pivot)
        assembled = block_assemble(ap, ExactMatrix.zeros(adim, bdim, p), pivot, mat_mul(pivot, b))
        if certified_rank(assembled).rank != ndim + certified_rank(mat_mul(ap, b)).rank:
            violations += 1
    _verdict(
        5,
        "pivot-block rank identity on 500 random F_101 instances, no violations",
        violations == 0,
        time.perf_counter() - start,
        10.0,
    )


def test_acceptance_6_block_split_soundness():
    start = time.perf_counter()
    rng = random.Random(606)
    ok = True
    for n in range(2, 9):
        spec = AlgebraSpec.quadratic(n)
        forms = (
            LinearForm.ones(n),
            LinearForm(tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))),
        )
        for form in forms:
            for i in range(1, n):
                for t in range(1, n - i + 1):
                    dec = decompose(spec, form, i, t)
                    ok = ok and dec.assemble() == build_matrix(spec, form, i, t).matrix
    _verdict(
        6,
        "block split equals the directly built matrix for every (i, t) through n=8",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_acceptance_7_recursive_equals_dense():
    start = time.perf_counter()
    ok = True
    for n in range(1, 11):
        spec = AlgebraSpec.quadratic(n)
        form = LinearForm.ones(n)
        for i in range((n + 1) // 2):
            rec = recursive_middle_rank(spec, form, i, n - 2 * i)
            dense = rank_fraction_free(build_matrix(spec, form, i, n - 2 * i).matrix)
            ok = ok and rec.rank == dense.rank and rec.notes == ()
    _verdict(
        7,
        "recursive middle ranks match exact dense elimination through n=10",
        ok,
        time.perf_counter() - start,
        240.0,
    )


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


@pytest.mark.slow
def test_acceptance_8_all_embeddings_up_to_eight():
    start = time.perf_counter()
    tuples = [powers for m in range(1, 9) for powers in _compositions(m)]
    ok = len(tuples) == 255
    for powers in tuples:
        es = EmbeddingSpec.from_powers(powers)
        socle = verify_socle_image(es)
        ok = ok and socle.ok and socle.nonzero
        ok = ok and socle.scalar == prod(factorial(a) for a in powers)
        ok = ok and verify_kernel_dims(es).all_ok
        rec = transfer_slp(es)
        ok = ok and rec.slp_direct and rec.slp_via_embedding
    _verdict(
        8,
        "all 255 embeddings with m<=8: socle scalar, injectivity, transfer",
        ok,
        time.perf_counter() - start,
        120.0,
    )


def test_acceptance_9_power_composition():
    start = time.perf_counter()
    rng = random.Random(909)
    ok = True
    for n in range(1, 7):
        spec = AlgebraSpec.quadratic(n)
        forms = (
            LinearForm.ones(n),
            LinearForm(tuple(rng.choice([-2, -1, 1, 2]) for _ in range(n))),
        )
        for form in forms:
            for i in range(n + 1):
                for s in range(1, n - i + 1):
                    for t in range(1, n - i - s + 1):
                        whole = build_matrix(spec, form, i, s + t).matrix
                        left = build_matrix(spec, form, i + s, t).matrix
                        right = build_matrix(spec, form, i, s).matrix
                        ok = ok and mat_mul(left, right) == whole
    _verdict(
        9,
        "power maps compose: the (s+t)-power map factors through every split",
        ok,
        time.perf_counter() - start,
        20.0,
    )
