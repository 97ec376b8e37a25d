"""The closed forms against slpkit at sizes elimination reaches easily."""
import random

import pytest

import closed_forms as cf
from slpkit import AlgebraSpec, LinearForm, build_matrix, certified_rank, hilbert_vector, rank_mod_p


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
def test_wilson_rank_matches_elimination(p):
    for n in range(1, 9):
        spec = AlgebraSpec.quadratic(n, p)
        for i in range(n):
            for t in range(1, n - i + 1):
                mat = build_matrix(spec, LinearForm.ones(n), i, t).matrix
                got = rank_mod_p(mat, p).rank if p else certified_rank(mat).rank
                assert got == cf.wilson_rank(n, i, t, p), (n, i, t, p)


def test_tensor_rank_matches_elimination():
    rng = random.Random(8)
    for n in range(1, 9):
        for k in range(n + 1):
            coeffs = [rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for _ in range(n)]
            for z in rng.sample(range(n), k):
                coeffs[z] = 0
            form = LinearForm(tuple(coeffs))
            for i in range(n):
                for t in range(1, n - i + 1):
                    mat = build_matrix(AlgebraSpec.quadratic(n), form, i, t).matrix
                    assert certified_rank(mat).rank == cf.tensor_rank(n, k, i, t), (coeffs, i, t)


def test_counts():
    assert cf.primes_between(2, 31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    comps = cf.compositions(8)
    assert len(comps) == len(set(comps)) == 128
    assert all(sum(c) == 8 and min(c) >= 1 for c in comps)
    for bounds in [(2,), (3, 2), (2, 4, 3), (5, 5, 2, 2)]:
        spec = AlgebraSpec(len(bounds), bounds)
        assert cf.hilbert(bounds) == list(hilbert_vector(spec))


def test_checks_report_wrong_verdicts():
    good = [(i, 6 - 2 * i, cf.binom(6, i), True) for i in range(3)]
    assert cf.check_squarefree_q(6, good, True) == []
    assert cf.check_squarefree_q(6, good[:2], True)  # a middle map went unchecked
    assert cf.check_squarefree_q(6, [(0, 6, 0, False)] + good[1:], False)

    maps = [(i, t, cf.tensor_rank(6, 2, i, t), False) for i, t in cf.middle_pairs(6)]
    assert cf.check_deficit_q(6, 2, maps, False) == []
    assert cf.check_deficit_q(6, 2, maps, True)
    bumped = [(i, t, r + 1, mx) for i, t, r, mx in maps]
    assert cf.check_deficit_q(6, 2, bumped, False)

    def probes(drop=None):
        out = []
        for p in cf.primes_between(2, 7):
            failing = [[i, t] for i, t in cf.middle_pairs(5) if cf.wilson_rank(5, i, t, p) < cf.binom(5, i)]
            if p == drop:
                failing = failing[1:]
            out.append((p, not failing, failing))
        return out

    assert cf.check_char_scan(5, 2, 7, probes()) == []
    assert cf.check_char_scan(5, 2, 7, probes(drop=3))
    assert cf.check_char_scan(5, 2, 11, probes())  # a prime is missing

    powers = (2, 1)
    h = cf.hilbert([3, 2])
    kernel = [(j, h[j], cf.binom(3, j), h[j], True) for j in range(4)]
    direct = [(i, t, min(h[i], h[i + t]), True) for i in range(3) for t in range(1, 4 - i)]
    embedded = [(i, t, h[i], h[i], True) for i, t in cf.middle_pairs(3)]
    args = (powers, (2, True, True), kernel, direct, True, embedded, True)
    assert cf.check_embedding(*args) == []
    assert cf.check_embedding(powers, (1, True, True), *args[2:])
    assert cf.check_embedding(*args[:2], kernel[:-1], *args[3:])
