"""Exact matrices: rank, determinant, modular reduction, serialization."""
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
import csv
import io
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import slpkit.exactmat
from oracles import next_prime
from slpkit.exactmat import (
    PROBE_PRIME,
    ExactMatrix,
    RankResult,
    block_assemble,
    certified_rank,
    determinant,
    mat_mul,
    rank_fraction_free,
    peak_bits,
    rank_mod_p,
    scale,
    _echelon,
    _reduce_mod_p,
)
from slpkit.lefschetz import LinearForm, build_matrix, middle_pairs
from slpkit.quotient import AlgebraSpec

# the 4x4 multiplication matrix used as a golden fixture across the suite
GOLDEN = [[2, 2, 2, 0], [2, 2, 0, 2], [2, 0, 2, 2], [0, 2, 2, 2]]


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_golden_rank_and_determinant():
    m = ExactMatrix.from_rows(GOLDEN)
    assert rank_fraction_free(m).rank == 4
    assert certified_rank(m).rank == 4
    assert determinant(m) == -48
    assert oracles.gauss_det(GOLDEN) == Fraction(-48)
    assert oracles.gauss_rank(GOLDEN) == 4


def test_golden_modular_ranks():
    m = ExactMatrix.from_rows(GOLDEN)
    for p in (2, 3, 5, 7):
        assert rank_mod_p(m, p).rank == oracles.mod_rank(GOLDEN, p)
    assert rank_mod_p(m, 5).rank == 4
    assert rank_mod_p(m, 3).rank == 3
    assert rank_mod_p(m, 2).rank == 0


def test_random_ranks_match_oracle():
    rng = random.Random(1001)
    for _ in range(150):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols)
        m = ExactMatrix.from_rows(rows)
        want = oracles.gauss_rank(rows)
        assert rank_fraction_free(m).rank == want
        assert certified_rank(m).rank == want
        assert rank_fraction_free(ExactMatrix.from_rows(m.array.T)).rank == want


def test_random_determinants_match_oracle():
    rng = random.Random(1002)
    for _ in range(120):
        k = rng.randint(1, 5)
        rows = random_matrix(rng, k, k)
        m = ExactMatrix.from_rows(rows)
        want = oracles.gauss_det(rows)
        got = determinant(m)
        assert got == want
        assert (got != 0) == (rank_fraction_free(m).rank == k)


def test_determinant_is_multiplicative():
    rng = random.Random(1003)
    for _ in range(40):
        k = rng.randint(1, 4)
        a = ExactMatrix.from_rows(random_matrix(rng, k, k, -5, 5))
        b = ExactMatrix.from_rows(random_matrix(rng, k, k, -5, 5))
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_low_rank_products():
    rng = random.Random(1004)
    for _ in range(60):
        n, k, m = rng.randint(2, 6), rng.randint(1, 3), rng.randint(2, 6)
        a = ExactMatrix.from_rows(random_matrix(rng, n, k))
        b = ExactMatrix.from_rows(random_matrix(rng, k, m))
        prod_ = mat_mul(a, b)
        r = rank_fraction_free(prod_).rank
        assert r <= k
        assert r == oracles.gauss_rank(prod_.to_rows())


def test_modular_rank_never_exceeds_exact_rank():
    rng = random.Random(1005)
    for _ in range(80):
        rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = ExactMatrix.from_rows(rows)
        exact = rank_fraction_free(m).rank
        for p in (2, 3, 5, 101):
            assert rank_mod_p(m, p).rank <= exact


def test_pivot_minor_is_the_determinant_of_the_pivot_submatrix():
    rng = random.Random(1006)
    for _ in range(60):
        rows = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -4, 4)
        rr = rank_fraction_free(ExactMatrix.from_rows(rows))
        if rr.rank == 0:
            assert rr.pivot_minor_det is None
            continue
        sub = [[rows[r][c] for (_pr, c) in rr.pivots] for (r, _pc) in rr.pivots]
        assert abs(rr.pivot_minor_det) == abs(oracles.gauss_det(sub))
        assert rr.pivot_minor_det != 0


def test_full_square_pivot_minor_equals_determinant_up_to_sign():
    rng = random.Random(1007)
    found = 0
    while found < 25:
        k = rng.randint(2, 5)
        rows = random_matrix(rng, k, k)
        m = ExactMatrix.from_rows(rows)
        d = determinant(m)
        if d == 0:
            continue
        found += 1
        rr = rank_fraction_free(m)
        assert abs(rr.pivot_minor_det) == abs(d)


def _deficient_rows(rng, nrows, ncols, p):
    """Rows mod p of rank below min(nrows, ncols): combinations of fewer rows."""
    k = rng.randint(0, min(nrows, ncols) - 1)
    basis = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randrange(p) for _ in range(k)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) % p for j in range(ncols)])
    return rows


def _oracle_form(result, p):
    """An _echelon result over F_p as (rank, pivots, det), the form of oracles.reference_echelon_mod_p."""
    rank_, pivots, sign, d = result
    return rank_, pivots, sign * d % p


def test_numpy_and_object_modular_paths_agree():
    # one echelon: int64 steps below 2^31, the same steps on Python ints above
    rng = random.Random(1008)
    for p in (101, 2**31 - 1, next_prime(2**31), 2**61 - 1, next_prime(2**64)):
        for trial in range(40):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            if trial % 2:
                rows = _deficient_rows(rng, nrows, ncols, p)
            else:
                rows = [[e % p for e in row] for row in random_matrix(rng, nrows, ncols, 0, 100)]
            want = oracles.reference_echelon_mod_p(rows, p)
            assert _oracle_form(_echelon(np.array(rows, dtype=object), p), p) == want
            if p < 2**63:
                # int64 storage: _reduce_mod_p picks the dtype of the copy _echelon eliminates
                stored = ExactMatrix.from_rows(np.array(rows, dtype=np.int64), p)
                assert stored.array.dtype == np.int64
                assert _oracle_form(_echelon(_reduce_mod_p(stored, p), p), p) == want
            if trial % 2:
                assert want[0] < min(nrows, ncols)
        for shape in ((1, 1), (3, 4), (5, 2)):
            zero = [[0] * shape[1] for _ in range(shape[0])]
            assert _oracle_form(_echelon(np.array(zero, dtype=object), p), p) == (0, (), 1)
            assert oracles.reference_echelon_mod_p(zero, p) == (0, (), 1)


def _sparse_rows(rng, nrows, ncols, p):
    """Mostly zeros, so pivots sit below zero rows with nonzeros under them;
    some columns are zeroed and some rows repeat another."""
    rows = [[rng.randrange(1, p) if rng.random() < 0.3 else 0 for _ in range(ncols)] for _ in range(nrows)]
    for c in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
        for row in rows:
            row[c] = 0
    for _ in range(rng.randint(0, nrows // 2)):
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7, PROBE_PRIME])
def test_sparse_echelon_mod_p_matches_oracles(p):
    rng = random.Random(1013 + p)
    for trial in range(120):
        k = rng.randint(1, 9)
        nrows, ncols = (k, k) if trial % 2 else (rng.randint(1, 9), rng.randint(1, 9))
        rows = _sparse_rows(rng, nrows, ncols, p)
        m = ExactMatrix.from_rows(rows, p)
        rank_, pivots, det = oracles.reference_echelon_mod_p(rows, p)
        assert _oracle_form(_echelon(np.array(rows, dtype=np.int64), p), p) == (rank_, pivots, det)
        rr = rank_mod_p(m, p)
        assert rr.rank == rank_ == oracles.mod_rank(rows, p)
        assert rank_mod_p(ExactMatrix.from_rows(rows), p).rank == rr.rank
        if nrows == ncols:
            assert determinant(m) == int(oracles.gauss_det(rows)) % p


@st.composite
def _dense_rows_mod(draw, p):
    """Dense residues mod p, tall or wide up to 60 rows, with repeated rows and zero columns."""
    nrows, ncols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, nrows // 2))):
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    for c in rng.sample(range(ncols), draw(st.integers(0, ncols // 3))):
        for row in rows:
            row[c] = 0
    return rows


# the int64 copy below 2^31, Python ints above, where the pivot row is
# scaled in place on a view of an object array
@pytest.mark.parametrize("p,work", [(2**31 - 1, np.int64), (2**61 - 1, object)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_echelon_mod_p_matches_the_reference(p, work, data):
    rows = data.draw(_dense_rows_mod(p))
    a = _reduce_mod_p(ExactMatrix.from_rows(rows, p), p)
    assert a.dtype == work
    assert _oracle_form(_echelon(a, p), p) == oracles.reference_echelon_mod_p(rows, p)


@st.composite
def _one_nonzero_per_line(draw):
    """(array, p): at most one nonzero per row, or per column when transposed.

    Lines may be zero, several may share their position, and entries may be
    multiples of p (zero once reduced) or beyond int64 (object storage).
    """
    p = draw(st.sampled_from([2, 3, 5, 7, PROBE_PRIME, next_prime(2**31)]))
    lines, width = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.integers(1, 3 * p), st.integers(1, 3).map(lambda k: k * p), _HUGE)
    a = np.zeros((lines, width), dtype=object)
    for line in a:
        if width and draw(st.booleans()):
            line[draw(st.integers(0, width - 1))] = draw(entry)
    return (a.T if draw(st.booleans()) else a), p


@settings(max_examples=300, deadline=None)
@given(_one_nonzero_per_line())
def test_one_nonzero_per_line_rank_mod_p_matches_the_oracle(case):
    a, p = case
    reduced = (a % p).tolist()
    rank_ = oracles.reference_echelon_mod_p(reduced, p)[0]
    assert rank_ == oracles.mod_rank(reduced, p)
    for modulus in (None, p):
        m = ExactMatrix.from_rows(a, modulus)
        rr = rank_mod_p(m, p)
        assert (rr.rank, rr.method, rr.pivots) == (rank_, "modular", None)


def test_pattern_pivots_follow_the_row_swaps():
    # column 0 pivots on row 3 and swaps row 0 down to position 3, so column
    # 1 pivots on row 1, not row 0; rows 0 and 1 share column 1, so three
    # nonzero rows give rank 2.  _echelon keeps these pivots; rank_mod_p
    # reports the rank only
    rows = [[0, 4, 0], [0, 5, 0], [0, 0, 0], [6, 0, 0]]
    cases = [
        (rows, 7, 2, ((3, 0), (1, 1))),
        # 6 is 0 mod 3: the matrix is eliminated after the reduction
        (rows, 3, 1, ((0, 1),)),
        # the transpose: column 1's one row is already column 0's pivot
        ([list(col) for col in zip(*rows)], 7, 2, ((1, 0), (0, 3))),
    ]
    for grid, p, rank_, pivots in cases:
        reduced = [[e % p for e in row] for row in grid]
        assert oracles.reference_echelon_mod_p(reduced, p)[:2] == (rank_, pivots)
        assert _echelon(np.array(reduced, dtype=np.int64), p)[:2] == (rank_, pivots)
        assert rank_mod_p(ExactMatrix.from_rows(grid), p).rank == rank_


def test_pattern_skips_rows_already_pivoted():
    # one nonzero per column: the last column's one row is already a pivot,
    # so that column does not pivot again, also after a row swap
    cases = [([[1, 1], [0, 0]], ((0, 0),)), ([[0, 0, 0], [1, 0, 1], [0, 1, 0]], ((1, 0), (2, 1)))]
    for grid, pivots in cases:
        assert oracles.reference_echelon_mod_p(grid, 7)[:2] == (len(pivots), pivots)
        assert _echelon(np.array(grid, dtype=np.int64), 7)[:2] == (len(pivots), pivots)
        assert rank_mod_p(ExactMatrix.from_rows(grid), 7).rank == len(pivots)


def test_reduction_mod_p_of_each_storage():
    big = next_prime(2**64)
    # int64 storage at a prime above 2^64, over ZZ and over F_p: the copy is
    # cast before it is reduced
    for rows, modulus in (([[3, -5, 0], [7, 2, 2**40]], None), ([[3, 5, 0], [7, 2, 2**40]], big)):
        m = ExactMatrix.from_rows(rows, modulus)
        assert m.array.dtype == np.int64
        reduced = _reduce_mod_p(m, big)
        assert reduced.dtype == object and reduced.tolist() == [[e % big for e in row] for row in rows]
        assert rank_mod_p(m, big).rank == oracles.reference_echelon_mod_p(reduced.tolist(), big)[0] == 2
    # object storage beyond int64 at a prime below 2^31: reduced, then cast to int64
    huge = [[2**70 + 1, 0, 3 * 2**65], [-(2**80), 5, 0]]
    m = ExactMatrix.from_rows(huge)
    assert m.array.dtype == object
    reduced = _reduce_mod_p(m, 7)
    assert reduced.dtype == np.int64 and reduced.tolist() == [[e % 7 for e in row] for row in huge]
    assert rank_mod_p(m, 7).rank == oracles.mod_rank(reduced.tolist(), 7)
    # F_p storage: the residues come back unchanged, in a fresh writable array
    for p, grid in ((7, [[1, 6, 0], [3, 3, 5]]), (big, [[big - 1, 2**70, 0], [1, 0, 2]])):
        m = ExactMatrix.from_rows(grid, p)
        reduced = _reduce_mod_p(m, p)
        assert reduced.tolist() == (m.array % p).tolist() == m.array.tolist()
        assert reduced.dtype == (np.int64 if p < 2**31 else object)
        assert reduced.flags.writeable and not np.shares_memory(reduced, m.array)
    with pytest.raises(ValueError, match="different prime field"):
        _reduce_mod_p(ExactMatrix.from_rows(GOLDEN, 5), 7)


@pytest.mark.parametrize("modulus", [None, 7])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_empty_shapes_have_modular_rank_zero(modulus, shape):
    assert certified_rank(ExactMatrix.zeros(*shape, modulus)) == RankResult(0, "modular")


def test_probe_pattern_rank_below_the_exact_rank_falls_back():
    # mod PROBE_PRIME one entry vanishes, so the probe sees rank 1 and the
    # exact elimination must still run
    rr = certified_rank(ExactMatrix.from_rows([[PROBE_PRIME, 0], [0, 1]]))
    assert (rr.rank, rr.method) == (2, "fraction-free")


def test_large_prime_uses_object_path():
    m = ExactMatrix.from_rows(GOLDEN)
    for p in (next_prime(2**31), next_prime(2**64)):
        assert rank_mod_p(m, p).rank == 4


def test_certified_rank_methods():
    full = ExactMatrix.from_rows(GOLDEN)
    assert certified_rank(full).method == "modular"
    deficient = ExactMatrix.from_rows([[1, 2], [2, 4]])
    rr = certified_rank(deficient)
    assert rr.method == "fraction-free"
    assert rr.rank == 1
    # a probe prime that lies about the rank still gets corrected
    tricky = ExactMatrix.from_rows([[PROBE_PRIME, 0], [0, PROBE_PRIME]])
    rr = certified_rank(tricky)
    assert rr.method == "fraction-free"
    assert rr.rank == 2


def test_gf_matrices():
    m = ExactMatrix.from_rows(GOLDEN, 3)
    assert m.entries.count(2) == 12 and m.entries.count(0) == 4
    assert rank_mod_p(m, 3).rank == 3
    assert determinant(m) == 0
    m5 = ExactMatrix.from_rows(GOLDEN, 5)
    assert determinant(m5) == (-48) % 5
    assert rank_mod_p(m5, 5).rank == 4


def test_empty_and_degenerate_shapes():
    assert rank_fraction_free(ExactMatrix.zeros(0, 5)).rank == 0
    assert rank_fraction_free(ExactMatrix.zeros(5, 0)).rank == 0
    assert rank_mod_p(ExactMatrix.zeros(0, 0), 7).rank == 0
    assert determinant(ExactMatrix.zeros(0, 0)) == 1
    assert determinant(ExactMatrix.zeros(0, 0, 7)) == 1
    assert certified_rank(ExactMatrix.zeros(3, 0)).rank == 0


def test_identity_and_scale():
    eye = ExactMatrix.from_rows(np.eye(4, dtype=np.int64))
    m = ExactMatrix.from_rows(GOLDEN)
    assert mat_mul(eye, m) == m
    assert mat_mul(m, eye) == m
    assert determinant(eye) == 1
    doubled = scale(m, 2)
    assert determinant(doubled) == (-48) * 16
    assert scale(m, 0) == ExactMatrix.zeros(4, 4)


def test_mat_mul_matches_triple_loop():
    """Products and scalings against Python loops, with the storage rule."""
    rng = random.Random(1009)
    moduli = (None, 7, PROBE_PRIME, next_prime(2**62))
    for trial in range(160):
        modulus = moduli[trial % 4]
        n, k, m = rng.randint(0, 4), rng.randint(0, 4) if trial % 5 else 0, rng.randint(0, 4)
        # a third of the trials have entries of 2^62 and above
        bound = 2**64 if trial % 3 == 0 else 9
        a = random_matrix(rng, n, k, -bound, bound)
        b = random_matrix(rng, k, m, -bound, bound)
        c = rng.choice((0, 3, -(2**63), 5))
        want = [[sum((a[r][j] * b[j][col] for j in range(k)), 0) for col in range(m)] for r in range(n)]
        scaled = [[x * c for x in row] for row in a]
        if modulus:
            want = [[x % modulus for x in row] for row in want]
            scaled = [[x % modulus for x in row] for row in scaled]

        def make(rows, ncols):
            return ExactMatrix.from_rows(np.array(rows, dtype=object).reshape(len(rows), ncols), modulus)

        ma, mb = make(a, k), make(b, m)
        for got, expect, ncols in ((mat_mul(ma, mb), want, m), (scale(ma, c), scaled, k)):
            assert (got.rows, got.cols, got.modulus) == (n, ncols, modulus)
            assert got.to_rows() == expect
            assert got == make(expect, ncols)
            small = all(-(2**62) < x < 2**62 for row in expect for x in row)
            assert got.array.dtype == (np.int64 if small else object)
            assert all(type(x) is int for x in got.entries)


@pytest.mark.parametrize(
    "a,b,path",
    [
        # max|a| * max|b| * cols = 2^62 - 2^31: every partial sum fits
        ([[2**31 - 1, -(2**31 - 1)], [3, 2**31 - 1]], [[2**30, 1], [-(2**30), 2**30]], np.int64),
        # 2^62 + 2^31: the bound fails, though this product's sums stay small
        ([[2**31 + 1, -(2**31 + 1)]], [[2**30], [2**30]], object),
        # 2^62 + 2^31 again, and the product itself reaches 2^62
        ([[2**31 + 1, 2**31 + 1]], [[2**30], [2**30]], object),
    ],
)
def test_mat_mul_int64_path_sits_below_its_bound(from_rows_dtypes, a, b, path):
    ma, mb = ExactMatrix.from_rows(a), ExactMatrix.from_rows(b)
    assert ma.array.dtype == mb.array.dtype == np.int64
    got = mat_mul(ma, mb)
    assert from_rows_dtypes == [np.dtype(path)]
    want = [[sum(a[r][j] * b[j][c] for j in range(len(b))) for c in range(len(b[0]))] for r in range(len(a))]
    assert got.to_rows() == want
    assert all(type(x) is int for x in got.entries)


def test_mat_mul_int64_path_over_the_probe_prime(from_rows_dtypes):
    p = PROBE_PRIME
    # (p - 1)^2 < 2^62 with one column, 2 (p - 1)^2 > 2^62 with two
    a1, b1 = ExactMatrix.from_rows([[p - 1]], p), ExactMatrix.from_rows([[p - 2]], p)
    a2, b2 = ExactMatrix.from_rows([[p - 1, p - 1]], p), ExactMatrix.from_rows([[p - 1], [p - 2]], p)
    del from_rows_dtypes[:]
    one, two = mat_mul(a1, b1), mat_mul(a2, b2)
    assert from_rows_dtypes == [np.dtype(np.int64), np.dtype(object)]
    assert one.to_rows() == [[(p - 1) * (p - 2) % p]]
    assert two.to_rows() == [[((p - 1) ** 2 + (p - 1) * (p - 2)) % p]]


def test_object_array_of_ints_with_one_fraction_is_refused():
    for value in (Fraction(1, 2), Fraction(4, 2)):
        arr = np.array([[1, 2, 3], [4, value, 6]], dtype=object)
        for modulus in (None, 7, next_prime(2**64)):
            with pytest.raises(TypeError):
                ExactMatrix.from_rows(arr, modulus)


def test_block_assemble():
    tl = ExactMatrix.from_rows([[1]])
    tr = ExactMatrix.from_rows([[2, 3]])
    bl = ExactMatrix.from_rows([[4], [5]])
    br = ExactMatrix.from_rows([[6, 7], [8, 9]])
    whole = block_assemble(tl, tr, bl, br)
    assert whole.to_rows() == [[1, 2, 3], [4, 6, 7], [5, 8, 9]]
    # zero-dimension blocks participate silently
    empty_top = block_assemble(
        ExactMatrix.zeros(0, 1), ExactMatrix.zeros(0, 2), bl, br
    )
    assert empty_top.to_rows() == [[4, 6, 7], [5, 8, 9]]
    with pytest.raises(ValueError):
        block_assemble(tl, ExactMatrix.zeros(2, 1), bl, br)


def test_entry_and_to_rows():
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.entry(1, 2) == 6
    assert m.entry(0, 0) == 1 and type(m.entry(0, 0)) is int
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]


def test_csv_roundtrip():
    # the CSV that `slpkit matrix` writes reads back into the same entries
    m = ExactMatrix.from_rows(GOLDEN)
    assert m.to_csv().splitlines()[0] == "2,2,2,0"
    gf = ExactMatrix.from_rows([[1, 2], [3, 4]], 5)
    for mat in (m, gf, ExactMatrix.from_rows([[-3, 2**70]])):
        back = list(csv.reader(io.StringIO(mat.to_csv())))
        assert [[int(e) for e in row] for row in back] == mat.to_rows()


def test_json_roundtrip():
    for m in (
        ExactMatrix.from_rows(GOLDEN),
        ExactMatrix.from_rows(GOLDEN, 7),
        ExactMatrix.zeros(0, 3),
    ):
        data = json.loads(json.dumps(m.to_json_dict()))
        assert (data["rows"], data["cols"], data["domain"]) == (m.rows, m.cols, "Fp" if m.modulus else "ZZ")
        assert data.get("modulus") == m.modulus
        assert data["entries"] == m.to_rows()


def test_repr_evaluates_back_to_the_matrix():
    for m in (
        ExactMatrix.from_rows(GOLDEN),
        ExactMatrix.from_rows(GOLDEN, 7),
        ExactMatrix.from_rows([[-3, 2**70]]),
        ExactMatrix.from_rows([[2**64 + 1]], next_prime(2**64)),
        ExactMatrix.zeros(0, 3, 5),
        ExactMatrix.zeros(2, 0),
    ):
        back = eval(repr(m), {"ExactMatrix": ExactMatrix})
        assert back == m and back.array.dtype == m.array.dtype


def test_validation_errors():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], 6)
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix.from_rows([[1]]), 6)
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix.from_rows([[1]], 5), 7)
    with pytest.raises(ValueError):
        rank_fraction_free(ExactMatrix.from_rows([[1]], 5))
    with pytest.raises(ValueError):
        determinant(ExactMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        mat_mul(ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        mat_mul(ExactMatrix.zeros(2, 2), ExactMatrix.zeros(2, 2, 5))


@pytest.mark.parametrize(
    "bad", ["Fp", "ZZ", 7.0, Fraction(7, 1), np.int64(7)], ids=["Fp", "ZZ", "float", "Fraction", "np.int64"]
)
def test_a_modulus_that_is_not_an_int_is_refused(bad):
    # a domain name in the modulus slot fails here, with a message about the
    # modulus, and not inside the primality test
    with pytest.raises(TypeError, match="modulus"):
        ExactMatrix.from_rows([[1]], bad)
    with pytest.raises(TypeError, match="modulus"):
        ExactMatrix.from_rows(np.eye(2, dtype=np.int64), bad)
    with pytest.raises(TypeError, match="modulus"):
        ExactMatrix.zeros(2, 2, bad)
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[1]], bad, 7)
    # rank_mod_p checks its prime the same way, before it reads an entry, so
    # an eliminated matrix and one in object storage fail alike
    for rows in ([[1, 2], [3, 4]], [[10**30, 1], [1, 1]]):
        with pytest.raises(TypeError, match="modulus must be a prime int"):
            rank_mod_p(ExactMatrix.from_rows(rows), bad)


@pytest.mark.parametrize("bad", [6, 1, 0, -7, 2**64])
def test_a_modulus_that_is_not_prime_is_refused(bad):
    with pytest.raises(ValueError, match="not prime"):
        ExactMatrix.from_rows([[1]], bad)
    with pytest.raises(ValueError, match="not prime"):
        ExactMatrix.from_rows(np.eye(2, dtype=np.int64), bad)
    with pytest.raises(ValueError, match="not prime"):
        ExactMatrix.zeros(2, 2, bad)
    with pytest.raises(ValueError, match="not prime"):
        rank_mod_p(ExactMatrix.from_rows([[1]]), bad)


# the least strong pseudoprimes to the first 12 and 13 prime bases (Sorenson
# and Webster, Math. Comp. 86, 2017); twelve bases took the first for a prime
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("bad", [PSI_12, PSI_13], ids=["psi12", "psi13"])
def test_strong_pseudoprimes_are_no_prime_field(bad):
    assert PSI_12 == 399165290221 * 798330580441 and PSI_13 % 1287836182261 == 0
    with pytest.raises(ValueError):
        AlgebraSpec(2, (2, 2), bad)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], bad)
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix.from_rows([[1]]), bad)


def test_large_primes_below_the_proven_bound_are_accepted():
    for p in (next_prime(2**64), 2**61 - 1, next_prime(PSI_12)):
        assert AlgebraSpec(2, (2, 2), p).characteristic == p
        assert ExactMatrix.from_rows([[1]], p).modulus == p
        assert rank_mod_p(ExactMatrix.from_rows([[2, 4], [1, 2]]), p).rank == 1


def test_ndarray_input_is_validated():
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.ones((2, 2)))
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.array([["1"]]))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(np.arange(4))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(np.zeros((1, 2, 2), dtype=np.int64))
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.array([[Fraction(1, 2)]], dtype=object))


@pytest.mark.parametrize(
    "inexact",
    [1.5, 2.0, Decimal("2.5"), "3", np.float64(2.0)],
    ids=["float-1.5", "float-2.0", "Decimal", "str", "np.float64"],
)
def test_inexact_entries_are_refused_in_every_domain(inexact):
    # once stored as integers, 1.5 would act as 1 and "3" as 3
    for modulus in (None, 7, next_prime(2**64)):
        for rows in ([[inexact, 2]], np.array([[inexact, 2]], dtype=object)):
            with pytest.raises(TypeError):
                ExactMatrix.from_rows(rows, modulus)


def test_numpy_integer_and_fraction_entries_are_exact():
    m = ExactMatrix.from_rows([[np.int64(3), True], [np.uint8(4), -1]])
    assert m.entries == (3, 1, 4, -1) and all(type(e) is int for e in m.entries)
    assert ExactMatrix.from_rows([[np.int64(9)]], 7).entries == (2,)
    # a bool array stores the ints a list of bools does
    flags = ExactMatrix.from_rows(np.array([[True, False]]))
    assert flags == ExactMatrix.from_rows([[True, False]]) and flags.to_rows() == [[1, 0]]
    assert flags.array.dtype == np.int64 and ExactMatrix.from_rows(np.array([[True]]), 5).entries == (1,)
    # a Fraction is refused even when it is an integer: there is no rational domain
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.array([[np.int64(2), Fraction(2, 1)]], dtype=object))


def test_array_built_matrix_equals_list_built():
    for modulus in (None, 5, next_prime(2**62)):
        arr = np.array(GOLDEN, dtype=np.int64) - 3
        m = ExactMatrix.from_rows(arr, modulus)
        arr[0, 0] = 99  # the matrix keeps its own copy
        listed = ExactMatrix.from_rows([[e - 3 for e in row] for row in GOLDEN], modulus)
        assert m == listed and hash(m) == hash(listed)
        assert isinstance(m.entries, tuple)
        assert all(type(e) is int for e in m.entries)
        assert not m.array.flags.writeable
    big = [[2**70, -1], [3, 2**62]]
    m = ExactMatrix.from_rows(np.array(big, dtype=object))
    assert m.array.dtype == object and m.to_rows() == big
    assert m == ExactMatrix.from_rows(big) and hash(m) == hash(ExactMatrix.from_rows(big))
    small = ExactMatrix.from_rows(np.array([[1, 2**62 - 1]], dtype=object))
    assert small.array.dtype == np.int64
    assert ExactMatrix.from_rows(np.array([[2**63]], dtype=np.uint64)).entries == (2**63,)
    assert pickle.loads(pickle.dumps(m)) == m
    with pytest.raises(AttributeError):
        m.rows = 3


def test_large_entries_keep_exact_ranks():
    # entries beyond int64 live in object arrays and still reduce mod p exactly
    big = 2**70
    m = ExactMatrix.from_rows([[big, 1], [1, 0]])
    assert rank_mod_p(m, 2).rank == 2 and rank_mod_p(m, 3).rank == 2
    assert certified_rank(m).rank == 2
    assert determinant(m) == -1
    assert determinant(ExactMatrix.from_rows(GOLDEN, next_prime(2**31))) == (-48) % next_prime(2**31)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_property_against_oracle(rows):
    m = ExactMatrix.from_rows(rows)
    assert rank_fraction_free(m).rank == oracles.gauss_rank(rows)



# entries for the elimination properties: mostly small; some stored in int64
# whose products overflow it (2^40 to 2^61), some of 2^64 and above
_SMALL = st.integers(min_value=-9, max_value=9)
_WIDE = st.integers(min_value=2**40, max_value=2**61) | st.integers(min_value=-(2**61), max_value=-(2**40))
_HUGE = st.integers(min_value=2**64, max_value=2**80) | st.integers(min_value=-(2**80), max_value=-(2**64))
_ENTRY = st.one_of(_SMALL, _SMALL, _SMALL, _WIDE, _HUGE)


def _shape(draw, square, least=1):
    nrows = draw(st.integers(least, 8))
    return nrows, nrows if square else draw(st.integers(least, 8))


@st.composite
def _plain_rows(draw, square=False):
    """Any shape up to 8x8, wide or tall, with some rows and columns zeroed."""
    nrows, ncols = _shape(draw, square)
    rows = [[draw(_ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
        rows[r] = [0] * ncols
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = 0
    return rows


@st.composite
def _deficient_product(draw, square=False):
    """A product through k < min(nrows, ncols) dimensions."""
    nrows, ncols = _shape(draw, square, least=2)
    k = draw(st.integers(0, min(nrows, ncols) - 1))
    left = [[draw(_ENTRY) for _ in range(k)] for _ in range(nrows)]
    right = [[draw(_ENTRY) for _ in range(ncols)] for _ in range(k)]
    return [[sum((left[r][j] * right[j][c] for j in range(k)), 0) for c in range(ncols)] for r in range(nrows)]


@st.composite
def _permuted_blocks(draw, square=False):
    """Row- and column-permuted block diagonal: where rows meet the most zeros."""
    sizes = st.integers(1, 3)
    shapes = draw(st.lists(sizes.map(lambda h: (h, h)) if square else st.tuples(sizes, sizes), min_size=1, max_size=4))
    nrows, ncols = sum(h for h, _w in shapes), sum(w for _h, w in shapes)
    rows = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for h, w in shapes:
        for r in range(r0, r0 + h):
            for c in range(c0, c0 + w):
                rows[r][c] = draw(_ENTRY)
        r0, c0 = r0 + h, c0 + w
    rperm = draw(st.permutations(range(nrows)))
    cperm = draw(st.permutations(range(ncols)))
    return [[rows[r][c] for c in cperm] for r in rperm]


def _echelon_inputs(square=False):
    return st.one_of(_plain_rows(square), _deficient_product(square), _permuted_blocks(square))


def _both_echelons(rows):
    got = _echelon(np.array(rows, dtype=object), None)
    want = oracles.reference_fraction_free_echelon([list(row) for row in rows])
    return got, want


@settings(max_examples=300, deadline=None)
@given(_echelon_inputs())
def test_lazy_echelon_matches_reference(rows):
    got, want = _both_echelons(rows)
    assert got == want
    assert got[0] == oracles.gauss_rank(rows)
    # the same matrix from its stored form, int64 when every entry fits
    rr = rank_fraction_free(ExactMatrix.from_rows(rows))
    assert rr.rank == got[0]
    if rr.rank:
        sub = [[rows[r][c] for (_pr, c) in rr.pivots] for (r, _pc) in rr.pivots]
        assert abs(rr.pivot_minor_det) == abs(oracles.gauss_det(sub))


@settings(max_examples=100, deadline=None)
@given(_echelon_inputs())
def test_fraction_free_echelon_leaves_echelon_form(rows):
    # every rewritten row stores a zero in the pivot column, so no stale
    # minor stays referenced in the array
    a = np.array(rows, dtype=object)
    rank_, pivots, _sign, _d = _echelon(a, None)
    for k, (_r, c) in enumerate(pivots):
        assert a[k, c] != 0
        assert (a[k, :c] == 0).all() and (a[k + 1 :, c] == 0).all()
    assert (a[rank_:] == 0).all()


@pytest.mark.parametrize("chunk", [1, 20, 60])
def test_fraction_free_rewrite_in_chunks_matches_reference(chunk, monkeypatch):
    # a chunk of a few cells splits most steps' touched rows into several
    # rewrites, down to one row per rewrite
    monkeypatch.setattr(slpkit.exactmat, "_REWRITE_CHUNK", chunk)
    rng = random.Random(1021 + chunk)
    for trial in range(30):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
        if trial % 2:
            k = rng.randint(1, min(nrows, ncols))
            left, right = random_matrix(rng, nrows, k, -3, 3), random_matrix(rng, k, ncols, -3, 3)
            rows = [[sum(x * right[j][c] for j, x in enumerate(row)) for c in range(ncols)] for row in left]
        else:
            rows = random_matrix(rng, nrows, ncols)
        got, want = _both_echelons(rows)
        assert got == want


def test_fraction_free_rewrite_spans_chunks_at_the_default_size():
    # the first step of a dense 48x48 matrix touches 47 rows of 47 cells,
    # more than one chunk holds
    assert 47 * 47 > slpkit.exactmat._REWRITE_CHUNK
    rng = random.Random(1024)
    left, right = random_matrix(rng, 48, 40, -3, 3), random_matrix(rng, 40, 48, -3, 3)
    deficient = [[sum(x * right[j][c] for j, x in enumerate(row)) for c in range(48)] for row in left]
    for rows in (random_matrix(rng, 48, 48), deficient):
        got, want = _both_echelons(rows)
        assert got == want


def test_int64_entries_whose_products_overflow():
    # stored in int64, but every elimination step needs Python ints
    m = ExactMatrix.from_rows([[2**61, 1], [1, 2**61]])
    assert m.array.dtype == np.int64
    assert determinant(m) == 2**122 - 1
    v = [2**61 - 1, 2**61 - 3, -(2**60 + 7), 2**59 + 5]
    rank_one = ExactMatrix.from_rows([[u * e for e in v] for u in (1, -1, 1, 2)])
    assert rank_one.array.dtype == np.int64
    assert rank_fraction_free(rank_one).rank == 1
    assert certified_rank(rank_one).rank == 1
    rank_two = ExactMatrix.from_rows([[2**61, 1], [1, 2**61], [2**61 + 1, 2**61 + 1]])
    assert rank_two.array.dtype == np.int64
    rr = rank_fraction_free(rank_two)
    assert (rr.rank, rr.pivots, rr.pivot_minor_det) == (2, ((0, 0), (1, 1)), 2**122 - 1)
    rng = random.Random(1014)
    for p in (next_prime(2**31), 2**61 - 1):
        for _ in range(20):
            rows = random_matrix(rng, 5, 5, -(2**61), 2**61)
            want = oracles.reference_echelon_mod_p([[e % p for e in row] for row in rows], p)
            for modulus in (None, p):
                stored = ExactMatrix.from_rows(rows, modulus)
                assert stored.array.dtype == np.int64
                assert rank_mod_p(stored, p).rank == want[0]
            assert determinant(ExactMatrix.from_rows(rows, p)) == (want[2] if want[0] == 5 else 0)


def test_lazy_echelon_on_permuted_blocks_with_huge_entries():
    # blocks [[2, 1], [4, 5], [6, 6]], [[3, 1], [6, 7]] and [[5]]: rank 5, and
    # rows skip the pivot columns of the other blocks before they are touched
    rng = random.Random(1010)
    blocks = [[2, 0, 0, 1, 0], [0, 3, 0, 0, 1], [4, 0, 0, 5, 0], [0, 0, 5, 0, 0], [0, 6, 0, 0, 7], [6, 0, 0, 6, 0]]
    for _ in range(20):
        rperm, cperm = rng.sample(range(6), 6), rng.sample(range(5), 5)
        rows = [[blocks[r][c] * (2**65 + 1) for c in cperm] for r in rperm]
        got, want = _both_echelons(rows)
        assert got == want and got[0] == 5


@pytest.mark.parametrize("nzero", [1, 2])
def test_lazy_echelon_on_quadratic_8_middle_maps(nzero):
    rng = random.Random(1011 + nzero)
    spec = AlgebraSpec.quadratic(8)
    for zeros in combinations(range(8), nzero):
        coeffs = [0 if k in zeros else rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for k in range(8)]
        for i, t in middle_pairs(spec.socle_degree):
            rows = build_matrix(spec, LinearForm(coeffs), i, t).matrix.to_rows()
            got, want = _both_echelons(rows)
            assert got == want
            assert got[0] == oracles.tensor_deficit_rank((2,) * (8 - nzero), (2,) * nzero, i, t)


@settings(max_examples=150, deadline=None)
@given(_echelon_inputs(square=True))
def test_determinants_match_gauss_det(rows):
    assert determinant(ExactMatrix.from_rows(rows)) == oracles.gauss_det(rows)


def _peak_bits_by_entries(m):
    return max((abs(e).bit_length() for e in m.entries), default=0)


def test_peak_bits_matches_entry_loop(monkeypatch):
    def no_tuple(m):
        pytest.fail("peak_bits built the entries tuple")

    rng = random.Random(1012)
    for trial in range(80):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        bound = (9, 1000, 2**62 - 1, 2**70)[trial % 4]
        rows = random_matrix(rng, nrows, ncols, -bound, bound)
        for modulus in (None, 7, next_prime(2**64)):
            m = ExactMatrix.from_rows(np.array(rows, dtype=object).reshape(nrows, ncols), modulus)
            expected = _peak_bits_by_entries(m)
            with monkeypatch.context() as patched:
                patched.setattr(ExactMatrix, "entries", property(no_tuple))
                assert peak_bits(m) == expected
    # both storages: int64 below 2^62, object arrays from 2^62
    assert ExactMatrix.from_rows([[-(2**62) + 1, 3]]).array.dtype == np.int64
    assert peak_bits(ExactMatrix.from_rows([[-(2**62) + 1, 3]])) == 62
    assert ExactMatrix.from_rows([[2**62]]).array.dtype == object
    assert peak_bits(ExactMatrix.from_rows([[2**62]])) == 63


def _block(rng, h, w, big):
    """A random h x w block, rank-deficient about half the time; entries above 2^62 when big."""
    scale = 2**63 + 1 if big else 1
    if rng.random() < 0.5 and min(h, w) > 1:
        k = rng.randint(1, min(h, w) - 1)
        left, right = random_matrix(rng, h, k, -3, 3), random_matrix(rng, k, w, -3, 3)
        rows = [[sum(left[r][j] * right[j][c] for j in range(k)) for c in range(w)] for r in range(h)]
    else:
        rows = random_matrix(rng, h, w, -5, 5)
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return [[e * scale for e in row] for row in rows]


def _permuted_direct_sum(rng, big):
    """Permuted block diagonal with repeated equal blocks, a same-shape
    block with other entries, and zero rows and columns."""
    base = _block(rng, rng.randint(1, 4), rng.randint(1, 4), big)
    # equal copies built entry by entry, so object entries are distinct ints
    copies = [[[int(str(e)) for e in row] for row in base] for _ in range(rng.randint(1, 3))]
    if big:
        assert copies[0][0][0] == base[0][0] and copies[0][0][0] is not base[0][0]
    other = _block(rng, len(base), len(base[0]), big)
    while other == base:
        other = _block(rng, len(base), len(base[0]), big)
    extra = [_block(rng, rng.randint(1, 4), rng.randint(1, 4), big) for _ in range(rng.randint(0, 2))]
    blocks = [base, *copies, other, *extra]
    rng.shuffle(blocks)
    zero_rows, zero_cols = rng.randint(0, 2), rng.randint(0, 2)
    nrows = sum(len(b) for b in blocks) + zero_rows
    ncols = sum(len(b[0]) for b in blocks) + zero_cols
    rows = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for r, row in enumerate(b):
            rows[r0 + r][c0 : c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    rperm, cperm = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    return [[rows[r][c] for c in cperm] for r in rperm]


def _distinct_components(rows):
    """Submatrices of the connected components of the nonzero pattern, by a row walk."""
    seen_rows, out = set(), set()
    for start in range(len(rows)):
        if start in seen_rows or not any(rows[start]):
            continue
        comp_rows, comp_cols, todo = {start}, set(), [start]
        while todo:
            r = todo.pop()
            for c, e in enumerate(rows[r]):
                if e and c not in comp_cols:
                    comp_cols.add(c)
                    for r2, row in enumerate(rows):
                        if row[c] and r2 not in comp_rows:
                            comp_rows.add(r2)
                            todo.append(r2)
        seen_rows |= comp_rows
        out.add(tuple(tuple(rows[r][c] for c in sorted(comp_cols)) for r in sorted(comp_rows)))
    return out


@pytest.mark.parametrize("big", [False, True])
def test_permuted_direct_sum_ranks_block_by_block(big, monkeypatch):
    rng = random.Random(1013 + big)
    calls = []
    echelon = slpkit.exactmat._echelon

    def recording(a, p):
        if p is None:
            calls.append(tuple(map(tuple, a.tolist())))
        return echelon(a, p)

    monkeypatch.setattr(slpkit.exactmat, "_echelon", recording)
    for _ in range(30):
        rows = _permuted_direct_sum(rng, big)
        m = ExactMatrix.from_rows(rows)
        assert m.array.dtype == (object if big else np.int64)
        calls.clear()
        rr = rank_fraction_free(m)
        # each distinct component is eliminated once, however often it repeats
        assert sorted(calls) == sorted(_distinct_components(rows))
        assert rr.rank == oracles.gauss_rank(rows)
        assert [c for _r, c in rr.pivots] == sorted(c for _r, c in rr.pivots)
        sub = [[rows[r][c] for (_pr, c) in rr.pivots] for (r, _pc) in rr.pivots]
        assert rr.pivot_minor_det != 0
        assert abs(rr.pivot_minor_det) == abs(oracles.gauss_det(sub))
        # nonzero row multiples keep the rank
        scaled = [[e * (1 + k % 3) for e in row] for k, row in enumerate(rows)]
        assert certified_rank(ExactMatrix.from_rows(scaled)).rank == rr.rank


def test_components_skip_zero_rows_and_columns():
    # rows 0 and 3 meet through column 2; row 1 and column 1 are zero
    mask = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]) != 0
    got = [(rows.tolist(), cols.tolist()) for rows, cols in slpkit.exactmat._components(mask)]
    assert got == [([0, 3], [0, 2]), ([2], [3])]
    assert slpkit.exactmat._components(np.zeros((3, 2), dtype=bool)) == []
