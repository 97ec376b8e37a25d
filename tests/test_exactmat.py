"""Exact matrices: rank, determinant, modular reduction, serialization."""
from fractions import Fraction
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from slpkit._primes import next_prime
from slpkit.exactmat import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    block_assemble,
    certified_rank,
    determinant,
    mat_mul,
    rank,
    rank_fraction_free,
    rank_mod_p,
    scale,
    _echelon_mod_p_numpy,
    _echelon_mod_p_object,
)

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
        assert rank(m).rank == want
        assert rank(m.transpose()).rank == want


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


def test_numpy_and_object_modular_paths_agree():
    rng = random.Random(1008)
    for _ in range(40):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 0, 100)
        for p in (101, 2**31 - 1):
            reduced = [[e % p for e in row] for row in rows]
            numpy_path = _echelon_mod_p_numpy([list(r) for r in reduced], p)
            object_path = _echelon_mod_p_object([list(r) for r in reduced], p)
            assert numpy_path == object_path


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
    tricky = ExactMatrix.from_rows([[101, 0], [0, 101]])
    assert certified_rank(tricky, probe_prime=101).rank == 2


def test_rational_matrices():
    hilb = [[Fraction(1, r + c + 1) for c in range(3)] for r in range(3)]
    m = ExactMatrix.from_rows(hilb, QQ)
    assert m.domain == QQ
    assert determinant(m) == Fraction(1, 2160)
    assert rank(m).rank == 3
    assert certified_rank(m).rank == 3
    singular = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]], QQ)
    assert determinant(singular) == 0
    assert rank(singular).rank == 1


def test_gf_matrices():
    m = ExactMatrix.from_rows(GOLDEN, GF, 3)
    assert m.entries.count(2) == 12 and m.entries.count(0) == 4
    assert rank(m).rank == 3
    assert determinant(m) == 0
    m5 = ExactMatrix.from_rows(GOLDEN, GF, 5)
    assert determinant(m5) == (-48) % 5
    assert rank(m5).rank == 4


def test_empty_and_degenerate_shapes():
    assert rank_fraction_free(ExactMatrix.zeros(0, 5)).rank == 0
    assert rank_fraction_free(ExactMatrix.zeros(5, 0)).rank == 0
    assert rank_mod_p(ExactMatrix.zeros(0, 0), 7).rank == 0
    assert determinant(ExactMatrix.zeros(0, 0)) == 1
    assert determinant(ExactMatrix.zeros(0, 0, QQ)) == Fraction(1)
    assert determinant(ExactMatrix.zeros(0, 0, GF, 7)) == 1
    assert certified_rank(ExactMatrix.zeros(3, 0)).rank == 0


def test_identity_and_scale():
    eye = ExactMatrix.identity(4)
    m = ExactMatrix.from_rows(GOLDEN)
    assert mat_mul(eye, m) == m
    assert mat_mul(m, eye) == m
    assert determinant(eye) == 1
    doubled = scale(m, 2)
    assert determinant(doubled) == (-48) * 16
    assert scale(m, 0) == ExactMatrix.zeros(4, 4)


def test_mat_mul_matches_triple_loop():
    rng = random.Random(1009)
    for _ in range(30):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, n, k)
        b = random_matrix(rng, k, m)
        want = [[sum(a[r][j] * b[j][c] for j in range(k)) for c in range(m)] for r in range(n)]
        got = mat_mul(ExactMatrix.from_rows(a), ExactMatrix.from_rows(b))
        assert got.to_rows() == want


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


def test_transpose_involution_and_entry():
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m
    assert m.entry(1, 2) == 6
    assert m.transpose().entry(2, 1) == 6
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]


def test_csv_roundtrip():
    m = ExactMatrix.from_rows(GOLDEN)
    assert ExactMatrix.from_csv(m.to_csv()) == m
    assert m.to_csv().splitlines()[0] == "2,2,2,0"
    gf = ExactMatrix.from_rows([[1, 2], [3, 4]], GF, 5)
    assert ExactMatrix.from_csv(gf.to_csv(), GF, 5) == gf
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[Fraction(1, 2)]], QQ).to_csv()


def test_json_roundtrip():
    for m in (
        ExactMatrix.from_rows(GOLDEN),
        ExactMatrix.from_rows(GOLDEN, GF, 7),
        ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-3)]], QQ),
        ExactMatrix.zeros(0, 3),
    ):
        assert ExactMatrix.from_json_dict(m.to_json_dict()) == m
    data = ExactMatrix.from_rows(GOLDEN).to_json_dict()
    data["rows"] = 5
    with pytest.raises(ValueError):
        ExactMatrix.from_json_dict(data)


def test_validation_errors():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[Fraction(1, 2)]], ZZ)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], GF, 6)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], GF)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], ZZ, 5)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], "RR")
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix.from_rows([[1]]), 6)
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix.from_rows([[1]], GF, 5), 7)
    with pytest.raises(ValueError):
        rank_mod_p(ExactMatrix.from_rows([[Fraction(1)]], QQ), 5)
    with pytest.raises(ValueError):
        rank_fraction_free(ExactMatrix.from_rows([[Fraction(1)]], QQ))
    with pytest.raises(ValueError):
        determinant(ExactMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        mat_mul(ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3))
    with pytest.raises(ValueError):
        mat_mul(ExactMatrix.zeros(2, 2), ExactMatrix.zeros(2, 2, GF, 5))


def test_ndarray_input_is_validated():
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.ones((2, 2)))
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.array([["1"]]))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(np.arange(4))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(np.zeros((1, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(np.eye(2, dtype=np.int64), GF)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(np.eye(2, dtype=np.int64), GF, 6)
    with pytest.raises(TypeError):
        ExactMatrix.from_rows(np.array([[Fraction(1, 2)]], dtype=object))


def test_array_built_matrix_equals_list_built():
    for domain, modulus in ((ZZ, None), (GF, 5), (GF, next_prime(2**62))):
        arr = np.array(GOLDEN, dtype=np.int64) - 3
        m = ExactMatrix.from_rows(arr, domain, modulus)
        arr[0, 0] = 99  # the matrix keeps its own copy
        listed = ExactMatrix.from_rows([[e - 3 for e in row] for row in GOLDEN], domain, modulus)
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
    rational = ExactMatrix.from_rows(np.array([[1, 2]]), QQ)
    assert rational.entries == (Fraction(1), Fraction(2))
    assert all(type(e) is Fraction for e in rational.entries)


def test_large_entries_keep_exact_ranks():
    # entries beyond int64 live in object arrays and still reduce mod p exactly
    big = 2**70
    m = ExactMatrix.from_rows([[big, 1], [1, 0]])
    assert rank_mod_p(m, 2).rank == 2 and rank_mod_p(m, 3).rank == 2
    assert certified_rank(m).rank == 2
    assert determinant(m) == -1
    assert determinant(ExactMatrix.from_rows(GOLDEN, GF, next_prime(2**31))) == (-48) % next_prime(2**31)


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
