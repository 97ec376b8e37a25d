"""Multiplication matrices, rank verdicts and characteristic scans."""
from fractions import Fraction
from math import comb, factorial, prod
import random

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np
import oracles
from slpkit._primes import next_prime
from slpkit.exactmat import ExactMatrix, GF, QQ, ZZ, mat_mul, rank_mod_p
from slpkit.lefschetz import (
    CharProbe,
    LinearForm,
    build_matrix,
    char_search,
    full_pairs,
    max_rank_check,
    middle_pairs,
    slp_check,
)
from slpkit.quotient import AlgebraSpec, graded_basis, basis_positions, hilbert_vector

GOLDEN = [[2, 2, 2, 0], [2, 2, 0, 2], [2, 0, 2, 2], [0, 2, 2, 2]]


def test_golden_four_variable_power_two():
    spec = AlgebraSpec.quadratic(4)
    mm = build_matrix(spec, LinearForm.ones(4), 1, 2)
    assert mm.matrix.to_rows() == GOLDEN
    assert mm.matrix.domain == ZZ
    from slpkit.exactmat import determinant

    assert determinant(mm.matrix) == -48
    assert rank_mod_p(mm.matrix, 5).rank == 4
    assert rank_mod_p(mm.matrix, 3).rank == 3
    assert rank_mod_p(mm.matrix, 2).rank == 0


@pytest.mark.parametrize(
    "bounds,char,seed",
    [
        ((3, 3), 0, 1),
        ((2, 2, 2), 0, 2),
        ((2, 3, 4), 0, 3),
        ((3, 3), 5, 4),
        ((2, 2, 2, 2), 7, 5),
        ((4, 4), 0, 6),
    ],
)
def test_entries_match_naive_power_products(bounds, char, seed):
    # every column must equal form^t times the source monomial, recomputed
    # here by repeated naive products with no multinomial shortcut
    rng = random.Random(seed)
    spec = AlgebraSpec(len(bounds), bounds, char)
    coeffs = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(spec.n))
    form = LinearForm(coeffs)
    m = spec.socle_degree
    for i in range(m + 1):
        for t in range(m - i + 1):
            mm = build_matrix(spec, form, i, t)
            src = graded_basis(spec, i)
            pos = basis_positions(spec, i + t)
            for col, u in enumerate(src):
                want = oracles.naive_power_times(bounds, coeffs, t, u.exponents, char)
                got_col = {}
                for v, r in pos.items():
                    e = mm.matrix.entry(r, col)
                    if e:
                        got_col[v.exponents] = e
                assert got_col == want


_COEFFS = st.sampled_from([0, 0, 1, -1, 2, -3, 3])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_build_matrix_matches_reference_builder(data):
    # boxes of up to 729 monomials keep the entry-by-entry reference quick
    bounds = data.draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(lambda b: prod(b) <= 729)
    )
    char = data.draw(st.sampled_from([0, 2, 3, 5, 7]))
    coeff = _COEFFS
    if char == 0:
        coeff = st.one_of(_COEFFS, st.fractions(-3, 3, max_denominator=4))
    coeffs = tuple(data.draw(st.lists(coeff, min_size=len(bounds), max_size=len(bounds))))
    spec = AlgebraSpec(len(bounds), tuple(bounds), char)
    rational = char == 0 and any(isinstance(c, Fraction) for c in coeffs)
    domain = GF if char else (QQ if rational else ZZ)
    m = spec.socle_degree
    for i in range(m + 1):
        for t in range(m - i + 1):
            mat = build_matrix(spec, LinearForm(coeffs), i, t).matrix
            assert mat.domain == domain
            assert mat.to_rows() == oracles.reference_matrix(bounds, coeffs, i, t, char)
            if not rational:
                assert mat.array.dtype == np.int64
                assert all(type(e) is int for e in mat.entries)


def test_entries_beyond_int64_take_the_object_path():
    spec = AlgebraSpec.quadratic(8)
    form = LinearForm((10**3,) * 8)
    mm = build_matrix(spec, form, 0, 8)
    assert mm.matrix.array.dtype == object
    assert mm.matrix.entries == (factorial(8) * 10**24,)
    for i, t in ((0, 8), (1, 7), (2, 5), (3, 2)):
        mat = build_matrix(spec, form, i, t).matrix
        assert mat.to_rows() == oracles.reference_matrix((2,) * 8, form.coefficients, i, t)
        assert mat.array.dtype == (object if factorial(t) * 10 ** (3 * t) >= 2**62 else np.int64)
        assert all(type(e) is int for e in mat.entries)


def test_boxes_beyond_int64_codes_build_exactly():
    # 2^64 standard monomials: the mixed-radix codes need Python ints
    n = 64
    spec = AlgebraSpec.quadratic(n)
    coeffs = tuple(range(1, n + 1))
    mm = build_matrix(spec, LinearForm(coeffs), 1, 1)
    pos = basis_positions(spec, 2)
    assert (mm.matrix.rows, mm.matrix.cols) == (comb(n, 2), n)
    for col, u in enumerate(graded_basis(spec, 1)):
        want = oracles.naive_power_times((2,) * n, coeffs, 1, u.exponents)
        got = {v.exponents: mm.matrix.entry(r, col) for v, r in pos.items() if mm.matrix.entry(r, col)}
        assert got == want


def test_socle_entry_is_the_full_multinomial():
    for n in range(1, 9):
        spec = AlgebraSpec.quadratic(n)
        mm = build_matrix(spec, LinearForm.ones(n), 0, n)
        assert mm.matrix.to_rows() == [[factorial(n)]]
    spec = AlgebraSpec(2, (3, 3))
    assert build_matrix(spec, LinearForm.ones(2), 0, 4).matrix.to_rows() == [[6]]
    spec = AlgebraSpec(2, (2, 3))
    assert build_matrix(spec, LinearForm.ones(2), 0, 3).matrix.to_rows() == [[3]]


def test_golden_two_cubics_middle():
    spec = AlgebraSpec(2, (3, 3))
    mm = build_matrix(spec, LinearForm.ones(2), 1, 2)
    assert mm.matrix.to_rows() == [[2, 1], [1, 2]]


def test_power_zero_gives_identity():
    for spec in (AlgebraSpec.quadratic(3), AlgebraSpec(2, (3, 4)), AlgebraSpec.quadratic(3, 5)):
        for i in range(spec.socle_degree + 1):
            mm = build_matrix(spec, LinearForm.ones(spec.n), i, 0)
            k = spec.dim(i)
            assert mm.matrix.to_rows() == ExactMatrix.identity(k).to_rows()


def test_fraction_coefficients_build_rational_matrices():
    spec = AlgebraSpec.quadratic(2)
    form = LinearForm((Fraction(1, 2), 1))
    mm = build_matrix(spec, form, 0, 2)
    assert mm.matrix.domain == QQ
    assert mm.matrix.to_rows() == [[Fraction(1)]]
    ok, rr = max_rank_check(mm)
    assert ok and rr.rank == 1


def test_build_validation():
    spec = AlgebraSpec.quadratic(3)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(2), 0, 1)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(3), 2, 2)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(3), -1, 1)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(3), 0, -1)


def _composition_triples(m):
    for i in range(m + 1):
        for s in range(1, m - i + 1):
            for t in range(1, m - i - s + 1):
                yield i, s, t


@pytest.mark.parametrize(
    "spec,form",
    [
        (AlgebraSpec.quadratic(5), LinearForm.ones(5)),
        (AlgebraSpec.quadratic(4), LinearForm((1, -2, 3, 1))),
        (AlgebraSpec(2, (3, 4)), LinearForm((2, 1))),
        (AlgebraSpec(3, (2, 2, 3)), LinearForm.ones(3)),
        (AlgebraSpec.quadratic(4, 7), LinearForm((1, 2, 3, 4))),
    ],
)
def test_power_composition_identity(spec, form):
    # multiplying by form^(s+t) equals composing the two partial maps
    for i, s, t in _composition_triples(spec.socle_degree):
        whole = build_matrix(spec, form, i, s + t).matrix
        second = build_matrix(spec, form, i + s, t).matrix
        first = build_matrix(spec, form, i, s).matrix
        assert mat_mul(second, first) == whole


def test_pair_generators():
    assert middle_pairs(4) == ((0, 4), (1, 2))
    assert middle_pairs(5) == ((0, 5), (1, 3), (2, 1))
    assert middle_pairs(0) == ()
    assert full_pairs(3) == ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1))
    for m in range(1, 9):
        assert len(full_pairs(m)) == m * (m + 1) // 2
        for i, t in middle_pairs(m):
            assert t >= 1 and i + t == m - i


def test_slp_holds_for_quadratic_sweep():
    for n in range(1, 9):
        spec = AlgebraSpec.quadratic(n)
        for method in ("dense", "block"):
            report = slp_check(spec, LinearForm.ones(n), method=method)
            assert report.slp and report.failures == ()
            assert report.mode == "middle" and report.method == method
            assert [(c.i, c.t) for c in report.maps] == list(middle_pairs(n))
            for c in report.maps:
                assert c.rank == min(c.rows, c.cols)
                assert (c.rows, c.cols) == (comb(n, c.i + c.t), comb(n, c.i))


def test_slp_small_characteristic_failures():
    report2 = slp_check(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3))
    assert not report2.slp
    assert report2.failures == ((0, 3), (1, 1))
    report3 = slp_check(AlgebraSpec.quadratic(3, 3), LinearForm.ones(3))
    assert not report3.slp
    assert report3.failures == ((0, 3),)


def test_slp_general_spec_full_mode():
    spec = AlgebraSpec(2, (3, 4))
    report = slp_check(spec, LinearForm.ones(2))
    assert report.mode == "full" and report.method == "dense"
    assert report.slp
    assert len(report.maps) == 15


def test_full_and_middle_verdicts_agree():
    cases = [
        (AlgebraSpec.quadratic(4), LinearForm.ones(4)),
        (AlgebraSpec.quadratic(4, 3), LinearForm.ones(4)),
        (AlgebraSpec.quadratic(4, 5), LinearForm.ones(4)),
        (AlgebraSpec.quadratic(5, 2), LinearForm.ones(5)),
        (AlgebraSpec(2, (3, 3)), LinearForm.ones(2)),
        (AlgebraSpec(2, (3, 3), 2), LinearForm.ones(2)),
        (AlgebraSpec(3, (2, 3, 2), 5), LinearForm.ones(3)),
    ]
    for spec, form in cases:
        full = slp_check(spec, form, mode="full", method="dense")
        middle = slp_check(spec, form, mode="middle", method="dense")
        assert full.slp == middle.slp


def test_nonzero_forms_hold_and_zero_coefficient_fails():
    rng = random.Random(42)
    for n in range(2, 6):
        spec = AlgebraSpec.quadratic(n)
        coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
        assert slp_check(spec, LinearForm(coeffs)).slp
        dead = coeffs[:1] + (0,) + coeffs[2:]
        assert not slp_check(spec, LinearForm(dead)).slp
    assert not slp_check(AlgebraSpec.quadratic(2), LinearForm((0, 0))).slp


def test_char_search_four_vars():
    probes = char_search(AlgebraSpec.quadratic(4), LinearForm.ones(4), (2, 3, 5, 7, 11, 13))
    assert [pr.prime for pr in probes] == [2, 3, 5, 7, 11, 13]
    failing = {pr.prime for pr in probes if not pr.slp}
    assert failing == {2, 3}
    by_prime = {pr.prime: pr for pr in probes}
    assert by_prime[2].failing == ((0, 4), (1, 2))
    assert by_prime[3].failing == ((0, 4), (1, 2))
    assert by_prime[5].failing == ()


def test_char_above_socle_degree_always_holds():
    for n in range(1, 7):
        p = next_prime(n)
        spec = AlgebraSpec.quadratic(n, p)
        assert slp_check(spec, LinearForm.ones(n)).slp
    spec = AlgebraSpec(2, (3, 4), next_prime(5))
    assert slp_check(spec, LinearForm.ones(2)).slp


def test_char_search_validation():
    spec = AlgebraSpec.quadratic(3)
    with pytest.raises(ValueError):
        char_search(spec, LinearForm.ones(3), (4,))
    with pytest.raises(TypeError):
        char_search(spec, LinearForm((Fraction(1, 2), 1, 1)), (5,))


def test_parallel_jobs_give_identical_reports():
    spec = AlgebraSpec.quadratic(6)
    form = LinearForm.ones(6)
    one = slp_check(spec, form, jobs=1)
    two = slp_check(spec, form, jobs=2)
    strip = lambda report: [(c.i, c.t, c.rows, c.cols, c.rank, c.maximal, c.method) for c in report.maps]
    assert strip(one) == strip(two)
    assert one.slp == two.slp


def test_report_json_shape():
    report = slp_check(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3))
    data = report.to_json_dict()
    assert set(data) == {"spec", "form", "characteristic", "mode", "method", "maps", "slp", "timing"}
    assert data["slp"] is False
    assert data["characteristic"] == 2
    assert [tuple((d["i"], d["t"])) for d in data["maps"]] == [(0, 3), (1, 1)]
    for d in data["maps"]:
        assert set(d) == {"i", "t", "rows", "cols", "rank", "maximal", "method", "ms"}


def test_max_rank_check_methods():
    golden = build_matrix(AlgebraSpec.quadratic(4), LinearForm.ones(4), 1, 2)
    ok, rr = max_rank_check(golden)
    assert ok and rr.method == "modular"
    degenerate = build_matrix(AlgebraSpec.quadratic(3), LinearForm((1, 1, 0)), 0, 3)
    ok, rr = max_rank_check(degenerate)
    assert not ok and rr.method == "fraction-free"
    gf = build_matrix(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3), 1, 1)
    ok, rr = max_rank_check(gf)
    assert not ok and rr.method == "modular"


def test_linear_form_helpers():
    form = LinearForm((1, -2, Fraction(1, 3)))
    assert form.nvars == 3
    assert form.to_json() == [1, -2, "1/3"]
    assert form.restricted() == LinearForm((1, -2))
    assert LinearForm.ones(2) == LinearForm((1, 1))
    spec = AlgebraSpec.quadratic(3)
    el = LinearForm((1, 0, 2)).element(spec)
    assert {str(m): c for m, c in el.terms.items()} == {"x1": 1, "x3": 2}
    with pytest.raises(ValueError):
        LinearForm((1,)).restricted()


def test_mode_method_validation():
    spec = AlgebraSpec.quadratic(3)
    form = LinearForm.ones(3)
    with pytest.raises(ValueError):
        slp_check(spec, form, mode="sideways")
    with pytest.raises(ValueError):
        slp_check(spec, form, method="magic")
    with pytest.raises(ValueError):
        slp_check(spec, form, mode="full", method="block")
    with pytest.raises(ValueError):
        slp_check(AlgebraSpec(2, (3, 3)), LinearForm.ones(2), method="block")
    with pytest.raises(ValueError):
        slp_check(spec, LinearForm.ones(4))
    with pytest.raises(ValueError):
        slp_check(spec, form, jobs=0)


def test_char_probe_is_plain_data():
    probe = CharProbe(5, True, ())
    assert probe.prime == 5 and probe.slp and probe.failing == ()
