"""Multiplication matrices, rank verdicts and characteristic scans."""
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, prod
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np
import oracles
import slpkit.blockrec
import slpkit.exactmat
import slpkit.lefschetz
from oracles import next_prime
from slpkit.cli import main
from slpkit.blockrec import decompose
from slpkit.exactmat import mat_mul, rank_mod_p
from slpkit.lefschetz import (
    LinearForm,
    build_matrix,
    char_search,
    check_map,
    full_pairs,
    middle_pairs,
    slp_check,
)
from slpkit.quotient import AlgebraSpec, graded_basis, basis_positions, hilbert_vector

GOLDEN = [[2, 2, 2, 0], [2, 2, 0, 2], [2, 0, 2, 2], [0, 2, 2, 2]]


def test_golden_four_variable_power_two():
    spec = AlgebraSpec.quadratic(4)
    mm = build_matrix(spec, LinearForm.ones(4), 1, 2)
    assert mm.matrix.to_rows() == GOLDEN
    assert mm.matrix.modulus is None
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
                want = oracles.naive_power_times(bounds, coeffs, t, u, char)
                got_col = {}
                for v, r in pos.items():
                    e = mm.matrix.entry(r, col)
                    if e:
                        got_col[v] = e
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
    coeffs = tuple(data.draw(st.lists(_COEFFS, min_size=len(bounds), max_size=len(bounds))))
    spec = AlgebraSpec(len(bounds), tuple(bounds), char)
    m = spec.socle_degree
    for i in range(m + 1):
        for t in range(m - i + 1):
            mat = build_matrix(spec, LinearForm(coeffs), i, t).matrix
            assert mat.modulus == (char or None)
            assert mat.to_rows() == oracles.reference_matrix(bounds, coeffs, i, t, char)
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
        want = oracles.naive_power_times((2,) * n, coeffs, 1, u)
        got = {v: mm.matrix.entry(r, col) for v, r in pos.items() if mm.matrix.entry(r, col)}
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
            assert mm.matrix.to_rows() == np.eye(k, dtype=np.int64).tolist()


def test_build_matrix_refuses_fractional_coefficients():
    # every matrix is over ZZ or F_p: a Fraction, integral or not, is refused
    # when the form is made, with the hint to scale it
    for coeffs in ((Fraction(1, 2), 1), (Fraction(4, 1), 1), (1, 1, Fraction(1, 2))):
        with pytest.raises(TypeError, match="nonzero multiples have the same ranks"):
            LinearForm(coeffs)
    spec = AlgebraSpec.quadratic(2)
    mm = build_matrix(spec, LinearForm((4, 1)), 0, 2)
    assert mm.matrix.entries == (8,) and type(mm.matrix.entry(0, 0)) is int
    dec = decompose(AlgebraSpec.quadratic(3), LinearForm((1, 1, np.int64(4))), 1, 1)
    assert dec.bottom_left_scalar == 4 and type(dec.bottom_left_scalar) is int
    assert dec.assemble() == build_matrix(AlgebraSpec.quadratic(3), LinearForm((1, 1, 4)), 1, 1).matrix
    # (1, 2), the scaled (1/2, 1): the socle map 2 * 1 * 2 = 4
    mc = check_map(spec, LinearForm((1, 2)), 0, 2, "dense")
    assert (mc.rank, mc.maximal, mc.peak_bits) == (1, True, 3)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_form_and_its_nonzero_multiples_have_the_same_ranks(data):
    # (c l)^t = c^t l^t: over Q for every c != 0, over F_p when p does not
    # divide c; this is why a rational form can be scaled to an integer one
    bounds = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda b: prod(b) <= 256))
    n = len(bounds)
    char = data.draw(st.sampled_from([0, 2, 3, 5, 7]))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    c = data.draw(st.integers(-30, 30).filter(lambda c: c and (char == 0 or c % char)))
    spec = AlgebraSpec(n, tuple(bounds), char)
    for mode in ("middle", "full"):
        got = slp_check(spec, LinearForm(tuple(c * a for a in coeffs)), mode=mode)
        want = slp_check(spec, LinearForm(coeffs), mode=mode)
        assert [(m.i, m.t, m.rank, m.maximal) for m in got.maps] == [
            (m.i, m.t, m.rank, m.maximal) for m in want.maps
        ]


def test_build_validation():
    spec = AlgebraSpec.quadratic(3)
    with pytest.raises(ValueError, match="form coefficients must be a sequence of integers, not 3"):
        LinearForm(3)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(2), 0, 1)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(3), 2, 2)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(3), -1, 1)
    with pytest.raises(ValueError):
        build_matrix(spec, LinearForm.ones(3), 0, -1)


def _no_basis_listing(*args):
    pytest.fail("an oversized map reached graded_basis or a code table")


def _only_socle_builds(monkeypatch, spec):
    """Stub build_matrix to fail on any map but spec's 1x1 socle map (0, m); the returned list records the (i, t) built."""
    built = []

    def stub(s, form, i, t):
        if (s, i, t) != (spec, 0, spec.socle_degree):
            pytest.fail(f"built the ({i}, {t}) map of {s}")
        built.append((i, t))
        return build_matrix(s, form, i, t)

    monkeypatch.setattr(slpkit.lefschetz, "build_matrix", stub)
    return built


def test_oversized_maps_are_refused_before_any_listing(monkeypatch):
    import slpkit.embedding
    import slpkit.quotient

    spec = AlgebraSpec.quadratic(30)
    ones = LinearForm.ones(30)
    with monkeypatch.context() as mp:
        mp.setattr(slpkit.lefschetz, "graded_basis", _no_basis_listing)
        for module in (slpkit.quotient, slpkit.lefschetz, slpkit.embedding):
            mp.setattr(module, "_position_codes", _no_basis_listing)
        # every route that builds the maps refuses them first
        with pytest.raises(ValueError, match="limit"):
            build_matrix(spec, ones, 14, 2)
        with pytest.raises(ValueError, match=r"\(i=14, t=2\) map is 145422675x145422675"):
            check_map(spec, ones, 14, 2, "dense")
        with pytest.raises(ValueError, match="limit"):
            slp_check(spec, ones, method="dense")
        with pytest.raises(ValueError, match="limit"):
            slp_check(spec, ones, mode="full")
        with pytest.raises(ValueError, match=r"\(i=8, t=1\) map is 24310x24310"):
            check_map(AlgebraSpec.quadratic(17, 17), LinearForm.ones(17), 8, 1, "dense")
    # p <= m is outside the proof's hypotheses: the fold answers without building the maps
    small = AlgebraSpec.quadratic(17, 17)
    built = _only_socle_builds(monkeypatch, small)
    mc = check_map(small, LinearForm.ones(17), 8, 1)
    assert (mc.rows, mc.cols, mc.rank, mc.method) == (24310, 24310, 24310, "jordan")
    assert built == []
    # a zero coefficient fails the hypotheses after the 1x1 socle map, and the fold answers the rest
    built = _only_socle_builds(monkeypatch, spec)
    report = slp_check(spec, LinearForm((0,) + (1,) * 29))
    assert report.failures == tuple(middle_pairs(30))
    assert [c.rank for c in report.maps] == [oracles.tensor_wilson_rank(30, 1, i, t, 0) for i, t in middle_pairs(30)]
    assert {c.method for c in report.maps} == {"jordan"}
    assert built == [(0, 30)]
    # under the hypotheses the proof route builds the socle map alone, at any size
    built.clear()
    mc = check_map(spec, ones, 14, 2)
    assert (mc.rows, mc.rank, mc.maximal, mc.method) == (145422675, 145422675, True, "block-recursive")
    assert built == [(0, 30)]


def test_the_paper_gives_a_verdict_at_every_size(monkeypatch):
    spec = AlgebraSpec.quadratic(1000)
    built = _only_socle_builds(monkeypatch, spec)
    report = slp_check(spec, LinearForm.ones(1000))
    assert report.slp and len(report.maps) == 500
    assert all(c.rank == comb(1000, c.i) and c.method == "block-recursive" for c in report.maps)
    assert built == [(0, 1000)]
    # (5,)*9 has socle degree 36: p = 37 is inside the hypotheses, p = 31 is not
    spec = AlgebraSpec(9, (5,) * 9, 37)
    built = _only_socle_builds(monkeypatch, spec)
    report = slp_check(spec, LinearForm.ones(9))
    assert report.slp and [(c.i, c.rank) for c in report.maps] == [(i, spec.dim(i)) for i in range(18)]
    assert built == [(0, 36)]
    spec = replace(spec, characteristic=31)
    built = _only_socle_builds(monkeypatch, spec)
    report = slp_check(spec, LinearForm.ones(9))
    # the socle scalar 36!/(4!)^9 vanishes mod 31
    assert report.failures[0] == (0, 36) and report.maps[0].rank == 0
    assert {c.method for c in report.maps} == {"jordan"} and built == []
    with pytest.raises(ValueError, match="limit"):
        slp_check(spec, LinearForm.ones(9), method="dense")


@pytest.mark.parametrize(
    "n, p, zeros",
    [(200, 7, 0), (30, 29, 0), (17, 17, 0), (30, 0, 3)],
    ids=["200-p7", "30-p29", "17-p17", "30-zeros"],
)
def test_the_fold_gives_a_verdict_outside_the_hypotheses(monkeypatch, n, p, zeros):
    # each has middle maps above MAX_MAP_CELLS, and is decided by the fold alone
    spec = AlgebraSpec.quadratic(n, p)
    form = LinearForm((0,) * zeros + (1,) * (n - zeros))
    built = _only_socle_builds(monkeypatch, spec)
    report = slp_check(spec, form)
    assert not report.slp and {c.method for c in report.maps} == {"jordan"}
    assert [c.rank for c in report.maps] == [oracles.tensor_wilson_rank(n, zeros, i, t, p) for i, t in middle_pairs(n)]
    # a zero coefficient is found by the socle map; p <= m is decided before any map is built
    assert built == ([(0, n)] if zeros else [])


def test_a_zero_coefficient_builds_the_socle_map_once(monkeypatch):
    spec = AlgebraSpec.quadratic(11)
    built = _only_socle_builds(monkeypatch, spec)
    report = slp_check(spec, LinearForm((1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1)))
    assert report.failures == tuple(middle_pairs(11))
    assert built == [(0, 11)]


def test_each_map_is_size_checked_at_most_twice(monkeypatch):
    real = slpkit.lefschetz._refuse_oversized_maps
    seen = []

    def counting(spec, pairs):
        pairs = tuple(pairs)
        seen.extend((spec, i, t) for i, t in pairs)
        return real(spec, pairs)

    monkeypatch.setattr(slpkit.lefschetz, "_refuse_oversized_maps", counting)
    spec, ones = AlgebraSpec.quadratic(9), LinearForm.ones(9)
    # under the hypotheses only the socle map is built, and only build_matrix checks it
    assert slp_check(spec, ones).slp
    assert seen == [(spec, 0, 9)]
    # dense sweeps: once up front, once in build_matrix
    for kwargs, sweep in (({"method": "dense"}, middle_pairs(9)), ({"mode": "full"}, full_pairs(9))):
        seen.clear()
        slp_check(spec, ones, **kwargs)
        assert sorted(seen) == sorted(2 * [(spec, i, t) for i, t in sweep]), kwargs
    # the fold at p <= m builds no map, so checks none
    seen.clear()
    slp_check(AlgebraSpec.quadratic(9, 7), ones)
    assert seen == []


def test_char_search_computes_the_hilbert_function_once():
    from slpkit.quotient import _hilbert_function

    _hilbert_function.cache_clear()
    reports = char_search(AlgebraSpec.quadratic(7), LinearForm.ones(7), (2, 3, 5, 7, 11))
    assert [r.slp for r in reports] == [False, False, False, False, True]
    info = _hilbert_function.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0


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
        for method in ("dense", "auto"):
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
    # the block recursion needs characteristic > m; each map says it fell back
    for c in report3.maps:
        assert len(c.notes) == 1 and c.notes[0].startswith("characteristic 3 <= socle degree 3")


def test_slp_general_spec_full_mode():
    spec = AlgebraSpec(2, (3, 4))
    report = slp_check(spec, LinearForm.ones(2))
    assert report.mode == "middle" and report.method == "auto"
    assert report.slp
    assert [(c.i, c.t) for c in report.maps] == [(0, 5), (1, 3), (2, 1)]
    full = slp_check(spec, LinearForm.ones(2), mode="full")
    assert full.mode == "full" and full.method == "dense"
    assert full.slp
    assert len(full.maps) == 15


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_middle_maps_decide_the_full_property(data):
    # symmetric Hilbert functions: bijective middle maps give maximal rank
    # for every power, in every characteristic
    bounds = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    char = data.draw(st.sampled_from([0, 2, 3, 5, 7]))
    coeffs = data.draw(
        st.lists(st.sampled_from([0, 1, -1, 2, 3]), min_size=len(bounds), max_size=len(bounds))
    )
    spec = AlgebraSpec(len(bounds), bounds, char)
    form = LinearForm(coeffs)
    middle = slp_check(spec, form, mode="middle")
    full = slp_check(spec, form, mode="full")
    assert [(c.i, c.t) for c in middle.maps] == list(middle_pairs(spec.socle_degree))
    assert middle.slp == full.slp
    assert set(middle.failures) <= set(full.failures)


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
    reports = char_search(AlgebraSpec.quadratic(4), LinearForm.ones(4), (2, 3, 5, 7, 11, 13))
    assert [r.spec.characteristic for r in reports] == [2, 3, 5, 7, 11, 13]
    failing = {r.spec.characteristic for r in reports if not r.slp}
    assert failing == {2, 3}
    by_prime = {r.spec.characteristic: r for r in reports}
    assert by_prime[2].failures == ((0, 4), (1, 2))
    assert by_prime[3].failures == ((0, 4), (1, 2))
    assert by_prime[5].failures == ()


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


def _strip_ms(report):
    return replace(report, total_ms=0, maps=tuple(replace(c, ms=0) for c in report.maps))


def test_char_search_returns_slp_check_reports():
    spec, form = AlgebraSpec(2, (3, 4)), LinearForm((1, 2))
    reports = char_search(spec, form, (2, 3, 7))
    assert [_strip_ms(r) for r in reports] == [
        _strip_ms(slp_check(replace(spec, characteristic=p), form)) for p in (2, 3, 7)
    ]
    assert reports[0].maps[0].notes  # the per-map notes survive the scan


@pytest.mark.parametrize("primes", [(11, 4), (11, 1), (11, 0)], ids=str)
def test_char_search_checks_every_prime_before_any_map(monkeypatch, primes):
    def no_check(*args, **kwargs):
        pytest.fail("char_search checked a map before refusing a non-prime")

    monkeypatch.setattr(slpkit.lefschetz, "slp_check", no_check)
    with pytest.raises(ValueError, match=f"^{primes[-1]} is not prime$"):
        char_search(AlgebraSpec.quadratic(12), LinearForm.ones(12), primes)


def test_char_search_takes_the_block_route_above_n(monkeypatch):
    real = slpkit.blockrec.recursive_middle_rank
    structured = []

    def counting(spec, form, i, t):
        rr = real(spec, form, i, t)
        if rr.method == "block-recursive":
            structured.append((spec.n, spec.characteristic, i))
        return rr

    monkeypatch.setattr(slpkit.blockrec, "recursive_middle_rank", counting)
    rng = random.Random(606)
    primes = (2, 3, 5, 7, 11, 13)
    for n in range(1, 9):
        for _ in range(2):
            form = LinearForm(tuple(rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for _ in range(n)))
            spec = AlgebraSpec.quadratic(n)
            structured.clear()
            reports = char_search(spec, form, primes)
            for r in reports:
                p = r.spec.characteristic
                dense = slp_check(AlgebraSpec.quadratic(n, p), form, method="dense")
                assert (r.slp, r.failures) == (dense.slp, dense.failures), (form, p)
            for p in primes:
                if p > n and all(c % p for c in form.coefficients):
                    got = sorted(i for m, q, i in structured if (m, q) == (n, p))
                    assert got == list(range((n + 1) // 2)), (form, p)


def test_report_json_shape():
    report = slp_check(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3))
    data = report.to_json_dict()
    assert set(data) == {"spec", "form", "characteristic", "mode", "method", "maps", "slp", "timing"}
    assert data["slp"] is False
    assert data["characteristic"] == 2
    assert [tuple((d["i"], d["t"])) for d in data["maps"]] == [(0, 3), (1, 1)]
    for d in data["maps"]:
        assert set(d) == {"i", "t", "rows", "cols", "rank", "maximal", "method", "ms", "notes", "peak_bits"}


def test_dense_check_map_methods():
    golden = check_map(AlgebraSpec.quadratic(4), LinearForm.ones(4), 1, 2, "dense")
    assert golden.maximal and golden.method == "modular"
    degenerate = check_map(AlgebraSpec.quadratic(3), LinearForm((1, 1, 0)), 0, 3, "dense")
    assert not degenerate.maximal and degenerate.method == "fraction-free"
    gf = check_map(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3), 1, 1, "dense")
    assert not gf.maximal and gf.method == "modular"


def test_coefficient_seven_on_quadratic_six_is_certified_modularly():
    # a probe prime chosen as next_prime(socle degree) = 7 would see this form lose a variable
    report = slp_check(AlgebraSpec.quadratic(6), LinearForm((7, 1, 1, 1, 1, 1)), method="dense")
    assert report.slp and len(report.maps) == 3
    assert [c.method for c in report.maps] == ["modular"] * 3


def test_block_recursion_with_coefficient_n_plus_one_needs_no_exact_elimination(monkeypatch):
    def no_exact_elimination(m):
        pytest.fail("a form with nonzero coefficients reached fraction-free elimination")

    monkeypatch.setattr(slpkit.exactmat, "rank_fraction_free", no_exact_elimination)
    assert slp_check(AlgebraSpec.quadratic(10), LinearForm((11,) + (1,) * 9)).slp


def test_linear_form_helpers():
    form = LinearForm([1, -2, np.int64(3)])
    assert form.nvars == 3
    assert form.to_json() == [1, -2, 3]
    assert form.restricted() == LinearForm((1, -2))
    assert LinearForm.ones(2) == LinearForm((1, 1))
    with pytest.raises(ValueError):
        LinearForm((1,)).restricted()


def test_a_form_hashes_its_coefficients_once():
    # the auto route's memo looks the form up once per map
    class Counted(tuple):
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return super().__hash__()

    form = LinearForm(Counted((1, -2, 3)))
    memo = {form: "decision"}
    assert all(memo[form] == "decision" for _ in range(5))
    assert Counted.calls == 1
    assert form == LinearForm((1, -2, 3)) and hash(form) == hash(LinearForm([1, -2, np.int64(3)]))


@pytest.mark.parametrize(
    "inexact",
    [1.5, 0.5, Decimal("0.5"), Fraction(1, 2), Fraction(4, 1)],
    ids=["float-1.5", "float-0.5", "Decimal", "Fraction-1/2", "Fraction-4/1"],
)
def test_linear_form_refuses_inexact_coefficients(inexact):
    # the matrix build would truncate a float, so 0.5 would act as a zero
    # coefficient; a Fraction, integral or not, is refused as well
    with pytest.raises(TypeError):
        LinearForm((inexact, 1, 1))
    assert LinearForm((True, np.int64(2), 1)).coefficients == (1, 2, 1)


def test_numpy_integer_coefficients_act_as_ints():
    # kept as np.int64, c**t and the multinomial would wrap in int64
    form = LinearForm((np.int64(2), True))
    assert [type(c) for c in form.coefficients] == [int, int] and form.coefficients == (2, 1)
    assert json.dumps(form.to_json()) == "[2, 1]"
    spec = AlgebraSpec(1, (70,))
    c = check_map(spec, LinearForm((np.int64(2),)), 0, 64)
    assert c.rank == 1
    assert replace(c, ms=0) == replace(check_map(spec, LinearForm((2,)), 0, 64), ms=0)
    assert slp_check(spec, LinearForm((np.int64(2),))).slp
    spec = AlgebraSpec(2, (40, 40))
    got, want = slp_check(spec, LinearForm((np.int64(3), 1))), slp_check(spec, LinearForm((3, 1)))
    assert got.slp == want.slp
    assert [replace(c, ms=0) for c in got.maps] == [replace(c, ms=0) for c in want.maps]
    primes = (2, 3, 83)
    got, want = char_search(spec, LinearForm((np.int64(3), 1)), primes), char_search(spec, LinearForm((3, 1)), primes)
    assert [_strip_ms(r) for r in got] == [_strip_ms(r) for r in want]


def test_mode_method_validation(capsys):
    spec = AlgebraSpec.quadratic(3)
    form = LinearForm.ones(3)
    with pytest.raises(ValueError):
        slp_check(spec, form, mode="sideways")
    with pytest.raises(ValueError):
        slp_check(spec, form, method="magic")
    # "block" is no method: "auto" already takes the proof route for every middle map
    for mode in ("middle", "full"):
        with pytest.raises(ValueError, match="unknown method"):
            slp_check(spec, form, mode=mode, method="block")
    with pytest.raises(ValueError, match="unknown method"):
        check_map(spec, form, 0, 3, "block")
    with pytest.raises(ValueError):
        slp_check(spec, form, mode="auto")
    # full mode runs dense even for quadratic(1), whose one full pair is a middle map
    full = slp_check(AlgebraSpec.quadratic(1), LinearForm.ones(1), mode="full")
    assert full.method == "dense" and [c.method for c in full.maps] == ["modular"]
    with pytest.raises(ValueError):
        slp_check(spec, LinearForm.ones(4))
    with pytest.raises(TypeError):
        char_search(spec, form, (5,), mode="full")
    for argv in (
        ["rank", "--quadratic", "3", "--i", "0", "--t", "3", "--method", "block"],
        ["bench", "--quadratic", "3", "--methods", "dense"],
        ["char-search", "--quadratic", "3", "--primes", "2..5", "--mode", "full"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_check_map_picks_the_route_by_the_hypotheses():
    spec, form = AlgebraSpec.quadratic(5), LinearForm.ones(5)
    assert check_map(spec, form, 1, 3).method == "block-recursive"
    assert check_map(spec, form, 1, 3, "dense").method == "modular"
    # under the hypotheses a map off the middle takes the proof route too
    assert check_map(spec, form, 1, 2).method == "block-recursive"
    assert check_map(spec, form, 1, 2, "dense").method == "modular"
    general = AlgebraSpec(2, (3, 3))
    assert check_map(general, LinearForm.ones(2), 1, 2).method == "block-recursive"
    assert check_map(general, LinearForm.ones(2), 1, 1).method == "block-recursive"
    # outside them every map is folded, middle or not, with the note that says why
    for outside, f in ((AlgebraSpec.quadratic(5, 3), form), (spec, LinearForm((1, 1, 1, 1, 0)))):
        for i, t in ((1, 3), (1, 2), (0, 1)):
            c = check_map(outside, f, i, t)
            assert c.method == "jordan" and len(c.notes) == 1, (outside, f, i, t)
    # 2i + t == m, but i < 0: out of range on both routes
    for method in ("auto", "dense"):
        with pytest.raises(ValueError, match="out of range"):
            check_map(spec, form, -1, 7, method)
    with pytest.raises(ValueError):
        check_map(spec, form, 1, 3, "magic")
    c = check_map(spec, LinearForm((1, 1, 1, 1, 1000)), 0, 5, "dense")
    assert c.rank == 1 and c.peak_bits == (120 * 1000).bit_length()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_auto_matches_the_full_dense_check_under_the_hypotheses(data):
    # killed powers 1..4 on up to four variables, characteristic 0 or a prime
    # above the socle degree, coefficients nonzero in the field
    n = data.draw(st.integers(1, 4))
    exponents = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    m = sum(exponents) - n
    char = data.draw(st.sampled_from([0] + [p for p in (2, 3, 5, 7, 11, 13, 17, 19) if p > m]))
    nonzero = st.integers(-40, 40).filter(lambda c: c % char if char else c)
    coeffs = tuple(data.draw(st.lists(nonzero, min_size=n, max_size=n)))
    spec, form = AlgebraSpec(n, exponents, char), LinearForm(coeffs)
    full = slp_check(spec, form, mode="full", method="dense")
    assert [(c.i, c.t) for c in full.maps] == list(full_pairs(m))
    for d in full.maps:
        a = check_map(spec, form, d.i, d.t)
        assert (a.rows, a.cols, a.rank, a.maximal) == (d.rows, d.cols, d.rank, d.maximal), (exponents, char, coeffs, d)
        assert (a.method, a.notes) == ("block-recursive", ()), (exponents, char, coeffs, d)


@pytest.mark.parametrize(
    "ns, primes",
    [
        pytest.param(range(1, 12), (2, 3, 5, 7, 11, 13), id="n<=11"),
        pytest.param((12,), (5, 11, 13), id="n=12", marks=pytest.mark.slow),
    ],
)
def test_middle_ranks_mod_p_match_wilson(ns, primes):
    # +-1 forms with up to two zero coefficients: the proof route for p > n
    # without zeros, the Jordan-type fold otherwise, and the dense route itself
    rng = random.Random(1990)
    for n in ns:
        for p in primes:
            spec = AlgebraSpec.quadratic(n, p)
            for zeros in range(min(2, n - 1) + 1):
                coeffs = [rng.choice((-1, 1)) for _ in range(n)]
                for k in rng.sample(range(n), zeros):
                    coeffs[k] = 0
                form = LinearForm(tuple(coeffs))
                for i, t in middle_pairs(n):
                    want = oracles.tensor_wilson_rank(n, zeros, i, t, p)
                    for method in ("auto", "dense"):
                        c = check_map(spec, form, i, t, method)
                        assert c.rank == want, (n, p, form, i, method)
                        route = "modular" if method == "dense" else "block-recursive" if p > n and not zeros else "jordan"
                        assert c.method == route, (n, p, form, i, method)


@pytest.mark.parametrize("nzero", [1, 2, 3])
def test_deficit_ranks_match_the_tensor_product_oracle(nzero):
    # k zero coefficients split the algebra as A (x) B with L acting on A alone
    rng = random.Random(3000 + nzero)
    for n in range(nzero + 1, 11):
        zeros = set(rng.sample(range(n), nzero))
        coeffs = [0 if k in zeros else rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for k in range(n)]
        spec = AlgebraSpec.quadratic(n)
        for i, t in middle_pairs(spec.socle_degree):
            c = check_map(spec, LinearForm(coeffs), i, t)
            assert c.rank == oracles.tensor_deficit_rank((2,) * (n - nzero), (2,) * nzero, i, t)
            assert not c.maximal


def test_general_deficit_ranks_match_the_tensor_product_oracle():
    # zero coefficients on general killed powers, a killed power of 1 included
    rng = random.Random(4000)
    for n in range(1, 5):
        for _ in range(12):
            exponents = tuple(rng.randint(1, 5) for _ in range(n))
            zeros = set(rng.sample(range(n), rng.randint(1, n)))
            rational = [0 if k in zeros else Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for k in range(n)]
            coeffs = oracles.integral_multiple(rational)
            spec = AlgebraSpec(n, exponents)
            live = tuple(d for k, d in enumerate(exponents) if k not in zeros)
            dead = tuple(d for k, d in enumerate(exponents) if k in zeros)
            for i, t in middle_pairs(spec.socle_degree):
                c = check_map(spec, LinearForm(coeffs), i, t)
                assert c.rank == oracles.tensor_deficit_rank(live, dead, i, t), (exponents, coeffs, i, t)
