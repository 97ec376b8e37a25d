"""Quotient algebras: graded bases, reduction, products, Hilbert vectors."""
from decimal import Decimal
from fractions import Fraction
from itertools import product as iproduct
from math import comb, prod
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import slpkit.quotient
from slpkit.embedding import EmbeddingSpec, transfer_slp, verify_kernel_dims
from slpkit.lefschetz import LinearForm, slp_check
from slpkit.quotient import (
    AlgebraElement,
    AlgebraSpec,
    _MEMO_SIZE,
    _hilbert_function,
    _position_codes,
    graded_basis,
    basis_positions,
    hilbert_vector,
    multiply,
)


def all_bounds(max_n, max_d):
    for n in range(1, max_n + 1):
        yield from iproduct(range(2, max_d + 1), repeat=n)


def test_quadratic_basis_matches_squarefree_listing():
    for n in range(1, 8):
        spec = AlgebraSpec.quadratic(n)
        for t in range(-1, n + 2):
            assert list(graded_basis(spec, t)) == oracles.brute_standard_monomials((2,) * n, t)


@pytest.mark.parametrize("bounds", [(3, 4, 2), (2, 3), (5,), (3, 3, 3), (2, 2, 2, 2), (4, 2, 3)])
def test_basis_matches_brute_force(bounds):
    spec = AlgebraSpec(len(bounds), bounds)
    for t in range(spec.socle_degree + 2):
        assert list(graded_basis(spec, t)) == oracles.brute_standard_monomials(bounds, t)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8).filter(lambda b: prod(b) <= 2048))
def test_pruned_listing_matches_brute_force_on_random_boxes(bounds):
    # killed powers of 1 pin an exponent to 0; one-variable boxes are
    # included; the product bound keeps the brute-force enumeration quick
    bounds = tuple(bounds)
    spec = AlgebraSpec(len(bounds), bounds)
    places = [prod(bounds[:k]) for k in range(len(bounds))]
    for t in range(-1, spec.socle_degree + 2):
        listing = graded_basis(spec, t)
        brute = oracles.brute_standard_monomials(bounds, t)
        assert all(type(m) is tuple for m in listing)
        assert list(listing) == brute
        assert basis_positions(spec, t) == {m: k for k, m in enumerate(listing)}
        codes = _position_codes(bounds, t)
        assert codes.tolist() == [sum(e * p for e, p in zip(m, places)) for m in brute]
        assert np.all(codes[1:] > codes[:-1])


def test_code_tables_above_int64_hold_python_ints():
    # prod(d) = 2^64: the codes 2^j + 2^k do not all fit the int64 table
    bounds = (2,) * 64
    codes = _position_codes(bounds, 2)
    assert codes.dtype == object and len(codes) == comb(64, 2)
    assert all(type(c) is int for c in codes) and codes[-1] == 2**62 + 2**63
    assert list(graded_basis(AlgebraSpec.quadratic(64), 2)) == _recursive_listing(bounds, 2)


def test_top_degrees_of_a_large_box_are_listed_without_a_full_walk():
    # unpruned, either degree walks about 2^40 prefixes
    spec = AlgebraSpec.quadratic(40)
    assert graded_basis(spec, 40) == ((1,) * 40,)
    below = graded_basis(spec, 39)
    assert len(below) == 40
    assert [m.index(0) for m in below] == list(range(39, -1, -1))


def _recursive_listing(bounds, t):
    """The listing as a recursion on the variable count: the last exponent
    ascends outermost, and an exponent that leaves the variables before it
    more than sum(d - 1) over them is skipped."""
    if len(bounds) == 1:
        return [(t,)] if 0 <= t < bounds[0] else []
    before = sum(d - 1 for d in bounds[:-1])
    return [
        rest + (e,)
        for e in range(max(0, t - before), min(bounds[-1] - 1, t) + 1)
        for rest in _recursive_listing(bounds[:-1], t - e)
    ]


@pytest.mark.parametrize("bounds", [(1,), (4,), (2, 3), (3, 1, 4), (1, 2, 1, 3, 2), (3, 3, 4, 4), (2,) * 7, (5, 1, 1, 5)])
def test_listing_keeps_the_recursive_order(bounds):
    spec = AlgebraSpec(len(bounds), bounds)
    for t in range(-1, spec.socle_degree + 2):
        assert list(graded_basis(spec, t)) == _recursive_listing(bounds, t)


def test_listing_is_shared_across_characteristics():
    listings = [graded_basis(AlgebraSpec(3, (3, 2, 4), p), 3) for p in (0, 2, 3, 5)]
    assert all(listing is listings[0] for listing in listings)


def test_many_variables_need_no_deep_recursion():
    # one generator frame per variable used to overflow the interpreter stack
    n = 1001
    spec = AlgebraSpec(n, (1,) * 1000 + (3,))
    assert graded_basis(spec, 2) == ((0,) * 1000 + (2,),)
    assert graded_basis(spec, 1) == ((0,) * 1000 + (1,),)  # a degree below the top walks every variable
    report = slp_check(spec, LinearForm.ones(n))
    assert report.slp
    assert [(c.i, c.t, c.rank) for c in report.maps] == [(0, 2, 1)]


def _quotient_memos():
    return [
        value
        for value in vars(slpkit.quotient).values()
        if hasattr(value, "cache_parameters") and value.__module__ == "slpkit.quotient"
    ]


def test_every_quotient_memo_is_bounded():
    memos = _quotient_memos()
    assert graded_basis in memos and basis_positions in memos
    assert [memo.cache_parameters()["maxsize"] for memo in memos] == [_MEMO_SIZE] * len(memos)


def test_a_sweep_keeps_the_quotient_memos_bounded_and_correct():
    # the compositions of 7 in two characteristics: 128 source specs, 64
    # distinct killed-power tuples, each read in every degree by the checks
    sources = []
    for char in (0, 7):
        for cuts in iproduct((0, 1), repeat=6):
            borders = [0, *(k + 1 for k, cut in enumerate(cuts) if cut), 7]
            es = EmbeddingSpec.from_powers(tuple(b - a for a, b in zip(borders, borders[1:])), char)
            verify_kernel_dims(es)
            transfer_slp(es)
            sources.append(es.source_spec)
    assert len(set(sources)) == 128 > _MEMO_SIZE
    for memo in _quotient_memos():
        assert memo.cache_info().currsize <= _MEMO_SIZE, memo.__name__
    # the first sources' entries were evicted long ago and are listed again;
    # the last ones are read back from the memos
    for spec in sources[:3] + sources[-3:]:
        for t in range(spec.socle_degree + 1):
            listing = oracles.brute_standard_monomials(spec.exponents, t)
            assert list(graded_basis(spec, t)) == listing
            assert basis_positions(spec, t) == {m: k for k, m in enumerate(listing)}


def test_basis_positions_are_consistent():
    spec = AlgebraSpec(3, (3, 2, 4))
    for t in range(spec.socle_degree + 1):
        pos = basis_positions(spec, t)
        for k, m in enumerate(graded_basis(spec, t)):
            assert pos[m] == k


def test_golden_basis_two_cubics():
    spec = AlgebraSpec(2, (3, 3))
    assert graded_basis(spec, 2) == ((2, 0), (1, 1), (0, 2))
    assert graded_basis(spec, 3) == ((2, 1), (1, 2))


@pytest.mark.parametrize(
    "bounds,expected",
    [
        ((2, 2, 2, 2), (1, 4, 6, 4, 1)),
        ((3, 4), (1, 2, 3, 3, 2, 1)),
        ((2, 2, 2), (1, 3, 3, 1)),
        ((3, 3, 3), (1, 3, 6, 7, 6, 3, 1)),
        ((2, 3, 4), (1, 3, 5, 6, 5, 3, 1)),
        ((2,), (1, 1)),
        ((1,), (1,)),
    ],
)
def test_hilbert_goldens(bounds, expected):
    assert tuple(hilbert_vector(AlgebraSpec(len(bounds), bounds))) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=12))
def test_hilbert_function_matches_the_window_products(exponents):
    # the power recurrence and the running window sums against one window at a time
    exponents = tuple(exponents)
    assert _hilbert_function.__wrapped__(exponents) == oracles.hilbert_by_windows(exponents)


@pytest.mark.parametrize(
    "exponents",
    [
        (2,) * 1000 + (3,) * 500,
        (5,) * 300 + (1,) * 200,
        (9, 2) * 150,
        tuple(random.Random(7).choice(range(1, 10)) for _ in range(400)),
    ],
    ids=["2x1000+3x500", "5x300+1x200", "9-2x150", "random-400"],
)
def test_hilbert_function_of_hundreds_of_variables(exponents):
    assert _hilbert_function.__wrapped__(exponents) == oracles.hilbert_by_windows(exponents)


def test_hilbert_sweep_properties():
    for bounds in all_bounds(3, 5):
        spec = AlgebraSpec(len(bounds), bounds)
        hv = hilbert_vector(spec)
        m = spec.socle_degree
        assert type(hv) is tuple and len(hv) == m + 1
        assert hv[0] == hv[m] == 1
        assert hv == hv[::-1]
        peak = m // 2
        assert all(hv[j] <= hv[j + 1] for j in range(peak))
        assert all(hv[j] >= hv[j + 1] for j in range(peak, m))
        assert sum(hv) == prod(bounds)
        for t in range(m + 1):
            assert spec.dim(t) == hv[t] == len(graded_basis(spec, t))
        assert spec.dim(-1) == 0 and spec.dim(m + 1) == 0


def test_reduce():
    # an element holds only monomials that survive x_k^d_k = 0
    spec = AlgebraSpec.quadratic(3)
    assert AlgebraElement(spec, {(1, 1, 0): 1}).terms == {(1, 1, 0): 1}
    with pytest.raises(ValueError):
        AlgebraElement(spec, {(2, 0, 0): 1})
    mixed = AlgebraSpec(2, (3, 2))
    assert AlgebraElement(mixed, {(2, 1): 1}).terms == {(2, 1): 1}
    for dead in ((3, 0), (0, 2)):
        with pytest.raises(ValueError):
            AlgebraElement(mixed, {dead: 1})
    with pytest.raises(ValueError):
        AlgebraElement(spec, {(1, 0): 1})
    with pytest.raises(ValueError, match="exponents must be a sequence of integers, not 1"):
        AlgebraElement(spec, {1: 1})


def test_element_keys_are_checked_exponent_tuples():
    spec = AlgebraSpec(3, (2, 1, 3))
    f = AlgebraElement(spec, {(np.int64(1), False, np.uint8(2)): 3, (0, 0, 0): 1})
    assert f.terms == {(1, 0, 2): 3, (0, 0, 0): 1}
    assert all(type(e) is int for m in f.terms for e in m)
    assert str(f) == "1 + 3*x1*x3^2"
    for bad in ((1, -1, 0), (1, 0.0, 0), (1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            AlgebraElement(spec, {bad: 1})
    with pytest.raises(ValueError, match="x1\\*x2 does not survive"):
        AlgebraElement(spec, {(1, 1, 0): 1})


def test_element_construction_and_cleanup():
    spec = AlgebraSpec.quadratic(2)
    f = AlgebraElement(spec, {(1, 0): 3, (0, 1): 0})
    assert f.terms == {(1, 0): 3}
    assert AlgebraElement(spec, {}).is_zero
    assert str(AlgebraElement.one(spec)) == "1"
    lin = AlgebraElement(spec, {(1, 0): 2, (0, 1): -1})
    assert lin.terms == {(1, 0): 2, (0, 1): -1}
    assert str(lin) == "2*x1 + -1*x2"
    with pytest.raises(ValueError):
        AlgebraElement(spec, {(2, 0): 1})
    with pytest.raises(ValueError):
        AlgebraElement(spec, {(1, 0, 0): 1})


@pytest.mark.parametrize(
    "inexact",
    [1.5, 2.0, Decimal("2"), "1", Fraction(1, 2), Fraction(4, 1)],
    ids=["float-1.5", "float-2.0", "Decimal", "str", "Fraction-1/2", "Fraction-4/1"],
)
@pytest.mark.parametrize("char", [0, 5])
def test_element_refuses_inexact_coefficients(inexact, char):
    spec = AlgebraSpec.quadratic(2, char)
    with pytest.raises(TypeError):
        AlgebraElement(spec, {(1, 0): inexact})
    exact = AlgebraElement(spec, {(1, 0): np.int64(7), (0, 1): True})
    assert exact.terms == {(1, 0): 7 % (char or 8), (0, 1): 1}
    assert all(type(c) is int for c in exact.terms.values())


def test_square_of_a_sum_is_twice_the_product():
    spec = AlgebraSpec.quadratic(2)
    f = AlgebraElement(spec, {(1, 0): 1, (0, 1): 1})
    sq = multiply(f, f)
    assert sq == AlgebraElement(spec, {(1, 1): 2})
    assert oracles.power(f, 2) == sq
    assert oracles.power(f, 3).is_zero


def test_power_matches_repeated_multiplication():
    spec = AlgebraSpec(3, (3, 2, 4))
    f = AlgebraElement(spec, {(1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 1): 1})
    acc = AlgebraElement.one(spec)
    for k in range(6):
        assert oracles.power(f, k) == acc
        acc = multiply(acc, f)
    assert oracles.power(f, 0) == AlgebraElement.one(spec)
    with pytest.raises(ValueError):
        oracles.power(f, -1)


def _random_element(rng, spec, char=0):
    terms = {}
    for t in range(spec.socle_degree + 1):
        for m in graded_basis(spec, t):
            if rng.random() < 0.4:
                c = rng.randint(-4, 4)
                if c:
                    terms[m] = c
    return AlgebraElement(spec, terms)


@pytest.mark.parametrize("bounds,char", [((3, 3), 0), ((2, 2, 2), 0), ((4, 2), 0), ((3, 3), 5), ((2, 2, 2), 3)])
def test_multiply_matches_naive_oracle(bounds, char):
    rng = random.Random(20240 + len(bounds) + char)
    spec = AlgebraSpec(len(bounds), bounds, char)
    for _ in range(25):
        f = _random_element(rng, spec)
        g = _random_element(rng, spec)
        want = oracles.naive_product(bounds, f.terms, g.terms, char)
        assert multiply(f, g).terms == want


def _sum(f, g):
    terms = dict(f.terms)
    for m, c in g.terms.items():
        terms[m] = terms.get(m, 0) + c
    return AlgebraElement(f.spec, terms)


def test_multiply_laws():
    rng = random.Random(7)
    spec = AlgebraSpec(2, (3, 4))
    one = AlgebraElement.one(spec)
    for _ in range(15):
        f = _random_element(rng, spec)
        g = _random_element(rng, spec)
        h = _random_element(rng, spec)
        assert multiply(f, g) == multiply(g, f)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))
        assert multiply(f, _sum(g, h)) == _sum(multiply(f, g), multiply(f, h))
        assert multiply(one, f) == f


def test_char_p_coefficients_are_residues():
    spec = AlgebraSpec.quadratic(2, 5)
    f = AlgebraElement(spec, {(1, 0): 6, (0, 1): -1})
    assert f.terms == {(1, 0): 1, (0, 1): 4}
    g = AlgebraElement(spec, {(1, 0): 5, (0, 1): 5})
    assert g.is_zero


def test_char_p_product_matches_integer_product_reduced():
    rng = random.Random(99)
    bounds = (3, 2, 3)
    spec0 = AlgebraSpec(3, bounds)
    spec5 = AlgebraSpec(3, bounds, 5)
    for _ in range(20):
        f0 = _random_element(rng, spec0)
        g0 = _random_element(rng, spec0)
        f5 = AlgebraElement(spec5, dict(f0.terms))
        g5 = AlgebraElement(spec5, dict(g0.terms))
        over_z = multiply(f0, g0)
        want = {m: c % 5 for m, c in over_z.terms.items() if c % 5}
        assert multiply(f5, g5).terms == want


def test_normalize_coeff():
    spec = AlgebraSpec.quadratic(2, 5)
    assert spec.normalize_coeff(-1) == 4
    spec0 = AlgebraSpec.quadratic(2)
    assert spec0.normalize_coeff(-1) == -1
    for s in (spec, spec0):
        for c in (np.int64(3), True):
            assert s.normalize_coeff(c) == int(c) and type(s.normalize_coeff(c)) is int
        # coefficients are integers in every characteristic, an integral Fraction too
        for inexact in (0.5, 2.0, Decimal("2"), Fraction(1, 2), Fraction(4, 1)):
            with pytest.raises(TypeError, match="not an integer"):
                s.normalize_coeff(inexact)


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(0, ())
    with pytest.raises(ValueError):
        AlgebraSpec(2, (2,))
    with pytest.raises(ValueError):
        AlgebraSpec(1, (0,))
    with pytest.raises(ValueError):
        AlgebraSpec(1, (2,), 4)
    with pytest.raises(ValueError):
        AlgebraSpec(1, (2,)).restricted()
    with pytest.raises(ValueError, match="killed powers must be a sequence of integers, not 3"):
        AlgebraSpec(2, 3)
    spec = AlgebraSpec(3, (3, 2, 4), 7)
    assert spec.restricted() == AlgebraSpec(2, (3, 2), 7)
    assert spec.socle_degree == 6
    assert not spec.is_quadratic
    assert AlgebraSpec.quadratic(3).is_quadratic


def test_spec_stores_plain_ints():
    spec = AlgebraSpec(np.int64(2), (np.int64(3), True), np.int64(5))
    assert spec == AlgebraSpec(2, (3, 1), 5)
    assert [type(v) for v in (spec.n, *spec.exponents, spec.characteristic)] == [int] * 4
    assert json.dumps(spec.to_json_dict()) == '{"n": 2, "exponents": [3, 1], "characteristic": 5}'
    assert json.dumps(AlgebraSpec(2, (2, 2), np.int64(5)).to_json_dict()).endswith('"characteristic": 5}')
    assert AlgebraSpec.quadratic(np.int64(3)).exponents == (2, 2, 2)
    es = EmbeddingSpec.from_powers((np.int64(2), True), np.int8(3))
    assert es.powers == (2, 1) and [type(a) for a in es.powers] == [int, int]
    assert type(es.characteristic) is int
    with pytest.raises(ValueError, match="variable count must be an integer, not float"):
        AlgebraSpec(2.0, (2, 2))
    for bad in ((2, (2.0, 2)), (2, (2, 2), 5.0)):
        with pytest.raises(ValueError):
            AlgebraSpec(*bad)
    with pytest.raises(ValueError):
        EmbeddingSpec.from_powers((2.0,))


def test_spec_json_roundtrip():
    spec = AlgebraSpec(3, (3, 2, 4), 7)
    data = spec.to_json_dict()
    assert data == {"n": 3, "exponents": [3, 2, 4], "characteristic": 7}
    assert AlgebraSpec(data["n"], tuple(data["exponents"]), data["characteristic"]) == spec
