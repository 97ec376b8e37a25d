"""Quotient algebras: graded bases, reduction, products, Hilbert vectors."""
from fractions import Fraction
from itertools import product as iproduct
from math import prod
import random

import pytest

import oracles
from slpkit.lefschetz import LinearForm, slp_check
from slpkit.monomials import Monomial, enumerate_squarefree
from slpkit.quotient import (
    AlgebraElement,
    AlgebraSpec,
    HilbertVector,
    graded_basis,
    basis_positions,
    hilbert_vector,
    multiply,
    reduce,
)


def all_bounds(max_n, max_d):
    for n in range(1, max_n + 1):
        yield from iproduct(range(2, max_d + 1), repeat=n)


def test_quadratic_basis_matches_squarefree_listing():
    for n in range(1, 8):
        spec = AlgebraSpec.quadratic(n)
        for t in range(-1, n + 2):
            assert graded_basis(spec, t) == enumerate_squarefree(n, t)


@pytest.mark.parametrize("bounds", [(3, 4, 2), (2, 3), (5,), (3, 3, 3), (2, 2, 2, 2), (4, 2, 3)])
def test_basis_matches_brute_force(bounds):
    spec = AlgebraSpec(len(bounds), bounds)
    for t in range(spec.socle_degree + 2):
        got = [m.exponents for m in graded_basis(spec, t)]
        assert got == oracles.brute_standard_monomials(bounds, t)


def test_pruned_listing_matches_brute_force_on_random_boxes():
    # killed powers of 1 pin an exponent to 0; one-variable boxes are included
    rng = random.Random(2024)
    for _ in range(120):
        bounds = tuple(rng.choice((1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 5)))
        spec = AlgebraSpec(len(bounds), bounds)
        for t in range(-1, spec.socle_degree + 2):
            got = [m.exponents for m in graded_basis(spec, t)]
            assert got == oracles.brute_standard_monomials(bounds, t)


def test_top_degrees_of_a_large_box_are_listed_without_a_full_walk():
    # unpruned, either degree walks about 2^40 prefixes
    spec = AlgebraSpec.quadratic(40)
    assert graded_basis(spec, 40) == (Monomial((1,) * 40),)
    below = graded_basis(spec, 39)
    assert len(below) == 40
    assert [m.exponents.index(0) for m in below] == list(range(39, -1, -1))


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
        assert [m.exponents for m in graded_basis(spec, t)] == _recursive_listing(bounds, t)


def test_listing_is_shared_across_characteristics():
    listings = [graded_basis(AlgebraSpec(3, (3, 2, 4), p), 3) for p in (0, 2, 3, 5)]
    assert all(listing is listings[0] for listing in listings)


def test_many_variables_need_no_deep_recursion():
    # one generator frame per variable used to overflow the interpreter stack
    n = 1001
    spec = AlgebraSpec(n, (1,) * 1000 + (3,))
    assert [m.exponents for m in graded_basis(spec, 2)] == [(0,) * 1000 + (2,)]
    report = slp_check(spec, LinearForm.ones(n))
    assert report.slp
    assert [(c.i, c.t, c.rank) for c in report.maps] == [(0, 2, 1)]


def test_basis_positions_are_consistent():
    spec = AlgebraSpec(3, (3, 2, 4))
    for t in range(spec.socle_degree + 1):
        pos = basis_positions(spec, t)
        for k, m in enumerate(graded_basis(spec, t)):
            assert pos[m] == k


def test_golden_basis_two_cubics():
    spec = AlgebraSpec(2, (3, 3))
    assert [str(m) for m in graded_basis(spec, 2)] == ["x1^2", "x1*x2", "x2^2"]
    assert [str(m) for m in graded_basis(spec, 3)] == ["x1^2*x2", "x1*x2^2"]


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


def test_hilbert_sweep_properties():
    for bounds in all_bounds(3, 5):
        spec = AlgebraSpec(len(bounds), bounds)
        hv = hilbert_vector(spec)
        m = spec.socle_degree
        assert len(hv) == m + 1
        assert hv.socle_degree == m
        assert hv.is_symmetric() and hv.is_unimodal()
        assert sum(hv) == prod(bounds)
        for t in range(m + 1):
            assert spec.dim(t) == hv[t] == len(graded_basis(spec, t))
        assert spec.dim(-1) == 0 and spec.dim(m + 1) == 0


def test_reduce():
    spec = AlgebraSpec.quadratic(3)
    assert reduce(spec, Monomial((1, 1, 0))) == Monomial((1, 1, 0))
    assert reduce(spec, Monomial((2, 0, 0))) is None
    mixed = AlgebraSpec(2, (3, 2))
    assert reduce(mixed, Monomial((2, 1))) == Monomial((2, 1))
    assert reduce(mixed, Monomial((3, 0))) is None
    assert reduce(mixed, Monomial((0, 2))) is None
    with pytest.raises(ValueError):
        reduce(spec, Monomial((1, 0)))


def test_element_construction_and_cleanup():
    spec = AlgebraSpec.quadratic(2)
    f = AlgebraElement(spec, {Monomial((1, 0)): 3, Monomial((0, 1)): 0})
    assert f.terms == {Monomial((1, 0)): 3}
    assert AlgebraElement.zero(spec).is_zero
    assert str(AlgebraElement.one(spec)) == "1"
    lin = AlgebraElement.linear(spec, (2, -1))
    assert lin.coefficient(Monomial((0, 1))) == -1
    with pytest.raises(ValueError):
        AlgebraElement(spec, {Monomial((2, 0)): 1})
    with pytest.raises(ValueError):
        AlgebraElement(spec, {Monomial((1, 0, 0)): 1})
    with pytest.raises(ValueError):
        AlgebraElement.linear(spec, (1, 2, 3))


def test_square_of_a_sum_is_twice_the_product():
    spec = AlgebraSpec.quadratic(2)
    f = AlgebraElement.linear(spec, (1, 1))
    sq = f * f
    assert sq == AlgebraElement(spec, {Monomial((1, 1)): 2})
    assert f.power(2) == sq
    assert f.power(3).is_zero


def test_power_matches_repeated_multiplication():
    spec = AlgebraSpec(3, (3, 2, 4))
    f = AlgebraElement(spec, {Monomial((1, 0, 0)): 2, Monomial((0, 1, 0)): -1, Monomial((0, 0, 1)): 1})
    acc = AlgebraElement.one(spec)
    for k in range(6):
        assert f.power(k) == acc
        acc = multiply(acc, f)
    assert f.power(0) == AlgebraElement.one(spec)
    with pytest.raises(ValueError):
        f.power(-1)


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
        got = multiply(f, g)
        fexp = {m.exponents: c for m, c in f.terms.items()}
        gexp = {m.exponents: c for m, c in g.terms.items()}
        want = oracles.naive_product(bounds, fexp, gexp, char)
        assert {m.exponents: c for m, c in got.terms.items()} == want


def test_multiply_laws():
    rng = random.Random(7)
    spec = AlgebraSpec(2, (3, 4))
    for _ in range(15):
        f = _random_element(rng, spec)
        g = _random_element(rng, spec)
        h = _random_element(rng, spec)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == AlgebraElement.zero(spec)
        assert -(-f) == f
        assert f.scale(3) == f + f + f


def test_char_p_coefficients_are_residues():
    spec = AlgebraSpec.quadratic(2, 5)
    f = AlgebraElement.linear(spec, (6, -1))
    assert f.terms == {Monomial((1, 0)): 1, Monomial((0, 1)): 4}
    g = AlgebraElement.linear(spec, (5, 5))
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
    assert spec.normalize_coeff(Fraction(4, 1)) == 4
    with pytest.raises(TypeError):
        spec.normalize_coeff(Fraction(1, 2))
    spec0 = AlgebraSpec.quadratic(2)
    assert spec0.normalize_coeff(Fraction(1, 2)) == Fraction(1, 2)


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
    spec = AlgebraSpec(3, (3, 2, 4), 7)
    assert spec.restricted() == AlgebraSpec(2, (3, 2), 7)
    assert spec.socle_degree == 6
    assert not spec.is_quadratic
    assert AlgebraSpec.quadratic(3).is_quadratic


def test_hilbert_vector_validation():
    HilbertVector((1, 2, 1))
    with pytest.raises(ValueError):
        HilbertVector((1, 2, 3))
    with pytest.raises(ValueError):
        HilbertVector((1, 0, 1))
    with pytest.raises(ValueError):
        HilbertVector((2, 2))
    with pytest.raises(ValueError):
        HilbertVector(())


def test_spec_json_roundtrip():
    spec = AlgebraSpec(3, (3, 2, 4), 7)
    assert AlgebraSpec.from_json_dict(spec.to_json_dict()) == spec
    plain = AlgebraSpec.quadratic(4)
    assert AlgebraSpec.from_json_dict({"n": 4, "exponents": [2, 2, 2, 2]}) == plain
