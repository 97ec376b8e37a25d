"""Monomial basics, and the listing order that decompose relies on."""
from math import comb

import pytest

import oracles
from slpkit.monomials import Monomial
from slpkit.quotient import AlgebraSpec, graded_basis


def quadratic_listing(n, t):
    return graded_basis(AlgebraSpec.quadratic(n), t)


def test_golden_listing_four_vars_degree_two():
    listing = [str(m) for m in quadratic_listing(4, 2)]
    assert listing == ["x1*x2", "x1*x3", "x2*x3", "x1*x4", "x2*x4", "x3*x4"]


def test_golden_listing_five_vars_degree_three():
    listing = [str(m) for m in quadratic_listing(5, 3)]
    assert listing == [
        "x1*x2*x3",
        "x1*x2*x4",
        "x1*x3*x4",
        "x2*x3*x4",
        "x1*x2*x5",
        "x1*x3*x5",
        "x2*x3*x5",
        "x1*x4*x5",
        "x2*x4*x5",
        "x3*x4*x5",
    ]


def test_listing_starts_with_initial_segment():
    for n in range(1, 9):
        for t in range(1, n + 1):
            first = quadratic_listing(n, t)[0]
            assert first == Monomial((1,) * t + (0,) * (n - t))


def test_counts_match_binomials():
    for n in range(1, 13):
        for t in range(-1, n + 2):
            assert len(quadratic_listing(n, t)) == (comb(n, t) if 0 <= t <= n else 0)


def test_listing_matches_brute_force_enumeration():
    # AlgebraSpec needs at least one variable, so the listing starts at n = 1
    for n in range(1, 10):
        for t in range(n + 1):
            got = [m.exponents for m in quadratic_listing(n, t)]
            assert got == oracles.brute_standard_monomials((2,) * n, t)


def test_listing_is_strictly_decreasing():
    for n in range(1, 7):
        for t in range(n + 1):
            listing = quadratic_listing(n, t)
            for u, v in zip(listing, listing[1:]):
                assert oracles.earlier_in_listing(u.exponents, v.exponents)
                assert not oracles.earlier_in_listing(v.exponents, u.exponents)


def test_sort_key_recovers_the_listing():
    # build_matrix finds positions by binary search in codes that ascend
    # exactly when the reversed exponent tuples do
    for bounds in ((2,) * 6, (3, 2, 4), (4, 4, 2, 3)):
        spec = AlgebraSpec(len(bounds), bounds)
        for t in range(spec.socle_degree + 1):
            listing = list(graded_basis(spec, t))
            shuffled = sorted(listing, key=lambda m: m.exponents)
            assert sorted(shuffled, key=lambda m: m.exponents[::-1]) == listing


def test_split_by_last_variable():
    # degree-t listing = (monomials without xn) then xn * (degree t-1 listing)
    for n in range(2, 8):
        for t in range(1, n + 1):
            listing = quadratic_listing(n, t)
            without = [m for m in listing if m.exponents[-1] == 0]
            with_last = [m for m in listing if m.exponents[-1] == 1]
            assert list(listing) == without + with_last
            assert [m.exponents[:-1] for m in without] == [
                m.exponents for m in quadratic_listing(n - 1, t)
            ]
            assert [m.exponents[:-1] for m in with_last] == [
                m.exponents for m in quadratic_listing(n - 1, t - 1)
            ]


def test_monomial_basics():
    m = Monomial((1, 0, 2))
    assert m.nvars == 3 and m.degree == 3
    assert str(m) == "x1*x3^2"
    assert str(Monomial.constant(2)) == "1"
    assert Monomial.variable(3, 1) == Monomial((0, 1, 0))
    assert Monomial([1, 0, 2]) == m


def test_validation_errors():
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(ValueError):
        Monomial.variable(2, 5)
