"""The Jordan-type fold against dense elimination and the closed-form oracles."""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from slpkit._jordan import _MAX_FOLD_DEGREE, _pair_type, _pair_type_mod_p, jordan_type
from slpkit.blockrec import recursive_middle_rank
from slpkit.lefschetz import LinearForm, check_map, full_pairs, slp_check
from slpkit.quotient import AlgebraSpec


def _fold(spec, form):
    """Rank of the (i, t) map counted off one fold of (spec, form)."""
    strings = jordan_type(spec, form.coefficients)
    return lambda i, t: sum(count for (s, n), count in strings.items() if s <= i and s + n - 1 >= i + t)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fold_matches_the_full_dense_check(data):
    # killed powers 1..5 on up to four variables, coefficients that vanish
    # over Q or mod p, char 0 and every prime up to 13
    n = data.draw(st.integers(1, 4))
    exponents = tuple(data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    char = data.draw(st.sampled_from([0, 2, 3, 5, 7, 11, 13]))
    coeffs = tuple(data.draw(st.lists(st.integers(-13, 13), min_size=n, max_size=n)))
    spec, form = AlgebraSpec(n, exponents, char), LinearForm(coeffs)
    full = slp_check(spec, form, mode="full", method="dense")
    assert [(c.i, c.t) for c in full.maps] == list(full_pairs(spec.socle_degree))
    fold = _fold(spec, form)
    for c in full.maps:
        assert fold(c.i, c.t) == c.rank, (exponents, char, coeffs, c)
        assert check_map(spec, form, c.i, c.t).rank == c.rank, (exponents, char, coeffs, c)
    assert slp_check(spec, form).slp == full.slp


@pytest.mark.parametrize("n", [20, 30, 40])
def test_fold_matches_wilson_on_square_free_algebras(n):
    for p in (0, 2, 3, 5, 7, 11, 13, 37, 41):
        spec = AlgebraSpec.quadratic(n, p)
        for zeros in (0, 1, 2):
            form = LinearForm((0,) * zeros + (1, -1) * ((n - zeros) // 2) + (1,) * ((n - zeros) % 2))
            fold = _fold(spec, form)
            for i, t in full_pairs(n):
                want = oracles.tensor_wilson_rank(n, zeros, i, t, p)
                assert fold(i, t) == want, (n, p, zeros, i, t)
    assert _fold(AlgebraSpec.quadratic(n, 7), LinearForm.ones(n))(3, 5) == oracles.wilson_rank(n, 3, 5, 7)


def test_fold_matches_the_tensor_product_oracle_over_q():
    for live, dead in (((3, 4), (2,)), ((2, 5), (3, 3)), ((4, 4, 2), (5,)), ((), (3, 2))):
        exponents = live + dead
        spec = AlgebraSpec(len(exponents), exponents)
        form = LinearForm((2, -3, 1)[: len(live)] + (0,) * len(dead))
        fold = _fold(spec, form)
        for i, t in full_pairs(spec.socle_degree):
            assert fold(i, t) == oracles.tensor_deficit_rank(live, dead, i, t)


def test_closed_form_pair_tables_match_the_mod_p_tables():
    # above the pair algebra's socle degree L + b - 2 both are right; the
    # mod-p tables are the ones the fold uses below it
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for length, b in itertools.product(range(1, 9), repeat=2):
        for p in (p for p in primes if p > length + b - 2):
            assert _pair_type_mod_p(length, b, p) == _pair_type(length, b, 0), (length, b, p)
        assert _pair_type(length, b, 2) == _pair_type_mod_p(length, b, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 1000),
    st.booleans(),
    st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
)
def test_side_two_pair_tables_match_the_mod_p_tables(short, long, swap, p):
    # the closed form of short side r <= 2, in either order, against the inverse it replaces
    length, b = (long, short) if swap else (short, long)
    assert _pair_type(length, b, p) == _pair_type_mod_p(length, b, p), (length, b, p)


def test_square_free_algebras_fold_with_no_mod_p_table(monkeypatch):
    import slpkit._jordan

    def no_mod_p(*args):
        pytest.fail(f"_pair_type_mod_p{args} on a square-free algebra")

    monkeypatch.setattr(slpkit._jordan, "_pair_type_mod_p", no_mod_p)
    # in characteristic p a square-free fold keeps every length at most p, so
    # it meets only the tables with p dividing the long side; try all of side two
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for short, long, p in itertools.product((1, 2), range(1, 100), primes):
        assert _pair_type(short, long, p) == _pair_type(long, short, p)
    for n in range(1, 41):
        for p in (p for p in primes if p <= n):
            spec = AlgebraSpec.quadratic(n, p)
            for zeros in (0, 1, n // 2, n):
                # p vanishes mod p; 1, p - 1 and 2p + 1 do not
                strings = jordan_type(spec, ((p,) * zeros + (1, p - 1, 2 * p + 1) * n)[:n])
                assert sum(count * length for (_s, length), count in strings.items()) == 2**n


def test_mod_p_pair_tables_match_the_dense_ranks():
    # every map of the two-variable algebra, ranked dense, against the
    # strings that cover it; both orders of the killed powers
    for p in (2, 3, 5, 7):
        for length, b in itertools.product(range(1, 10), repeat=2):
            strings = _pair_type(length, b, p)
            spec = AlgebraSpec(2, (length, b), p)
            for i, t in full_pairs(spec.socle_degree):
                want = check_map(spec, LinearForm.ones(2), i, t, "dense").rank
                assert sum(s <= i and s + n - 1 >= i + t for s, n in strings) == want, (length, b, p, i, t)


def test_type_depends_on_which_coefficients_vanish():
    spec = AlgebraSpec(4, (3, 1, 4, 2), 5)
    # x2 is zero in the algebra; 10 is zero mod 5
    strings = jordan_type(spec, (2, 0, 10, -1))
    assert strings == jordan_type(spec, (1, 7, 0, 1))
    assert sum(count * length for (_s, length), count in strings.items()) == 3 * 4 * 2
    with pytest.raises(TypeError):
        strings[0, 1] = 1
    with pytest.raises(ValueError, match="wrong number"):
        jordan_type(spec, (1, 1, 1))
    # the auto route folds this (spec, form): p = 5 is below the socle degree 6
    assert check_map(spec, LinearForm.ones(4), 0, 1).method == "jordan"
    with pytest.raises(ValueError, match="out of range"):
        check_map(spec, LinearForm.ones(4), 2, spec.socle_degree)
    with pytest.raises(ValueError, match="wrong number"):
        check_map(spec, LinearForm.ones(3), 0, 1)


def test_above_the_bound_the_type_is_refused_and_maps_are_checked_dense():
    spec, x = AlgebraSpec(1, (_MAX_FOLD_DEGREE + 2,), 7), LinearForm.ones(1)
    with pytest.raises(ValueError, match=f"limited to socle degree {_MAX_FOLD_DEGREE}"):
        jordan_type(spec, x.coefficients)
    # p = 7 is below the socle degree, so the auto route falls back, to the dense check
    for mc in (check_map(spec, x, 3, 5), recursive_middle_rank(spec, x, 3, 5)):
        assert (mc.rows, mc.cols, mc.rank, mc.method) == (1, 1, 1, "modular")
        assert mc.notes == (f"characteristic 7 <= socle degree {_MAX_FOLD_DEGREE + 1}; structured path unavailable",)
