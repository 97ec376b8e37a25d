"""Last-variable block splitting and the recursive middle-map rank."""
from dataclasses import replace
from fractions import Fraction
from math import comb
import itertools
import random

import pytest

import oracles
import slpkit.blockrec

from slpkit.exactmat import ExactMatrix, block_assemble, mat_mul, rank_fraction_free, rank_mod_p
from slpkit.blockrec import decompose, recursive_middle_rank
import slpkit.lefschetz
from slpkit.lefschetz import LinearForm, build_matrix, check_map, full_pairs, middle_pairs, slp_check
from slpkit.quotient import AlgebraSpec


def test_decompose_golden_four_vars():
    spec = AlgebraSpec.quadratic(4)
    dec = decompose(spec, LinearForm.ones(4), 1, 2)
    assert dec.top_left.to_rows() == [[2, 2, 2]]
    assert dec.bottom_left_scalar == 2
    assert dec.bottom_left.to_rows() == [[2, 2, 0], [2, 0, 2], [0, 2, 2]]
    assert dec.bottom_right.to_rows() == [[2], [2], [2]]
    direct = build_matrix(spec, LinearForm.ones(4), 1, 2).matrix
    assert dec.assemble() == direct
    assert dec.zero_block().rows == 1 and dec.zero_block().cols == 1


def test_decompose_matches_direct_build_everywhere():
    rng = random.Random(314)
    for n in range(2, 8):
        spec = AlgebraSpec.quadratic(n)
        ones = LinearForm.ones(n)
        noisy = LinearForm(tuple(rng.randint(-3, 3) for _ in range(n)))
        for form in (ones, noisy):
            for i in range(1, n):
                for t in range(1, n - i + 1):
                    dec = decompose(spec, form, i, t)
                    assert dec.assemble() == build_matrix(spec, form, i, t).matrix


def test_decompose_in_small_characteristic():
    spec = AlgebraSpec.quadratic(4, 5)
    form = LinearForm((1, 2, 3, 4))
    for i in range(1, 4):
        for t in range(1, 4 - i + 1):
            dec = decompose(spec, form, i, t)
            assert dec.top_left.modulus == 5
            assert dec.assemble() == build_matrix(spec, form, i, t).matrix


def test_decompose_empty_top_left():
    # at i + t = n the restricted algebra has no monomials in the target degree
    spec = AlgebraSpec.quadratic(3)
    dec = decompose(spec, LinearForm.ones(3), 1, 2)
    assert dec.top_left.rows == 0
    assert dec.top_left.cols == comb(2, 1)
    assert dec.assemble() == build_matrix(spec, LinearForm.ones(3), 1, 2).matrix


def test_decompose_scalar_carries_coefficient_and_power():
    spec = AlgebraSpec.quadratic(5)
    form = LinearForm((1, 1, 1, 1, -3))
    dec = decompose(spec, form, 1, 3)
    assert dec.bottom_left_scalar == -9
    raw = build_matrix(spec.restricted(), form.restricted(), 1, 2).matrix
    assert dec.bottom_left.to_rows() == [[-9 * e for e in row] for row in raw.to_rows()]


def test_decompose_validation():
    quad = AlgebraSpec.quadratic(4)
    with pytest.raises(ValueError):
        decompose(AlgebraSpec(2, (3, 3)), LinearForm.ones(2), 1, 1)
    with pytest.raises(ValueError):
        decompose(quad, LinearForm.ones(3), 1, 1)
    for bad_i, bad_t in ((0, 1), (4, 1), (1, 0), (1, 4)):
        with pytest.raises(ValueError):
            decompose(quad, LinearForm.ones(4), bad_i, bad_t)


def test_pivot_block_identity_on_a_structured_instance():
    # blocks produced by an actual middle map: P square, A*P and P*B the
    # factored off-diagonal products, expected rank = size(P) + rank(A*P*B)
    rspec = AlgebraSpec.quadratic(4)
    rform = LinearForm.ones(4)
    pivot = build_matrix(rspec, rform, 1, 2).matrix
    a = build_matrix(rspec, rform, 3, 1).matrix
    b = build_matrix(rspec, rform, 0, 1).matrix
    ap = mat_mul(a, pivot)
    assert rank_fraction_free(pivot).rank == 4
    assert rank_fraction_free(mat_mul(ap, b)).rank == 1
    assembled = block_assemble(ap, ExactMatrix.zeros(a.rows, b.cols), pivot, mat_mul(pivot, b))
    assert rank_fraction_free(assembled).rank == 4 + 1


def test_block_pivot_rank_random_trials():
    # rank [[AP, 0], [P, PB]] = size(P) + rank(APB) for nonsingular P over F_101
    rng = random.Random(2718)
    p = 101
    for _ in range(100):
        mdim, ndim, pdim = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        while True:
            pivot = ExactMatrix.from_rows(
                [[rng.randrange(p) for _ in range(ndim)] for _ in range(ndim)], p
            )
            if rank_mod_p(pivot, p).rank == ndim:
                break
        a = ExactMatrix.from_rows([[rng.randrange(p) for _ in range(ndim)] for _ in range(mdim)], p)
        b = ExactMatrix.from_rows([[rng.randrange(p) for _ in range(pdim)] for _ in range(ndim)], p)
        ap = mat_mul(a, pivot)
        assembled = block_assemble(ap, ExactMatrix.zeros(mdim, pdim, p), pivot, mat_mul(pivot, b))
        assert rank_mod_p(assembled, p).rank == ndim + rank_mod_p(mat_mul(ap, b), p).rank


def test_recursive_rank_matches_dense_sweep():
    for n in range(1, 9):
        spec = AlgebraSpec.quadratic(n)
        form = LinearForm.ones(n)
        for i in range((n + 1) // 2):
            rr = recursive_middle_rank(spec, form, i, n - 2 * i)
            assert rr.method == "block-recursive"
            assert rr.notes == ()
            dense = rank_fraction_free(build_matrix(spec, form, i, n - 2 * i).matrix)
            assert rr.rank == dense.rank == comb(n, i)


def test_recursive_rank_random_forms():
    rng = random.Random(55)
    for n in range(2, 7):
        spec = AlgebraSpec.quadratic(n)
        form = LinearForm(tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)))
        for i in range((n + 1) // 2):
            rr = recursive_middle_rank(spec, form, i, n - 2 * i)
            dense = rank_fraction_free(build_matrix(spec, form, i, n - 2 * i).matrix)
            assert rr.rank == dense.rank


def test_recursive_rank_large_characteristic():
    for n in range(2, 7):
        p = 101
        spec = AlgebraSpec.quadratic(n, p)
        form = LinearForm.ones(n)
        for i in range((n + 1) // 2):
            rr = recursive_middle_rank(spec, form, i, n - 2 * i)
            assert rr.notes == ()
            mat = build_matrix(spec, form, i, n - 2 * i).matrix
            assert rr.rank == rank_mod_p(mat, p).rank


def test_recursive_rank_small_characteristic_falls_back():
    spec = AlgebraSpec.quadratic(3, 2)
    rr = recursive_middle_rank(spec, LinearForm.ones(3), 1, 1)
    assert any("characteristic" in note for note in rr.notes)
    assert rr.method == "jordan"
    dense = rank_mod_p(build_matrix(spec, LinearForm.ones(3), 1, 1).matrix, 2)
    assert rr.rank == dense.rank


def test_recursive_rank_zero_coefficient_falls_back():
    spec = AlgebraSpec.quadratic(4)
    rr = recursive_middle_rank(spec, LinearForm((1, 1, 1, 0)), 1, 2)
    assert any("zero coefficient" in note for note in rr.notes)
    assert rr.method == "jordan"
    dense = rank_fraction_free(build_matrix(spec, LinearForm((1, 1, 1, 0)), 1, 2).matrix)
    assert rr.rank == dense.rank


@pytest.mark.parametrize("char", [0, 101])
def test_singular_base_map_falls_back_to_the_fold(monkeypatch, char):
    real = slpkit.lefschetz.check_map
    calls = []

    def first_base_map_singular(*args):
        mc = real(*args)
        calls.append(args[:4])
        return replace(mc, maximal=False) if len(calls) == 1 else mc

    for module in (slpkit.lefschetz, slpkit.blockrec):
        monkeypatch.setattr(module, "check_map", first_base_map_singular)
    spec = AlgebraSpec.quadratic(6, char)
    form = LinearForm((1, 2, -1, 3, 1, -2))
    rr = recursive_middle_rank(spec, form, 2, 2)
    # the one map the route builds is the socle map l^6: A_0 -> A_6; the fold builds none
    assert [(s.n, f.coefficients, i, t) for s, f, i, t in calls] == [(6, form.coefficients, 0, 6)]
    assert rr.notes == ("zero coefficient in the form; structured path unavailable",)
    mat = build_matrix(spec, form, 2, 2).matrix
    dense = rank_mod_p(mat, char).rank if char else rank_fraction_free(mat).rank
    assert rr.rank == dense == comb(6, 2)
    assert rr.method == "jordan"


def test_fallback_ms_covers_the_socle_check(monkeypatch):
    real = slpkit.lefschetz.check_map
    inner = []

    def recording(*args):
        mc = real(*args)
        inner.append(mc.ms)
        return mc

    for module in (slpkit.lefschetz, slpkit.blockrec):
        monkeypatch.setattr(module, "check_map", recording)
    rr = recursive_middle_rank(AlgebraSpec.quadratic(6), LinearForm((1, 2, 0, 3, 1, 1)), 2, 2)
    # the socle check, then the fold, which checks no map
    assert len(inner) == 1 and rr.notes and rr.method == "jordan"
    assert rr.ms >= inner[0]


def _random_form(rng, n, char):
    """Nonzero coefficients; a rational form's integer multiple in characteristic 0, residues beyond p otherwise."""
    if char == 0:
        rational = [Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5)) for _ in range(n)]
        return LinearForm(oracles.integral_multiple(rational))
    return LinearForm(tuple(rng.randrange(1, char) + char * rng.randint(-2, 2) for _ in range(n)))


def test_auto_route_agrees_with_the_full_dense_check():
    rng = random.Random(77)
    for n in range(1, 10):
        for char in (0, 2, 3, 5, 7, 11, 13):
            spec = AlgebraSpec.quadratic(n, char)
            forms = [_random_form(rng, n, char) for _ in range(2)]
            if char == 0:
                forms.append(LinearForm(tuple(rng.choice((1, 2, 3)) * rng.choice((-1, 1)) for _ in range(n))))
            for form in forms:
                auto = slp_check(spec, form)
                full = slp_check(spec, form, mode="full", method="dense")
                assert auto.slp == full.slp, (n, char, form)
                dense_ranks = {(c.i, c.t): c.rank for c in full.maps}
                assert [(c.i, c.t) for c in auto.maps] == list(middle_pairs(n))
                for c in auto.maps:
                    assert c.rank == dense_ranks[c.i, c.t], (n, char, form, c)
                    if char == 0 or char > n:
                        assert (c.method, c.notes) == ("block-recursive", ()), (n, char, c)
                    else:
                        assert c.method == "jordan"
                        assert any(note.startswith(f"characteristic {char}") for note in c.notes)


def test_auto_route_agrees_with_the_full_dense_check_on_general_specs():
    # a sample of killed powers 1..5 on up to four variables; integer multiples
    # of rational forms with zeros over Q, residues that may vanish over F_p
    rng = random.Random(88)
    tuples = [e for n in range(1, 5) for e in itertools.product(range(1, 6), repeat=n) if max(e) > 1]
    for char in (0, 2, 3, 5, 7, 11, 13, 17, 19):
        for exponents in rng.sample(tuples, 20):
            spec = AlgebraSpec(len(exponents), exponents, char)
            if char == 0:
                rational = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in exponents]
                form = LinearForm(oracles.integral_multiple(rational))
            else:
                form = LinearForm(tuple(rng.randint(-char, 2 * char) for _ in exponents))
            auto = slp_check(spec, form)
            full = slp_check(spec, form, mode="full", method="dense")
            assert auto.slp == full.slp, (exponents, char, form)
            dense_ranks = {(c.i, c.t): c.rank for c in full.maps}
            m = spec.socle_degree
            assert [(c.i, c.t) for c in auto.maps] == list(middle_pairs(m))
            proof = (char == 0 or char > m) and all(
                spec.normalize_coeff(c) for c, d in zip(form.coefficients, exponents) if d > 1
            )
            for c in auto.maps:
                assert c.rank == dense_ranks[c.i, c.t], (exponents, char, form, c)
                assert (c.method == "block-recursive" and c.notes == ()) == proof, (exponents, char, form, c)


@pytest.mark.parametrize("char", [0, 7])
def test_zero_coefficient_on_a_killed_power_one_variable_keeps_the_proof_route(char):
    # x2 is zero in the algebra, so its coefficient does not matter
    spec = AlgebraSpec(3, (3, 1, 4), char)
    form = LinearForm((2, 0, -1))
    for i, t in middle_pairs(spec.socle_degree):
        rr = recursive_middle_rank(spec, form, i, t)
        assert (rr.method, rr.notes) == ("block-recursive", ())
        dense = check_map(spec, form, i, t, "dense")
        assert rr.rank == dense.rank == spec.dim(i)


@pytest.mark.parametrize(
    "char, exponents",
    [(0, (2,) * 16), (17, (2,) * 16), (0, (3, 4, 5, 6)), (17, (3, 4, 5, 6))],
    ids=["0", "17", "0-3456", "17-3456"],
)
def test_block_route_builds_only_base_maps(monkeypatch, char, exponents):
    real_build = slpkit.lefschetz.build_matrix

    def only_one_by_one(spec, form, i, t):
        if spec.dim(i) * spec.dim(i + t) > 1:
            pytest.fail(f"built the ({i}, {t}) map of {spec.n} variables")
        return real_build(spec, form, i, t)

    real_check = slpkit.lefschetz.check_map
    real_rank = slpkit.blockrec.recursive_middle_rank
    checks, ranked = [], []

    def counting_check(*args):
        checks.append(args[2:])
        return real_check(*args)

    def counting_rank(spec, form, i, t):
        ranked.append(i)
        return real_rank(spec, form, i, t)

    monkeypatch.setattr(slpkit.lefschetz, "build_matrix", only_one_by_one)
    for module in (slpkit.lefschetz, slpkit.blockrec):
        monkeypatch.setattr(module, "check_map", counting_check)
    monkeypatch.setattr(slpkit.blockrec, "recursive_middle_rank", counting_rank)
    spec = AlgebraSpec(len(exponents), exponents, char)
    form = LinearForm(tuple((-1) ** k * (k % 5 + 1) for k in range(spec.n)))
    # the conftest fixture has emptied the memo, so no earlier test hides the socle check
    report = slp_check(spec, form)
    assert report.slp
    m = spec.socle_degree
    verdicts = [(i, spec.dim(i), "block-recursive") for i in range((m + 1) // 2)]
    assert [(c.i, c.rank, c.method) for c in report.maps] == verdicts
    assert ranked == list(range((m + 1) // 2))
    # one base map per slp_check, shared by every middle map: the socle map
    # l^m: A_0 -> A_m, checked dense before slp_check asks for the auto maps
    sweep = [(i, t, "auto") for i, t in middle_pairs(m)]
    assert checks == [(0, m, "dense"), *sweep]
    # a second sweep of the same (spec, form) reuses it
    assert [(c.i, c.rank, c.method) for c in slp_check(spec, form).maps] == verdicts
    assert checks == [(0, m, "dense"), *sweep, *sweep]


def _answers(spec, form):
    """Every map's auto answer for (spec, form), ms aside, from a cleared memo."""
    slpkit.lefschetz._auto_route.cache_clear()
    return [replace(check_map(spec, form, i, t), ms=0.0) for i, t in full_pairs(spec.socle_degree)]


def test_the_route_is_decided_per_spec_and_form():
    # two forms on one spec that zero different killed powers, and one form
    # on two specs that differ only in characteristic; the memo keeps two
    # decisions, so interleaving the three pairs also evicts
    spec = AlgebraSpec(3, (2, 3, 4))
    x, y = LinearForm((0, 1, 1)), LinearForm((1, 1, 0))
    pairs = [(spec, x), (spec, y), (replace(spec, characteristic=5), x)]
    alone = [_answers(s, f) for s, f in pairs]
    assert alone[0] != alone[1] and alone[0] != alone[2]
    slpkit.lefschetz._auto_route.cache_clear()
    interleaved = [[] for _ in pairs]
    for i, t in full_pairs(spec.socle_degree):
        for answers, (s, f) in zip(interleaved, pairs):
            answers.append(replace(check_map(s, f, i, t), ms=0.0))
    assert interleaved == alone


@pytest.mark.parametrize(
    "spec, form, built",
    [
        (AlgebraSpec.quadratic(11, 7), LinearForm.ones(11), []),
        (AlgebraSpec.quadratic(11), LinearForm((1, 0) + (1,) * 9), [(0, 11)]),
    ],
    ids=["p7", "zero-coefficient"],
)
def test_each_pair_is_decided_once(monkeypatch, spec, form, built):
    real_build, real_fold = slpkit.lefschetz.build_matrix, slpkit.lefschetz.jordan_type
    builds, folds = [], []

    def counting_build(s, f, i, t):
        builds.append((i, t))
        return real_build(s, f, i, t)

    def counting_fold(*args):
        folds.append(args)
        return real_fold(*args)

    monkeypatch.setattr(slpkit.lefschetz, "build_matrix", counting_build)
    monkeypatch.setattr(slpkit.lefschetz, "jordan_type", counting_fold)
    assert not slp_check(spec, form).slp
    for i, t in full_pairs(spec.socle_degree):
        assert check_map(spec, form, i, t).method == "jordan"
    # p = 7 <= 11 is decided before any map is built; a zero coefficient by the socle map
    assert builds == built and len(folds) == 1


@pytest.mark.parametrize("char", [0, 7, 1009])
def test_large_killed_power_needs_no_deep_recursion(char):
    # socle degree 1000, at the default recursion limit; characteristic 7
    # falls back to the fold, the others take the route
    spec = AlgebraSpec(1, (1001,), char)
    report = slp_check(spec, LinearForm((3,)))
    assert report.slp
    assert [(c.i, c.t, c.rank) for c in report.maps] == [(i, 1000 - 2 * i, 1) for i in range(500)]
    route = "jordan" if char == 7 else "block-recursive"
    assert {c.method for c in report.maps} == {route}


def test_recursive_rank_stats():
    rr = recursive_middle_rank(AlgebraSpec.quadratic(6), LinearForm.ones(6), 2, 2)
    # the socle scalar 6! = 720
    assert rr.peak_bits == 10


def test_recursive_rank_base_case():
    spec = AlgebraSpec.quadratic(3)
    rr = recursive_middle_rank(spec, LinearForm.ones(3), 0, 3)
    assert rr.rank == 1
    spec7 = AlgebraSpec.quadratic(3, 7)
    assert recursive_middle_rank(spec7, LinearForm.ones(3), 0, 3).rank == 1


def test_recursive_rank_validation():
    # (3, 3) has socle degree 4, so i + t = 5 is out of range
    with pytest.raises(ValueError):
        recursive_middle_rank(AlgebraSpec(2, (3, 3)), LinearForm.ones(2), 2, 3)
    with pytest.raises(ValueError):
        recursive_middle_rank(AlgebraSpec.quadratic(4), LinearForm.ones(3), 1, 2)
    with pytest.raises(ValueError):
        recursive_middle_rank(AlgebraSpec.quadratic(4), LinearForm.ones(4), 2, 3)
    with pytest.raises(ValueError):
        recursive_middle_rank(AlgebraSpec.quadratic(4), LinearForm.ones(4), -1, 6)
    with pytest.raises(ValueError, match="out of range"):
        recursive_middle_rank(AlgebraSpec.quadratic(4), LinearForm.ones(4), 1, -1)
