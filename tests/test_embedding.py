"""Block-sum substitution into the square-free algebra and SLP transfer."""
from dataclasses import replace
from itertools import product as iproduct
from math import comb, factorial, prod
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from slpkit.embedding import (
    EmbeddingSpec,
    _target_middle_maps,
    phi_matrix,
    phi_monomial,
    transfer_slp,
    verify_kernel_dims,
    verify_socle_image,
)
from slpkit.exactmat import certified_rank
from slpkit.quotient import AlgebraSpec, _position_codes, graded_basis, hilbert_vector, multiply


def compositions(total):
    """Ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_offsets_and_derived_specs():
    es = EmbeddingSpec.from_powers((2, 2))
    assert es.n == 2 and es.m == 4
    assert es.offsets == (0, 2, 4)
    assert es.source_spec == AlgebraSpec(2, (3, 3))
    assert es.target_spec == AlgebraSpec.quadratic(4)
    mixed = EmbeddingSpec.from_powers((3, 1, 2), 5)
    assert mixed.offsets == (0, 3, 4, 6)
    assert mixed.source_spec.characteristic == 5
    assert mixed.target_spec == AlgebraSpec.quadratic(6, 5)


def test_from_spec_round_trips_the_powers():
    spec = AlgebraSpec(3, (3, 2, 4), 7)
    es = EmbeddingSpec.from_spec(spec)
    assert es == EmbeddingSpec.from_powers((2, 1, 3), 7)
    assert es.source_spec == spec
    with pytest.raises(ValueError):
        EmbeddingSpec.from_spec(AlgebraSpec(2, (1, 3)))


def test_validation():
    with pytest.raises(ValueError):
        EmbeddingSpec.from_powers(())
    with pytest.raises(ValueError):
        EmbeddingSpec.from_powers((2, 0))
    with pytest.raises(ValueError):
        phi_monomial(EmbeddingSpec.from_powers((2, 2)), (1, 0, 0))
    with pytest.raises(ValueError, match="socle exponents must be a sequence of integers, not 3"):
        EmbeddingSpec(3)
    with pytest.raises(ValueError, match="socle exponents must be a sequence of integers, not 3"):
        EmbeddingSpec.from_powers(3)


@pytest.mark.parametrize("char", [4, 1, -3])
def test_bad_characteristic_raises_at_construction(char):
    with pytest.raises(ValueError, match="characteristic must be 0 or a prime"):
        EmbeddingSpec.from_powers((2, 2), char)


def test_specs_are_built_once_per_embedding(monkeypatch):
    built = []
    post_init = AlgebraSpec.__post_init__

    def counting(spec):
        built.append(spec)
        post_init(spec)

    monkeypatch.setattr(AlgebraSpec, "__post_init__", counting)
    es = EmbeddingSpec.from_powers((2, 1, 3))
    assert len(built) == 2
    assert es.source_spec is es.source_spec and es.target_spec is es.target_spec
    # the socle check reads target_spec once per source variable
    assert verify_socle_image(es).ok
    assert len(built) == 2


def test_variable_images_are_block_sums():
    es = EmbeddingSpec.from_powers((2, 1))
    y1 = phi_monomial(es, (1, 0))
    assert y1.terms == {(1, 0, 0): 1, (0, 1, 0): 1} and str(y1) == "1*x1 + 1*x2"
    y2 = phi_monomial(es, (0, 1))
    assert y2.terms == {(0, 0, 1): 1} and str(y2) == "1*x3"


@pytest.mark.parametrize("powers", [(2, 2), (3, 1), (1, 1, 1), (2, 1), (4,)])
def test_killed_powers_die_on_the_nose(powers):
    es = EmbeddingSpec.from_powers(powers)
    for j, a in enumerate(powers):
        exps = tuple(a + 1 if k == j else 0 for k in range(len(powers)))
        assert phi_monomial(es, exps).is_zero
        alive = tuple(a if k == j else 0 for k in range(len(powers)))
        assert not phi_monomial(es, alive).is_zero


@pytest.mark.parametrize("powers,char", [((2, 2), 0), ((2, 1), 0), ((2, 2), 5), ((1, 2), 3)])
def test_phi_is_a_ring_homomorphism(powers, char):
    # on monomials: phi(y^(a+b)) is the product of the images of y^a and
    # y^b when y^(a+b) survives in the source, and that product is zero
    # when y^(a+b) dies
    rng = random.Random(sum(powers) * 10 + char)
    es = EmbeddingSpec.from_powers(powers, char)
    dead = 0
    for _ in range(40):
        a = tuple(rng.randint(0, p + 1) for p in powers)
        b = tuple(rng.randint(0, p + 1) for p in powers)
        product_ = multiply(phi_monomial(es, a), phi_monomial(es, b))
        total = tuple(x + y for x, y in zip(a, b))
        if all(e <= p for e, p in zip(total, powers)):
            assert phi_monomial(es, total) == product_
        else:
            assert product_.is_zero
            dead += 1
    assert dead
    # y1 * y1^a1 = y1^(a1+1), the first killed power (y1^3 on powers (2, 2))
    rest = (0,) * (len(powers) - 1)
    assert multiply(phi_monomial(es, (1, *rest)), phi_monomial(es, (powers[0], *rest))).is_zero


@st.composite
def _embedded_monomials(draw):
    """(es, exponents): socle exponents 1..4 on n <= 4 variables, each exponent up to a_j + 1."""
    powers = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    es = EmbeddingSpec.from_powers(powers, draw(st.sampled_from([0, 2, 3, 5, 7])))
    return es, tuple(draw(st.integers(0, a + 1)) for a in powers)


@settings(max_examples=300, deadline=None)
@given(_embedded_monomials())
def test_phi_monomial_matches_the_iterated_expansion(case):
    es, exponents = case
    assert phi_monomial(es, exponents) == oracles.phi_by_expansion(es, exponents)


def test_one_block_of_14_is_read_in_closed_form(monkeypatch):
    products = []

    def counted(f, g):
        products.append((f, g))
        return multiply(f, g)

    monkeypatch.setattr("slpkit.embedding.multiply", counted)
    es = EmbeddingSpec.from_powers((14,))
    assert phi_monomial(es, (14,)).terms == {(1,) * 14: factorial(14)}
    # one block takes one product; expanding its power would take 14
    assert len(products) == 1
    assert verify_socle_image(es).ok


def test_socle_image_goldens():
    rec = verify_socle_image(EmbeddingSpec.from_powers((2, 2)))
    assert rec.scalar == 4 and rec.nonzero and rec.ok
    image = phi_monomial(EmbeddingSpec.from_powers((2, 2)), (2, 2))
    assert image.terms == {(1, 1, 1, 1): 4}
    assert verify_socle_image(EmbeddingSpec.from_powers((1, 1, 1))).scalar == 1
    assert verify_socle_image(EmbeddingSpec.from_powers((3, 2))).scalar == 12
    assert verify_socle_image(EmbeddingSpec.from_powers((4,))).scalar == 24


def test_socle_image_small_characteristic():
    # scalar 4 stays a unit mod 3
    rec = verify_socle_image(EmbeddingSpec.from_powers((2, 2), 3))
    assert rec.scalar == 4 and rec.scalar_in_field == 1 and rec.nonzero and rec.ok
    # scalar 6 dies mod 3: recorded, and the image itself is checked to vanish
    rec = verify_socle_image(EmbeddingSpec.from_powers((3, 1), 3))
    assert rec.scalar == 6 and rec.scalar_in_field == 0
    assert not rec.nonzero and rec.ok


def test_degree_one_matrix_golden():
    es = EmbeddingSpec.from_powers((2, 1))
    mat = phi_matrix(es, 1)
    assert mat.to_rows() == [[1, 0], [1, 0], [0, 1]]


def test_phi_matrix_matches_brute_force_expansion():
    for m in range(1, 7):
        for powers in compositions(m):
            for char in (0, 2, 3, 5, 7):
                es = EmbeddingSpec.from_powers(powers, char)
                for degree in range(m + 1):
                    got = phi_matrix(es, degree)
                    assert got.to_rows() == oracles.reference_phi_matrix(powers, degree, char), (es, degree)
    # 2^70 monomials: the code tables hold Python ints
    powers = (1,) * 70
    assert _position_codes(tuple(a + 1 for a in powers), 1).dtype == object
    assert phi_matrix(EmbeddingSpec.from_powers(powers), 1).to_rows() == oracles.reference_phi_matrix(powers, 1)


def _phi_expansion(es, degree):
    """Rows of the degree piece, read off phi_monomial of each source monomial."""
    images = [oracles.phi_by_expansion(es, u) for u in graded_basis(es.source_spec, degree)]
    return [[image.terms.get(v, 0) for image in images] for v in graded_basis(es.target_spec, degree)]


@pytest.mark.parametrize(
    "powers,char,degree,built",
    [
        ((10, 10), 0, 20, np.int64),
        ((6, 7, 7), 0, 19, np.int64),
        ((5, 7, 8), 0, 3, np.int64),
        ((1,) * 20, 0, 2, np.int64),
        ((2, 1, 3), 5, 4, np.int64),
        ((6, 7, 7), 7, 18, np.int64),
        # every value divides the socle scalar prod(a_k!), so m > 20 is int64
        # while that scalar is below 2^62: 10! 11! < 2^52
        ((10, 11), 0, 21, np.int64),
        # the edge, in every degree: 20! < 2^62, but 20! 2! > 2^62 keeps the
        # build in Python ints
        ((20, 1), 0, 2, np.int64),
        ((20, 2), 0, 2, object),
    ],
)
def test_phi_matrix_is_int64_while_the_socle_scalar_is_below_2_62(from_rows_dtypes, powers, char, degree, built):
    es = EmbeddingSpec.from_powers(powers, char)
    got = phi_matrix(es, degree)
    assert from_rows_dtypes == [np.dtype(built)]
    assert got.to_rows() == _phi_expansion(es, degree)


def test_phi_matrix_socle_entry_at_the_int64_edge(from_rows_dtypes):
    # the largest entry of any m: the socle column of a single block, m!
    top = phi_matrix(EmbeddingSpec.from_powers((20,)), 20)
    assert top.array.dtype == np.int64 and top.to_rows() == [[factorial(20)]]
    over = phi_matrix(EmbeddingSpec.from_powers((21,)), 21)
    assert over.array.dtype == object and over.to_rows() == [[factorial(21)]]
    assert from_rows_dtypes == [np.dtype(np.int64), np.dtype(object)]


def test_kernel_dims_certify_injectivity():
    es = EmbeddingSpec.from_powers((2, 2))
    record = verify_kernel_dims(es)
    assert record.all_ok
    hv = hilbert_vector(es.source_spec)
    assert [d.dim_source for d in record.degrees] == list(hv)
    assert [d.dim_target for d in record.degrees] == [comb(4, j) for j in range(5)]
    assert [d.rank for d in record.degrees] == list(hv)


def test_kernel_dims_detect_characteristic_degeneration():
    # mod 2 the top-degree image vanishes (scalar 6), so injectivity fails there
    es = EmbeddingSpec.from_powers((3, 1), 2)
    record = verify_kernel_dims(es)
    assert not record.all_ok
    top = record.degrees[-1]
    assert top.degree == 4 and top.dim_source == 1 and top.rank == 0


def test_transfer_golden_and_characteristic_cases():
    rec = transfer_slp(EmbeddingSpec.from_powers((2, 2)))
    assert rec.slp_direct and rec.slp_via_embedding and rec.agree
    assert [c.dim_source for c in rec.embedded] == [1, 2]
    assert all(c.ok for c in rec.embedded)
    # characteristic 3 kills the source property; both routes must notice
    rec3 = transfer_slp(EmbeddingSpec.from_powers((2, 2), 3))
    assert not rec3.slp_direct and rec3.agree
    rec5 = transfer_slp(EmbeddingSpec.from_powers((2, 2), 5))
    assert rec5.slp_direct and rec5.agree


def test_all_small_compositions_verify():
    for m in range(1, 6):
        for powers in compositions(m):
            es = EmbeddingSpec.from_powers(powers)
            assert verify_socle_image(es).ok
            assert verify_socle_image(es).scalar == prod(factorial(a) for a in powers)
            assert verify_kernel_dims(es).all_ok
            rec = transfer_slp(es)
            assert rec.slp_direct and rec.slp_via_embedding


def test_composition_count():
    assert sum(1 for m in range(1, 9) for _ in compositions(m)) == 255


def test_oversized_pieces_and_maps_are_refused_before_any_listing(monkeypatch):
    import slpkit.embedding
    import slpkit.lefschetz
    import slpkit.quotient

    def no_work(*args):
        pytest.fail("an oversized embedding reached graded_basis, a code table or slp_check")

    for module, name in (
        (slpkit.lefschetz, "graded_basis"),
        (slpkit.quotient, "_position_codes"),
        (slpkit.lefschetz, "_position_codes"),
        (slpkit.embedding, "_position_codes"),
        (slpkit.embedding, "slp_check"),
    ):
        monkeypatch.setattr(module, name, no_work)
    # C(17, 8)^2 cells in the middle degree of the square-free source
    with pytest.raises(ValueError, match=r"degree-8 piece of the embedding is 24310x24310"):
        phi_matrix(EmbeddingSpec.from_powers((1,) * 17), 8)
    # one source variable: every piece is a column, but the target (7, 3) map is not
    with pytest.raises(ValueError, match=r"\(i=7, t=3\) map is 19448x19448"):
        transfer_slp(EmbeddingSpec.from_powers((17,)))


def test_kernel_dims_check_every_piece_before_building_any(monkeypatch):
    import slpkit.embedding
    import slpkit.quotient

    def no_work(*args):
        pytest.fail("verify_kernel_dims listed a code table, built a piece or ranked one")

    for module, name in (
        (slpkit.quotient, "_position_codes"),
        (slpkit.embedding, "_position_codes"),
        (slpkit.embedding, "phi_matrix"),
        (slpkit.embedding, "certified_rank"),
    ):
        monkeypatch.setattr(module, name, no_work)
    # over Q every column counts, so nothing is listed, however large the pieces
    for powers in ((1,) * 17, (26,), (30, 30)):
        es = EmbeddingSpec.from_powers(powers)
        assert [d.rank for d in verify_kernel_dims(es).degrees] == list(hilbert_vector(es.source_spec))
    # in characteristic p the source tables are listed: degrees 0..5 of
    # quadratic(40) fit, and degree 6 is refused before any table is built
    with pytest.raises(ValueError, match=r"degree-6 code table of the embedding's source is 3838380x40"):
        verify_kernel_dims(EmbeddingSpec.from_powers((1,) * 40, 3))


def test_each_target_middle_map_and_phi_piece_is_built_once(monkeypatch):
    # the conftest fixture has emptied the memos, so every build is counted
    import slpkit.embedding

    builds, pieces = [], []
    build, phi = slpkit.embedding.build_matrix, slpkit.embedding.phi_matrix

    def counted_build(spec, form, i, t):
        builds.append((spec.characteristic, i))
        return build(spec, form, i, t)

    def counted_phi(es, degree):
        pieces.append(degree)
        return phi(es, degree)

    monkeypatch.setattr(slpkit.embedding, "build_matrix", counted_build)
    monkeypatch.setattr(slpkit.embedding, "phi_matrix", counted_phi)
    for char in (0, 7):
        for powers in compositions(6):
            es = EmbeddingSpec.from_powers(powers, char)
            pieces.clear()
            assert verify_kernel_dims(es).all_ok
            # the kernel check counts its ranks off the closed form
            assert pieces == []
            assert transfer_slp(es).agree
            # transfer_slp builds each piece below the middle degree once
            assert pieces == [0, 1, 2]
    # the 32 compositions of 6 share the 3 middle maps of quadratic(6)
    assert builds == [(char, i) for char in (0, 7) for i in range(3)]


def _refuse_work(*args):
    raise AssertionError("the kernel check built or eliminated a matrix")


def _no_matrix_work(monkeypatch):
    import slpkit.embedding
    import slpkit.exactmat

    for module, name in (
        (slpkit.embedding, "phi_matrix"),
        (slpkit.embedding, "build_matrix"),
        (slpkit.exactmat, "_echelon"),
    ):
        monkeypatch.setattr(module, name, _refuse_work)


@pytest.mark.parametrize("char", [0, 3])
def test_embedding_pieces_are_ranked_from_their_closed_form(char, monkeypatch):
    es = EmbeddingSpec.from_powers((3, 2, 2, 1), char)
    want = verify_kernel_dims(es)
    _no_matrix_work(monkeypatch)
    assert verify_kernel_dims(es) == want
    ranks = [d.rank for d in want.degrees]
    if char:
        # 3! vanishes mod 3, so every piece from degree 3 on loses rank
        assert ranks[3:] == [13, 13, 9, 4, 1, 0]
        assert [d.ok for d in want.degrees] == [True] * 3 + [False] * 6
    else:
        assert want.all_ok and ranks == list(hilbert_vector(es.source_spec))


def test_every_piece_of_an_embedding_up_to_m_8_skips_the_elimination(monkeypatch):
    _no_matrix_work(monkeypatch)
    for m in range(1, 9):
        for powers in compositions(m):
            assert verify_kernel_dims(EmbeddingSpec.from_powers(powers)).all_ok


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_counted_ranks_match_the_eliminated_pieces(char):
    # every composition of m <= 8: the rank counted off the closed form is
    # the rank of the dense piece
    for m in range(1, 9):
        for powers in compositions(m):
            es = EmbeddingSpec.from_powers(powers, char)
            got = [d.rank for d in verify_kernel_dims(es).degrees]
            assert got == [certified_rank(phi_matrix(es, j)).rank for j in range(m + 1)], es


@pytest.mark.parametrize(
    "powers,char,all_ok", [((11, 10), 13, True), ((12, 10), 5, False), ((20, 2), 3, False)]
)
def test_counted_ranks_match_on_object_pieces(from_rows_dtypes, powers, char, all_ok):
    # m > 20: mod 13 every block factorial survives, mod 5 and mod 3 those
    # of p and more vanish.  (20, 2) is built in Python ints, as its socle
    # scalar 20! 2! is above 2^62.  The dense pieces are compared
    # where they have at most 2000 rows (degrees <= 3 and >= m - 3); a
    # middle piece has 352716 rows or more
    es = EmbeddingSpec.from_powers(powers, char)
    phi_matrix(es, es.m)
    assert from_rows_dtypes == [np.dtype(object if powers == (20, 2) else np.int64)]
    record = verify_kernel_dims(es)
    small = [j for j in range(es.m + 1) if comb(es.m, j) <= 2000]
    assert small == [0, 1, 2, 3, es.m - 3, es.m - 2, es.m - 1, es.m]
    assert [record.degrees[j].rank for j in small] == [certified_rank(phi_matrix(es, j)).rank for j in small]
    assert record.all_ok == all_ok


def test_kernel_dims_list_no_target_monomial(monkeypatch):
    # every column of a piece is hit, so its rank is read off the source's
    # code table: (12, 10) lists none of quadratic(22)'s 4194304 monomials
    import slpkit.embedding
    import slpkit.quotient

    target = (2,) * 22
    code_table = slpkit.quotient._position_codes

    def source_tables_only(exponents, degree):
        assert exponents != target, "the kernel check listed a target monomial"
        return code_table(exponents, degree)

    for module in (slpkit.quotient, slpkit.embedding):
        monkeypatch.setattr(module, "_position_codes", source_tables_only)
    monkeypatch.setattr(slpkit.embedding, "phi_matrix", _refuse_work)
    record = verify_kernel_dims(EmbeddingSpec.from_powers((12, 10), 5))
    # 5! vanishes mod 5: from degree 5 on the ranks are those of the box 5 x 5
    assert not record.all_ok
    assert [d.rank for d in record.degrees] == [1, 2, 3, 4, 5, 4, 3, 2, 1] + [0] * 14


@st.composite
def _compositions_up_to_60(draw):
    """Compositions of m <= 60 into at most four parts, so the source has at most 16^4 monomials."""
    m = draw(st.integers(1, 60))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=3))) if m > 1 else []
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, m]))


@settings(max_examples=150, deadline=None)
@given(_compositions_up_to_60(), st.sampled_from([0, 2, 3, 5, 7, 11, 13]))
def test_kernel_ranks_are_the_hilbert_function_of_the_truncated_box(powers, char):
    # the target pieces reach C(60, 30) rows, beyond any elimination; the
    # count lists the source's code tables alone, so phi_matrix is stubbed
    import slpkit.embedding

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(slpkit.embedding, "phi_matrix", _refuse_work)
        record = verify_kernel_dims(EmbeddingSpec.from_powers(powers, char))
    assert [d.rank for d in record.degrees] == oracles.truncated_box_hilbert(powers, char)


def _untimed(rec):
    direct = rec.direct
    maps = tuple(replace(c, ms=0.0) for c in direct.maps)
    return replace(rec, direct=replace(direct, maps=maps, total_ms=0.0))




def test_target_middle_maps_are_kept_per_characteristic():
    # over F_7 two middle maps of quadratic(8) are singular, so a map kept
    # for characteristic 0 must not answer for characteristic 7
    disagree = set()
    for powers in compositions(8):
        fresh = {}
        for char in (0, 7):
            _target_middle_maps.cache_clear()
            fresh[char] = _untimed(transfer_slp(EmbeddingSpec.from_powers(powers, char)))
        for char in (0, 7, 0):
            rec = transfer_slp(EmbeddingSpec.from_powers(powers, char))
            assert _untimed(rec) == fresh[char], (powers, char)
            if not rec.agree:
                disagree.add((powers, char))
    # the transfer needs p > m: mod 7 a block of 7 or 8 keeps SLP in the
    # source, while the middle maps of quadratic(8) from degrees 0 and 1 are
    # singular
    assert disagree == {((1, 7), 7), ((7, 1), 7), ((8,), 7)}


def test_the_checks_do_not_depend_on_call_order():
    # the middle-map memo is shared by every call; a key that drops the
    # characteristic would hand one field's target maps to another
    checks = {"verify": verify_kernel_dims, "transfer": lambda es: _untimed(transfer_slp(es))}
    specs = [EmbeddingSpec.from_powers(powers, char) for char in (0, 7) for powers in compositions(6)]
    fresh = {}
    for es in specs:
        for name, check in checks.items():
            _target_middle_maps.cache_clear()
            fresh[es, name] = check(es)
    _target_middle_maps.cache_clear()
    for k, a in enumerate(specs):
        # a in both orders, then interleaved with b: the same powers in the
        # other characteristic, or the next composition of 6
        order = ("verify", "transfer") if k % 2 else ("transfer", "verify")
        b = EmbeddingSpec.from_powers(a.powers, 7 - a.characteristic) if k % 2 else specs[(k + 1) % len(specs)]
        calls = [(a, order[0]), (a, order[1]), (a, "verify"), (b, "verify"), (a, "transfer"), (b, "transfer")]
        for es, name in calls:
            assert checks[name](es) == fresh[es, name], (es, name)
