"""Block-sum substitution into the square-free algebra and SLP transfer."""
from itertools import product as iproduct
from math import comb, factorial, prod
import random

import numpy as np
import pytest

import oracles
from slpkit.embedding import (
    EmbeddingSpec,
    phi_matrix,
    phi_monomial,
    transfer_slp,
    verify_kernel_dims,
    verify_socle_image,
)
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
    images = [phi_monomial(es, u) for u in graded_basis(es.source_spec, degree)]
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
        # m = 21: 21! > 2^62, so the build stays in Python ints
        ((10, 11), 0, 21, object),
    ],
)
def test_phi_matrix_is_built_in_int64_up_to_m_20(from_rows_dtypes, powers, char, degree, built):
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
