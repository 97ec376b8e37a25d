"""Embedding a monomial complete intersection into a quadratic algebra.

A source algebra killing y_j^{a_j + 1} embeds into the square-free algebra
on m = sum(a_j) variables through the block-sum substitution

    y_j  |->  x_{alpha_{j-1}+1} + ... + x_{alpha_j},

where alpha_j are the prefix sums of the a_j.  The substitution kills each
y_j^{a_j+1} on the nose (a sum of a_j square-free variables cannot reach
power a_j + 1), sends the socle monomial to prod(a_j!) times x_1...x_m, and
is injective in every degree, which the per-degree matrix ranks certify.
Strong Lefschetz for the source then transfers along the embedding: the sum
of all source variables maps to the sum of all target variables.

The degree-j matrix has a closed form.  A square-free target monomial v
meeting block k in c_k variables occurs only in the image of y^c, and there
with coefficient prod(c_k!), one for each ordering of v's variables inside
every block.  So each row holds one value, the value of its column y^c, and
every column is hit, by the prod C(a_k, c_k) >= 1 target monomials whose
block counts are c.  phi_matrix reads each row's block counts off the bits
of its code and multiplies no polynomials.  Every value divides the socle
scalar prod(a_k!), so the piece is int64 whenever that scalar is below
2^62.  phi_monomial, which the socle check expands, uses the same closed
form block by block: a block sum to the power e is e! times the sum of the
block's square-free monomials of degree e, and multiply combines the blocks.

The rank of a piece is therefore the number of its columns whose value is
nonzero in the field: all of them in characteristic 0, and in
characteristic p those with every c_k < p, which the Hilbert function of
the box killing y_k at min(a_k + 1, p) counts.  verify_kernel_dims reads
the ranks off that Hilbert function, so it lists nothing and refuses no
embedding at any size; transfer_slp multiplies the dense pieces of
phi_matrix, and it alone refuses an embedding for size.

A run over many embeddings builds each target middle map once, through one
lru_cache memo: _target_middle_maps keeps the middle maps of the last
target, keyed on m and the characteristic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

from .exactmat import INT64_BOUND, ExactMatrix, certified_rank, mat_mul
from .lefschetz import (
    LefschetzReport,
    LinearForm,
    _refuse_oversized,
    _refuse_oversized_maps,
    build_matrix,
    middle_pairs,
    slp_check,
)
from .quotient import AlgebraSpec, AlgebraElement, _plain_ints, _position_codes, _radix, _sequence, hilbert_vector, multiply


@dataclass(frozen=True)
class EmbeddingSpec:
    """Source socle exponents a_j (y_j^{a_j} survives, y_j^{a_j+1} dies)."""

    powers: tuple[int, ...]
    characteristic: int = 0
    source_spec: AlgebraSpec = field(init=False, repr=False, compare=False)
    target_spec: AlgebraSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        powers = _sequence(self.powers, "the socle exponents")
        char, *powers = _plain_ints((self.characteristic, *powers))
        object.__setattr__(self, "powers", tuple(powers))
        object.__setattr__(self, "characteristic", char)
        if not self.powers:
            raise ValueError("need at least one variable")
        if any(not isinstance(a, int) or a < 1 for a in self.powers):
            raise ValueError("socle exponents must be integers >= 1")
        # built once here, so a bad characteristic raises at construction
        source = AlgebraSpec(self.n, tuple(a + 1 for a in self.powers), char)
        object.__setattr__(self, "source_spec", source)
        object.__setattr__(self, "target_spec", AlgebraSpec.quadratic(self.m, char))

    @classmethod
    def from_powers(cls, powers, characteristic: int = 0) -> "EmbeddingSpec":
        return cls(powers, characteristic)

    @classmethod
    def from_spec(cls, spec: AlgebraSpec) -> "EmbeddingSpec":
        if any(d < 2 for d in spec.exponents):
            raise ValueError("killed power 1 leaves no block to substitute")
        return cls(tuple(d - 1 for d in spec.exponents), spec.characteristic)

    @property
    def n(self) -> int:
        return len(self.powers)

    @property
    def m(self) -> int:
        return sum(self.powers)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.powers, initial=0))


def phi_monomial(es: EmbeddingSpec, exponents: tuple[int, ...]) -> AlgebraElement:
    """Image of y^e under the block-sum substitution: the product, by multiply, of each block's
    power in closed form, e_j! on every e_j-subset of the block's variables (module docstring)."""
    if len(exponents) != es.n:
        raise ValueError("exponent tuple has the wrong number of variables")
    m, target = es.m, es.target_spec
    out = AlgebraElement.one(target)
    for lo, hi, e in zip(es.offsets, es.offsets[1:], exponents):
        if e:
            subsets = itertools.combinations(range(lo, hi), e)
            factor = dict.fromkeys((tuple(int(k in s) for k in range(m)) for s in subsets), factorial(e))
            out = multiply(out, AlgebraElement(target, factor))
            if out.is_zero:
                break
    return out


def phi_matrix(es: EmbeddingSpec, degree: int) -> ExactMatrix:
    """Matrix of the degree-j piece: source basis columns, target basis rows.

    Target row v holds prod(c_k!) in the column of y^c, where c_k counts
    the bits of v's code in block k (module docstring).  A piece too large
    to hold raises ValueError before any code table is built.
    """
    rows, cols = es.target_spec.dim(degree), es.source_spec.dim(degree)
    _refuse_oversized(rows, cols, rows + cols, f"the degree-{degree} piece of the embedding")
    source = es.source_spec.exponents
    columns = _position_codes(source, degree)
    codes = _position_codes(es.target_spec.exponents, degree)
    # the codes' bits, unpacked a byte at a time and summed block by block
    # in the narrowest dtype that holds a count: no m-wide int64 table
    code_bytes = np.empty((rows, (es.m + 7) // 8), dtype=np.uint8)
    for k in range(code_bytes.shape[1]):
        code_bytes[:, k] = codes >> 8 * k & 255
    bits = np.unpackbits(code_bytes, axis=1, count=es.m, bitorder="little")
    counts = np.add.reduceat(bits, es.offsets[:-1], axis=1, dtype=np.min_scalar_type(max(es.powers)))
    column_of = np.searchsorted(columns, counts @ _radix(source))
    # every value prod(c_k!) divides the socle scalar prod(a_k!)
    dtype = np.int64 if prod(map(factorial, es.powers)) < INT64_BOUND else object
    fact = np.array([factorial(k) for k in range(max(es.powers) + 1)], dtype=dtype)
    out = np.zeros((rows, cols), dtype=dtype)
    out[np.arange(rows), column_of] = fact[counts].prod(axis=1)
    return ExactMatrix.from_rows(out, es.characteristic or None)


@dataclass(frozen=True)
class SocleImageRecord:
    """Image of the source socle monomial: the scalar on x_1...x_m."""

    m: int
    scalar: int
    scalar_in_field: int
    nonzero: bool
    ok: bool


def verify_socle_image(es: EmbeddingSpec) -> SocleImageRecord:
    """Check phi(y_1^{a_1} ... y_n^{a_n}) == prod(a_j!) * x_1...x_m.

    In small characteristic the scalar may vanish; that is recorded, not an
    error: the identity is checked with the scalar reduced into the field.
    """
    scalar = prod(factorial(a) for a in es.powers)
    target = es.target_spec
    scalar_in_field = target.normalize_coeff(scalar)
    image = phi_monomial(es, es.powers)
    expected = AlgebraElement(target, {(1,) * es.m: scalar_in_field})
    return SocleImageRecord(
        m=es.m,
        scalar=scalar,
        scalar_in_field=scalar_in_field,
        nonzero=bool(scalar_in_field),
        ok=image == expected,
    )


@dataclass(frozen=True)
class DegreeRankRecord:
    """Rank of the degree-j piece of the substitution matrix."""

    degree: int
    dim_source: int
    dim_target: int
    rank: int
    ok: bool


@dataclass(frozen=True)
class KernelDimsRecord:
    degrees: tuple[DegreeRankRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(d.ok for d in self.degrees)


def verify_kernel_dims(es: EmbeddingSpec) -> KernelDimsRecord:
    """Certify injectivity degree by degree: rank == source dimension.

    The degree-j piece has one nonzero per row and every column is hit
    (module docstring), so its rank is the number of columns whose value is
    nonzero in the field.  Column y^c holds prod(c_k!), which is nonzero mod
    p exactly when every c_k < p.  So the rank is the number of degree-j
    monomials with every c_k <= min(a_k, p - 1): the Hilbert function of the
    box killing y_k at min(a_k + 1, p), 0 past its socle degree, and over Q
    the source's own.  No matrix is built or eliminated, no monomial or code
    table is listed, and no embedding is refused.
    """
    p = es.characteristic
    box = AlgebraSpec(es.n, tuple(min(a + 1, p) for a in es.powers), p) if p else es.source_spec
    # the source's socle degree is m, so hv lists degrees 0..m
    hv = hilbert_vector(es.source_spec)
    records = []
    for j, dim_src in enumerate(hv):
        rank = box.dim(j)
        records.append(
            DegreeRankRecord(
                degree=j,
                dim_source=dim_src,
                dim_target=comb(es.m, j),
                rank=rank,
                ok=rank == dim_src,
            )
        )
    return KernelDimsRecord(tuple(records))


@dataclass(frozen=True)
class EmbeddedMapCheck:
    """Composite check: target middle map restricted to the embedded source."""

    source_degree: int
    power: int
    dim_source: int
    rank: int
    ok: bool


@dataclass(frozen=True)
class TransferRecord:
    """Agreement between the direct SLP run and the embedded route."""

    direct: LefschetzReport
    embedded: tuple[EmbeddedMapCheck, ...]
    slp_direct: bool
    slp_via_embedding: bool

    @property
    def agree(self) -> bool:
        return self.slp_direct == self.slp_via_embedding


@lru_cache(maxsize=1)
def _target_middle_maps(m: int, characteristic: int) -> tuple[ExactMatrix, ...]:
    """The middle maps (i, m - 2i) of the all-ones form on quadratic(m), by i, kept for the last target.

    Over F_p with p <= m some of them are singular, so the characteristic
    is part of the key.  At m = 8 they hold 3985 int64 cells.  An
    ExactMatrix is read-only, so no caller can change a kept map.
    """
    target, ones = AlgebraSpec.quadratic(m, characteristic), LinearForm.ones(m)
    return tuple(build_matrix(target, ones, i, t).matrix for i, t in middle_pairs(m))


def transfer_slp(es: EmbeddingSpec) -> TransferRecord:
    """Decide SLP for the sum of source variables along both routes.

    Route one is the dense check on the source algebra (the proof route is
    this embedding argument).  Route two pushes each source graded piece into
    the quadratic algebra and asks the target middle map to stay injective on
    the image; source pieces in complementary degrees have equal dimension,
    so full column rank of the composite decides the source middle map.
    Every target middle map's size is checked first, before any map is
    built; a source piece is no larger than the target's piece of the same
    degree, so every embedding whose source middle maps would be refused
    fails it (m >= 17).
    Each piece below the middle degree is built here by phi_matrix, and the
    target middle maps come from _target_middle_maps, which keeps the last
    target's maps only.
    """
    m = es.m
    source = es.source_spec
    _refuse_oversized_maps(es.target_spec, middle_pairs(m), "the target's")
    hv = hilbert_vector(source)
    direct = slp_check(source, LinearForm.ones(es.n), method="dense")
    records = []
    for (i, t), mid in zip(middle_pairs(m), _target_middle_maps(m, es.characteristic)):
        rr = certified_rank(mat_mul(mid, phi_matrix(es, i)))
        records.append(
            EmbeddedMapCheck(
                source_degree=i,
                power=t,
                dim_source=hv[i],
                rank=rr.rank,
                ok=rr.rank == hv[i],
            )
        )
    via = all(r.ok for r in records)
    return TransferRecord(
        direct=direct,
        embedded=tuple(records),
        slp_direct=direct.slp,
        slp_via_embedding=via,
    )
