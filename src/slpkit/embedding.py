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
every block; phi_matrix places these values through the source's
mixed-radix code table and multiplies no polynomials.  The values are at
most m!, so for m <= 20 the matrix is int64 from the start.  Ranks go through
exactmat.certified_rank and its one probe prime.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
from .quotient import AlgebraSpec, AlgebraElement, _digits, _plain_ints, _position_codes, _radix, _sequence, hilbert_vector, multiply


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


def _block_sum(es: EmbeddingSpec, j: int) -> AlgebraElement:
    lo, hi = es.offsets[j], es.offsets[j + 1]
    variables = ((0,) * k + (1,) + (0,) * (es.m - 1 - k) for k in range(lo, hi))
    return AlgebraElement(es.target_spec, dict.fromkeys(variables, 1))


def phi_monomial(es: EmbeddingSpec, exponents: tuple[int, ...]) -> AlgebraElement:
    """Image of y^e under the block-sum substitution, computed in the target."""
    if len(exponents) != es.n:
        raise ValueError("exponent tuple has the wrong number of variables")
    out = AlgebraElement.one(es.target_spec)
    for j, e in enumerate(exponents):
        if e:
            out = multiply(out, _block_sum(es, j).power(e))
            if out.is_zero:
                break
    return out


def _refuse_oversized_piece(es: EmbeddingSpec, degree: int) -> None:
    """_refuse_oversized for phi_matrix(es, degree)."""
    rows, cols = es.target_spec.dim(degree), es.source_spec.dim(degree)
    _refuse_oversized(rows, cols, f"the degree-{degree} piece of the embedding")


def phi_matrix(es: EmbeddingSpec, degree: int) -> ExactMatrix:
    """Matrix of the degree-j piece: source basis columns, target basis rows.

    Row v holds prod(c_k!) in the column of y^c, where c_k counts v's
    variables in block k, read off the digits of the target's code table,
    and nothing else (module docstring).  A piece of more than MAX_MAP_CELLS
    cells raises ValueError before any code table is built.
    """
    _refuse_oversized_piece(es, degree)
    source = es.source_spec.exponents
    columns = _position_codes(source, degree)
    target = es.target_spec.exponents
    digits = _digits(target, _position_codes(target, degree))
    counts = np.add.reduceat(digits, es.offsets[:-1], axis=1)
    radix = _radix(source)
    cols = np.searchsorted(columns, counts.astype(radix.dtype) @ radix)
    # every entry prod(c_k!) is at most (sum c_k)! <= m!, so the matrix is
    # int64 whenever m! < INT64_BOUND, that is for m <= 20
    dtype = np.int64 if factorial(es.m) < INT64_BOUND else object
    fact = np.array([factorial(k) for k in range(max(es.powers) + 1)], dtype=dtype)
    out = np.zeros((len(digits), len(columns)), dtype=dtype)
    out[np.arange(len(digits)), cols] = fact[counts].prod(axis=1)
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
    """Certify injectivity degree by degree: rank == source dimension."""
    records = []
    # the source's socle degree is m, so hv lists degrees 0..m
    for j, dim_src in enumerate(hilbert_vector(es.source_spec)):
        rr = certified_rank(phi_matrix(es, j))
        records.append(
            DegreeRankRecord(
                degree=j,
                dim_source=dim_src,
                dim_target=comb(es.m, j),
                rank=rr.rank,
                ok=rr.rank == dim_src,
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


def _refuse_oversized_embedding(es: EmbeddingSpec) -> None:
    """Raise ValueError, before any work, for a matrix above MAX_MAP_CELLS cells.

    The matrices are those that verify_kernel_dims and transfer_slp build:
    every piece of phi_matrix and the middle maps of source and target.
    """
    for degree in range(es.m + 1):
        _refuse_oversized_piece(es, degree)
    for spec in (es.target_spec, es.source_spec):
        _refuse_oversized_maps(spec, middle_pairs(es.m))


def transfer_slp(es: EmbeddingSpec) -> TransferRecord:
    """Decide SLP for the sum of source variables along both routes.

    Route one is the dense check on the source algebra (the proof route is
    this embedding argument).  Route two pushes each source graded piece into
    the quadratic algebra and asks the target middle map to stay injective on
    the image; source pieces in complementary degrees have equal dimension,
    so full column rank of the composite decides the source middle map.
    Every target middle map's size is checked before any map is built.
    """
    m = es.m
    source = es.source_spec
    target = es.target_spec
    _refuse_oversized_maps(target, middle_pairs(m))
    hv = hilbert_vector(source)
    direct = slp_check(source, LinearForm.ones(es.n), method="dense")
    records = []
    for i, t in middle_pairs(m):
        mid = build_matrix(target, LinearForm.ones(m), i, t).matrix
        composite = mat_mul(mid, phi_matrix(es, i))
        rr = certified_rank(composite)
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
