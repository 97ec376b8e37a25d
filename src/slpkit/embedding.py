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
every block; _phi_rows reads these columns and values off the source's
mixed-radix code table and multiplies no polynomials.  phi_monomial, which
the socle check expands, uses the same closed form block by block: a block
sum to the power e is e! times the sum of the block's square-free monomials
of degree e, and multiply combines the blocks.  The values are at
most m!, so for m <= 20 they are int64 from the start.

With one nonzero per row, the rank of a piece is the number of distinct
columns that some row hits with a value nonzero in the field, so
verify_kernel_dims counts those and builds no matrix.  phi_matrix places the
same values into the dense piece that transfer_slp multiplies.

A run over many embeddings builds each piece of work once, through two
lru_cache memos.  The digit table of quadratic(m)'s degree-j codes is
shared by every composition of m and kept per (m, j).  _target_middle_maps
keeps the middle maps of the last target, keyed on m and the characteristic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, prod
from typing import Iterable

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


def _refuse_oversized_pieces(es: EmbeddingSpec, degrees: Iterable[int]) -> None:
    """_refuse_oversized for phi_matrix(es, j), for every j in degrees."""
    for j in degrees:
        _refuse_oversized(es.target_spec.dim(j), es.source_spec.dim(j), f"the degree-{j} piece of the embedding")


@lru_cache(maxsize=64)
def _target_digits(m: int, degree: int) -> np.ndarray:
    """Read-only digit table of quadratic(m)'s degree-`degree` codes, the same for every composition of m.

    The digits are 0 or 1, so the table is kept as bools, an eighth of the
    int64 table; 64 tables hold every degree of two targets up to m = 31.
    """
    target = (2,) * m
    digits = _digits(target, _position_codes(target, degree)).astype(bool)
    digits.flags.writeable = False
    return digits


def _phi_rows(es: EmbeddingSpec, degree: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(cols, values, width) of the degree-j piece: target row r holds values[r] in column cols[r] of width.

    Row v's value is prod(c_k!) in the column of y^c, where c_k counts v's
    variables in block k, read off the digits of the target's code table
    (module docstring).
    """
    source = es.source_spec.exponents
    columns = _position_codes(source, degree)
    counts = np.add.reduceat(_target_digits(es.m, degree), es.offsets[:-1], axis=1, dtype=np.int64)
    radix = _radix(source)
    cols = np.searchsorted(columns, counts.astype(radix.dtype) @ radix)
    # every entry prod(c_k!) is at most (sum c_k)! <= m!, so the values are
    # int64 whenever m! < INT64_BOUND, that is for m <= 20
    dtype = np.int64 if factorial(es.m) < INT64_BOUND else object
    fact = np.array([factorial(k) for k in range(max(es.powers) + 1)], dtype=dtype)
    return cols, fact[counts].prod(axis=1), len(columns)


def phi_matrix(es: EmbeddingSpec, degree: int) -> ExactMatrix:
    """Matrix of the degree-j piece: source basis columns, target basis rows.

    Each row holds its one _phi_rows value and nothing else.  A piece of
    more than MAX_MAP_CELLS cells raises ValueError before any code table is
    built.
    """
    _refuse_oversized_pieces(es, (degree,))
    cols, values, width = _phi_rows(es, degree)
    out = np.zeros((len(cols), width), dtype=values.dtype)
    out[np.arange(len(cols)), cols] = values
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

    Every piece's size is checked before any piece is read.  A piece's rank
    is the number of distinct columns hit by a value nonzero in the field
    (module docstring), so no matrix is built or eliminated.
    """
    _refuse_oversized_pieces(es, range(es.m + 1))
    p = es.characteristic
    records = []
    # the source's socle degree is m, so hv lists degrees 0..m
    for j, dim_src in enumerate(hilbert_vector(es.source_spec)):
        cols, values, width = _phi_rows(es, j)
        hit = np.zeros(width, dtype=bool)
        hit[cols[values % p != 0] if p else cols] = True
        rank = int(np.count_nonzero(hit))
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


def _refuse_oversized_embedding(es: EmbeddingSpec) -> None:
    """Raise ValueError, before any work, for a matrix above MAX_MAP_CELLS cells.

    The matrices are those that verify_kernel_dims and transfer_slp build:
    every piece of phi_matrix and the middle maps of source and target.
    """
    _refuse_oversized_pieces(es, range(es.m + 1))
    for spec in (es.target_spec, es.source_spec):
        _refuse_oversized_maps(spec, middle_pairs(es.m))


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
    Every target middle map's size is checked before any map is built.
    Each piece below the middle degree is built here by phi_matrix, and the
    target middle maps come from _target_middle_maps, which keeps the last
    target's maps only.
    """
    m = es.m
    source = es.source_spec
    _refuse_oversized_maps(es.target_spec, middle_pairs(m))
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
