"""Structured rank computation for quadratic algebras via variable splitting.

Writing the square-free basis with the last-variable-free monomials first,
multiplication by l^t in n variables decomposes into blocks built from the
restricted (n-1)-variable data:

    [[ M_bar(i, t),           0            ],
     [ c_n * t * M_bar(i,t-1), M_bar(i-1,t) ]]

For the square middle maps (t = n - 2i) the top-left factor splits through a
square block P = M_bar(i, t-1); when P is nonsingular the whole rank reduces
to size(P) plus the rank of the restricted middle map one degree down, which
recurses on n-1 variables.  Every pivot block is certified nonsingular (one
modular elimination, exact integer elimination as arbiter) before the
reduction is applied; on failure the computation falls back to dense
elimination of the directly built matrix and records the anomaly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from ._primes import next_prime
from .exactmat import (
    GF,
    ExactMatrix,
    RankResult,
    block_assemble,
    certified_rank,
    determinant,
    mat_mul,
    rank,
    rank_mod_p,
    scale,
)
from .lefschetz import LinearForm, build_matrix, max_rank_check
from .quotient import AlgebraSpec


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of one multiplication matrix over the last-variable split.

    bottom_left already carries the scalar c_n * t; the top-right block is
    identically zero and is materialized on assembly.
    """

    spec: AlgebraSpec
    form: LinearForm
    source_degree: int
    power: int
    top_left: ExactMatrix
    bottom_left: ExactMatrix
    bottom_right: ExactMatrix
    bottom_left_scalar: object

    def zero_block(self) -> ExactMatrix:
        tl, br = self.top_left, self.bottom_right
        return ExactMatrix.zeros(tl.rows, br.cols, tl.domain, tl.modulus)

    def assemble(self) -> ExactMatrix:
        return block_assemble(self.top_left, self.zero_block(), self.bottom_left, self.bottom_right)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "form": self.form.to_json(),
            "i": self.source_degree,
            "t": self.power,
            "tl": self.top_left.to_json_dict(),
            "bl_scalar": str(self.bottom_left_scalar),
            "bl": self.bottom_left.to_json_dict(),
            "br": self.bottom_right.to_json_dict(),
        }


def decompose(spec: AlgebraSpec, form: LinearForm, i: int, t: int) -> BlockDecomposition:
    """Split the (i, t) multiplication matrix over the last variable.

    Defined for quadratic specs with 1 <= i <= n-1 and 1 <= t <= n-i; the
    assembled blocks equal the directly built matrix entry for entry.
    """
    if not spec.is_quadratic:
        raise ValueError("block decomposition is defined for quadratic specs only")
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    n = spec.n
    if not 1 <= i <= n - 1:
        raise ValueError("source degree must satisfy 1 <= i <= n-1")
    if not 1 <= t <= n - i:
        raise ValueError("power must satisfy 1 <= t <= n-i")
    rspec = spec.restricted()
    rform = form.restricted()
    if i + t <= rspec.socle_degree:
        tl = build_matrix(rspec, rform, i, t).matrix
    else:
        # target degree n has no square-free monomials in n-1 variables
        proto = build_matrix(rspec, rform, i, 0).matrix
        tl = ExactMatrix.zeros(0, comb(n - 1, i), proto.domain, proto.modulus)
    raw_bl = build_matrix(rspec, rform, i, t - 1).matrix
    scalar = spec.normalize_coeff(form.coefficients[-1] * t)
    bl = scale(raw_bl, scalar)
    br = build_matrix(rspec, rform, i - 1, t).matrix
    return BlockDecomposition(spec, form, i, t, tl, bl, br, scalar)


def block_pivot_rank(
    a: ExactMatrix, b: ExactMatrix, pivot: ExactMatrix, check: bool = False
) -> RankResult:
    """Rank of [[A*P, 0], [P, P*B]] as size(P) + rank(A*P*B).

    P must be square and nonsingular (verified by determinant).  With
    check=True the assembled matrix is also eliminated directly and the two
    answers are compared.
    """
    if pivot.rows != pivot.cols:
        raise ValueError("pivot block must be square")
    if a.cols != pivot.rows or b.rows != pivot.rows:
        raise ValueError("inner dimensions do not match the pivot block")
    if determinant(pivot) == 0:
        raise ValueError("pivot block is singular")
    apb = mat_mul(mat_mul(a, pivot), b)
    inner = rank(apb)
    result = RankResult(pivot.rows + inner.rank, "block-recursive")
    if check:
        assembled = block_assemble(
            mat_mul(a, pivot),
            ExactMatrix.zeros(a.rows, b.cols, a.domain, a.modulus),
            pivot,
            mat_mul(pivot, b),
        )
        direct = rank(assembled)
        if direct.rank != result.rank:
            raise RuntimeError("block rank identity violated by direct elimination")
    return result


def _peak_bits(mat: ExactMatrix) -> int:
    best = 0
    for e in mat.entries:
        if isinstance(e, int):
            b = abs(e).bit_length()
        else:
            b = max(abs(e.numerator).bit_length(), e.denominator.bit_length())
        if b > best:
            best = b
    return best


def _note_stats(stats, mat: ExactMatrix) -> None:
    if stats is None:
        return
    stats["peak_bits"] = max(stats.get("peak_bits", 0), _peak_bits(mat))
    stats["levels"] = stats.get("levels", 0) + 1


def _dense_middle(spec: AlgebraSpec, form: LinearForm, i: int, reason: str, stats) -> RankResult:
    mm = build_matrix(spec, form, i, spec.n - 2 * i)
    _note_stats(stats, mm.matrix)
    _maximal, rr = max_rank_check(mm)
    return replace(rr, notes=rr.notes + (reason,))


def _pivot_nonsingular(pmat: ExactMatrix, restricted_socle: int) -> bool:
    size = pmat.rows
    if size == 0:
        return True
    if pmat.domain == GF:
        return rank_mod_p(pmat, pmat.modulus).rank == size
    return certified_rank(pmat, probe_prime=next_prime(restricted_socle)).rank == size


def _recurse(spec: AlgebraSpec, form: LinearForm, i: int, stats) -> RankResult:
    n = spec.n
    t = n - 2 * i
    if i == 0:
        mm = build_matrix(spec, form, 0, n)
        _note_stats(stats, mm.matrix)
        e = mm.matrix.entry(0, 0)
        found = 1 if e else 0
        return RankResult(found, "block-recursive", ((0, 0),) if found else ())
    rspec = spec.restricted()
    rform = form.restricted()
    pmat = build_matrix(rspec, rform, i, t - 1).matrix
    _note_stats(stats, pmat)
    if not _pivot_nonsingular(pmat, rspec.socle_degree):
        return _dense_middle(spec, form, i, f"pivot block singular at {n} variables", stats)
    inner = _recurse(rspec, rform, i - 1, stats)
    return RankResult(comb(n - 1, i) + inner.rank, "block-recursive", None, None, inner.notes)


def recursive_middle_rank(
    spec: AlgebraSpec, form: LinearForm, i: int, stats: dict | None = None
) -> RankResult:
    """Rank of the middle map (i, n-2i) by structural recursion on variables.

    Preconditions for the structured path: quadratic spec, 0 <= i < n/2,
    characteristic 0 or > n, and all form coefficients non-zero.  Violations
    of the characteristic or coefficient conditions are not errors: the
    computation falls back to dense elimination and records why.
    """
    if not spec.is_quadratic:
        raise ValueError("recursive middle rank is defined for quadratic specs only")
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    n = spec.n
    if i < 0 or 2 * i >= n:
        raise ValueError("source degree must satisfy 0 <= i < n/2")
    char = spec.characteristic
    if char and char <= n:
        return _dense_middle(
            spec, form, i, f"characteristic {char} <= {n} variables; structured path unavailable", stats
        )
    coeffs = [spec.normalize_coeff(c) for c in form.coefficients]
    if any(c == 0 for c in coeffs):
        return _dense_middle(spec, form, i, "zero coefficient in the form; structured path unavailable", stats)
    return _recurse(spec, form, i, stats)
