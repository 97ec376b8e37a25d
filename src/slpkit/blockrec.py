"""Structured rank computation for quadratic algebras via variable splitting.

Writing the square-free basis with the last-variable-free monomials first,
multiplication by l^t in n variables decomposes into blocks built from the
restricted (n-1)-variable data:

    [[ M_bar(i, t),           0            ],
     [ c_n * t * M_bar(i,t-1), M_bar(i-1,t) ]]

For the square middle maps (t = n - 2i) the top-left factor splits through a
square block P = M_bar(i, t-1), the middle map (i, n-1-2i) of the first n-1
variables.  When P is bijective and c_n * t is invertible, the whole map is
bijective exactly when the middle map (i-1, n+1-2i) of the first n-1
variables is.  That is the paper's induction, and recursive_middle_rank runs
it without building P: the node (k, j) stands for the middle map
(j, k-2j) of the first k variables, and it is bijective when (k-1, j) and
(k-1, j-1) are.  Nodes with 2j = k are identities; nodes with j = 0 are the
1x1 maps l^k: A_0 -> A_k, the scalar k! c_1...c_k, each checked by the
dense route of lefschetz.check_map.  The nodes are memoized per call, so a
middle map costs O(n^2) nodes and at most n such 1x1 checks.  The
preconditions (characteristic 0 or above n, no zero coefficient) make every
c_k * (k-2j) invertible; when they fail, or a node is not bijective, the
whole map goes to the dense check instead, and the reason is added to its
notes.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exactmat import (
    ExactMatrix,
    RankResult,
    block_assemble,
    certified_rank,
    determinant,
    mat_mul,
    rank_mod_p,  # unused; perfbench/tests/test_tracing.py expects this binding
    scale,
)
from .lefschetz import LinearForm, build_matrix, check_map
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
    raw_bl = build_matrix(rspec, rform, i, t - 1).matrix
    if i + t <= rspec.socle_degree:
        tl = build_matrix(rspec, rform, i, t).matrix
    else:
        # target degree n has no square-free monomials in n-1 variables
        tl = ExactMatrix.zeros(0, raw_bl.cols, raw_bl.domain, raw_bl.modulus)
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
    inner = certified_rank(apb)
    result = RankResult(pivot.rows + inner.rank, "block-recursive")
    if check:
        assembled = block_assemble(
            mat_mul(a, pivot),
            ExactMatrix.zeros(a.rows, b.cols, a.domain, a.modulus),
            pivot,
            mat_mul(pivot, b),
        )
        direct = certified_rank(assembled)
        if direct.rank != result.rank:
            raise RuntimeError("block rank identity violated by direct elimination")
    return result


def _dense_fallback(spec: AlgebraSpec, form: LinearForm, i: int, reason: str, stats) -> RankResult:
    mc = check_map(spec, form, i, spec.n - 2 * i, "dense", stats)
    return RankResult(mc.rank, mc.method, None, None, mc.notes + (reason,))


def _bijective(spec: AlgebraSpec, form: LinearForm, k: int, j: int, memo: dict, stats) -> bool:
    """Whether the middle map (j, k-2j) of the first k variables is bijective."""
    if (k, j) not in memo:
        if 2 * j == k:
            found = True  # l^0, the identity
        elif j == 0:
            prefix = AlgebraSpec.quadratic(k, spec.characteristic)
            found = check_map(prefix, LinearForm(form.coefficients[:k]), 0, k, "dense", stats).maximal
        else:
            found = _bijective(spec, form, k - 1, j, memo, stats) and _bijective(
                spec, form, k - 1, j - 1, memo, stats
            )
        memo[k, j] = found
    return memo[k, j]


def recursive_middle_rank(
    spec: AlgebraSpec, form: LinearForm, i: int, stats: dict | None = None
) -> RankResult:
    """Rank of the middle map (i, n-2i) by structural recursion on variables.

    Preconditions for the structured path: quadratic spec, 0 <= i < n/2,
    characteristic 0 or > n, and all form coefficients non-zero.  The rank
    then comes from the paper's induction (module docstring), which builds
    only the 1x1 base maps l^k, k <= n-i.  Violations of the characteristic
    or coefficient conditions, and a base map that is not bijective, are not
    errors: the rank is check_map's dense rank of the map and the notes say
    why.  A stats dict receives "peak_bits" from every map check_map builds;
    on the structured path that is the bit size of the largest k! c_1...c_k.
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
        return _dense_fallback(
            spec, form, i, f"characteristic {char} <= {n} variables; structured path unavailable", stats
        )
    coeffs = [spec.normalize_coeff(c) for c in form.coefficients]
    if any(c == 0 for c in coeffs):
        return _dense_fallback(spec, form, i, "zero coefficient in the form; structured path unavailable", stats)
    memo: dict[tuple[int, int], bool] = {}
    if not _bijective(spec, form, n, i, memo, stats):
        # the walk stops at the first singular base map, so exactly one is in memo
        k = next(k for (k, j), ok in memo.items() if j == 0 and not ok)
        return _dense_fallback(spec, form, i, f"base map (0, {k}) of the first {k} variables singular", stats)
    return RankResult(comb(n, i), "block-recursive", ((0, 0),) if i == 0 else None)
