"""Structured rank computation: variable splitting and the paper's induction.

Writing the square-free basis with the last-variable-free monomials first,
multiplication by l^t in n variables decomposes into blocks built from the
restricted (n-1)-variable data:

    [[ M_bar(i, t),           0            ],
     [ c_n * t * M_bar(i,t-1), M_bar(i-1,t) ]]

For the square middle maps (t = n - 2i) the top-left factor splits through a
square block P = M_bar(i, t-1), the middle map (i, n-1-2i) of the first n-1
variables.  When P is bijective and c_n * t is invertible, the whole map is
bijective exactly when the middle map (i-1, n+1-2i) of the first n-1
variables is.  That is the paper's induction: the node (k, j), the middle
map (j, k-2j) of the first k variables, is bijective when (k-1, j) and
(k-1, j-1) are and c_k (k-2j) is invertible.  It ends in identities
(2j = k) and in the 1x1 maps l^k: A_0 -> A_k (j = 0), the scalars
k! c_1...c_k.  In characteristic 0 or above n with no zero coefficient
every step and every base map is invertible, so the induction builds no
matrix: recursive_middle_rank checks those hypotheses with one 1x1 map,
once per (spec, form), and reaches every other spec through the block-sum
embedding.  Where a hypothesis fails it answers with the Jordan-type fold
(_jordan), which builds no map of the spec either, up to the fold's bound
on the socle degree.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

from .exactmat import (
    ExactMatrix,
    block_assemble,
    certified_rank,  # unused; perfbench/tests/test_tracing.py expects this binding
    rank_mod_p,  # unused; perfbench/tests/test_tracing.py expects this binding
    scale,
)
from ._jordan import jordan_check
from .lefschetz import LinearForm, MapCheck, build_matrix, check_map
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
    bottom_left_scalar: int

    def zero_block(self) -> ExactMatrix:
        tl, br = self.top_left, self.bottom_right
        return ExactMatrix.zeros(tl.rows, br.cols, tl.modulus)

    def assemble(self) -> ExactMatrix:
        return block_assemble(self.top_left, self.zero_block(), self.bottom_left, self.bottom_right)


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
    scalar = spec.normalize_coeff(form.coefficients[-1] * t)
    rspec = spec.restricted()
    rform = form.restricted()
    raw_bl = build_matrix(rspec, rform, i, t - 1).matrix
    if i + t <= rspec.socle_degree:
        tl = build_matrix(rspec, rform, i, t).matrix
    else:
        # target degree n has no square-free monomials in n-1 variables
        tl = ExactMatrix.zeros(0, raw_bl.cols, raw_bl.modulus)
    bl = scale(raw_bl, scalar)
    br = build_matrix(rspec, rform, i - 1, t).matrix
    return BlockDecomposition(spec, form, i, t, tl, bl, br, scalar)


@lru_cache(maxsize=256)
def _proof_hypotheses(spec: AlgebraSpec, form: LinearForm) -> tuple[str | None, int]:
    """(None, the socle map's peak_bits) when the proof's hypotheses hold, else (fallback reason, 0).

    The hypotheses are characteristic 0 or above the socle degree m, and the
    1x1 socle map l^m: A_0 -> A_m nonzero, checked by check_map's dense
    route.  They depend on the spec and the form alone, so every middle map
    and slp_check's size guard share one answer.
    """
    m = spec.socle_degree
    char = spec.characteristic
    if char and char <= m:
        return f"characteristic {char} <= socle degree {m}; structured path unavailable", 0
    socle = check_map(spec, form, 0, m, "dense")
    if socle.maximal:
        return None, socle.peak_bits
    return "zero coefficient in the form; structured path unavailable", 0


def recursive_middle_rank(spec: AlgebraSpec, form: LinearForm, i: int) -> MapCheck:
    """Check of the middle map (i, m-2i) of any spec, m its socle degree.

    Hypotheses: characteristic 0 or above m, and the socle map l^m: A_0 ->
    A_m nonzero.  That 1x1 map is the scalar m!/prod((a_j-1)!) times
    prod(c_j^(a_j-1)), so given the first hypothesis the second says c_j is
    nonzero for every killed power a_j >= 2; it is the one map built, by
    check_map's dense route.  The hypotheses are decided once per (spec,
    form) and shared by all its middle maps.  The block-sum embedding phi
    (embedding.py) sends the form to E = (each c_j repeated a_j - 1 times)
    on the square-free algebra on m variables, where the induction (module
    docstring) makes every middle map of E bijective, its base scalars being
    k! e_1...e_k with k <= m.  phi is a ring map with phi(form) = E, and
    phi_i is injective, each row of phi_matrix holding the one entry
    prod(c_k!) with c_k <= m < p; so E^t o phi_i = phi o form^t injective
    makes form^t injective, hence bijective as h_i = h_(m-i).  Under the
    hypotheses the answer is rank dim(i) with method "block-recursive", no
    notes and the socle map's peak_bits.  Otherwise it is the Jordan-type
    fold's answer, method "jordan" (above the fold's bound on the socle
    degree, check_map's dense answer), with a note that says why.  Either way
    ms times the whole call, the socle check included when this call
    decided the hypotheses.
    """
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    m = spec.socle_degree
    if i < 0 or 2 * i >= m:
        raise ValueError("source degree must satisfy 0 <= i < m/2")
    t = m - 2 * i
    start = time.perf_counter()
    reason, socle_bits = _proof_hypotheses(spec, form)
    if reason is None:
        d = spec.dim(i)
        ms = (time.perf_counter() - start) * 1000.0
        return MapCheck(i, t, d, d, d, True, "block-recursive", ms, peak_bits=socle_bits)
    folded = jordan_check(spec, form, i, t)
    return replace(folded, ms=(time.perf_counter() - start) * 1000.0, notes=(reason,))
