"""Multiplication matrices for powers of a linear form and SLP verdicts.

For a linear form l = sum c_k x_k the matrix of multiplication by l^t from
degree i to degree i+t has, on source monomial u and target v = u + w, the
multinomial t!/prod(w_k!) times prod c_k^{w_k}; no power of l is ever
expanded.  The value depends on the increment w alone, so each distinct w
is evaluated once in exact arithmetic and placed in every column at once:
with mixed-radix codes code(e) = sum e_k * prod_{j<k} d_j, a column u takes
w exactly when code(u) + code(w) is the code of a degree-(i+t) monomial,
found by binary search in that degree's ascending code table, which
quotient builds directly and graded_basis decodes.  The strong Lefschetz
property for the given form holds when every such matrix has maximal rank.

The Hilbert function h of these algebras is symmetric (h_i = h_{m-i}), so
the middle maps l^(m-2i): A_i -> A_(m-i) are square, and in any
characteristic the property holds exactly when they are all bijective.
For l^t: A_i -> A_j with i + j <= m, l^(m-2i) is l^(m-i-j) after l^t, so a
bijective l^(m-2i) makes l^t injective; otherwise l^(2j-m): A_(m-j) -> A_j
is l^t after l^(i+j-m), so a bijective l^(2j-m) makes l^t surjective.
slp_check therefore checks the middle maps by default; mode "full" runs
every power and serves as the oracle in tests.

check_map is the one routine that checks a map, on one of three routes.
Its dense route builds the map and ranks it with exactmat.certified_rank:
over F_p that is one elimination mod p; over Q it probes mod the one fixed
prime exactmat.PROBE_PRIME (full modular rank certifies full rational rank)
and falls back to exact fraction-free elimination only when the certificate
fails, so the expensive path runs exactly when something genuinely
degenerates.  Coefficients are integers, so every matrix is over ZZ or F_p.
Its auto route, blockrec.recursive_middle_rank, is the paper's proof: the
induction on variables, carried to every spec by the block-sum embedding
and to every (i, t) by the argument above.  _auto_route makes its one
decision per (spec, form): whether the proof's hypotheses hold, which
builds no matrix beyond the 1x1 socle map l^m: A_0 -> A_m, checked through
the dense route, and where they fail the Jordan-type fold (_jordan), which
reads the rank off the strings of multiplication by the form, folded one
variable at a time, and builds no map of the spec.  slp_check reads it to
know whether a sweep builds its maps, and every map of the pair reads its
answer off it, a fallback with a note that says why.  All routes answer
with a MapCheck.  method "auto", the default, takes the proof route for
every map; "dense", the oracle, always builds the map.

Only maps that are built are refused for size: build_matrix refuses one
whose cells and listed basis entries cost more than MAX_MAP_CELLS cells
before listing any basis, and slp_check refuses every map of a sweep that
builds them before building any.  Under the proof's hypotheses the auto
route builds the socle map alone, so the verdict comes at any size; outside them the fold builds no map up to its
bound on the socle degree, above which the auto route builds the maps as
the dense route does, and a map is refused only when too big.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

import numpy as np

from ._jordan import _MAX_FOLD_DEGREE, jordan_type
from ._primes import is_prime
from .exactmat import (
    INT64_BOUND,
    ExactMatrix,
    certified_rank,
    peak_bits,
    rank_mod_p,  # unused; perfbench/tests/test_tracing.py expects this binding
)
from .quotient import AlgebraSpec, _int_coeff, _position_codes, _sequence, basis_positions, graded_basis


@dataclass(frozen=True)
class LinearForm:
    """Integer coefficients of a degree-one element, one per variable.

    Over Q a form and its nonzero multiples have the same ranks, so a
    rational form is given as its multiple by the lcm of its denominators.
    """

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = _sequence(self.coefficients, "the form coefficients")
        # int first: an isinstance check against the Integral ABC is slow; numpy
        # integers are stored as ints, as their powers in build_matrix would wrap
        if not all(type(c) is int for c in coeffs):
            coeffs = tuple(map(_int_coeff, coeffs))
        if coeffs is not self.coefficients:
            object.__setattr__(self, "coefficients", coeffs)
        # once, as AlgebraSpec's: the auto route's memo hashes the form per map
        object.__setattr__(self, "_hash", hash(coeffs))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nvars(self) -> int:
        return len(self.coefficients)

    @classmethod
    def ones(cls, n: int) -> "LinearForm":
        return cls((1,) * n)

    def restricted(self) -> "LinearForm":
        if self.nvars < 2:
            raise ValueError("cannot restrict a one-variable form")
        return LinearForm(self.coefficients[:-1])

    def to_json(self) -> list:
        return list(self.coefficients)


@dataclass(frozen=True)
class MultiplicationMatrix:
    """Matrix of multiplication by form^power from degree i to degree i+power.

    Columns follow graded_basis(spec, i), rows graded_basis(spec, i+power).
    """

    spec: AlgebraSpec
    form: LinearForm
    source_degree: int
    power: int
    matrix: ExactMatrix


# (pattern, column) pairs placed per numpy step; bounds the builder's scratch memory
_PLACE_CHUNK = 1 << 18

# largest cost, in int64 cells, of a map that is built or checked (2 GiB)
MAX_MAP_CELLS = 1 << 28
# cells charged per basis entry listed to place a matrix, 384 B: an entry's
# exponent tuple, position-dict slot and code took 230 to 320 B on the
# one-column maps (0, n/2) of quadratic(18..24), and a target row of a
# one-block embedding piece, with its code and block counts, 83 to 98 B for
# m = 18..22 (peak-RSS growth of one build in a fresh process)
_LISTED_ENTRY_CELLS = 48


def _refuse_oversized(rows: int, cols: int, listed: int, what: str) -> None:
    """Raise ValueError for a matrix too large to hold with the `listed` basis entries that place it.

    Callers run it before listing any basis.  A thin map holds few cells
    but lists its bases all the same.
    """
    cost = rows * cols + _LISTED_ENTRY_CELLS * listed
    if cost > MAX_MAP_CELLS:
        raise ValueError(
            f"{what} is {rows}x{cols} and lists {listed} basis entries, {cost} cells in all,"
            f" above the limit of {MAX_MAP_CELLS} cells"
        )


def _refuse_oversized_maps(spec: AlgebraSpec, pairs: Iterable[tuple[int, int]], whose: str = "the") -> None:
    """_refuse_oversized for the map of l^t from degree i, for every (i, t) in pairs.

    build_matrix lists the degree-i, degree-t and degree-(i + t) pieces.
    whose names the algebra in the message when it is not the one the caller
    was given ("the target's").
    """
    for i, t in pairs:
        rows, cols = spec.dim(i + t), spec.dim(i)
        _refuse_oversized(rows, cols, rows + cols + spec.dim(t), f"{whose} (i={i}, t={t}) map")


def build_matrix(spec: AlgebraSpec, form: LinearForm, i: int, t: int) -> MultiplicationMatrix:
    """Multiplication matrix of form^t from degree i, one value per increment pattern.

    The matrix is over F_p in characteristic p and over ZZ in characteristic
    0.  Each pattern of graded_basis(spec, t) is placed through the degree-i
    and degree-(i+t) code tables.  A map whose cells and listed entries
    cost more than MAX_MAP_CELLS cells raises ValueError before any basis
    is listed or code table built.
    """
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    if i < 0 or t < 0 or i + t > spec.socle_degree:
        raise ValueError("degrees out of range for this algebra")
    _refuse_oversized_maps(spec, ((i, t),))
    char = spec.characteristic
    coeffs = [spec.normalize_coeff(c) for c in form.coefficients]
    ncols = spec.dim(i)
    nrows = len(basis_positions(spec, i + t))
    picked, values = [], []
    for j, w in enumerate(graded_basis(spec, t)):
        # the multinomial t!/prod(wk!) as a product of binomials, so that a
        # high power of one variable costs no large factorial
        c, left = 1, t
        val = 1
        for coeff, wk in zip(coeffs, w):
            if wk:
                c *= comb(left, wk)
                left -= wk
                val *= coeff**wk
        val = c * val
        if char:
            val %= char
        if val:
            picked.append(j)
            values.append(val)
    if all(-INT64_BOUND < v < INT64_BOUND for v in values):
        out = np.zeros((nrows, ncols), dtype=np.int64)
        vals = np.array(values, dtype=np.int64)
    else:
        out = np.zeros((nrows, ncols), dtype=object)
        vals = np.array(values, dtype=object)
    # u + w stays inside the box exactly when adding the codes carries
    # nowhere; a carry lowers the digit sum, so a sum that lands on a
    # degree-(i+t) code is always the code of u + w itself
    source = _position_codes(spec.exponents, i)
    target = _position_codes(spec.exponents, i + t)
    pattern = _position_codes(spec.exponents, t)[picked]
    step = max(1, _PLACE_CHUNK // ncols)
    for lo in range(0, len(picked), step):
        sums = pattern[lo : lo + step, None] + source[None, :]
        rows = np.minimum(np.searchsorted(target, sums), nrows - 1)
        hit_w, hit_col = np.nonzero(target[rows] == sums)
        out[rows[hit_w, hit_col], hit_col] = vals[lo + hit_w]
    return MultiplicationMatrix(spec, form, i, t, ExactMatrix.from_rows(out, char or None))


@dataclass(frozen=True)
class MapCheck:
    """One (i, t) rank check: the answer of every route of check_map.

    method is the ranking that decided it ("block-recursive" for the proof
    route, "jordan" for the fold, else certified_rank's method); notes say
    why an auto map outside the proof's hypotheses fell back to the fold;
    peak_bits is the largest entry bit size of the matrix that was built
    (the 1x1 socle map on the proof route, 0 when the fold answered).
    to_json_dict is the one JSON shape of a check, which the CLI's slp, rank
    and bench commands write.
    """

    i: int
    t: int
    rows: int
    cols: int
    rank: int
    maximal: bool
    method: str
    ms: float
    notes: tuple[str, ...] = ()
    peak_bits: int = 0

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "t": self.t,
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
            "maximal": self.maximal,
            "method": self.method,
            "ms": round(self.ms, 3),
            "notes": list(self.notes),
            "peak_bits": self.peak_bits,
        }


@dataclass(frozen=True)
class LefschetzReport:
    """Outcome of an SLP run for one spec and one form."""

    spec: AlgebraSpec
    form: LinearForm
    mode: str
    method: str
    maps: tuple[MapCheck, ...]
    slp: bool
    total_ms: float

    @property
    def failures(self) -> tuple[tuple[int, int], ...]:
        return tuple((m.i, m.t) for m in self.maps if not m.maximal)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "form": self.form.to_json(),
            "characteristic": self.spec.characteristic,
            "mode": self.mode,
            "method": self.method,
            "maps": [m.to_json_dict() for m in self.maps],
            "slp": self.slp,
            "timing": {"total_ms": round(self.total_ms, 3)},
        }


def middle_pairs(socle_degree: int) -> tuple[tuple[int, int], ...]:
    """(i, m-2i) for 0 <= i < m/2: the square maps across the middle."""
    m = socle_degree
    return tuple((i, m - 2 * i) for i in range((m + 1) // 2))


def full_pairs(socle_degree: int) -> tuple[tuple[int, int], ...]:
    """Every (i, t) with t >= 1 and i + t <= m."""
    m = socle_degree
    return tuple((i, t) for i in range(m) for t in range(1, m - i + 1))


def check_map(spec: AlgebraSpec, form: LinearForm, i: int, t: int, method: str = "auto") -> MapCheck:
    """Rank check of multiplication by form^t from degree i.

    This is the one routine that checks a map.  method "auto" takes the
    proof route, blockrec.recursive_middle_rank, for every (i, t) of every
    spec; it decides once per (spec, form) whether the proof's hypotheses
    hold, and where they fail it answers with a note that says why, by the
    Jordan-type fold, method "jordan", which builds no map of the spec, or
    above the fold's bound on the socle degree by the dense check.  "dense"
    always builds the matrix and ranks it with exactmat.certified_rank,
    which eliminates F_p matrices mod p and certifies integer ones mod
    PROBE_PRIME; peak_bits is that matrix's.  rows and cols come from
    spec.dim on every route, and ms times the whole check, the auto
    route's decision included when this call made it.  Only a map that is
    built is refused for size, by build_matrix.
    """
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        from .blockrec import recursive_middle_rank

        return recursive_middle_rank(spec, form, i, t)
    nrows, ncols = spec.dim(i + t), spec.dim(i)
    start = time.perf_counter()
    mat = build_matrix(spec, form, i, t).matrix
    rr = certified_rank(mat)
    ms = (time.perf_counter() - start) * 1000.0
    maximal = rr.rank == min(nrows, ncols)
    return MapCheck(i, t, nrows, ncols, rr.rank, maximal, rr.method, ms, peak_bits=peak_bits(mat))


# a sweep reads one key; at the fold's bound a type can hold some 30 MiB
@lru_cache(maxsize=2)
def _auto_route(spec: AlgebraSpec, form: LinearForm) -> tuple[str | None, int, Mapping[tuple[int, int], int] | None]:
    """The auto route's one decision for (spec, form): (fallback reason, socle peak_bits, Jordan type).

    The proof's hypotheses are characteristic 0 or above the socle degree m,
    and the 1x1 socle map l^m: A_0 -> A_m nonzero, checked by check_map's
    dense route.  When they hold the reason is None and peak_bits is the
    socle map's; otherwise the reason says why, peak_bits is 0 and the type
    is folded, or None above _MAX_FOLD_DEGREE, where the maps are built.
    """
    m = spec.socle_degree
    char = spec.characteristic
    if char and char <= m:
        reason = f"characteristic {char} <= socle degree {m}; structured path unavailable"
    else:
        socle = check_map(spec, form, 0, m, "dense")
        if socle.maximal:
            return None, socle.peak_bits, None
        reason = "zero coefficient in the form; structured path unavailable"
    return reason, 0, jordan_type(spec, form.coefficients) if m <= _MAX_FOLD_DEGREE else None


def slp_check(
    spec: AlgebraSpec,
    form: LinearForm,
    mode: str = "middle",
    method: str = "auto",
) -> LefschetzReport:
    """Decide the strong Lefschetz property for the given form.

    mode "middle" checks the square maps (i, m-2i), which decide the whole
    property for every spec in every characteristic (module docstring);
    "full" checks every power.  method "auto" runs check_map's auto route,
    with the Jordan-type fold and a note on every map where the proof's
    hypotheses fail, and "dense" builds each matrix outright; full mode
    always runs dense, so it stays independent of the proof and the fold.
    The auto route's decision for (spec, form) is made before the first
    map, so no map's ms includes it; total_ms does.  Every map's size is
    checked before any is built on the dense route, and on the auto route
    where the decision leaves the maps to be built (outside the
    hypotheses, above the fold's bound); no other sweep builds a map
    beyond the 1x1 socle map.
    """
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    if mode not in ("middle", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if method not in ("auto", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if mode == "full":
        method = "dense"
    m = spec.socle_degree
    pairs = middle_pairs(m) if mode == "middle" else full_pairs(m)
    start = time.perf_counter()
    builds = method == "dense"
    if not builds:
        reason, _, strings = _auto_route(spec, form)
        builds = reason is not None and strings is None
    if builds:
        _refuse_oversized_maps(spec, pairs)
    checks = tuple(check_map(spec, form, i, t, method) for i, t in pairs)
    total_ms = (time.perf_counter() - start) * 1000.0
    return LefschetzReport(
        spec=spec,
        form=form,
        mode=mode,
        method=method,
        maps=checks,
        slp=all(c.maximal for c in checks),
        total_ms=total_ms,
    )


def char_search(
    spec: AlgebraSpec,
    form: LinearForm,
    primes: Iterable[int],
) -> tuple[LefschetzReport, ...]:
    """slp_check's report over F_p for each prime p (proof route above the socle degree).

    Every p is checked to be prime before any map is.
    """
    primes = tuple(primes)
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return tuple(slp_check(replace(spec, characteristic=p), form) for p in primes)
