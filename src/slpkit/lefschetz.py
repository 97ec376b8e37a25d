"""Multiplication matrices for powers of a linear form and SLP verdicts.

For a linear form l = sum c_k x_k the matrix of multiplication by l^t from
degree i to degree i+t has, on source monomial u and target v = u + w, the
multinomial t!/prod(w_k!) times prod c_k^{w_k}; no power of l is ever
expanded.  The value depends on the increment w alone, so each distinct w
is evaluated once in exact arithmetic and placed in every column at once:
with mixed-radix codes code(e) = sum e_k * prod_{j<k} d_j, a column u takes
w exactly when code(u) + code(w) is the code of a degree-(i+t) monomial,
found by binary search in that degree's ascending code table.  The strong
Lefschetz property for the given form holds when every such matrix has
maximal rank.

Rank checks over Q try one prime above the socle degree first (full modular
rank certifies full rational rank) and only fall back to exact fraction-free
elimination when the certificate fails, so the expensive path runs exactly
when something genuinely degenerates.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable

import numpy as np

from ._primes import is_prime, next_prime
from .exactmat import (
    GF,
    INT64_BOUND,
    QQ,
    ZZ,
    ExactMatrix,
    RankResult,
    certified_rank,
    rank_mod_p,
)
from .quotient import AlgebraSpec, AlgebraElement, basis_positions, graded_basis, hilbert_vector


@dataclass(frozen=True)
class LinearForm:
    """Coefficients of a degree-one element, one per variable."""

    coefficients: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.coefficients, tuple):
            object.__setattr__(self, "coefficients", tuple(self.coefficients))

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

    def element(self, spec: AlgebraSpec) -> AlgebraElement:
        return AlgebraElement.linear(spec, self.coefficients)

    def to_json(self) -> list:
        return [str(c) if isinstance(c, Fraction) else c for c in self.coefficients]


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


@lru_cache(maxsize=16)
def _position_codes(exponents: tuple[int, ...], degree: int) -> np.ndarray:
    """Mixed-radix codes of graded_basis(degree) for these killed powers.

    The listing is ascending in the reversed exponent tuple, and the last
    exponent is the most significant digit, so the codes ascend too and a
    code's index in this table is its monomial's position.  The table does
    not depend on the characteristic.
    """
    basis = graded_basis(AlgebraSpec(len(exponents), exponents), degree)
    dtype = np.int64 if prod(exponents) <= INT64_BOUND else object
    radix = np.array([prod(exponents[:k]) for k in range(len(exponents))], dtype=dtype)
    return np.array([m.exponents for m in basis], dtype=dtype) @ radix


def build_matrix(spec: AlgebraSpec, form: LinearForm, i: int, t: int) -> MultiplicationMatrix:
    """Multiplication matrix of form^t from degree i, one value per increment pattern."""
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    if i < 0 or t < 0 or i + t > spec.socle_degree:
        raise ValueError("degrees out of range for this algebra")
    char = spec.characteristic
    coeffs = [spec.normalize_coeff(c) for c in form.coefficients]
    rational = char == 0 and any(isinstance(c, Fraction) for c in coeffs)
    ncols = len(graded_basis(spec, i))
    nrows = len(basis_positions(spec, i + t))
    fact = factorial(t)
    picked, values = [], []
    for j, w in enumerate(graded_basis(spec, t)):
        c = fact
        val = 1
        for coeff, wk in zip(coeffs, w.exponents):
            if wk:
                c //= factorial(wk)
                val *= coeff**wk
        val = c * val
        if char:
            val %= char
        if val:
            picked.append(j)
            values.append(val)
    if rational:
        out = np.full((nrows, ncols), Fraction(0), dtype=object)
        vals = np.array([Fraction(v) for v in values], dtype=object)
    elif all(-INT64_BOUND < v < INT64_BOUND for v in values):
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
    if char:
        matrix = ExactMatrix.from_rows(out, GF, char)
    else:
        matrix = ExactMatrix.from_rows(out, QQ if rational else ZZ)
    return MultiplicationMatrix(spec, form, i, t, matrix)


def max_rank_check(mm: MultiplicationMatrix) -> tuple[bool, RankResult]:
    """Is the map of maximal rank?  Returns the verdict and the rank evidence."""
    mat = mm.matrix
    want = min(mat.rows, mat.cols)
    if want == 0:
        tag = "modular" if mat.domain == GF else "fraction-free"
        return True, RankResult(0, tag, ())
    if mat.domain == GF:
        rr = rank_mod_p(mat, mat.modulus)
    else:
        rr = certified_rank(mat, probe_prime=next_prime(mm.spec.socle_degree))
    return rr.rank == want, rr


@dataclass(frozen=True)
class MapCheck:
    """One (i, t) rank check inside an SLP run."""

    i: int
    t: int
    rows: int
    cols: int
    rank: int
    maximal: bool
    method: str
    ms: float

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


def _check_one(spec: AlgebraSpec, form: LinearForm, i: int, t: int, method: str) -> MapCheck:
    hv = hilbert_vector(spec)
    start = time.perf_counter()
    if method == "block":
        from .blockrec import recursive_middle_rank

        rr = recursive_middle_rank(spec, form, i)
        nrows, ncols = hv[i + t], hv[i]
        maximal = rr.rank == min(nrows, ncols)
    else:
        mm = build_matrix(spec, form, i, t)
        nrows, ncols = mm.matrix.rows, mm.matrix.cols
        maximal, rr = max_rank_check(mm)
    ms = (time.perf_counter() - start) * 1000.0
    return MapCheck(i, t, nrows, ncols, rr.rank, maximal, rr.method, ms)


def _map_job(payload) -> MapCheck:
    spec, form, i, t, method = payload
    return _check_one(spec, form, i, t, method)


def slp_check(
    spec: AlgebraSpec,
    form: LinearForm,
    mode: str = "auto",
    method: str = "auto",
    jobs: int = 1,
) -> LefschetzReport:
    """Decide the strong Lefschetz property for the given form.

    mode "middle" checks only the square maps (i, m-2i), which decide the
    full property for any symmetric unimodal Hilbert vector; "full" checks
    every power.  "auto" picks middle for quadratic specs, full otherwise.
    method "block" routes middle maps through the recursive rank computation
    (quadratic specs only); "dense" builds each matrix outright.
    """
    if form.nvars != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    if mode == "auto":
        mode = "middle" if spec.is_quadratic else "full"
    if mode not in ("middle", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if method == "auto":
        method = "block" if (spec.is_quadratic and mode == "middle") else "dense"
    if method not in ("dense", "block"):
        raise ValueError(f"unknown method {method!r}")
    if method == "block":
        if not spec.is_quadratic:
            raise ValueError("block method is defined for quadratic specs only")
        if mode != "middle":
            raise ValueError("block method computes middle maps only")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    m = spec.socle_degree
    pairs = middle_pairs(m) if mode == "middle" else full_pairs(m)
    payloads = [(spec, form, i, t, method) for i, t in pairs]
    start = time.perf_counter()
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(_map_job, payloads))
    else:
        checks = [_map_job(p) for p in payloads]
    total_ms = (time.perf_counter() - start) * 1000.0
    checks.sort(key=lambda c: (c.i, c.t))
    return LefschetzReport(
        spec=spec,
        form=form,
        mode=mode,
        method=method,
        maps=tuple(checks),
        slp=all(c.maximal for c in checks),
        total_ms=total_ms,
    )


@dataclass(frozen=True)
class CharProbe:
    """SLP verdict for one prime characteristic."""

    prime: int
    slp: bool
    failing: tuple[tuple[int, int], ...]


def char_search(
    spec: AlgebraSpec,
    form: LinearForm,
    primes: Iterable[int],
    mode: str = "auto",
) -> tuple[CharProbe, ...]:
    """Probe the same coefficient pattern over a range of prime fields."""
    for c in form.coefficients:
        if not isinstance(c, int):
            raise TypeError("characteristic search expects integer coefficients")
    probes = []
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        pspec = replace(spec, characteristic=p)
        report = slp_check(pspec, form, mode=mode, method="dense")
        probes.append(CharProbe(p, report.slp, report.failures))
    return tuple(probes)
