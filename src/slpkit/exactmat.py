"""Dense exact matrices over ZZ, QQ and F_p: products, rank, determinant.

A matrix is a read-only 2-D numpy array.  Integer and F_p matrices are int64
when every entry is below 2^62 in absolute value (so the sum or difference
of two entries still fits) and object arrays of Python ints otherwise; QQ
matrices are object arrays of Fractions.  The row-major tuple `entries` is
built only when an exact path asks for Python scalars.

Rank over the integers uses fraction-free (one-step division) elimination, in
which every intermediate entry is a minor of the input, so the arithmetic
stays in ZZ and the final pivot of a full elimination is the determinant up
to the row-swap sign.  The elimination is lazily scaled: a step with pivot
piv after running pivot prev turns a row with a zero in the pivot column
into piv/prev times itself, and these factors telescope, so such a row is
left as stored.  Each row carries a stamp, the running pivot when it was
last rewritten, and an offset, the column where its stored tail starts; it
is exact up to the factor prev/stamp and is rescaled only when it meets a
nonzero pivot-column entry or becomes the pivot row.  Both divisions this
takes are exact, because the up-to-date entries are minors of the input.

Rank and determinant over F_p come from one row reduction of the stored
array, run by the same numpy steps on an int64 copy for p < 2^31 (products
stay below 2^62) and on an object copy of Python ints for larger primes.

A full rank mod one prime certifies full rank over Q (specialization can
only lose rank), which is the cheap one-sided check behind certified_rank.
It always probes mod one fixed prime, PROBE_PRIME = 2^31 - 1: in an
algebra whose socle degree is below that prime, x1+...+xn has the strong
Lefschetz property mod it, and scaling each variable is an automorphism, so
the probe certifies every map of an integer form whose coefficients are all
nonzero mod it.  Rank deficits are always re-established by the exact
integer elimination.

Products of two int64 matrices stay in int64 whenever max|a| * max|b| *
a.cols < 2^62, which bounds every partial sum; embedding.phi_matrix is
int64 for m <= 20, so the embedding's small products take that path.  Other
products and all scalings multiply the stored arrays as object arrays of
Python scalars.  Neither builds `entries`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Mapping, Sequence, Union

import numpy as np

from ._primes import is_prime

ZZ = "ZZ"
QQ = "QQ"
GF = "Fp"

# the one probe prime of certified_rank: numpy-safe (p^2 < 2^63)
PROBE_PRIME = 2**31 - 1

# integer entries strictly inside (-INT64_BOUND, INT64_BOUND) are stored as int64
INT64_BOUND = 2**62

Scalar = Union[int, Fraction]


def _check_domain(domain: str, modulus: int | None) -> None:
    if domain == GF:
        if modulus is None or not is_prime(modulus):
            raise ValueError("F_p matrices need a prime modulus")
    elif domain in (ZZ, QQ):
        if modulus is not None:
            raise ValueError("modulus is only meaningful for F_p")
    else:
        raise ValueError(f"unknown domain {domain!r}")


def _integer_array(flat: list, shape: tuple[int, int]) -> np.ndarray:
    """Integers as int64 when all are below INT64_BOUND, else as Python ints."""
    try:
        a = np.array(flat, dtype=np.int64)
    except OverflowError:
        a = None
    if a is not None and (not a.size or (-INT64_BOUND < a.min() and a.max() < INT64_BOUND)):
        return a.reshape(shape)
    return np.array([int(e) for e in flat], dtype=object).reshape(shape)


def _from_scalars(flat: list, shape: tuple[int, int], domain: str, modulus: int | None) -> np.ndarray:
    """Stored form of row-major Python scalars in a checked domain."""
    if domain == QQ:
        return np.array([e if isinstance(e, Fraction) else Fraction(e) for e in flat], dtype=object).reshape(shape)
    # the type test first: an isinstance check against Fraction goes through
    # the numbers ABCs and costs about 1 us per entry
    if not all(type(e) is int for e in flat) and any(isinstance(e, Fraction) for e in flat):
        raise TypeError("fractional entry in an integer matrix")
    if domain == GF:
        flat = [int(e) % modulus for e in flat]
    return _integer_array(flat, shape)


def _from_array(a: np.ndarray, domain: str, modulus: int | None) -> np.ndarray:
    """Stored form of a 2-D integer or object array in a checked domain."""
    if domain == QQ or a.dtype.kind == "O" or a.dtype == np.uint64 or (domain == GF and modulus >= INT64_BOUND):
        return _from_scalars(a.ravel().tolist(), a.shape, domain, modulus)
    a = a.astype(np.int64)  # a copy: the matrix never shares the caller's buffer
    if domain == GF:
        a %= modulus
        return a
    if a.size and not (-INT64_BOUND < a.min() and a.max() < INT64_BOUND):
        return _integer_array(a.ravel().tolist(), a.shape)
    return a


class ExactMatrix:
    """Immutable dense matrix over one coefficient domain.

    `array` is the read-only 2-D storage described in the module docstring;
    `entries` is the row-major tuple of Python ints or Fractions, built on
    first use and cached.
    """

    __slots__ = ("rows", "cols", "domain", "modulus", "array", "_entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Sequence[Scalar],
        domain: str = ZZ,
        modulus: int | None = None,
    ) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        flat = list(entries)
        if len(flat) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        _check_domain(domain, modulus)
        self._set(_from_scalars(flat, (rows, cols), domain, modulus), domain, modulus)

    def _set(self, array: np.ndarray, domain: str, modulus: int | None) -> None:
        array.flags.writeable = False
        setter = object.__setattr__
        setter(self, "rows", array.shape[0])
        setter(self, "cols", array.shape[1])
        setter(self, "domain", domain)
        setter(self, "modulus", modulus)
        setter(self, "array", array)
        setter(self, "_entries", None)

    @classmethod
    def _stored(cls, array: np.ndarray, domain: str, modulus: int | None) -> "ExactMatrix":
        # array is already in canonical form and owned by the new matrix
        m = object.__new__(cls)
        m._set(array, domain, modulus)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return (ExactMatrix.from_rows, (self.array, self.domain, self.modulus))

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(self.array.ravel().tolist()))
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.modulus == other.modulus
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.domain, self.modulus, self.entries))

    def __repr__(self) -> str:
        return (
            f"ExactMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r}, "
            f"domain={self.domain!r}, modulus={self.modulus!r})"
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Scalar]] | np.ndarray,
        domain: str = ZZ,
        modulus: int | None = None,
    ) -> "ExactMatrix":
        """Matrix from a list of rows or from a 2-D integer or object ndarray."""
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ValueError("matrix arrays must be 2-D")
            if rows.dtype.kind not in "iuO":
                raise TypeError(f"matrix arrays need an integer or object dtype, not {rows.dtype}")
            _check_domain(domain, modulus)
            return cls._stored(_from_array(rows, domain, modulus), domain, modulus)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [e for r in rows for e in r], domain, modulus)

    @classmethod
    def zeros(cls, rows: int, cols: int, domain: str = ZZ, modulus: int | None = None) -> "ExactMatrix":
        return cls.from_rows(np.zeros((rows, cols), dtype=np.int64), domain, modulus)

    @classmethod
    def identity(cls, k: int, domain: str = ZZ, modulus: int | None = None) -> "ExactMatrix":
        return cls.from_rows(np.eye(k, dtype=np.int64), domain, modulus)

    def entry(self, r: int, c: int) -> Scalar:
        return self.array.item(r, c)

    def to_rows(self) -> list[list]:
        return self.array.tolist()

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._stored(self.array.T.copy(), self.domain, self.modulus)

    def to_csv(self) -> str:
        if self.domain == QQ:
            raise ValueError("CSV export is defined for integer entries only")
        return "\n".join(",".join(str(e) for e in row) for row in self.to_rows()) + "\n"

    @classmethod
    def from_csv(cls, text: str, domain: str = ZZ, modulus: int | None = None) -> "ExactMatrix":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line:
                continue
            rows.append([int(tok) for tok in line.split(",")])
        if not rows:
            return cls.zeros(0, 0, domain, modulus)
        return cls.from_rows(rows, domain, modulus)

    def to_json_dict(self) -> dict:
        if self.domain == QQ:
            entry_rows = [[str(e) for e in row] for row in self.to_rows()]
        else:
            entry_rows = self.to_rows()
        data = {"rows": self.rows, "cols": self.cols, "entries": entry_rows, "domain": self.domain}
        if self.domain == GF:
            data["modulus"] = self.modulus
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ExactMatrix":
        domain = data.get("domain", ZZ)
        raw = data["entries"]
        if domain == QQ:
            rows = [[Fraction(e) for e in row] for row in raw]
        else:
            rows = [[int(e) for e in row] for row in raw]
        if not rows:
            return cls.zeros(int(data["rows"]), int(data["cols"]), domain, data.get("modulus"))
        m = cls.from_rows(rows, domain, data.get("modulus"))
        if m.rows != int(data["rows"]) or m.cols != int(data["cols"]):
            raise ValueError("declared dimensions do not match the entries")
        return m


@dataclass(frozen=True)
class RankResult:
    """Rank plus how it was established.

    pivots: (row, column) pairs using original row indices, when tracked.
    pivot_minor_det: fraction-free path only; determinant (up to sign) of the
    square submatrix on the pivot rows/columns.
    notes: recorded anomalies such as fallbacks from the structured path.
    """

    rank: int
    method: str
    pivots: tuple[tuple[int, int], ...] | None = None
    pivot_minor_det: int | None = None
    notes: tuple[str, ...] = ()


def peak_bits(m: ExactMatrix) -> int:
    """Largest bit size of an entry (numerator or denominator for fractions)."""
    if m.array.dtype != object:
        return int(np.abs(m.array).max(initial=0)).bit_length()
    best = 0
    for e in m.array.flat:
        if isinstance(e, int):
            b = abs(e).bit_length()
        else:
            b = max(abs(e.numerator).bit_length(), e.denominator.bit_length())
        if b > best:
            best = b
    return best


def _same_domain(a: ExactMatrix, b: ExactMatrix) -> None:
    if a.domain != b.domain or a.modulus != b.modulus:
        raise ValueError("matrices live in different coefficient domains")


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product."""
    _same_domain(a, b)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    x, y = a.array, b.array
    if x.dtype == np.int64 and y.dtype == np.int64:
        # every partial sum of a row-by-column product is at most
        # max|x| * max|y| * a.cols in absolute value, so below that bound
        # the int64 product is exact (stored entries are below 2^62, so
        # np.abs cannot overflow)
        bound = int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0)) * a.cols
        if bound < INT64_BOUND:
            return ExactMatrix.from_rows(x @ y, a.domain, a.modulus)
    return ExactMatrix.from_rows(x.astype(object) @ y.astype(object), a.domain, a.modulus)


def scale(a: ExactMatrix, c: Scalar) -> ExactMatrix:
    return ExactMatrix.from_rows(a.array.astype(object) * c, a.domain, a.modulus)


def block_assemble(tl: ExactMatrix, tr: ExactMatrix, bl: ExactMatrix, br: ExactMatrix) -> ExactMatrix:
    """Stack [[tl, tr], [bl, br]]; zero-dimension blocks are allowed."""
    for other in (tr, bl, br):
        _same_domain(tl, other)
    if tl.rows != tr.rows or bl.rows != br.rows:
        raise ValueError("row counts of horizontal neighbours differ")
    if tl.cols != bl.cols or tr.cols != br.cols:
        raise ValueError("column counts of vertical neighbours differ")
    whole = np.block([[tl.array, tr.array], [bl.array, br.array]])
    return ExactMatrix.from_rows(whole, tl.domain, tl.modulus)


def _fraction_free_echelon(tails: list[list[int]]) -> tuple[int, tuple, int, int]:
    """One-step fraction-free elimination, lazily scaled; consumes its input rows.

    Returns (rank, pivots, sign, last_pivot).  Pivot rows are reported with
    their original indices; first non-zero entry in column order is the pivot
    rule, so the run is deterministic.

    Row i is stored as tails[i], whose first entry sits in column offs[i],
    and is exact up to the factor prev / stamps[i]: stamps[i] is the running
    pivot when the row was last rewritten and prev the running pivot now.
    A step with pivot piv rewrites a row a with entry f in the pivot column
    as (piv * a - f * b) // prev; with f = 0 that is a * piv / prev, and
    these factors telescope, so a row that only meets zeros is never
    touched.  A touched row becomes (piv * a - f * b) // stamps[i] in its
    stored entries, and the pivot row is brought up to a * prev // stamps[i]
    before use; both divisions are exact, as every up-to-date entry is a
    minor of the input.
    """
    nrows = len(tails)
    ncols = len(tails[0]) if nrows else 0
    ids = list(range(nrows))
    offs = [0] * nrows
    stamps = [1] * nrows
    pivots: list[tuple[int, int]] = []
    prev = 1
    sign = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if tails[i][col - offs[i]]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            tails[r], tails[pr] = tails[pr], tails[r]
            offs[r], offs[pr] = offs[pr], offs[r]
            stamps[r], stamps[pr] = stamps[pr], stamps[r]
            ids[r], ids[pr] = ids[pr], ids[r]
            sign = -sign
        piv_row = tails[r]
        k = col - offs[r]
        if stamps[r] != prev:
            s = stamps[r]
            piv_row = [a * prev // s for a in islice(piv_row, k, None)]
            k = 0
        piv = piv_row[k]
        for i in range(r + 1, nrows):
            ti = tails[i]
            j = col - offs[i]
            f = ti[j]
            if f:
                s = stamps[i]
                tails[i] = [
                    (piv * a - f * b) // s
                    for a, b in zip(islice(ti, j + 1, None), islice(piv_row, k + 1, None))
                ]
                offs[i] = col + 1
                stamps[i] = piv
        pivots.append((ids[r], col))
        prev = piv
        r += 1
    return r, tuple(pivots), sign, prev


def rank_fraction_free(m: ExactMatrix) -> RankResult:
    """Exact rank over the integers via fraction-free elimination."""
    if m.domain != ZZ:
        raise ValueError("fraction-free elimination expects an integer matrix")
    if m.rows == 0 or m.cols == 0:
        return RankResult(0, "fraction-free", ())
    rank, pivots, _sign, last = _fraction_free_echelon(m.to_rows())
    return RankResult(rank, "fraction-free", pivots, last if rank else None)


def _echelon_mod_p_numpy(rowdata, p: int) -> tuple[int, tuple, int]:
    """Row reduction over F_p of rows already reduced mod p, on a copy.

    The copy is int64 for p < 2^31 and an object array of Python ints for
    larger primes.  Returns (rank, pivots, det): det is the row-swap sign
    times the product of the pivots mod p, the determinant when the input is
    square and of full rank.
    """
    a = np.array(rowdata, dtype=np.int64 if p < 2**31 else object)
    nrows, ncols = a.shape
    ids = list(range(nrows))
    pivots: list[tuple[int, int]] = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # one scan per column: after the swap, row pr holds the old row r,
        # which is zero in column c, so the rows to eliminate are nz[1:] + r
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            ids[r], ids[pr] = ids[pr], ids[r]
            det = -det
        piv = int(a[r, c])
        det = det * piv % p
        if piv != 1:
            a[r, c:] = (a[r, c:] * pow(piv, -1, p)) % p
        if nz.size > 1:
            idx = nz[1:] + r
            a[idx, c:] = (a[idx, c:] - np.outer(a[idx, c], a[r, c:])) % p
        pivots.append((ids[r], c))
        r += 1
    return r, tuple(pivots), det


def _echelon_mod_p(m: ExactMatrix, p: int) -> tuple[int, tuple, int]:
    """(rank, pivots, det) of m over F_p, eliminating its stored array."""
    if m.domain == GF:
        if m.modulus != p:
            raise ValueError("matrix already lives over a different prime field")
        a = m.array
    elif m.domain == ZZ:
        a = (m.array if p < INT64_BOUND else m.array.astype(object)) % p
    else:
        raise ValueError("rank mod p expects an integer or F_p matrix")
    if m.rows == 0 or m.cols == 0:
        return 0, (), 1
    return _echelon_mod_p_numpy(a, p)


def rank_mod_p(m: ExactMatrix, p: int) -> RankResult:
    """Rank over F_p; integer matrices are reduced mod p first."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rank_, pivots, _det = _echelon_mod_p(m, p)
    return RankResult(rank_, "modular", pivots)


def _row_integerized(m: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Scale each row to integers; returns the matrix and the product of the multipliers."""
    rows = []
    denom = 1
    for row in m.to_rows():
        mult = lcm(*(e.denominator for e in row)) if row else 1
        denom *= mult
        rows.append([int(e * mult) for e in row])
    return ExactMatrix.from_rows(np.array(rows, dtype=object).reshape(m.array.shape), ZZ), denom


def certified_rank(m: ExactMatrix) -> RankResult:
    """Exact rank in the matrix's own domain, certified cheaply when full.

    An F_p matrix is eliminated mod p.  Over ZZ and QQ (rows scaled to
    integers) a single elimination mod PROBE_PRIME either certifies maximal
    rank or the run falls through to the exact integer elimination; the
    result is exact either way, only the cost is asymmetric.
    """
    if m.domain == GF:
        return rank_mod_p(m, m.modulus)
    mm = _row_integerized(m)[0] if m.domain == QQ else m
    want = min(mm.rows, mm.cols)
    if want == 0:
        return RankResult(0, "modular", ())
    rr = rank_mod_p(mm, PROBE_PRIME)
    if rr.rank == want:
        return rr
    return rank_fraction_free(mm)


def determinant(m: ExactMatrix) -> Scalar:
    """Exact determinant; raises for non-square input."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if m.rows == 0:
        return 1 % m.modulus if m.domain == GF else (Fraction(1) if m.domain == QQ else 1)
    if m.domain == GF:
        rank_, _piv, det = _echelon_mod_p(m, m.modulus)
        return det if rank_ == m.rows else 0
    if m.domain == QQ:
        mm, denom = _row_integerized(m)
        return Fraction(determinant(mm), denom)
    rank_, _piv, sign, last = _fraction_free_echelon(m.to_rows())
    if rank_ < m.rows:
        return 0
    return sign * last
