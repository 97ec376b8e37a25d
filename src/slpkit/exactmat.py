"""Dense exact matrices over ZZ and F_p: products, rank, determinant.

A matrix is a read-only 2-D numpy array, over F_p when it carries a prime
modulus and over ZZ when its modulus is None.  Entries are int64 when every
one is below 2^62 in absolute value (so the sum or difference of two entries
still fits) and object arrays of Python ints otherwise.  The row-major tuple
`entries` is built only when an exact path asks for Python ints.

Rank over the integers uses fraction-free (one-step division) elimination, in
which every intermediate entry is a minor of the input, so the arithmetic
stays in ZZ and the final pivot of a full elimination is the determinant up
to the row-swap sign.  The elimination is lazily scaled: a step with pivot
piv after running pivot prev turns a row with a zero in the pivot column
into piv/prev times itself, and these factors telescope, so such a row is
left as stored.  Each row carries a stamp, the running pivot when it was
last rewritten; it is exact up to the factor prev/stamp and is rescaled only
when it meets a nonzero pivot-column entry or becomes the pivot row.  Both
divisions this takes are exact, because the up-to-date entries are minors
of the input.  A rewritten row's entry in the pivot column is set to zero,
so the reduced array is in echelon form and holds no stale minor.

Before eliminating, rank_fraction_free splits the matrix into the connected
components of its nonzero pattern, seen as a bipartite graph on rows and
columns: a zero coefficient makes a multiplication map a permuted direct sum
of copies of smaller maps, and each block is then eliminated on its own, so
no row is rewritten over another block's columns.  A block equal to an
earlier one (same shape, same entries in order) reuses that elimination.

Both arithmetics run one row reduction, _echelon, on a copy of the stored
array: the pivot rule, the row swaps and the pivot list are shared, and only
the step that rewrites the rows below a pivot differs.  Over F_p the copy is
int64 for p < 2^31 (products stay below 2^62) and Python ints for larger
primes; over ZZ it is always Python ints, as int64 minors would overflow,
and the touched rows of a step are rewritten a chunk of at most
_REWRITE_CHUNK cells at a time, so the double-length products alive beside
the matrix stay bounded.  rank_mod_p always runs _echelon, which takes one
step on a 1x1 map and none on an empty one.  A modular rank keeps no
pivots; only rank_fraction_free reports them.

A full rank mod one prime certifies full rank over Q (specialization can
only lose rank), which is the cheap one-sided check behind certified_rank.
It always probes mod one fixed prime, PROBE_PRIME = 2^31 - 1, through
rank_mod_p: in an algebra whose socle degree is below that prime,
x1+...+xn has the strong Lefschetz property mod it, and scaling each
variable is an automorphism, so the probe certifies every map of an integer
form whose coefficients are all nonzero mod it.  Rank deficits are always
re-established by the exact integer elimination: an entry that is a
multiple of the probe prime vanishes mod it but not over ZZ.

Products of two int64 matrices stay in int64 whenever max|a| * max|b| *
a.cols < 2^62, which bounds every partial sum; embedding.phi_matrix is
int64 while the socle scalar prod(a_k!) is below 2^62, so the embedding's
small products take that path.  Other products and all scalings multiply
the stored arrays as object arrays of Python ints.  Neither builds
`entries`.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._primes import is_prime

# the one probe prime of certified_rank: numpy-safe (p^2 < 2^63)
PROBE_PRIME = 2**31 - 1

# integer entries strictly inside (-INT64_BOUND, INT64_BOUND) are stored as int64
INT64_BOUND = 2**62

# cells of touched rows that one fraction-free rewrite step handles at once;
# bounds the elimination's scratch memory
_REWRITE_CHUNK = 1 << 10


def _prime_modulus(p) -> None:
    """TypeError for a modulus that is not an int, ValueError for one that is not prime."""
    if type(p) is not int:
        raise TypeError(f"modulus must be a prime int, or None over ZZ; got {p!r}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _normalise(rows, modulus: int | None) -> np.ndarray:
    """Stored form of a list of rows or a 2-D ndarray, always a new array; TypeError for non-integer entries."""
    if modulus is not None:
        _prime_modulus(modulus)
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError("matrix arrays must be 2-D")
        if rows.dtype.kind not in "biuO":  # bools are integers, as in a list of rows
            raise TypeError(f"matrix arrays need an integer, bool or object dtype, not {rows.dtype}")
        if rows.dtype.kind != "O" and rows.dtype != np.uint64 and (modulus or 0) < INT64_BOUND:
            a = rows.astype(np.int64)  # a copy: the matrix never shares the caller's buffer
            if modulus:
                a %= modulus
            elif a.size and not (-INT64_BOUND < a.min() and a.max() < INT64_BOUND):
                a = a.astype(object)
            return a
        shape, flat = rows.shape, rows.ravel().tolist()
    else:
        shape = (len(rows), len(rows[0]) if len(rows) else 0)
        if any(len(r) != shape[1] for r in rows):
            raise ValueError("ragged rows")
        flat = [e for r in rows for e in r]
    # the type test first: an isinstance check against the numbers ABCs costs about 1 us per entry
    if not all(type(e) is int for e in flat):
        bad = [e for e in flat if not isinstance(e, Integral)]
        if bad:
            raise TypeError(f"matrix entry {bad[0]!r} is not an integer")
        flat = [int(e) for e in flat]  # numpy ints, bools
    if modulus:
        flat = [e % modulus for e in flat]
    small = all(-INT64_BOUND < e < INT64_BOUND for e in flat)
    return np.array(flat, dtype=np.int64 if small else object).reshape(shape)


class ExactMatrix:
    """Immutable dense matrix over ZZ (modulus None) or F_p (modulus p), built by from_rows.

    `array` is the read-only 2-D storage described in the module docstring;
    `entries` is the row-major tuple of Python ints, built on each read.
    """

    __slots__ = ("rows", "cols", "modulus", "array")

    def __init__(self, array: np.ndarray, modulus: int | None) -> None:
        # private: array is already in stored form and owned by the new matrix
        array.flags.writeable = False
        setter = object.__setattr__
        setter(self, "rows", array.shape[0])
        setter(self, "cols", array.shape[1])
        setter(self, "modulus", modulus)
        setter(self, "array", array)

    @classmethod
    def from_rows(cls, rows, modulus: int | None = None) -> "ExactMatrix":
        """Matrix over F_p for a prime modulus p, else over ZZ, from a list of rows or a 2-D ndarray.

        Entries must be integers (numpy integers and bools included); a
        rational, float, Decimal or string raises TypeError rather than being
        truncated.  A modulus that is not an int raises TypeError, and one
        that is not prime ValueError.
        """
        return cls(_normalise(rows, modulus), modulus)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return (ExactMatrix.from_rows, (self.array, self.modulus))

    @property
    def entries(self) -> tuple:
        return tuple(self.array.ravel().tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.modulus == other.modulus and bool(np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.modulus, self.entries))

    def __repr__(self) -> str:
        if not self.rows:  # from_rows([]) would read back as 0x0
            return f"ExactMatrix.zeros(0, {self.cols}, {self.modulus!r})"
        return f"ExactMatrix.from_rows({self.to_rows()!r}, {self.modulus!r})"

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int | None = None) -> "ExactMatrix":
        return cls.from_rows(np.zeros((rows, cols), dtype=np.int64), modulus)

    def entry(self, r: int, c: int) -> int:
        return self.array.item(r, c)

    def to_rows(self) -> list[list[int]]:
        return self.array.tolist()

    def to_csv(self) -> str:
        return "\n".join(",".join(str(e) for e in row) for row in self.to_rows()) + "\n"

    def to_json_dict(self) -> dict:
        data = {"rows": self.rows, "cols": self.cols, "entries": self.to_rows()}
        if self.modulus is None:
            data["domain"] = "ZZ"
        else:
            data["domain"] = "Fp"
            data["modulus"] = self.modulus
        return data


@dataclass(frozen=True)
class RankResult:
    """Rank of one matrix and the method that established it.

    method: "modular" or "fraction-free".
    pivots, pivot_minor_det: fraction-free path only, None on the modular
    one.  The pivots are (row, column) pairs in original indices; they name
    the square minor whose determinant, up to sign, is pivot_minor_det.
    """

    rank: int
    method: str
    pivots: tuple[tuple[int, int], ...] | None = None
    pivot_minor_det: int | None = None


def peak_bits(m: ExactMatrix) -> int:
    """Largest bit size of an entry."""
    if m.array.dtype != object:
        return int(np.abs(m.array).max(initial=0)).bit_length()
    return max((abs(e).bit_length() for e in m.array.flat), default=0)


def _same_domain(a: ExactMatrix, b: ExactMatrix) -> None:
    if a.modulus != b.modulus:
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
            return ExactMatrix.from_rows(x @ y, a.modulus)
    return ExactMatrix.from_rows(x.astype(object) @ y.astype(object), a.modulus)


def scale(a: ExactMatrix, c: int) -> ExactMatrix:
    return ExactMatrix.from_rows(a.array.astype(object) * c, a.modulus)


def block_assemble(tl: ExactMatrix, tr: ExactMatrix, bl: ExactMatrix, br: ExactMatrix) -> ExactMatrix:
    """Stack [[tl, tr], [bl, br]]; zero-dimension blocks are allowed."""
    for other in (tr, bl, br):
        _same_domain(tl, other)
    if tl.rows != tr.rows or bl.rows != br.rows:
        raise ValueError("row counts of horizontal neighbours differ")
    if tl.cols != bl.cols or tr.cols != br.cols:
        raise ValueError("column counts of vertical neighbours differ")
    whole = np.block([[tl.array, tr.array], [bl.array, br.array]])
    return ExactMatrix.from_rows(whole, tl.modulus)


def _components(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, cols) index arrays of each connected component of mask's pattern.

    Row r and column c are joined when mask[r, c]; a row or column with no
    True entry lies in no component.  Each component grows from its first
    free row by whole-frontier steps on the boolean array, so no Python loop
    runs over the nonzero entries.
    """
    free = mask.any(axis=1)
    out = []
    while free.any():
        rows = np.zeros(mask.shape[0], dtype=bool)
        cols = np.zeros(mask.shape[1], dtype=bool)
        frontier = np.zeros_like(rows)
        frontier[np.argmax(free)] = True
        while frontier.any():
            rows |= frontier
            new_cols = mask[frontier].any(axis=0) & ~cols
            cols |= new_cols
            frontier = mask[:, new_cols].any(axis=1) & ~rows
        free &= ~rows
        out.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    return out


def rank_fraction_free(m: ExactMatrix) -> RankResult:
    """Exact rank over the integers via fraction-free elimination.

    The matrix is split into the connected components of its nonzero
    pattern (a permuted direct sum of blocks), and each block is eliminated
    on its own, so no row is rewritten over another block's columns.  A
    block equal in shape and entries to an earlier one reuses its
    elimination.  The rank is the sum of the blocks' ranks, the pivots are
    the blocks' pivots in original indices, sorted by column, and the pivot
    minor is a permuted block diagonal, so the product of the blocks' last
    pivots is its determinant up to sign.
    """
    if m.modulus is not None:
        raise ValueError("fraction-free elimination expects an integer matrix")
    a = m.array
    seen: dict = {}
    rank, pivots, det = 0, [], 1
    for rows, cols in _components(a != 0):
        sub = a[np.ix_(rows, cols)]
        # int64 blocks compare by their bytes; object blocks by value, as
        # their bytes are pointers
        key = (sub.shape, sub.tobytes() if sub.dtype != object else tuple(sub.ravel().tolist()))
        if key not in seen:
            r, local, _sign, last = _echelon(sub.astype(object), None)
            seen[key] = r, local, last
        r, local, last = seen[key]
        rank += r
        pivots.extend((int(rows[i]), int(cols[j])) for i, j in local)
        det *= last
    pivots.sort(key=lambda rc: rc[1])
    return RankResult(rank, "fraction-free", tuple(pivots), det if rank else None)


def _echelon(a: np.ndarray, p: int | None) -> tuple[int, tuple, int, int]:
    """Row reduction of the 2-D array a in place: mod the prime p, or over ZZ when p is None.

    Returns (rank, pivots, sign, d).  The pivot is the first nonzero entry at
    or below the current row, in column order; pivots are (original row,
    column) pairs and sign is the row-swap sign.  Over F_p, a holds entries
    reduced mod p (int64 only for p < 2^31) and d is the product of the
    pivots mod p; over ZZ, a is an object array of Python ints and d is the
    last pivot of the lazily scaled fraction-free elimination.  Either way
    sign * d is the determinant of a square input of full rank.
    """
    nrows, ncols = a.shape
    ids = list(range(nrows))
    pivots: list[tuple[int, int]] = []
    # over ZZ, the running pivot when each row was last rewritten
    stamps = np.ones(nrows, dtype=object) if p is None else None
    sign = d = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # one scan per column: after the swap, row pr holds the old row r,
        # which is zero in column c, so the rows to rewrite are nz[1:] + r
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
            ids[r], ids[pr] = ids[pr], ids[r]
            sign = -sign
            if p is None:
                stamps[[r, pr]] = stamps[[pr, r]]
        idx = nz[1:] + r
        if p is not None:
            # when rows below need rewriting, the pivot row is scaled to 1 in
            # place on its view; the touched rows are gathered once,
            # rewritten in place as sub - f * row mod p, and written back
            # (products stay below 2^62 for p < 2^31)
            row = a[r, c:]
            piv = int(row[0])
            d = d * piv % p
            if idx.size:
                if piv != 1:
                    row *= pow(piv, -1, p)
                    row %= p
                sub = a[idx, c:]
                sub -= sub[:, :1] * row
                sub %= p
                a[idx, c:] = sub
        else:
            if stamps[r] != d:
                a[r, c:] = a[r, c:] * d // stamps[r]
            piv = a[r, c]
            if idx.size:
                # (piv * a - f * b) // stamp, in place and a chunk of rows at a
                # time, so the double-length products alive beside the matrix
                # stay below _REWRITE_CHUNK cells
                step = max(1, _REWRITE_CHUNK // (ncols - c))
                for lo in range(0, idx.size, step):
                    rows = idx[lo : lo + step]
                    t = a[rows, c + 1 :] * piv
                    t -= np.outer(a[rows, c], a[r, c + 1 :])
                    t //= stamps[rows][:, None]
                    a[rows, c + 1 :] = t
                    # zero the pivot column chunk by chunk: a stale minor left
                    # there until the end of the step pins the allocator pools
                    # of its row's freed entries, and the chunked rewrite then
                    # peaks above the unchunked one
                    a[rows, c] = 0
                stamps[idx] = piv
            d = piv
        pivots.append((ids[r], c))
        r += 1
    return r, tuple(pivots), sign, d


def _reduce_mod_p(m: ExactMatrix, p: int) -> np.ndarray:
    """One copy of m's stored array reduced mod p: int64 for p < 2^31, Python ints above.

    F_p storage takes the steps of ZZ storage, which leave its residues as they are.
    """
    if m.modulus not in (None, p):
        raise ValueError("matrix already lives over a different prime field")
    work = np.int64 if p < 2**31 else object
    if m.array.dtype == object:
        # entries beyond int64 are reduced before an int64 copy could hold them
        return (m.array % p).astype(work, copy=False)
    # cast first: an int64 array % p raises OverflowError for p above 2^63
    a = m.array.astype(work)
    a %= p
    return a


def rank_mod_p(m: ExactMatrix, p: int) -> RankResult:
    """Rank over F_p by _echelon; integer matrices are reduced mod p first.  The pivots are not kept."""
    _prime_modulus(p)
    return RankResult(_echelon(_reduce_mod_p(m, p), p)[0], "modular")


def certified_rank(m: ExactMatrix) -> RankResult:
    """Exact rank in the matrix's own domain, certified cheaply when full.

    An F_p matrix is eliminated mod p.  Over ZZ a single elimination mod
    PROBE_PRIME either certifies maximal rank or the run falls through to
    the exact integer elimination; the result is exact either way, only the
    cost is asymmetric.
    """
    if m.modulus:
        return rank_mod_p(m, m.modulus)
    rr = rank_mod_p(m, PROBE_PRIME)
    if rr.rank == min(m.rows, m.cols):
        return rr
    return rank_fraction_free(m)


def determinant(m: ExactMatrix) -> int:
    """Exact determinant; raises for non-square input."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    p = m.modulus
    rank_, _piv, sign, d = _echelon(_reduce_mod_p(m, p) if p else m.array.astype(object), p)
    if rank_ < m.rows:
        return 0
    return sign * d % p if p else sign * d
