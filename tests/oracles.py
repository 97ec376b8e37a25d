"""Naive reference implementations the test suite trusts blindly.

Slow but transparent: textbook Gaussian elimination over Fraction, brute
force enumerations, dict-based polynomial products.  Anything clever lives
in the package; nothing clever is allowed in here.
"""
from fractions import Fraction
from itertools import product
from math import factorial


def gauss_rank(rows):
    """Row-reduce a copy over Fraction and count the pivots."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def gauss_det(rows):
    """Determinant over Fraction, expanding nothing, swapping when needed."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        base = [x * inv for x in a[col]]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], base)]
    return det


def mod_rank(rows, p):
    """Textbook row reduction over the prime field."""
    a = [[int(x) % p for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(nrows):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def brute_standard_monomials(bounds, t):
    """Exponent tuples below the bounds with total degree t.

    Enumerates the full box by brute force and sorts by the reversed tuple,
    which is the documented listing order.
    """
    hits = [e for e in product(*[range(d) for d in bounds]) if sum(e) == t]
    return sorted(hits, key=lambda e: e[::-1])


def earlier_in_listing(eu, ev):
    """True when u strictly precedes v inside one graded listing."""
    for a, b in zip(reversed(eu), reversed(ev)):
        if a != b:
            return a < b
    return False


def naive_product(bounds, fterms, gterms, char=0):
    """Dict-of-exponent-tuples product, then drop anything out of the box."""
    out = {}
    for eu, cu in fterms.items():
        for ev, cv in gterms.items():
            e = tuple(a + b for a, b in zip(eu, ev))
            if any(x >= d for x, d in zip(e, bounds)):
                continue
            out[e] = out.get(e, 0) + cu * cv
    if char:
        out = {e: c % char for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def naive_power_times(bounds, coeffs, t, u_exps, char=0):
    """Coefficients of form^t * monomial via t successive naive products."""
    n = len(bounds)
    ell = {
        tuple(1 if j == k else 0 for j in range(n)): c
        for k, c in enumerate(coeffs)
        if c
    }
    acc = {tuple(u_exps): 1}
    for _ in range(t):
        acc = naive_product(bounds, acc, ell, char)
    return acc


def _increments(room, total):
    """Exponent bumps w with 0 <= w_k <= room[k] and sum(w) == total."""
    n = len(room)
    w = [0] * n

    def rec(k, rem):
        if k == n - 1:
            if rem <= room[k]:
                w[k] = rem
                yield tuple(w)
                w[k] = 0
            return
        for e in range(min(room[k], rem) + 1):
            w[k] = e
            yield from rec(k + 1, rem - e)
        w[k] = 0

    if n == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def reference_matrix(bounds, coeffs, i, t, char=0):
    """Rows of multiplication by (sum c_k x_k)^t from degree i, entry by entry.

    For every source monomial u and every increment w that fits in the room
    u leaves below the bounds, the entry at row u + w is
    t!/prod(w_k!) * prod(c_k^w_k), reduced mod char when char is a prime.
    Rows and columns follow brute_standard_monomials.
    """
    if char:
        coeffs = [c % char for c in coeffs]
    source = brute_standard_monomials(bounds, i)
    target_pos = {e: r for r, e in enumerate(brute_standard_monomials(bounds, i + t))}
    rows = [[0] * len(source) for _ in target_pos]
    fact = factorial(t)
    for col, ue in enumerate(source):
        room = tuple((bounds[k] - 1 - ue[k]) if coeffs[k] else 0 for k in range(len(bounds)))
        for w in _increments(room, t):
            c = fact
            val = 1
            for k, wk in enumerate(w):
                if wk:
                    c //= factorial(wk)
                    val *= coeffs[k] ** wk
            val = c * val
            if char:
                val %= char
            if val:
                rows[target_pos[tuple(a + b for a, b in zip(ue, w))]][col] = val
    return rows
