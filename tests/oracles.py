"""Naive reference implementations the test suite trusts blindly.

Slow but transparent: textbook Gaussian elimination over Fraction, brute
force enumerations, dict-based polynomial products.  Anything clever lives
in the package; nothing clever is allowed in here.
"""
from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, lcm

from slpkit._primes import is_prime
from slpkit.quotient import AlgebraElement, multiply


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


def reference_phi_matrix(powers, degree, char=0):
    """Rows of the block-sum substitution y_j -> (sum of block j) in one degree.

    Each source monomial y^e is expanded by enumerating every way to pick,
    for each j, an ordered e_j-tuple of variables from block j; a pick that
    uses a variable twice dies in the square-free target.  Columns follow
    the source listing (killed powers a_j + 1), rows the square-free listing
    on sum(a_j) variables, both sorted by the reversed exponent tuple.
    """
    m = sum(powers)
    blocks, start = [], 0
    for a in powers:
        blocks.append(range(start, start + a))
        start += a
    source = sorted(_increments(tuple(powers), degree), key=lambda e: e[::-1])
    target = sorted(_increments((1,) * m, degree), key=lambda e: e[::-1])
    target_pos = {e: r for r, e in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for col, e in enumerate(source):
        per_block = [list(product(block, repeat=ej)) for block, ej in zip(blocks, e)]
        for pick in product(*per_block):
            exps = [0] * m
            for chosen in pick:
                for k in chosen:
                    exps[k] += 1
            if max(exps, default=0) < 2:
                rows[target_pos[tuple(exps)]][col] += 1
    if char:
        rows = [[x % char for x in row] for row in rows]
    return rows


def hilbert_by_windows(exponents):
    """h_0..h_m: multiply by one window 1 + t + ... + t^(d-1) per killed power d, term by term."""
    poly = [1]
    for d in exponents:
        out = [0] * (len(poly) + d - 1)
        for j, c in enumerate(poly):
            for k in range(d):
                out[j + k] += c
        poly = out
    return tuple(poly)


def truncated_box_hilbert(powers, p):
    """h_0..h_m, m = sum(powers), of the box killing y_k at min(a_k + 1, p), or at a_k + 1 when p = 0.

    This is the rank of each degree's piece of the block-sum substitution:
    the piece's column y^c holds prod(c_k!), which is nonzero mod p exactly
    when every c_k < p.  Counted by convolving one variable's exponent
    range at a time; degrees above the truncated box's socle count 0.
    """
    m = sum(powers)
    h = [1] + [0] * m
    for a in powers:
        top = min(a, p - 1) if p else a
        h = [sum(h[j - e] for e in range(min(top, j) + 1)) for j in range(m + 1)]
    return h


def power(f, k):
    """f^k in the quotient, multiplying by f one factor at a time."""
    if k < 0:
        raise ValueError("negative powers are undefined here")
    result = AlgebraElement.one(f.spec)
    for _ in range(k):
        if result.is_zero:
            break
        result = multiply(result, f)
    return result


def phi_by_expansion(es, exponents):
    """The block-sum image of y^e by iterated expansion, for embedding.phi_monomial.

    y_j's image, the sum of block j's variables, is raised to e_j by power,
    one product at a time, and the blocks' powers are combined by multiply;
    no closed form for a block's power is used.
    """
    target = es.target_spec
    out = AlgebraElement.one(target)
    for j, e in enumerate(exponents):
        if e:
            lo, hi = es.offsets[j], es.offsets[j + 1]
            variables = ((0,) * k + (1,) + (0,) * (es.m - 1 - k) for k in range(lo, hi))
            out = multiply(out, power(AlgebraElement(target, dict.fromkeys(variables, 1)), e))
            if out.is_zero:
                break
    return out


def reference_echelon_mod_p(rows, p):
    """(rank, pivots, det) of rows already reduced mod p, on Python-int lists.

    Pivot rule: the first non-zero entry at or below the current row, in
    column order.  pivots are (original row, column) pairs; det is the
    row-swap sign times the product of the pivots mod p.
    """
    a = [list(row) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    ids = list(range(nrows))
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            ids[r], ids[pr] = ids[pr], ids[r]
            det = -det
        piv = a[r][c]
        det = det * piv % p
        inv = pow(piv, -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(r + 1, nrows):
            f = a[i][c]
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append((ids[r], c))
        r += 1
    return r, tuple(pivots), det


def reference_fraction_free_echelon(tails):
    """One-step fraction-free elimination; consumes its input rows.

    Returns (rank, pivots, sign, last_pivot).  Pivot rows are reported with
    their original indices; first non-zero entry in column order is the pivot
    rule, so the run is deterministic.  Every row below the pivot is
    rewritten at every step, including those with a zero in the pivot column.
    """
    nrows = len(tails)
    ncols = len(tails[0]) if nrows else 0
    ids = list(range(nrows))
    pivots = []
    prev = 1
    sign = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if tails[i][0]:
                pr = i
                break
        if pr < 0:
            for i in range(r, nrows):
                del tails[i][0]
            continue
        if pr != r:
            tails[r], tails[pr] = tails[pr], tails[r]
            ids[r], ids[pr] = ids[pr], ids[r]
            sign = -sign
        piv_row = tails[r]
        piv = piv_row[0]
        for i in range(r + 1, nrows):
            ti = tails[i]
            f = ti[0]
            if f:
                tails[i] = [
                    (piv * a - f * b) // prev
                    for a, b in zip(islice(ti, 1, None), islice(piv_row, 1, None))
                ]
            elif piv == 1 and prev == 1:
                del ti[0]
            else:
                tails[i] = [(piv * a) // prev for a in islice(ti, 1, None)]
        pivots.append((ids[r], col))
        prev = piv
        r += 1
    return r, tuple(pivots), sign, prev


def tensor_deficit_rank(live, dead, i, t):
    """Rank of multiplication by L^t from degree i over Q, where L has a
    nonzero coefficient on the variables killed at the powers in live and a
    zero coefficient on those killed at the powers in dead.

    The algebra is A (the live variables) tensor B (the dead ones), and L
    acts on A alone.  Degree i of the tensor is the sum over j of
    A_{i-j} (x) B_j; by the strong Lefschetz property of A in characteristic
    0, L^t: A_{i-j} -> A_{i-j+t} has maximal rank
    min(h_A(i-j), h_A(i-j+t)).  Both Hilbert functions are counted by brute
    force.
    """
    def h(bounds, d):
        return len(brute_standard_monomials(bounds, d)) if d >= 0 else 0

    return sum(h(dead, j) * min(h(live, i - j), h(live, i - j + t)) for j in range(i + 1))


def wilson_rank(n, i, t, p):
    """Rank of multiplication by (x1+...+xn)^t from degree i of the square-free
    algebra on n variables, over F_p (p = 0 means over Q).

    The map is t! times the inclusion matrix of i-subsets in (i+t)-subsets.
    Wilson's diagonal form of that matrix (Europ. J. Combin. 11, 1990) gives
    its rank mod p once i <= n-(i+t), which transposing to complements
    arranges.  A negative i leaves the sum empty.
    """
    def binom(a, b):
        return comb(a, b) if 0 <= b <= a else 0

    k = i + t
    if k > n or (p and p <= t):
        return 0
    if i > n - k:
        i, k = n - k, n - i
    return sum(
        binom(n, j) - binom(n, j - 1)
        for j in range(i + 1)
        if p == 0 or binom(k - j, i - j) % p
    )


def tensor_wilson_rank(n, zeros, i, t, p):
    """wilson_rank for a form with `zeros` zero and n - zeros unit coefficients.

    The algebra is the square-free algebra on the zero variables tensor the
    one on the others, and the form acts on the second factor alone, where
    scaling each variable by its coefficient (+-1) makes it the all-ones
    form.  Degree i is the sum over j of C(zeros, j) copies of degree i-j of
    the second factor.
    """
    return sum(comb(zeros, j) * wilson_rank(n - zeros, i - j, t, p) for j in range(zeros + 1))


def integral_multiple(coeffs):
    """Rational coefficients times the lcm of their denominators, as ints.

    Over Q this form has the ranks of the rational one, which the package
    does not take.
    """
    coeffs = [Fraction(c) for c in coeffs]
    d = lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * d) for c in coeffs)


def next_prime(n):
    """Smallest prime strictly greater than n: moduli just past a storage bound.

    Trial division cannot reach 2^64, so this walks up with the package's
    deterministic Miller-Rabin test.
    """
    k = max(n + 1, 2)
    while not is_prime(k):
        k += 1
    return k
