"""Verdicts the benchmark checks slpkit against, computed without slpkit.

Each rank here comes from a closed form or a direct count, never from an
elimination, so a wrong rank from the library cannot agree with it by
sharing code.  The check_* functions take plain data read off the library's
results and return one message per disagreement (an empty list means the
case is correct).
"""
from __future__ import annotations

from math import comb, factorial, prod


def binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def wilson_rank(n: int, i: int, t: int, p: int) -> int:
    """Rank of multiplication by (x1+...+xn)^t from degree i of the square-free
    algebra on n variables, over F_p (p = 0 means over Q).

    The map is t! times the inclusion matrix of i-subsets in (i+t)-subsets.
    Wilson's diagonal form of that matrix (Europ. J. Combin. 11, 1990) gives
    its rank mod p once i <= n-(i+t), which transposing to complements
    arranges.
    """
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


def tensor_rank(n: int, k: int, i: int, t: int) -> int:
    """Rank over Q of l^t from degree i when k of l's n coefficients are zero.

    The algebra is the tensor product of the square-free algebras on the k
    killed variables and on the other n-k; l acts on the second factor only,
    where (after a diagonal rescaling, an automorphism) it is the all-ones
    form, which has the strong Lefschetz property over Q (Stanley 1980).
    """
    return sum(
        binom(k, j) * min(binom(n - k, i - j), binom(n - k, i - j + t))
        for j in range(k + 1)
    )


def middle_pairs(m: int) -> list[tuple[int, int]]:
    """The square maps (i, m-2i) that decide the property for socle degree m."""
    return [(i, m - 2 * i) for i in range((m + 1) // 2)]


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def compositions(m: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of positive integers summing to m (2^(m-1) of them)."""
    if m == 0:
        return [()]
    return [(first,) + rest for first in range(1, m + 1) for rest in compositions(m - first)]


def hilbert(killed_powers) -> list[int]:
    """Graded dimensions: coefficients of prod_j (1 + s + ... + s^(d_j - 1))."""
    poly = [1]
    for d in killed_powers:
        out = [0] * (len(poly) + d - 1)
        for a, c in enumerate(poly):
            for b in range(d):
                out[a + b] += c
        poly = out
    return poly


def _check_maps(maps, rank_of, full_of, m: int) -> list[str]:
    """maps: (i, t, rank, maximal) rows; rank_of(i, t) is the expected rank
    and full_of(i, t) the maximal one."""
    errors = []
    seen = {(i, t) for i, t, _r, _mx in maps}
    for pair in middle_pairs(m):
        if pair not in seen:
            errors.append(f"middle map {pair} was not checked")
    for i, t, r, maximal in maps:
        want = rank_of(i, t)
        if r != want:
            errors.append(f"map (i={i}, t={t}): rank {r}, expected {want}")
        if maximal != (r == full_of(i, t)):
            errors.append(f"map (i={i}, t={t}): maximal flag {maximal} disagrees with rank {r}")
    return errors


def check_squarefree_q(n: int, maps, slp: bool) -> list[str]:
    """Nonzero coefficients over Q: every map has maximal rank.

    A diagonal rescaling is an automorphism of the square-free algebra, so
    the form behaves like the all-ones form, which has the property over Q.
    """
    full = lambda i, t: min(binom(n, i), binom(n, i + t))
    errors = _check_maps(maps, full, full, n)
    if not slp:
        errors.append(f"n={n}: verdict fails, expected holds")
    return errors


def check_deficit_q(n: int, k: int, maps, slp: bool) -> list[str]:
    """k zero coefficients over Q: ranks follow tensor_rank."""
    full = lambda i, t: min(binom(n, i), binom(n, i + t))
    errors = _check_maps(maps, lambda i, t: tensor_rank(n, k, i, t), full, n)
    expected = all(tensor_rank(n, k, i, t) == full(i, t) for i, t in middle_pairs(n))
    if slp != expected:
        errors.append(f"n={n}, k={k}: verdict {slp}, expected {expected}")
    return errors


def check_char_scan(n: int, lo: int, hi: int, probes) -> list[str]:
    """probes: (p, slp, failing pairs) for a +-1 form on the square-free algebra.

    Rescaling variables by -1 is an automorphism in every characteristic, so
    each prime's ranks are Wilson's.
    """
    errors = []
    primes = [p for p, _slp, _f in probes]
    if primes != primes_between(lo, hi):
        errors.append(f"probed primes {primes}, expected {primes_between(lo, hi)}")
    for p, slp, failing in probes:
        failing = {tuple(pair) for pair in failing}
        short = {(i, t) for i, t in middle_pairs(n) if wilson_rank(n, i, t, p) < binom(n, i)}
        if slp != (not short):
            errors.append(f"p={p}: verdict {slp}, expected {not short}")
        for pair in sorted(short - failing):
            errors.append(f"p={p}: failing middle map {pair} not reported")
        for i, t in sorted(failing):
            if wilson_rank(n, i, t, p) == min(binom(n, i), binom(n, i + t)):
                errors.append(f"p={p}: map {(i, t)} reported failing but has maximal rank")
    return errors


def check_embedding(powers, socle, kernel, direct_maps, slp_direct, embedded, slp_via) -> list[str]:
    """The checks of the m <= 8 embedding acceptance test, with dimensions
    recomputed here.

    socle: (scalar, ok, nonzero); kernel: (degree, dim_source, dim_target,
    rank, ok) rows; direct_maps: (i, t, rank, maximal) rows of the direct run
    on the source algebra; embedded: (i, t, dim_source, rank, ok) rows.
    """
    errors = []
    m = sum(powers)
    h = hilbert([a + 1 for a in powers])
    scalar, ok, nonzero = socle
    if scalar != prod(factorial(a) for a in powers) or not ok or not nonzero:
        errors.append(f"{powers}: socle image (scalar={scalar}, ok={ok}, nonzero={nonzero})")
    if [row[0] for row in kernel] != list(range(m + 1)):
        errors.append(f"{powers}: kernel degrees {[row[0] for row in kernel]}")
    for j, dim_src, dim_tgt, r, ok in kernel:
        if (dim_src, dim_tgt, r, ok) != (h[j], binom(m, j), h[j], True):
            errors.append(f"{powers}: degree {j} injectivity (rank {r} of {dim_tgt}x{dim_src})")
    # the all-ones form has the property in characteristic 0 (Stanley 1980)
    full = lambda i, t: min(h[i], h[i + t])
    errors += [f"{powers}: direct run: {e}" for e in _check_maps(direct_maps, full, full, m)]
    if not slp_direct or not slp_via:
        errors.append(f"{powers}: verdicts direct={slp_direct} via-embedding={slp_via}")
    if [(i, t) for i, t, *_ in embedded] != middle_pairs(m):
        errors.append(f"{powers}: embedded maps {[(i, t) for i, t, *_ in embedded]}")
    for i, t, dim_src, r, ok in embedded:
        if (dim_src, r, ok) != (h[i], h[i], True):
            errors.append(f"{powers}: embedded map (i={i}, t={t}) rank {r} of {dim_src} columns")
    return errors
