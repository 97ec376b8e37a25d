"""Primality helpers shared by the exact-arithmetic modules."""
from __future__ import annotations

from functools import lru_cache

# Deterministic Miller-Rabin witness set, exact for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=64)  # every modular rank and F_p matrix validates its prime
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test (exact far beyond the 64-bit range)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> tuple[int, ...]:
    """All primes p with lo <= p <= hi."""
    return tuple(p for p in range(max(lo, 2), hi + 1) if is_prime(p))
