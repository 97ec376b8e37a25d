"""Artinian monomial complete intersections k[x1..xn]/(x1^d1, ..., xn^dn).

The d_i are the killed powers: x_i^{d_i} = 0, so exponent e_i ranges over
0..d_i-1 in the standard monomial basis and the socle degree is sum(d_i - 1).
A monomial is its exponent tuple (e_1, ..., e_n), and the Hilbert function
is the tuple of graded dimensions (h_0, ..., h_m).
A graded piece is held as its ascending table of mixed-radix codes, built
by splitting over the last variable; graded_basis decodes it into tuples,
save the one monomial of degree 0 and of the socle degree, which it gives
directly.
Coefficients are integers, read in Q (characteristic 0) or F_p
(characteristic p, entries kept as residues in [0, p)).

Code tables, listings and Hilbert functions are memoized in lru_caches of
_MEMO_SIZE entries: a sweep over many algebras keeps the working set of its
current step, not every algebra it has checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from math import prod
from numbers import Integral
from operator import mul, sub
from typing import Mapping

import numpy as np

from ._primes import is_prime
from .exactmat import INT64_BOUND

# entries per memo.  One step of an embedding sweep (the three checks on one
# composition of m) reads the source's m + 1 pieces and the target's pieces
# below m/2: at most 16 code tables and 7 entries of any other memo at
# m = 10.  So 32 holds a step for every m <= 20, and the target's tables stay
# in across the sweep.  basis_positions keeps no memo: its one caller here,
# build_matrix, reads only the dict's length, and no benchmark pass reads
# the same (spec, degree) dict twice.
_MEMO_SIZE = 32


def _sequence(values, what: str) -> tuple:
    """values as a tuple; ValueError naming `what` when they are no sequence, a bare int say."""
    if not hasattr(values, "__iter__"):
        raise ValueError(f"{what} must be a sequence of integers, not {values!r}")
    return values if isinstance(values, tuple) else tuple(values)


def _plain_ints(values: tuple) -> tuple:
    """values with every integer (numpy integers and bools too) as a Python int; others as given."""
    if all(type(v) is int for v in values):
        return values
    return tuple(int(v) if isinstance(v, Integral) else v for v in values)


def _int_coeff(c) -> int:
    """An integer coefficient (numpy integers and bools too) as a Python int; TypeError for any other."""
    if isinstance(c, Integral):
        return int(c)
    raise TypeError(
        f"coefficient {c!r} is not an integer; a form and its nonzero multiples have the same ranks,"
        " so scale a rational form by the lcm of its denominators"
    )


@dataclass(frozen=True)
class AlgebraSpec:
    """Defining data: variable count, killed powers, coefficient characteristic."""

    n: int
    exponents: tuple[int, ...]
    characteristic: int = 0

    def __post_init__(self) -> None:
        # plain ints, so that specs hash, compare and serialize as the ints they mean
        exponents = _sequence(self.exponents, "the killed powers")
        n, char, *exponents = _plain_ints((self.n, self.characteristic, *exponents))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exponents", tuple(exponents))
        object.__setattr__(self, "characteristic", char)
        if not isinstance(self.n, int):
            raise ValueError(f"the variable count must be an integer, not {type(self.n).__name__}")
        if self.n < 1:
            raise ValueError("need at least one variable")
        if len(self.exponents) != self.n:
            raise ValueError("exponent tuple length must equal the variable count")
        if any(not isinstance(d, int) or d < 1 for d in self.exponents):
            raise ValueError("killed powers must be integers >= 1")
        if not isinstance(char, int) or char != 0 and not is_prime(char):
            raise ValueError("characteristic must be 0 or a prime")
        # the fields' hash, once: the auto route's memo hashes the spec per map
        object.__setattr__(self, "_hash", hash((n, self.exponents, char)))

    @classmethod
    def quadratic(cls, n: int, characteristic: int = 0) -> "AlgebraSpec":
        """The square-free case: all variables killed at power 2."""
        return cls(n, (2,) * n, characteristic)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def socle_degree(self) -> int:
        # computed once per spec: dim and every route read it per map
        return sum(d - 1 for d in self.exponents)

    @cached_property
    def _hilbert(self) -> tuple[int, ...]:
        # read once per spec: dim is called per map, and the memo's key hashes the exponents
        return _hilbert_function(self.exponents)

    @property
    def is_quadratic(self) -> bool:
        return all(d == 2 for d in self.exponents)

    def restricted(self) -> "AlgebraSpec":
        """Drop the last variable (same killed powers, same characteristic)."""
        if self.n == 1:
            raise ValueError("cannot restrict a one-variable algebra")
        return AlgebraSpec(self.n - 1, self.exponents[:-1], self.characteristic)

    def normalize_coeff(self, c: int) -> int:
        """An integer coefficient as a Python int of the domain, reduced mod p; TypeError for any other."""
        if type(c) is not int:
            c = _int_coeff(c)
        p = self.characteristic
        return c % p if p else c

    def dim(self, t: int) -> int:
        if t < 0 or t > self.socle_degree:
            return 0
        return self._hilbert[t]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "exponents": list(self.exponents),
            "characteristic": self.characteristic,
        }


@lru_cache(maxsize=_MEMO_SIZE)
def _radix(exponents: tuple[int, ...]) -> np.ndarray:
    """Place values prod_{j<k} d_j of the codes; int64 unless prod(d) > INT64_BOUND."""
    dtype = np.int64 if prod(exponents) <= INT64_BOUND else object
    return np.array(list(accumulate(exponents[:-1], mul, initial=1)), dtype=dtype)


@lru_cache(maxsize=_MEMO_SIZE)
def _position_codes(exponents: tuple[int, ...], degree: int) -> np.ndarray:
    """Ascending code table of the degree-`degree` piece for these killed powers.

    The degree-s codes of the first k variables are, over e ascending, the
    degree-(s - e) codes of the first k - 1 plus e times the k-th place value,
    which exceeds all of them; only degrees that can still reach `degree` are
    kept.  A code's index is its position in graded_basis, in any characteristic.
    """
    dtype = _radix(exponents).dtype
    # rest[k]: the most degree the variables from the k-th on can hold
    rest = list(accumulate((d - 1 for d in reversed(exponents)), initial=0))[::-1]
    if not 0 <= degree <= rest[0]:
        return np.array([], dtype=dtype)
    if degree in (0, rest[0]):  # one monomial: every exponent 0, or every one at its top
        return np.array([0 if degree == 0 else prod(exponents) - 1], dtype=dtype)
    tables, lo, hi, place = [[0]], 0, 0, 1  # tables[s - lo]: the degree-s codes so far
    for d, r in zip(exponents, rest[1:]):
        new_lo, new_hi = max(0, degree - r), min(degree, hi + d - 1)
        tables = [
            [c + e * place for e in range(max(0, s - hi), min(d - 1, s - lo) + 1) for c in tables[s - e - lo]]
            for s in range(new_lo, new_hi + 1)
        ]
        lo, hi, place = new_lo, new_hi, place * d
    return np.array(tables[0], dtype=dtype)


def _digits(exponents: tuple[int, ...], codes: np.ndarray) -> np.ndarray:
    """The exponent tuples of these codes as int64 rows: digit k is code // place_k % d_k."""
    radix = _radix(exponents)
    return (codes[:, None] // radix % np.array(exponents, dtype=radix.dtype)).astype(np.int64)


@lru_cache(maxsize=_MEMO_SIZE)
def _listing(exponents: tuple[int, ...], t: int) -> tuple[tuple[int, ...], ...]:
    # one monomial, every exponent 0 or every one at its top: decoding the
    # socle's code would cost time quadratic in the number of variables
    if t in (0, sum(exponents) - len(exponents)):
        return (tuple(0 if t == 0 else d - 1 for d in exponents),)
    return tuple(zip(*_digits(exponents, _position_codes(exponents, t)).T.tolist()))


@lru_cache(maxsize=_MEMO_SIZE)
def graded_basis(spec: AlgebraSpec, t: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the standard monomials of degree t.

    They come in decreasing reverse-lexicographic order with x1 > x2 > ... >
    xn, that is ascending in the reversed tuple: the order of the code
    table, which they are decoded from.  Out-of-range degrees give the empty
    tuple.  The listing depends on the killed powers alone, so every
    characteristic shares one copy.
    """
    return _listing(spec.exponents, t)


def basis_positions(spec: AlgebraSpec, t: int) -> Mapping[tuple[int, ...], int]:
    """Exponent tuple -> row/column index inside graded_basis(spec, t)."""
    return {m: k for k, m in enumerate(graded_basis(spec, t))}


def _format_monomial(exponents: tuple[int, ...]) -> str:
    """x1*x3^2 for (1, 0, 2), and 1 for the constant."""
    parts = [f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}" for k, e in enumerate(exponents) if e]
    return "*".join(parts) or "1"


@dataclass(frozen=True, eq=True)
class AlgebraElement:
    """Sparse element: exponent tuples of reduced monomials mapped to non-zero coefficients."""

    spec: AlgebraSpec
    terms: dict

    def __post_init__(self) -> None:
        cleaned = {}
        for m, c in self.terms.items():
            m = _plain_ints(_sequence(m, "a term's exponents"))
            if len(m) != self.spec.n:
                raise ValueError("term has the wrong number of variables")
            if any(not isinstance(e, int) or e < 0 for e in m):
                raise ValueError(f"exponents must be non-negative integers: {m}")
            if any(e >= d for e, d in zip(m, self.spec.exponents)):
                raise ValueError(f"term {_format_monomial(m)} does not survive reduction")
            c = self.spec.normalize_coeff(c)
            if c:
                cleaned[m] = c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def one(cls, spec: AlgebraSpec) -> "AlgebraElement":
        return cls(spec, {(0,) * spec.n: 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda mc: (sum(mc[0]), mc[0][::-1]))
        return " + ".join(f"{c}*{_format_monomial(m)}" if any(m) else f"{c}" for m, c in items)


def multiply(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Product in the quotient: distribute, then drop monomials that die."""
    if f.spec != g.spec:
        raise ValueError("elements live in different algebras")
    spec = f.spec
    bounds = spec.exponents
    out: dict = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            m = tuple(a + b for a, b in zip(ef, eg))
            if any(e >= d for e, d in zip(m, bounds)):
                continue
            out[m] = out.get(m, 0) + cf * cg
    return AlgebraElement(spec, out)


def hilbert_vector(spec: AlgebraSpec) -> tuple[int, ...]:
    """Graded dimensions h_0..h_m: the coefficients of prod_i (1 + t + ... + t^(d_i - 1))."""
    return spec._hilbert


@lru_cache(maxsize=_MEMO_SIZE)
def _hilbert_function(exponents: tuple[int, ...]) -> tuple[int, ...]:
    """hilbert_vector by the killed powers alone, so every characteristic shares one copy.

    The killed power d with the largest k (d - 1), k its count, gives the
    k-th power of its window 1 + t + ... + t^(d-1) by J. C. P. Miller's
    recurrence for powers of a series (Knuth, TAOCP vol. 2, 4.7):
    i a_i = sum over j = 1..min(d - 1, i) of ((k + 1) j - i) a_(i-j), the
    division by i exact.  Every other variable multiplies in its window as a
    running sum, in time linear in the length.
    """
    d = max(set(exponents), key=lambda e: exponents.count(e) * (e - 1), default=1)
    k = exponents.count(d)
    poly = [1]
    for i in range(1, k * (d - 1) + 1):
        poly.append(sum(((k + 1) * j - i) * poly[i - j] for j in range(1, min(d - 1, i) + 1)) // i)
    for e in exponents:
        if e != d:
            prefix = list(accumulate(chain(repeat(0, e - 1), poly, repeat(0, e - 1)), initial=0))
            poly = list(map(sub, prefix[e:], prefix))
    return tuple(poly)
