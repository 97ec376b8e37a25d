"""Artinian monomial complete intersections k[x1..xn]/(x1^d1, ..., xn^dn).

The d_i are the killed powers: x_i^{d_i} = 0, so exponent e_i ranges over
0..d_i-1 in the standard monomial basis and the socle degree is sum(d_i - 1).
Coefficients live in Q (characteristic 0) or F_p (characteristic p, entries
kept as residues in [0, p)).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from numbers import Integral, Rational
from typing import Iterator, Mapping, Union

from ._primes import is_prime
from .monomials import Monomial

Coeff = Union[int, Fraction]


def _plain_ints(values: tuple) -> tuple:
    """values with every integer (numpy integers and bools too) as a Python int; others as given."""
    if all(type(v) is int for v in values):
        return values
    return tuple(int(v) if isinstance(v, Integral) else v for v in values)


@dataclass(frozen=True)
class AlgebraSpec:
    """Defining data: variable count, killed powers, coefficient characteristic."""

    n: int
    exponents: tuple[int, ...]
    characteristic: int = 0

    def __post_init__(self) -> None:
        # plain ints, so that specs hash, compare and serialize as the ints they mean
        n, char, *exponents = _plain_ints((self.n, self.characteristic, *self.exponents))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exponents", tuple(exponents))
        object.__setattr__(self, "characteristic", char)
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("need at least one variable")
        if len(self.exponents) != self.n:
            raise ValueError("exponent tuple length must equal the variable count")
        if any(not isinstance(d, int) or d < 1 for d in self.exponents):
            raise ValueError("killed powers must be integers >= 1")
        if not isinstance(char, int) or char != 0 and not is_prime(char):
            raise ValueError("characteristic must be 0 or a prime")

    @classmethod
    def quadratic(cls, n: int, characteristic: int = 0) -> "AlgebraSpec":
        """The square-free case: all variables killed at power 2."""
        return cls(n, (2,) * n, characteristic)

    @property
    def socle_degree(self) -> int:
        return sum(d - 1 for d in self.exponents)

    @property
    def is_quadratic(self) -> bool:
        return all(d == 2 for d in self.exponents)

    def restricted(self) -> "AlgebraSpec":
        """Drop the last variable (same killed powers, same characteristic)."""
        if self.n == 1:
            raise ValueError("cannot restrict a one-variable algebra")
        return AlgebraSpec(self.n - 1, self.exponents[:-1], self.characteristic)

    def normalize_coeff(self, c: Coeff) -> Coeff:
        """Bring an exact scalar into the coefficient domain; TypeError for any other."""
        if type(c) is not int:
            if isinstance(c, Integral):
                c = int(c)
            elif not isinstance(c, Rational):
                raise TypeError(f"coefficient {c!r} is not an exact rational (int or Fraction)")
        p = self.characteristic
        if p == 0:
            return c
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise TypeError("fractional coefficients are not defined mod p")
            c = c.numerator
        return c % p

    def dim(self, t: int) -> int:
        if t < 0 or t > self.socle_degree:
            return 0
        return hilbert_vector(self)[t]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "exponents": list(self.exponents),
            "characteristic": self.characteristic,
        }


def _bounded_exponents(bounds: tuple[int, ...], t: int) -> Iterator[tuple[int, ...]]:
    # decreasing revlex order: the reversed exponent tuples ascend, the last
    # exponent being the most significant digit.  room[k] = sum(d - 1) over
    # the first k variables, the most they can hold, so exponent e_k is at
    # least what the first k variables cannot take.  An odometer, not a
    # recursion, so that the depth does not grow with the variable count.
    n = len(bounds)
    room = list(accumulate((d - 1 for d in bounds), initial=0))
    if not 0 <= t <= room[-1]:
        return
    e = [0] * n
    k, left = n, t  # fill e_0..e_{k-1}, of total left, with the least tail
    while True:
        for j in range(k - 1, 0, -1):
            e[j] = max(0, left - room[j])
            left -= e[j]
        e[0] = left
        yield tuple(e)
        # the lowest digit k >= 1 below its bound with a unit to take from
        # the digits below it
        below, k = e[0], 1
        while k < n and (not below or e[k] == bounds[k] - 1):
            below += e[k]
            k += 1
        if k == n:
            return
        e[k] += 1
        left = below - 1


@lru_cache(maxsize=None)
def _listing(exponents: tuple[int, ...], t: int) -> tuple[Monomial, ...]:
    return tuple(Monomial(e) for e in _bounded_exponents(exponents, t))


@lru_cache(maxsize=None)
def graded_basis(spec: AlgebraSpec, t: int) -> tuple[Monomial, ...]:
    """Standard monomials of degree t, in decreasing reverse-lexicographic order.

    Out-of-range degrees give the empty tuple.  The listing depends on the
    killed powers alone, so every characteristic shares one copy.
    """
    return _listing(spec.exponents, t)


@lru_cache(maxsize=None)
def basis_positions(spec: AlgebraSpec, t: int) -> Mapping[Monomial, int]:
    """Monomial -> row/column index inside graded_basis(spec, t)."""
    return {m: k for k, m in enumerate(graded_basis(spec, t))}


@dataclass(frozen=True, eq=True)
class AlgebraElement:
    """Sparse element: reduced monomials mapped to non-zero coefficients."""

    spec: AlgebraSpec
    terms: dict

    def __post_init__(self) -> None:
        cleaned = {}
        for m, c in self.terms.items():
            if not isinstance(m, Monomial):
                m = Monomial(tuple(m))
            if m.nvars != self.spec.n:
                raise ValueError("term has the wrong number of variables")
            if any(e >= d for e, d in zip(m.exponents, self.spec.exponents)):
                raise ValueError(f"term {m} does not survive reduction")
            c = self.spec.normalize_coeff(c)
            if c:
                cleaned[m] = c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def one(cls, spec: AlgebraSpec) -> "AlgebraElement":
        return cls(spec, {Monomial.constant(spec.n): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def power(self, k: int) -> "AlgebraElement":
        """self^k, multiplying by self one factor at a time.

        The partial powers of a sparse base such as a linear form stay
        small, where repeated squaring would multiply two dense halves.
        """
        if k < 0:
            raise ValueError("negative powers are undefined here")
        result = AlgebraElement.one(self.spec)
        for _ in range(k):
            if result.is_zero:
                break
            result = multiply(result, self)
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(
            self.terms.items(),
            key=lambda mc: (mc[0].degree, tuple(reversed(mc[0].exponents))),
        )
        return " + ".join(f"{c}*{m}" if str(m) != "1" else f"{c}" for m, c in items)


def multiply(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Product in the quotient: distribute, then drop monomials that die."""
    if f.spec != g.spec:
        raise ValueError("elements live in different algebras")
    spec = f.spec
    bounds = spec.exponents
    out: dict = {}
    for mf, cf in f.terms.items():
        ef = mf.exponents
        for mg, cg in g.terms.items():
            eg = mg.exponents
            prod_exp = tuple(a + b for a, b in zip(ef, eg))
            if any(e >= d for e, d in zip(prod_exp, bounds)):
                continue
            m = Monomial(prod_exp)
            out[m] = out.get(m, 0) + cf * cg
    return AlgebraElement(spec, out)


@dataclass(frozen=True)
class HilbertVector:
    """Graded dimensions h_0..h_m; always symmetric and unimodal here."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        e = self.entries
        if not e or e[0] != 1 or e[-1] != 1:
            raise ValueError("h_0 and h_m must both equal 1")
        if not self.is_symmetric() or not self.is_unimodal():
            raise ValueError("expected a symmetric unimodal vector")

    def is_symmetric(self) -> bool:
        return self.entries == tuple(reversed(self.entries))

    def is_unimodal(self) -> bool:
        e = self.entries
        peak = (len(e) - 1) // 2
        rising = all(e[j] <= e[j + 1] for j in range(peak))
        falling = all(e[j] >= e[j + 1] for j in range(peak, len(e) - 1))
        return rising and falling

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> int:
        return self.entries[j]

    def __iter__(self):
        return iter(self.entries)


@lru_cache(maxsize=None)
def hilbert_vector(spec: AlgebraSpec) -> HilbertVector:
    """Coefficients of prod_i (1 + t + ... + t^(d_i - 1))."""
    poly = [1]
    for d in spec.exponents:
        out = [0] * (len(poly) + d - 1)
        for j, c in enumerate(poly):
            for k in range(d):
                out[j + k] += c
        poly = out
    return HilbertVector(tuple(poly))
