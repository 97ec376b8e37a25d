"""Exponent-vector monomials.

Graded bases (quotient.graded_basis) list them in decreasing
reverse-lexicographic order with x1 > x2 > ... > xn.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Monomial:
    """A monomial stored as a tuple of non-negative exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        if any(not isinstance(e, int) or e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative integers")

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @classmethod
    def constant(cls, nvars: int) -> "Monomial":
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, nvars: int, k: int) -> "Monomial":
        if not 0 <= k < nvars:
            raise ValueError("variable index out of range")
        return cls(tuple(1 if j == k else 0 for j in range(nvars)))

    def __str__(self) -> str:
        parts = []
        for k, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{k + 1}")
            elif e > 1:
                parts.append(f"x{k + 1}^{e}")
        return "*".join(parts) if parts else "1"
