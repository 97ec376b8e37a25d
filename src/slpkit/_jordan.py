"""Graded Jordan type of multiplication by a linear form: exact ranks without building the map.

A = k[x1..xn]/(x1^d1..xn^dn) is a finitely generated graded module over
k[l], so it is a direct sum of strings: a string (s, L) has the basis v,
lv, ..., l^(L-1)v with v of degree s and l^L v = 0.  The graded Jordan type
{(s, L): count} gives every rank: l^t from degree i has rank the number of
strings with s <= i and s + L - 1 >= i + t.  This module is the math
alone: lefschetz's auto-route decision folds once per (spec, form) where
the paper's hypotheses fail, and blockrec reads the rank of every map off
that one type.

Rescaling x_k -> x_k / c_k is a graded automorphism of A, so the type
depends only on which coefficients vanish in the field.  It is folded in
one variable at a time, A = B (x) k[y]/(y^b) with l = l_B + c y:

- b = 1: y is zero in A, and the type does not change.
- c = 0: l acts on B alone, and each string (s, L) becomes (s + j, L) for
  j < b.  All such variables together turn it into h_j strings (s + j, L),
  with h the Hilbert function of their killed powers, so the fold takes the
  nonzero coefficients first and the zero ones in one pass.
- c != 0: take c = 1.  The string (s, L) is k[u]/(u^L) shifted by s, on
  which l_B acts as u, so it becomes s plus each string of u + y on the
  pair algebra k[u, y]/(u^L, y^b).

The pair type.  The cokernel of u + y is k[u]/(u^r), r = min(L, b), so
exactly one string starts in each degree s < r.  The pair algebra is
Gorenstein of socle degree top = L + b - 2 and u + y is self-adjoint for its
pairing, so the type is symmetric and exactly one string ends in each degree
top - k, k < r.  In characteristic 0 or p > top the pair algebra has the
strong Lefschetz property (the paper's theorem in two variables), and the
type is Clebsch-Gordan: (k, L + b - 1 - 2k) for k < r.

The side-two closed form.  Let M = max(L, b).  When r = 1 the pair
algebra is k[u]/(u^M), one string (0, M), in every characteristic.  When
r = 2, call the short side's variable y, so y^2 = 0 and
(u + y)^k = u^k + k u^(k-1) y: the string from degree 0 has length M + 1
exactly when p does not divide M, and length M otherwise.  One string
starts in each degree below 2 and the lengths add up to 2M, so the type is
Clebsch-Gordan, ((0, M + 1), (1, M - 1)), when p does not divide M, and
((0, M), (1, M)) when it does.

Otherwise, r >= 3 and p <= top, the ends are found mod p; only there does
the inverse below run.  Swapping u and y, take L <= b, so r = L.  For s < r
every monomial of degree s survives, so A_s is spanned by the
u^a (u + y)^(s-a), a <= s, and v_0..v_s span (u + y)^(b-1-s) A_s, where
v_s = (u + y)^(b-1-s) u^s in degree b - 1.  Their images in degree e >= b - 1
then have the first s + 1 spanning (u + y)^(e-s) A_s, so the image of v_s
is independent of those before it exactly when the string from degree s
reaches e.  From degree b - 1 on, u + y is onto, with kernel spanned by
kappa_e = sum (-1)^a u^a y^(e-a); so in each degree e >= b - 1 the images
of the strings that reach e are a basis, and the string that ends at e is
the largest s at which kappa_e has a nonzero coordinate in that basis.
Those coordinates come from the basis's inverse, which is kept instead of
the basis.  In degree b - 1 it is explicit: expanding
u^a y^(b-1-a) = u^a (u + y - u)^(b-1-a) and dropping u^s = 0 for s >= r
gives the sum of (-1)^(s-a) C(b-1-a, s-a) v_s.  Each degree step drops the
ended string's row, after projecting its coordinate along kappa_e, and
composes with a right inverse of u + y, an alternating prefix sum.  So a
table costs O(r b + r^3) operations mod p, and no map is built.

References: T. Harima, T. Maeno, H. Morita, Y. Numata, A. Wachi and
J. Watanabe, The Lefschetz Properties, LNM 2080 (2013), ch. 3; the ungraded
pair types in characteristic p are the Jordan partitions of tensor products
of Jordan blocks studied by S. P. Glasby, C. E. Praeger and B. Xia (2015).
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .quotient import AlgebraSpec, _hilbert_function

# Largest socle degree m that is folded; above it lefschetz._auto_route folds
# nothing and blockrec checks the maps the fold would answer dense, so only a
# map too big both to fold and to build is refused.  The type has at most
# (m+1)(m+2)/2 keys.  Measured at m = 1000 on one core of a 2-vCPU Xeon, each
# in a fresh interpreter (28 MiB after import): quadratic(1000) at p = 7 folds
# in about 0.4 s with 998 keys, every pair table of side two, in closed
# form; with every other coefficient zero in 0.28 s over Q with 125751 keys,
# the most keys here, at 59 MiB peak RSS; (21,)*50 at p = 13 in 0.98 s with
# 4961 keys, 0.95 s with 47861 keys with half its coefficients zero;
# (101,)*10 at p = 7 in 0.80 s; and (501, 501) at p = 499, whose one mod-p
# pair table is the largest, in 0.96 s.
_MAX_FOLD_DEGREE = 1000


def _pair_type(length: int, b: int, p: int) -> tuple[tuple[int, int], ...]:
    """Strings (start, length) of u + y on k[u, y]/(u^length, y^b) in characteristic p."""
    short, top = min(length, b), length + b - 2
    if short == 2 and p and top % p == 0:
        # side two, p divides max(length, b) = top: the module docstring
        return ((0, top), (1, top))
    if short <= 2 or p == 0 or p > top:
        return tuple((k, top + 1 - 2 * k) for k in range(short))
    return _pair_type_mod_p(length, b, p)


def _pair_type_mod_p(length: int, b: int, p: int) -> tuple[tuple[int, int], ...]:
    """_pair_type by the inverse of the string basis, degree by degree mod p; right for every prime p < 2^31."""
    r, b = sorted((length, b))
    top = r + b - 2
    # the rows of dual are the coordinates in the basis of the monomials
    # u^a y^(e-a), a ascending; in degree b - 1 entry (s, a) is
    # (-1)^(s-a) C(b-1-a, s-a), from the first r entries of Pascal's rows
    binom = np.zeros((r, r), dtype=np.int64)
    row = np.zeros(r, dtype=np.int64)
    row[0] = 1
    for n in range(b):
        if n:
            row[1:] = (row[1:] + row[:-1]) % p
        if n >= b - r:
            binom[b - 1 - n] = row
    sign = np.where(np.arange(r) % 2, p - 1, 1)
    s, a = np.indices((r, r))
    dual = np.where(s >= a, binom[a, np.maximum(s - a, 0)] * sign[np.abs(s - a)], 0) % p
    starts, ends = list(range(r)), [0] * r
    for e in range(b - 1, top + 1):
        dim = top - e + 1
        coords = dual @ sign[:dim] % p
        k = int(np.flatnonzero(coords)[-1])
        ends[starts.pop(k)] = e
        if dim == 1:
            break
        # project the ended string's coordinate along kappa_e, then compose
        # with the right inverse of u + y, an alternating prefix sum
        dual = (dual - np.outer(coords * pow(int(coords[k]), -1, p) % p, dual[k])) % p
        dual = np.delete(dual, k, axis=0)[:, : dim - 1]
        dual = np.cumsum(dual * sign[: dim - 1], axis=1) % p * sign[: dim - 1] % p
    return tuple((s, ends[s] - s + 1) for s in range(r))


def jordan_type(spec: AlgebraSpec, coefficients: Sequence[int]) -> Mapping[tuple[int, int], int]:
    """The graded Jordan type {(start, length): count} of multiplication by the form with these coefficients.

    Raises ValueError above socle degree _MAX_FOLD_DEGREE, before folding.
    """
    if len(coefficients) != spec.n:
        raise ValueError("form has the wrong number of coefficients")
    m = spec.socle_degree
    if m > _MAX_FOLD_DEGREE:
        raise ValueError(f"the Jordan-type fold is limited to socle degree {_MAX_FOLD_DEGREE}; this algebra has {m}")
    live, dead = [], []
    for d, c in zip(spec.exponents, coefficients):
        if d > 1:
            (live if spec.normalize_coeff(c) else dead).append(d)
    strings = {(0, 1): 1}
    tables: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for b in sorted(live):
        folded: dict[tuple[int, int], int] = {}
        for (s, length), count in strings.items():
            if (length, b) not in tables:
                tables[length, b] = _pair_type(length, b, spec.characteristic)
            for k, n in tables[length, b]:
                folded[s + k, n] = folded.get((s + k, n), 0) + count
        strings = folded
    if dead:
        h = _hilbert_function(tuple(sorted(dead)))
        shifted: dict[tuple[int, int], int] = {}
        for (s, length), count in strings.items():
            for j, hj in enumerate(h):
                shifted[s + j, length] = shifted.get((s + j, length), 0) + count * hj
        strings = shifted
    return MappingProxyType(strings)
