"""Exact zero tests for integer combinations of roots of unity.

A sum  sum_j c_j * zeta_L^j  with integer coefficients vanishes exactly
when the polynomial  sum c_j x^j  is divisible by the L-th cyclotomic
polynomial Phi_L.  Since Phi_L is monic with integer coefficients, the
divisibility test is exact integer polynomial division -- no floating
point anywhere.  ``_poly_divmod``, long division by a monic polynomial,
builds Phi_L as x^L - 1 divided by Phi_d for each proper divisor d of L,
and serves ``_vanishes``, the one vanishing rule: the weighing check
applies it to WW*, and ``root_sum_is_zero`` is its ``Fraction`` front end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_poly(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L, lowest degree first."""
    # divide x^L - 1 by Phi_d for every proper divisor d of L
    poly = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(d))
            assert not any(rem), "inexact polynomial division"
    return tuple(poly)


def _poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, den monic; lowest degree first."""
    rem = list(num)
    deg = len(den) - 1
    quo = [0] * max(len(num) - deg, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + deg]
        quo[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    return quo, rem[:deg]


def _vanishes(r: list[int], c: list[int], L: int, cuts: list[int]) -> list[bool]:
    """Whether each sum of c[t] * zeta_L^r[t] over t in cuts[s]:cuts[s + 1] is 0.  With
    g = gcd(L, its exponents), a sum vanishes when its coefficients at r/g leave no
    remainder modulo Phi_(L/g); no vector longer than L/g is built."""
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        g = math.gcd(L, *r[lo:hi])
        coeffs = [0] * (L // g)
        for x, y in zip(r[lo:hi], c[lo:hi]):
            coeffs[x // g] += y
        out.append(not any(_poly_divmod(coeffs, cyclotomic_poly(L // g))[1]))
    return out


def root_sum_is_zero(terms: dict[Fraction, int]) -> bool:
    """Whether sum over (angle -> coefficient) of coeff * e^(2*pi*i*angle) is 0, for
    rational turns: exactly, by ``_vanishes`` over their common denominator."""
    terms = [(a % 1, c) for a, c in terms.items() if c]
    L = math.lcm(*(a.denominator for a, _ in terms))
    return _vanishes([int(a * L) for a, _ in terms], [c for _, c in terms], L, [0, len(terms)])[0]
