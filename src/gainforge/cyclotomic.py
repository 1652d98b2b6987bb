"""Exact zero tests for integer combinations of roots of unity.

A sum  sum_j c_j * zeta_L^j  with integer coefficients vanishes exactly
when the polynomial  sum c_j x^j  is divisible by the L-th cyclotomic
polynomial Phi_L.  Since Phi_L is monic with integer coefficients, the
divisibility test is exact integer polynomial division -- no floating
point anywhere.  This is all that is needed to verify WW* = kI with
residual literally zero for weighing matrices whose entries are exact
roots of unity.  One long division by a monic polynomial,
``_poly_divmod``, serves both uses: Phi_L is x^L - 1 divided by Phi_d
for each proper divisor d of L, each remainder zero, and a sum vanishes
when its remainder modulo Phi_L is zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_poly(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L, lowest degree first."""
    if L == 1:
        return (-1, 1)
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


def root_sum_is_zero(terms: dict[Fraction, int]) -> bool:
    """Whether sum over (angle -> coefficient) of coeff * e^(2*pi*i*angle) is 0.

    Angles are rational turns.  Exact: the remainder of the coefficient
    vector modulo Phi_L, for L the common denominator, is zero.
    """
    terms = [(a % 1, c) for a, c in terms.items() if c]
    if not terms:
        return True
    L = math.lcm(*(a.denominator for a, _ in terms))
    coeffs = [0] * L
    for a, c in terms:     # angles equal mod 1 add up here
        coeffs[int(a * L)] += c
    return not any(_poly_divmod(coeffs, cyclotomic_poly(L))[1])
