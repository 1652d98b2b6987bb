"""Exact zero tests for integer combinations of roots of unity.

A sum  sum_j c_j * zeta_L^j  with integer coefficients vanishes exactly
when the polynomial  sum c_j x^j  is divisible by the L-th cyclotomic
polynomial Phi_L.  Since Phi_L is monic with integer coefficients, the
divisibility test is exact integer polynomial division -- no floating
point anywhere.  This is all that is needed to verify WW* = kI with
residual literally zero for weighing matrices whose entries are exact
roots of unity.
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
            poly = _exact_div(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials known to divide exactly (den monic)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(x == 0 for x in num), "inexact polynomial division"
    return out


def root_sum_is_zero(terms: dict[Fraction, int]) -> bool:
    """Whether sum over (angle -> coefficient) of coeff * e^(2*pi*i*angle) is 0.

    Angles are rational turns.  Exact: reduces the coefficient vector
    modulo Phi_L for L the common denominator.
    """
    terms = [(a % 1, c) for a, c in terms.items() if c]
    if not terms:
        return True
    L = math.lcm(*(a.denominator for a, _ in terms))
    coeffs = [0] * L
    for a, c in terms:     # angles equal mod 1 add up here
        coeffs[int(a * L)] += c
    # reduce modulo Phi_L: remainder of the division
    phi = cyclotomic_poly(L)
    deg = len(phi) - 1
    for i in range(L - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(deg + 1):
                coeffs[i - deg + j] -= c * phi[j]
    return all(x == 0 for x in coeffs[:deg])
