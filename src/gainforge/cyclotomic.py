"""Exact zero tests for integer combinations of roots of unity.

The relations among the L-th roots of unity are generated by rotated regular
p-gons, p a prime dividing L (de Bruijn, 1953; Lam and Leung, J. Algebra 2000),
so whether  sum_r c_r zeta_L^r  is 0 is decided on integers, by one rule.  With
p the smallest prime factor of L and M = L/p, split the terms by r mod p.  If
p^2 divides L, zeta_L has degree p over Q(zeta_M), so each class, read at the
exponents r div p, must vanish at order M.  If p divides L once, zeta_L^r is
zeta_p^(r mod p) times a power of zeta_M, and the only relation among the
zeta_p^a over Q(zeta_M) is their sum, so the classes, read at the exponents
r mod M, must all be equal.  At L = 1 the coefficients must sum to 0.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _zero(r: list[int], c: list[int], L: int) -> bool:
    """Whether the sum of c[t] * zeta_L^r[t] over t is 0."""
    g = math.gcd(L, *r)
    if g == L:
        return sum(c) == 0
    L //= g
    p = 2
    while L % p:
        p = p + 1 if p * p < L else L       # no factor up to sqrt(L): L is prime
    M = L // p
    once = M % p != 0
    # r mod M is the power of zeta_M up to zeta_M -> zeta_M^p, which keeps zero
    classes: dict[int, dict[int, int]] = {}
    for x, y in zip(r, c):
        x //= g
        Y, b = classes.setdefault(x % p, {}), x % M if once else x // p
        Y[b] = Y.get(b, 0) + y
    if once and len(classes) == p:      # else each class is 0: p^2 | L, or one is missing
        Y0 = classes.pop(0)
        for Y in classes.values():
            for b, y in Y0.items():
                Y[b] = Y.get(b, 0) - y
    return all(_zero(list(Y), list(Y.values()), M) for Y in classes.values())


def _vanishes(r: list[int], c: list[int], L: int, cuts: list[int]) -> list[bool]:
    """Whether each sum of c[t] * zeta_L^r[t], 0 <= r[t] < L, over cuts[s]:cuts[s + 1] is 0."""
    return [_zero(r[lo:hi], c[lo:hi], L) for lo, hi in zip(cuts, cuts[1:])]


def root_sum_is_zero(terms: dict[Fraction, int]) -> bool:
    """Whether sum over (angle -> coefficient) of coeff * e^(2*pi*i*angle) is 0, for
    rational turns: exactly, by ``_vanishes`` over their common denominator."""
    terms = [(a % 1, c) for a, c in terms.items() if c]
    L = math.lcm(*(a.denominator for a, _ in terms))
    return _vanishes([int(a * L) for a, _ in terms], [c for _, c in terms], L, [0, len(terms)])[0]
