"""Exact vanishing test for integer combinations of roots of unity."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gainforge.cyclotomic import _vanishes, root_sum_is_zero


# -- the reference: Phi_L and exact division by it ------------------------------

def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _phi(L: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Phi_L, lowest degree first."""
    if L == 1:
        return [-1, 1]
    # for L > 1, Phi_L(x) = prod over d | L of (1 - x^d)^mu(L/d), expanded
    # here as a power series with 1 / (1 - x^d) = 1 + x^d + x^2d + ...
    deg = sum(math.gcd(j, L) == 1 for j in range(L))
    series = [1] + [0] * deg
    for d in range(1, L + 1):
        if L % d == 0 and _mobius(L // d) == 1:
            series = [c - (series[i - d] if i >= d else 0) for i, c in enumerate(series)]
        elif L % d == 0 and _mobius(L // d) == -1:
            for i in range(d, deg + 1):
                series[i] += series[i - d]
    return series


def _divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
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


def _reference_vanishes(r: list[int], c: list[int], L: int, cuts: list[int]) -> list[bool]:
    """_vanishes by the definition: Phi_L divides each sum's polynomial."""
    # x^L - 1 = Phi_L * Psi_L is squarefree, so Phi_L divides f exactly when x^L - 1
    # divides f * Psi_L: a cyclic product, cheap because Psi_L has few terms at the
    # orders drawn below, where f mod Phi_L would be a dense division
    psi, rem = _divmod([-1] + [0] * (L - 1) + [1], _phi(L))
    assert not any(rem)
    psi = [(i, a) for i, a in enumerate(psi) if a]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        prod = [0] * L
        for x, y in zip(r[lo:hi], c[lo:hi]):
            for i, a in psi:
                prod[(x + i) % L] += y * a
        out.append(not any(prod))
    return out


def test_cyclotomic_polynomials():
    assert _phi(1) == [-1, 1]
    assert _phi(4) == [1, 0, 1]
    assert _phi(6) == [1, -1, 1]
    assert _phi(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomials_match_the_mobius_product_up_to_60():
    # x^L - 1 is the product of Phi_d over d | L, which defines Phi_L by induction:
    # the Mobius products are the cyclotomic polynomials
    for L in range(1, 61):
        poly = [-1] + [0] * (L - 1) + [1]
        for d in range(1, L + 1):
            if L % d == 0:
                poly, rem = _divmod(poly, _phi(d))
                assert not any(rem)
        assert poly == [1]


POLY = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


@given(POLY, POLY)
def test_division_by_a_monic_polynomial_is_exact(num, den):
    den = den + [1]     # monic
    quo, rem = _divmod(num, den)
    assert len(rem) == min(len(num), len(den) - 1)
    # num == quo * den + rem, coefficient by coefficient
    back = [0] * max(len(num), len(quo) + len(den) - 1)
    for i, q in enumerate(quo):
        for j, d in enumerate(den):
            back[i + j] += q * d
    for i, r in enumerate(rem):
        back[i] += r
    assert back == num + [0] * (len(back) - len(num))


# repeated primes, several primes, and large primes (2 * 4999 and 10007)
ORDERS = [1, 2, 6, 8, 9, 27, 72, 105, 256, 1000, 2 * 4999, 10007]


@st.composite
def root_sums(draw):
    """(r, c, L, cuts): up to four sums at one order L, some empty.  Random sums
    rarely vanish, so most are sums of rotated regular p-gons, p a prime dividing
    L, plus a little noise."""
    L = draw(st.sampled_from(ORDERS))
    primes = [p for p in range(2, L + 1)
              if L % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]
    exponent, r, c, cuts = st.integers(0, L - 1), [], [], [0]
    for _ in range(draw(st.integers(0, 4))):
        terms = []
        if primes and draw(st.integers(0, 3)):
            for _ in range(draw(st.integers(1, 3))):
                p, start, k = draw(st.sampled_from(primes)), draw(exponent), draw(st.integers(-2, 2))
                terms += [((start + j * (L // p)) % L, k) for j in range(p)]
            terms += draw(st.lists(st.tuples(exponent, st.integers(-1, 1)), max_size=2))
        else:
            terms = draw(st.lists(st.tuples(exponent, st.integers(-3, 3)), max_size=8))
        r += [x for x, _ in terms]
        c += [y for _, y in terms]
        cuts.append(len(r))
    return r, c, L, cuts


@settings(max_examples=300, deadline=None)
@given(root_sums())
def test_vanishes_agrees_with_the_phi_reference(sums):
    assert _vanishes(*sums) == _reference_vanishes(*sums)


def test_known_sums():
    assert root_sum_is_zero({})
    assert root_sum_is_zero({Fraction(0): 0})
    assert not root_sum_is_zero({Fraction(0): 1})
    assert root_sum_is_zero({Fraction(0): 1, Fraction(1, 2): 1})
    assert root_sum_is_zero({Fraction(0): 1, Fraction(1, 3): 1, Fraction(2, 3): 1})
    assert not root_sum_is_zero({Fraction(0): 1, Fraction(1, 4): 1})


def test_angles_equal_mod_one_add_their_coefficients():
    # 1 - e^(2 pi i) = 0
    assert root_sum_is_zero({0: 1, 1: -1})
    # i + i + 2(-i) = 0
    assert root_sum_is_zero({Fraction(1, 4): 1, Fraction(5, 4): 1, Fraction(3, 4): 2})
    assert not root_sum_is_zero({0: 1, 1: 1})


# denominators divide 24, so a nonzero sum of at most six terms with
# coefficients in [-3, 3] lies in Z[zeta_24] and its norm bounds it well
# away from zero: |sum| >= 18**-3 > 1e-4
ANGLES = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))


@given(st.dictionaries(ANGLES, st.integers(-3, 3), max_size=6))
def test_agrees_with_the_numeric_sum_on_unreduced_angles(terms):
    total = sum(c * cmath.exp(2j * math.pi * a) for a, c in terms.items())
    assert root_sum_is_zero(terms) == (abs(total) < 1e-9)
