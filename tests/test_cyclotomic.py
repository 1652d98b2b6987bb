"""Exact vanishing test for integer combinations of roots of unity."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from gainforge.cyclotomic import _poly_divmod, cyclotomic_poly, root_sum_is_zero


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


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


def test_cyclotomic_polynomials_match_the_mobius_product_up_to_60():
    # for L > 1, Phi_L(x) = prod over d | L of (1 - x^d)^mu(L/d), expanded
    # here as a power series with 1 / (1 - x^d) = 1 + x^d + x^2d + ...
    for L in range(2, 61):
        deg = sum(math.gcd(j, L) == 1 for j in range(L))
        series = [1] + [0] * deg
        for d in range(1, L + 1):
            if L % d == 0 and _mobius(L // d) == 1:
                series = [c - (series[i - d] if i >= d else 0) for i, c in enumerate(series)]
            elif L % d == 0 and _mobius(L // d) == -1:
                for i in range(d, deg + 1):
                    series[i] += series[i - d]
        assert cyclotomic_poly(L) == tuple(series)


POLY = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


@given(POLY, POLY)
def test_division_by_a_monic_polynomial_is_exact(num, den):
    den = den + [1]     # monic
    quo, rem = _poly_divmod(num, tuple(den))
    assert len(rem) == min(len(num), len(den) - 1)
    # num == quo * den + rem, coefficient by coefficient
    back = [0] * max(len(num), len(quo) + len(den) - 1)
    for i, q in enumerate(quo):
        for j, d in enumerate(den):
            back[i + j] += q * d
    for i, r in enumerate(rem):
        back[i] += r
    assert back == num + [0] * (len(back) - len(num))


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
