"""Exact vanishing test for integer combinations of roots of unity."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from gainforge.cyclotomic import cyclotomic_poly, root_sum_is_zero


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


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
