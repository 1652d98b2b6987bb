"""Spectral layer: certification, predicted eigenvalues, dual char-poly route."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gainforge.constructions import complete, ig, named_weighing, _graph_from_entries
from gainforge.errors import EmptyGraph, InvalidParameters, TooLarge
from gainforge.gains import Gain, build, switch
from gainforge.spectral import (
    certify_two_ev,
    char_poly_elementary,
    char_poly_from_eigenvalues,
    eigenvalues,
    integer_a_checks,
    predicted_thetas,
)

ONE = Gain.exact(0, 1)
I_G = Gain.exact(1, 4)


def c4(gain=ONE):
    return build(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (0, 3, gain)])


# -- eigenvalues and clustering -------------------------------------------------

def test_k3_spectrum_clusters():
    spec = eigenvalues(complete(3))
    assert spec.eigenvalues == pytest.approx([2.0, -1.0, -1.0])
    assert [(round(v), m) for v, m in spec.clusters] == [(2, 1), (-1, 2)]


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        eigenvalues(build(0, []))


# -- certification --------------------------------------------------------------

def test_certify_k4():
    cert = certify_two_ev(complete(4))
    assert cert is not None
    assert cert.theta1 == pytest.approx(3.0)
    assert cert.theta2 == pytest.approx(-1.0)
    assert cert.m == 1 and not cert.negated
    assert cert.a == pytest.approx(2.0) and cert.k == pytest.approx(3.0)
    assert cert.residual < 1e-12


def test_certify_w4_balanced_spectrum():
    g = _graph_from_entries(named_weighing("W4").entries)
    cert = certify_two_ev(g)
    assert cert is not None
    assert cert.theta1 == pytest.approx(math.sqrt(3))
    assert cert.theta2 == pytest.approx(-math.sqrt(3))
    assert cert.m == 2 and cert.a == pytest.approx(0.0, abs=1e-9)


def test_certify_negation_convention():
    # all gains -1 on K4: spectrum {1^3, -3}; a < 0, so -A is certified
    g = build(4, [(u, v, Gain.exact(1, 2))
                  for u in range(4) for v in range(u + 1, 4)])
    cert = certify_two_ev(g)
    assert cert is not None and cert.negated
    assert cert.theta1 == pytest.approx(3.0)
    assert cert.m == 1


def test_certify_rejects_three_clusters():
    assert certify_two_ev(c4(ONE)) is None  # spectrum {2, 0, 0, -2}


def test_certificate_survives_switching():
    g = ig(named_weighing("W2"))
    base = certify_two_ev(g)
    h = switch(g, [Gain.exact(k, 9) for k in range(g.n)])
    cert = certify_two_ev(h)
    assert cert is not None
    assert cert.theta1 == pytest.approx(base.theta1)
    assert cert.m == base.m


# -- predicted thetas -------------------------------------------------------------

def test_predicted_thetas_match_certified_values():
    g = ig(named_weighing("W3"))
    cert = certify_two_ev(g)
    t1, t2 = predicted_thetas(g.n, cert.m, round(cert.k))
    assert t1 == pytest.approx(cert.theta1)
    assert t2 == pytest.approx(cert.theta2)


def test_predicted_thetas_trace_identity():
    n, m, k = 14, 4, 6
    t1, t2 = predicted_thetas(n, m, k)
    assert m * t1 + (n - m) * t2 == pytest.approx(0.0, abs=1e-9)
    assert m * t1 * t1 + (n - m) * t2 * t2 == pytest.approx(n * k)


def test_predicted_thetas_validates_inputs():
    with pytest.raises(InvalidParameters):
        predicted_thetas(6, 4, 3)  # m > n/2
    with pytest.raises(InvalidParameters):
        predicted_thetas(6, 2, 0)


def test_integer_a_checks_on_k5():
    cert = certify_two_ev(complete(5))
    chk = integer_a_checks(cert, 5)
    assert chk.a_is_integer and chk.a_squared_plus_4k_is_square
    assert chk.consistent


# -- characteristic polynomial, two independent routes -----------------------------

def test_char_poly_k3_by_subgraph_expansion():
    # one triangle with gain 1: x^3 - 3x - 2
    coeffs = char_poly_elementary(complete(3))
    assert np.allclose(coeffs, [1, 0, -3, -2])


def test_char_poly_square_with_quarter_turn():
    coeffs = char_poly_elementary(c4(I_G))
    # the quadrilateral contributes -2*Re(i) = 0 to the constant term
    assert np.allclose(coeffs, [1, 0, -4, 0, 2], atol=1e-12)


def test_char_poly_routes_agree_on_w4():
    g = _graph_from_entries(named_weighing("W4").entries)
    a = char_poly_elementary(g)
    b = char_poly_from_eigenvalues(eigenvalues(g).eigenvalues)
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-9


def test_char_poly_routes_agree_on_random_gains():
    rng = np.random.default_rng(5)
    edges = []
    for u in range(6):
        for v in range(u + 1, 6):
            if rng.random() < 0.6:
                ang = rng.uniform(0, 2 * np.pi)
                edges.append((u, v, Gain.numeric(complex(np.cos(ang), np.sin(ang)),
                                                 tol=1e-9)))
    g = build(6, edges)
    a = char_poly_elementary(g)
    b = char_poly_from_eigenvalues(eigenvalues(g).eigenvalues)
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-8


def test_char_poly_refuses_more_than_twelve_vertices():
    ring = [(v, (v + 1) % 12, ONE) for v in range(12)]
    assert len(char_poly_elementary(build(12, ring))) == 13
    with pytest.raises(TooLarge):
        char_poly_elementary(build(13, ring))


def test_rank_of_rank_two_graph():
    from gainforge.constructions import k_star_pqr
    evs = eigenvalues(k_star_pqr(2, 3, 5)).eigenvalues
    assert np.count_nonzero(np.abs(evs) > 1e-9 * np.linalg.norm(evs)) == 2
