"""Spectral layer: certification, predicted eigenvalues, dual char-poly route."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainforge.constructions import (
    _graph_from_entries,
    complete,
    fixed_catalog,
    ig,
    named_weighing,
)
from gainforge.errors import EmptyGraph, InvalidParameters, TooLarge
from gainforge.gains import Gain, _bits, build, switch
from gainforge.spectral import (
    _cluster,
    certify_two_ev,
    char_poly_elementary,
    char_poly_from_eigenvalues,
    eigenvalues,
    predicted_thetas,
)

ONE = Gain.exact(0, 1)
I_G = Gain.exact(1, 4)


def c4(gain=ONE):
    return build(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (0, 3, gain)])


# -- eigenvalues and clustering -------------------------------------------------

def _reference_clusters(values: list[float], tol: float) -> list[list[float]]:
    """Sorted values, cut where a value is more than tol from the one before."""
    clusters: list[list[float]] = []
    for x in values:
        if clusters and abs(x - clusters[-1][-1]) <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return clusters


@settings(max_examples=300, deadline=None)
@given(st.integers(-64, 64), st.lists(st.integers(0, 8), max_size=12), st.booleans())
def test_cluster_matches_a_sequential_loop(start, gaps, descending):
    # values on a grid of tol / 4, so that a gap of 4 steps is exactly tol
    tol = 2.0 ** -10
    values = np.cumsum([start, *gaps]) * (tol / 4)
    if descending:
        values = values[::-1]
    reference = _reference_clusters(values.tolist(), tol)
    clusters = _cluster(values, tol)
    assert [size for _, size in clusters] == [len(c) for c in reference]
    assert [mean for mean, _ in clusters] == pytest.approx([sum(c) / len(c) for c in reference])
    assert _cluster(values[:0], tol) == []


def test_k3_spectrum_clusters():
    spec = eigenvalues(complete(3))
    assert spec.eigenvalues == pytest.approx([2.0, -1.0, -1.0])
    assert [(round(v), m) for v, m in spec.clusters] == [(2, 1), (-1, 2)]


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        eigenvalues(build(0, []))


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_eigenvalues_rejects_a_cluster_tolerance_that_is_not_finite_and_non_negative(tol):
    # on K4 a NaN or negative tolerance would split the triple -1 into three
    # clusters, and an infinite one would merge all four eigenvalues
    with pytest.raises(ValueError, match="cluster_tol must be"):
        eigenvalues(complete(4), cluster_tol=tol)
    assert [m for _, m in eigenvalues(complete(4)).clusters] == [1, 3]
    assert eigenvalues(complete(4), cluster_tol=0.0).cluster_tol == 0.0


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


# large valid parameters, where the quadratic formula loses digits to cancellation
@example((10**6, 1, 10**6))
@example((10**9, 1, 2))
@example((10**9, 2, 27))
@given(st.integers(2, 10**9).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n // 2), st.integers(1, 10**9))))
def test_predicted_thetas_satisfy_the_trace_identities(nmk):
    n, m, k = nmk
    t1, t2 = predicted_thetas(n, m, k)
    assert m * t1 + (n - m) * t2 == pytest.approx(0.0, abs=1e-12 * m * t1)
    assert m * t1 * t1 + (n - m) * t2 * t2 == pytest.approx(n * k, rel=1e-12)
    assert t1 * t2 == pytest.approx(-k, rel=1e-12)


def test_predicted_thetas_validates_inputs():
    with pytest.raises(InvalidParameters):
        predicted_thetas(6, 4, 3)  # m > n/2
    with pytest.raises(InvalidParameters):
        predicted_thetas(6, 2, 0)
    # NaN fails every comparison, so k must pass k > 0, not fail k <= 0
    for bad in [(8, 2, math.nan), (8, math.nan, 3)]:
        with pytest.raises(InvalidParameters):
            predicted_thetas(*bad)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_certify_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # max(1e-8, 1e3 * nan) is 1e-8, so a NaN tol would certify at the floor
    with pytest.raises(ValueError, match="tol must be"):
        certify_two_ev(complete(5), tol=tol)
    assert certify_two_ev(complete(5), tol=0.0) is not None


# -- characteristic polynomial, two independent routes -----------------------------

def _reference_char_poly(g):
    """char_poly_elementary as one Python step per subset: the path table, then the covers."""
    n = g.n
    A = g.matrix().tolist()
    adj = [sum(1 << w for w, a in enumerate(row) if a) for row in A]
    paths = [[0j] * n for _ in range(1 << n)]
    for v in range(n):
        paths[1 << v][v] = 1 + 0j
    # every entry reads smaller masks only, so increasing order has them ready
    weight = [0.0] * (1 << n)
    for S in range(1, 1 << n):
        v = (S & -S).bit_length() - 1
        closed = 0j
        for u in _bits(S):
            p = paths[S][u]
            if p:
                closed += p * A[u][v]
                for w in _bits((adj[u] & ~S) >> v << v):    # w > v outside S
                    paths[S | 1 << w][w] += p * A[u][w]
        weight[S] = -closed.real
    covers = [1.0] + [0.0] * ((1 << n) - 1)
    coeffs = [1.0] + [0.0] * n
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = sub = mask ^ low
        total = 0.0
        while sub:          # a lone vertex weighs 0, so sub = 0 adds nothing
            total += weight[sub | low] * covers[rest ^ sub]
            sub = (sub - 1) & rest
        covers[mask] = total
        if total:
            coeffs[mask.bit_count()] += total
    return coeffs


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


_exact_unit = st.builds(Gain.exact, st.integers(0, 47), st.integers(1, 24))
_numeric_unit = st.floats(0.0, 1.0).map(
    lambda t: Gain.numeric(complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))))
_units = {"exact": _exact_unit, "numeric": _numeric_unit,
          "mixed": st.one_of(_exact_unit, _numeric_unit)}


@st.composite
def _connected_gain_graphs(draw, kind):
    """A connected graph on at most 9 vertices with gains of the given kind."""
    n = draw(st.integers(1, 9))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    edges = sorted(tree) + [e for e in others if draw(st.booleans())]
    return build(n, [(u, v, draw(_units[kind])) for u, v in edges])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_units)))
def test_char_poly_routes_agree_on_connected_graphs(data, kind):
    g = data.draw(_connected_gain_graphs(kind))
    a = np.asarray(char_poly_elementary(g))
    b = np.asarray(char_poly_from_eigenvalues(eigenvalues(g).eigenvalues))
    assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(1.0, np.abs(b)))


_quarter_unit = st.builds(Gain.exact, st.integers(0, 3), st.just(4))    # 1, i, -1, -i


@st.composite
def _gain_graphs(draw, units):
    """Any graph on at most 10 vertices, edgeless and disconnected ones included."""
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build(n, [(u, v, draw(units)) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(_units) + ["quarter"]))
def test_char_poly_matches_the_subset_loop(data, kind):
    g = data.draw(_gain_graphs(_quarter_unit if kind == "quarter" else _units[kind]))
    got, want = char_poly_elementary(g), _reference_char_poly(g)
    if kind == "quarter":   # Gaussian integers: every sum and product is exact
        assert got == want
    a, b = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))


def test_char_poly_of_small_orders():
    assert char_poly_elementary(build(1, [])) == [1.0, 0.0]
    edgeless = char_poly_elementary(build(5, []))
    assert edgeless == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert all(math.copysign(1.0, c) == 1.0 for c in edgeless)     # no -0.0
    triangles = [(t + a, t + b, ONE) for t in (0, 3) for a, b in ((0, 1), (1, 2), (0, 2))]
    # (x^3 - 3x - 2)^2
    assert char_poly_elementary(build(6, triangles)) == [1, 0, -6, -4, 9, 12, 4]


def test_char_poly_of_complete_graphs_is_exact():
    assert char_poly_elementary(build(0, [])) == [1.0]
    for n in range(1, 13):
        # (x - n + 1)(x + 1)^(n - 1), expanded in integers
        expected = [1]
        for root in [n - 1] + [-1] * (n - 1):
            expected = [a - root * b for a, b in zip(expected + [0], [0] + expected)]
        assert char_poly_elementary(complete(n)) == expected, n


@pytest.mark.parametrize("name", ["MUB_C3(4)", "ND(IG(W3))", "M1", "M2", "M3", "M4"])
def test_char_poly_routes_agree_on_twelve_vertex_catalog_graphs(name):
    g = fixed_catalog(name)
    assert g.n == 12
    a = np.asarray(char_poly_elementary(g))
    b = np.asarray(char_poly_from_eigenvalues(eigenvalues(g).eigenvalues))
    assert np.max(np.abs(a - b)) <= 1e-6


def test_char_poly_refuses_more_than_twelve_vertices():
    ring = [(v, (v + 1) % 12, ONE) for v in range(12)]
    assert len(char_poly_elementary(build(12, ring))) == 13
    with pytest.raises(TooLarge):
        char_poly_elementary(build(13, ring))


def test_rank_of_rank_two_graph():
    from gainforge.constructions import k_star_pqr
    evs = eigenvalues(k_star_pqr(2, 3, 5)).eigenvalues
    assert np.count_nonzero(np.abs(evs) > 1e-9 * np.linalg.norm(evs)) == 2
