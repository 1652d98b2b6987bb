"""Core gain/graph layer: exact-vs-numeric gains, building, switching."""

from __future__ import annotations

import contextlib
import copy
import gc
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainforge import gains
from gainforge.constructions import fixed_catalog
from gainforge.errors import (
    DuplicateEdge,
    Disconnected,
    IndexOutOfRange,
    LengthMismatch,
    NonUnitGain,
    SelfLoop,
    Timeout,
)
from gainforge.gains import (
    Gain,
    GainGraph,
    SwitchingWitness,
    _bfs_tree,
    apply_witness,
    build,
    converse,
    cycle_gain,
    from_matrix,
    max_coclique,
    normalize_spanning_tree,
    relabel,
    structure_stats,
    switch,
    switching_equivalent,
    switching_isomorphic,
)
from gainforge.lines import find_basis_partition, geometry_lines
from gainforge.spectral import char_poly_elementary

ONE = Gain.exact(0, 1)
I_G = Gain.exact(1, 4)


def c4(gain=ONE):
    return build(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (0, 3, gain)])


# -- Gain values --------------------------------------------------------------

def test_exact_gain_reduces_angle():
    g = Gain.exact(5, 4)
    assert g.angle == Fraction(1, 4)
    assert g.value == pytest.approx(1j)


def test_exact_negative_rotation_wraps():
    assert Gain.exact(-1, 4).angle == Fraction(3, 4)


def test_numeric_gain_must_be_unit():
    with pytest.raises(NonUnitGain):
        Gain.numeric(0.5 + 0.1j)
    # on the circle it is fine
    z = complex(math.cos(0.3), math.sin(0.3))
    assert Gain.numeric(z).value == z


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_numeric_gain_rejects_nan(z):
    with pytest.raises(NonUnitGain):
        Gain.numeric(z, tol=1e-6)


def test_gain_product_stays_exact():
    g = Gain.exact(1, 3) * Gain.exact(1, 6)
    assert g.is_exact and g.angle == Fraction(1, 2)


def test_gain_conj_and_neg():
    g = Gain.exact(1, 8)
    assert g.conj().angle == Fraction(7, 8)
    assert (-g).angle == Fraction(5, 8)


def test_close_mixes_exact_and_numeric():
    a = Gain.exact(1, 4)
    b = Gain.numeric(complex(0, 1))
    assert a.close(b) and b.close(a)


@given(st.integers(-40, 40), st.integers(1, 24))
def test_exact_value_on_unit_circle(p, q):
    assert abs(abs(Gain.exact(p, q).value) - 1.0) < 1e-12


def test_equal_exact_and_numeric_gains_hash_equally():
    assert Gain.exact(0, 1) == Gain.numeric(1)
    assert len({Gain.exact(0, 1), Gain.numeric(1)}) == 1
    # quarter turns take the exact values 1, i, -1, -i
    for p, z in enumerate((1, 1j, -1, -1j)):
        assert Gain.exact(p, 4) == Gain.numeric(z)
        assert hash(Gain.exact(p, 4)) == hash(Gain.numeric(z))


def test_exact_value_depends_only_on_the_angle():
    for q in range(1, 25):
        for p in range(q):
            a, b = Gain.exact(p, q).conj(), Gain.exact(-p, q)
            assert a.value == b.value and hash(a) == hash(b), (p, q)


_exact_gains = st.builds(Gain.exact, st.integers(-48, 48), st.integers(1, 24))
_any_gain = st.one_of(
    _exact_gains,
    _exact_gains.map(lambda g: Gain.numeric(g.value)),
    st.floats(0.0, 1.0).map(lambda t: Gain.numeric(complex(math.cos(2 * math.pi * t),
                                                          math.sin(2 * math.pi * t)))),
)


@given(_any_gain, _any_gain)
def test_equal_gains_hash_equally(a, b):
    if a == b:
        assert hash(a) == hash(b)


# -- graph construction -------------------------------------------------------

def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build(3, [(1, 1, ONE)])


def test_build_rejects_duplicate():
    with pytest.raises(DuplicateEdge):
        build(3, [(0, 1, ONE), (1, 0, I_G)])


def test_build_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        build(3, [(0, 5, ONE)])


def test_gain_is_conjugated_against_orientation():
    g = build(2, [(0, 1, I_G)])
    assert g.gain(0, 1).value == pytest.approx(1j)
    assert g.gain(1, 0).value == pytest.approx(-1j)


def test_matrix_is_hermitian_with_zero_diagonal():
    g = c4(I_G)
    A = g.matrix()
    assert np.allclose(A, A.conj().T)
    assert np.allclose(np.diag(A), 0)


def test_from_matrix_round_trip():
    g = c4(Gain.exact(1, 3))
    h = from_matrix(g.matrix())
    assert h.support() == g.support()
    for u, v, gn in g.edges():
        assert h.gain(u, v).close(gn)


def test_from_matrix_rejects_non_unit_entry():
    A = np.zeros((2, 2), dtype=complex)
    A[0, 1] = 0.5
    A[1, 0] = 0.5
    with pytest.raises(NonUnitGain):
        from_matrix(A)


def _edge_matrix(z: complex) -> np.ndarray:
    return np.array([[0, z], [np.conj(z), 0]], dtype=complex)


def test_from_matrix_thresholds():
    # entries of modulus at most 1e-8 are non-edges; the rest must lie
    # within 1e-6 of the unit circle
    assert from_matrix(_edge_matrix(5e-9)).gains == {}
    assert from_matrix(_edge_matrix(1 + 5e-7)).gain(0, 1).close(ONE)
    with pytest.raises(NonUnitGain):
        from_matrix(_edge_matrix(1 + 5e-6))


def test_from_matrix_rejects_nan_entries():
    nan_diagonal = _edge_matrix(1.0)
    nan_diagonal[0, 0] = math.nan
    for A in (_edge_matrix(complex(math.nan, 0.0)), _edge_matrix(complex(0.0, math.nan)),
              nan_diagonal):
        with pytest.raises(NonUnitGain):
            from_matrix(A)


def test_from_matrix_rejects_a_matrix_that_is_not_square():
    for A in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(LengthMismatch):
            from_matrix(A)


def test_from_matrix_gains_have_the_bits_of_numpy_scalar_division():
    # entries on and off the unit circle, signed zeros included
    rng = np.random.default_rng(5)
    n = 14
    U = np.exp(2j * math.pi * rng.random((n, n)))
    U[::3] *= 1 + rng.uniform(-1e-7, 1e-7, (len(U[::3]), n))
    U[0, 1:5] = [1, complex(-0.0, 1), complex(-1, -0.0), complex(0.6, 0.8)]
    A = np.triu(U, 1) + np.triu(U, 1).conj().T
    g = from_matrix(A)
    reference = np.array([w / abs(w) for w in A[g.u, g.v]])
    assert g.u.size == n * (n - 1) // 2
    assert g.z.tobytes() == reference.tobytes()


def test_from_matrix_reads_an_empty_matrix_as_the_empty_graph():
    g = from_matrix(np.zeros((0, 0), dtype=complex))
    assert g.n == 0 and g.gains == {} and g.is_exact


def test_a_gain_graph_cannot_be_changed():
    g = c4(I_G)
    with pytest.raises(TypeError):
        g.gains[(0, 1)] = ONE
    with pytest.raises(ValueError):
        g.z[0] = 1.0
    with pytest.raises(AttributeError):
        g.n = 5
    # normalizing writes the exact 1 on the tree before the graph exists
    norm, _ = normalize_spanning_tree(switch(g, [Gain.exact(k, 5) for k in range(4)]))
    assert [norm.gain(u, v) for u, v in _bfs_tree(norm)] == [ONE] * 3
    assert g.gains == c4(I_G).gains


def test_a_complex_value_reads_as_a_numeric_gain():
    assert GainGraph(2, {(0, 1): 1j}) == build(2, [(0, 1, 1j)]) \
        == build(2, [(0, 1, Gain.numeric(1j))])
    g = c4(I_G)
    assert switch(g, [1] * g.n) == switch(g, [Gain.numeric(1)] * g.n)
    for make in (lambda: GainGraph(2, {(0, 1): 0.5j}), lambda: build(2, [(0, 1, 2)]),
                 lambda: switch(g, [1, 1, 1, 0.5])):
        with pytest.raises(NonUnitGain):
            make()


@pytest.mark.parametrize("make", [lambda: build(-2, []), lambda: GainGraph(-1)],
                         ids=["build", "GainGraph"])
def test_a_negative_vertex_count_is_refused(make):
    with pytest.raises(IndexOutOfRange, match="vertex count"):
        make()


@pytest.mark.parametrize("g", [
    c4(I_G),
    build(3, [(0, 1, Gain.numeric(complex(0.6, -0.8))), (2, 1, Gain.exact(1, 3))]),
    build(3, [(0, 1, Gain.exact(1, 2 ** 70)), (1, 2, Gain.exact(1, 3))]),
    GainGraph(0),
], ids=["exact", "mixed", "past-int64", "empty"])
def test_a_gain_graph_survives_pickle_and_deepcopy(g):
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert h == g and h.L == g.L and h.k.tolist() == g.k.tolist()
        assert h.matrix().tobytes() == g.matrix().tobytes()
        assert not any(a.flags.writeable for a in (h.u, h.v, h.k, h.z))


def test_a_gain_graph_keeps_its_gains_in_sorted_key_order():
    g = build(4, [(2, 3, ONE), (1, 0, I_G), (3, 0, ONE)])
    assert list(g.gains) == [(0, 1), (0, 3), (2, 3)]
    assert [(u, v) for u, v, _ in g.edges()] == list(g.gains)
    assert GainGraph(4, dict(reversed(g.gains.items()))) == g


def test_cycle_gain_around_square():
    g = c4(I_G)
    z = cycle_gain(g, [0, 1, 2, 3])
    # walk 0-1-2-3-0 picks up conj(i) on the closing edge
    assert z == pytest.approx(-1j)


# -- switching ------------------------------------------------------------------

def test_switch_changes_gains_not_spectrum_support():
    g = c4(I_G)
    d = [Gain.exact(k, 7) for k in range(4)]
    h = switch(g, d)
    assert h.support() == g.support()
    e1 = np.linalg.eigvalsh(g.matrix())
    e2 = np.linalg.eigvalsh(h.matrix())
    assert np.allclose(e1, e2)


def test_converse_conjugates_gains():
    g = c4(I_G)
    h = converse(g)
    assert h.gain(0, 3).close(I_G.conj())


def test_relabel_permutes_support():
    g = build(3, [(0, 1, ONE), (1, 2, I_G)])
    h = relabel(g, [2, 0, 1])  # vertex u of g becomes perm[u] of h
    assert h.has_edge(2, 0) and h.has_edge(0, 1)


def test_normalize_spanning_tree_sets_tree_gains_to_one():
    g = c4(Gain.exact(1, 5))
    norm, wit = normalize_spanning_tree(g)
    ones = sum(1 for _, _, gn in norm.edges() if gn.close(ONE))
    assert ones >= g.n - 1
    assert apply_witness(g, wit).support() == g.support()


def test_normalize_requires_connected():
    g = build(4, [(0, 1, ONE), (2, 3, ONE)])
    with pytest.raises(Disconnected):
        normalize_spanning_tree(g)


# -- the per-edge reference --------------------------------------------------
#
# Per-edge loops over {(u, v): Gain} dicts, in Gain arithmetic: the
# reference for the edge-array operations.  Every output must match them
# exactly: the same keys, the same exact gains, numeric gains with the
# same bits.

def _ref_matrix(n, gains):
    A = np.zeros((n, n), dtype=complex)
    for (u, v), g in gains.items():
        A[u, v] = g.value
        A[v, u] = g.value.conjugate()
    return A


def _ref_switch(gains, diagonal):
    return {(u, v): diagonal[u].conj() * gn * diagonal[v] for (u, v), gn in gains.items()}


def _ref_converse(gains):
    return {e: gn.conj() for e, gn in gains.items()}


def _ref_relabel(gains, permutation):
    new = {}
    for (u, v), gn in gains.items():
        a, b = permutation[u], permutation[v]
        new[(a, b) if a < b else (b, a)] = gn if a < b else gn.conj()
    return new


def _ref_normalize(g):
    tree = _bfs_tree(g)
    s = [ONE] * g.n
    for u, v in tree:
        s[v] = s[u] * g.gain(u, v).conj()
    new = _ref_switch(g.gains, s)
    for u, v in tree:
        new[(min(u, v), max(u, v))] = ONE
    return new, s


def _assert_same(g, ref):
    assert list(g.gains) == sorted(ref)
    for e, x in ref.items():
        y = g.gains[e]
        # repr tells exact from numeric and shows every bit, signed zeros too
        assert y.is_exact == x.is_exact and repr(y) == repr(x), (e, y, x)
    assert g.matrix().tobytes() == _ref_matrix(g.n, ref).tobytes()


_exact_unit = st.builds(Gain.exact, st.integers(0, 47), st.integers(1, 24))
_numeric_unit = st.one_of(
    st.floats(0.0, 1.0).map(lambda t: Gain.numeric(complex(math.cos(2 * math.pi * t),
                                                           math.sin(2 * math.pi * t)))),
    st.sampled_from([Gain.numeric(z) for z in (1, -1, 1j, -1j, complex(-0.0, 1.0))]),
)
_units = {"exact": _exact_unit, "numeric": _numeric_unit,
          "mixed": st.one_of(_exact_unit, _numeric_unit)}


@st.composite
def _gain_graphs(draw, kind):
    """A connected graph on at most 10 vertices with gains of the given kind."""
    n = draw(st.integers(1, 10))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    edges = sorted(tree) + [e for e in others if draw(st.booleans())]
    oriented = [(u, v) if draw(st.booleans()) else (v, u) for u, v in edges]
    return build(n, [(u, v, draw(_units[kind])) for u, v in oriented])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_units)), st.sampled_from(sorted(_units)))
def test_edge_array_operations_match_the_per_edge_reference(data, kind, diagonal_kind):
    g = data.draw(_gain_graphs(kind))
    diagonal = [data.draw(_units[diagonal_kind]) for _ in range(g.n)]
    permutation = data.draw(st.permutations(range(g.n)))
    conjugated = data.draw(st.booleans())
    assert g.is_exact == (kind == "exact" or all(x.is_exact for x in g.gains.values()))
    assert g.matrix().tobytes() == _ref_matrix(g.n, g.gains).tobytes()
    _assert_same(switch(g, diagonal), _ref_switch(g.gains, diagonal))
    _assert_same(converse(g), _ref_converse(g.gains))
    _assert_same(relabel(g, permutation), _ref_relabel(g.gains, permutation))
    norm, witness = normalize_spanning_tree(g)
    ref, s = _ref_normalize(g)
    _assert_same(norm, ref)
    assert [repr(x) for x in witness.diagonal] == [repr(x) for x in s]
    w = SwitchingWitness(permutation, diagonal, conjugated)
    ref = _ref_relabel(_ref_converse(g.gains) if conjugated else g.gains, permutation)
    _assert_same(apply_witness(g, w), _ref_switch(ref, diagonal))
    if g.is_exact and all(x.is_exact for x in diagonal):
        assert apply_witness(g, w).is_exact


def test_exact_gains_past_int64_denominators_stay_exact():
    # the common denominator passes 2**62: exponents become Python ints
    g = build(3, [(0, 1, Gain.exact(1, 2 ** 70)), (1, 2, Gain.exact(1, 3)),
                  (2, 0, Gain.exact(1, 2 ** 65 + 1))])
    d = [Gain.exact(1, 7), Gain.exact(1, 2 ** 61 - 1), ONE]
    h = switch(converse(relabel(g, [2, 0, 1])), d)
    _assert_same(h, _ref_switch(_ref_converse(_ref_relabel(g.gains, [2, 0, 1])), d))
    assert h.is_exact and normalize_spanning_tree(h)[0].is_exact


def test_switching_equivalent_finds_diagonal():
    g = c4(Gain.exact(2, 9))
    d = [Gain.exact(k % 3, 3) for k in range(4)]
    h = switch(g, d)
    w = switching_equivalent(g, h)
    assert w is not None and not w.conjugated
    assert np.allclose(apply_witness(g, w).matrix(), h.matrix())


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(sorted(_units)), st.sampled_from(sorted(_units)))
def test_switching_equivalent_finds_every_switch_and_no_negated_cycle(data, kind,
                                                                      diagonal_kind):
    g = data.draw(_gain_graphs(kind))
    d = [data.draw(_units[diagonal_kind]) for _ in range(g.n)]
    h = switch(g, d)
    w = switching_equivalent(g, h)
    assert w is not None and w.permutation == list(range(g.n)) and not w.conjugated
    if g.is_exact and all(x.is_exact for x in d):
        assert apply_witness(g, w) == h
    else:
        assert np.max(np.abs(apply_witness(g, w).matrix() - h.matrix()), initial=0.0) <= 1e-9
    tree = {(min(e), max(e)) for e in _bfs_tree(g)}
    cycle_edges = [e for e in g.gains if e not in tree]
    if cycle_edges:
        e = data.draw(st.sampled_from(cycle_edges))
        assert switching_equivalent(g, GainGraph(g.n, {**g.gains, e: -g.gains[e]})) is None


def test_switching_equivalent_rejects_different_cycle_gain():
    w = switching_equivalent(c4(ONE), c4(I_G))
    assert w is None


def test_switching_isomorphic_handles_relabel_and_converse():
    g = c4(Gain.exact(1, 6))
    h = converse(relabel(switch(g, [Gain.exact(k, 5) for k in range(4)]),
                         [1, 3, 0, 2]))
    w = switching_isomorphic(g, h)
    assert w is not None
    assert np.allclose(apply_witness(g, w).matrix(), h.matrix())


def test_switching_isomorphic_distinguishes_supports():
    path = build(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE)])
    star = build(4, [(0, 1, ONE), (0, 2, ONE), (0, 3, ONE)])
    assert switching_isomorphic(path, star) is None


def _reference_isomorphic(g1, g2):
    """Every relabelling, then the converse, each compared after normalisation."""
    conv2 = converse(g2)
    for p in itertools.permutations(range(g1.n)):
        cand = relabel(g1, list(p))
        if cand.support() != g2.support():
            continue
        n1, w1 = normalize_spanning_tree(cand)
        for target, conj_flag in ((g2, False), (conv2, True)):
            n2, w2 = normalize_spanning_tree(target)
            if all(n1.gains[e].close(n2.gains[e]) for e in n1.gains):
                d = [a * b.conj() for a, b in zip(w1.diagonal, w2.diagonal)]
                return SwitchingWitness(list(p), [x.conj() for x in d] if conj_flag else d,
                                        conj_flag)
    return None


@st.composite
def _iso_pairs(draw):
    """A connected graph with gains of order dividing 12, and a disguised copy:
    switched and relabelled (maybe conversed), the converse alone, or
    switched and relabelled with one edge negated."""
    n = draw(st.integers(1, 6))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    edges = sorted(tree) + [e for e in others if draw(st.booleans())]
    twelfth = st.integers(0, 11).map(lambda k: Gain.exact(k, 12))
    g = build(n, [(u, v, draw(twelfth)) for u, v in edges])
    kind = draw(st.sampled_from(["disguise", "converse", "negated"]))
    if kind == "converse":
        return g, converse(g)
    h = converse(g) if draw(st.booleans()) else g
    h = switch(relabel(h, draw(st.permutations(range(n)))),
               [draw(twelfth) for _ in range(n)])
    if kind == "negated" and h.gains:
        e = draw(st.sampled_from(sorted(h.gains)))
        h = GainGraph(n, {**h.gains, e: -h.gains[e]})
    return g, h


@settings(max_examples=150, deadline=None)
@given(_iso_pairs())
def test_switching_isomorphic_agrees_with_the_reference(pair):
    g, h = pair
    w = switching_isomorphic(g, h)
    ref = _reference_isomorphic(g, h)
    assert (w is None) == (ref is None)
    for witness in (w, ref):
        if witness is not None:
            assert apply_witness(g, witness).gains == h.gains


def test_switching_isomorphic_needs_the_converse_for_a_chiral_k4():
    # no relabelling and switch of this K4 gives its converse
    g = build(4, [(0, 1, Gain.exact(7, 12)), (0, 2, Gain.exact(7, 12)),
                  (0, 3, Gain.exact(5, 6)), (1, 2, Gain.exact(1, 2)),
                  (1, 3, Gain.exact(1, 4)), (2, 3, Gain.exact(1, 12))])
    h = converse(g)
    assert all(switching_equivalent(relabel(g, list(p)), h) is None
               for p in itertools.permutations(range(4)))
    w = switching_isomorphic(g, h)
    assert w is not None and w.conjugated
    assert apply_witness(g, w).gains == h.gains


def test_switching_isomorphic_raises_timeout_past_its_budget():
    # a hexagon against one with a negated edge: no witness exists.  Each
    # pass tries the first vertex on 6 images and the second on 2, then
    # follows the cycle to the last vertex, whose closing edge's gain
    # disagrees: 6 + 5 * 12 expansions.  The gains are real, so the
    # converse pass repeats them.
    g = build(6, [(v, (v + 1) % 6, ONE) for v in range(6)])
    h = build(6, [(v, (v + 1) % 6, ONE if v else -ONE) for v in range(6)])
    assert switching_isomorphic(g, h, budget=2 * 66) is None
    with pytest.raises(Timeout, match="isomorphism search exceeded 131 expansions"):
        switching_isomorphic(g, h, budget=2 * 66 - 1)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_switching_isomorphic_rejects_a_tolerance_outside_0_to_inf(tol):
    g = build(3, [(0, 1, Gain.numeric(1j)), (1, 2, ONE), (0, 2, ONE)])
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        switching_isomorphic(g, g, tol=tol)


def test_switching_isomorphic_rejects_a_negative_budget():
    # the pair passes the degree keys, so the search itself is reached
    g = build(6, [(v, (v + 1) % 6, ONE) for v in range(6)])
    with pytest.raises(ValueError, match="isomorphism search budget must be non-negative"):
        switching_isomorphic(g, g, budget=-1)


_HEXAGON = build(6, [(v, (v + 1) % 6, ONE) for v in range(6)])
_HEXAGON_FLIPPED = build(6, [(v, (v + 1) % 6, ONE if v else -ONE) for v in range(6)])
_K8STAR = fixed_catalog("K8star")
_MUB_C3 = geometry_lines("MUB_C3", t=4)


def _coclique_on_budget_one():
    saved, gains.SEARCH_BUDGET = gains.SEARCH_BUDGET, 1
    try:
        max_coclique(_K8STAR)
    finally:
        gains.SEARCH_BUDGET = saved


_SEARCHES = {
    "iso-found": lambda: switching_isomorphic(_HEXAGON, _HEXAGON, budget=10 ** 6),
    "iso-none": lambda: switching_isomorphic(_HEXAGON, _HEXAGON_FLIPPED, budget=10 ** 6),
    "iso-timeout": lambda: switching_isomorphic(_HEXAGON, _HEXAGON_FLIPPED, budget=1),
    "char-poly": lambda: char_poly_elementary(_K8STAR),
    "coclique": lambda: max_coclique(_K8STAR),
    "coclique-timeout": _coclique_on_budget_one,
    "basis-partition": lambda: find_basis_partition(_MUB_C3),
    "basis-partition-timeout": lambda: find_basis_partition(_MUB_C3, budget=1),
}


@pytest.mark.parametrize("call", _SEARCHES.values(), ids=_SEARCHES.keys())
def test_searches_leave_no_reference_cycles(call):
    # the search state must be freed on return, not left for the cycle
    # collector: on a 40-vertex graph switching_isomorphic held ~400 KB
    # per call, and char_poly_elementary on K8star 1,339 objects
    gc.collect()
    gc.disable()
    try:
        with contextlib.suppress(Timeout):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_random_switch_never_moves_eigenvalues(bits):
    g = c4(I_G)
    d = [Gain.exact((bits >> (4 * k)) & 15, 16) for k in range(4)]
    e1 = np.linalg.eigvalsh(g.matrix())
    e2 = np.linalg.eigvalsh(switch(g, d).matrix())
    assert np.max(np.abs(e1 - e2)) < 1e-9


# -- structure helpers ---------------------------------------------------------

def test_structure_stats_on_square():
    s = structure_stats(c4())
    assert s.degrees == [2, 2, 2, 2]
    assert s.is_regular and s.is_bipartite and s.triangle_free


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2 ** 28 - 1), st.integers(0, 2 ** 28 - 1))
def test_structure_stats_bipartite_matches_brute_force(n, bits_a, bits_b):
    # an edge where both masks have a bit: a quarter of the pairs, so many
    # of the graphs are disconnected
    pairs = itertools.combinations(range(n), 2)
    edges = [(u, v) for i, (u, v) in enumerate(pairs) if bits_a >> i & bits_b >> i & 1]
    g = build(n, [(u, v, ONE) for u, v in edges])
    two_colourable = any(all(c[u] != c[v] for u, v in edges)
                         for c in itertools.product((0, 1), repeat=n))
    assert structure_stats(g).is_bipartite == two_colourable


def test_max_coclique_square():
    size, members = max_coclique(c4())
    assert size == 2
    u, v = members
    assert not c4().has_edge(u, v)


def test_max_coclique_complete():
    g = build(5, [(u, v, ONE) for u in range(5) for v in range(u + 1, 5)])
    assert max_coclique(g)[0] == 1


def _independent(g, members):
    return not any(g.has_edge(u, v) for u, v in itertools.combinations(members, 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2 ** 45 - 1))
def test_max_coclique_matches_brute_force(n, edge_bits):
    pairs = itertools.combinations(range(n), 2)
    g = build(n, [(u, v, ONE) for i, (u, v) in enumerate(pairs) if edge_bits >> i & 1])
    size, members = max_coclique(g)
    brute = max(r for r in range(n + 1)
                for s in itertools.combinations(range(n), r) if _independent(g, s))
    assert size == brute == len(set(members))
    assert _independent(g, members)


@pytest.mark.parametrize("name", ["CoxeterTodd2", "CoxeterTodd3", "CoxeterTodd4"])
def test_max_coclique_of_coxeter_todd_within_2000_expansions(name, monkeypatch):
    # the size-plus-candidates bound needed about 10,000 expansions here
    monkeypatch.setattr(gains, "SEARCH_BUDGET", 2000)
    g = fixed_catalog(name)
    size, members = max_coclique(g)
    assert size == len(members) == 6 and _independent(g, members)
