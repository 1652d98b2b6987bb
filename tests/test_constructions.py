"""Weighing matrices, doubling, toral/donut families, catalog registry."""

from __future__ import annotations

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainforge.constructions import (
    CatalogEntry,
    WeighingMatrix,
    catalog,
    catalog_entry,
    catalog_verify_all,
    cm_weighing,
    complete,
    d8_star,
    donut,
    double,
    example_1,
    fixed_catalog,
    ig,
    k222_gamma,
    k_star_pqr,
    make_weighing,
    named_weighing,
    renes,
    toral,
)
from gainforge.cyclotomic import root_sum_is_zero
from gainforge.errors import (
    BadParam,
    Disconnected,
    EmptyGraph,
    InvalidOrder,
    NotAWeighingMatrix,
    NonUnitGain,
    NotGaussianPrime,
    NotSquareRootOfkI,
    UnknownName,
)
from gainforge.gains import Gain, GainGraph, _bfs_tree, build, is_connected, switching_isomorphic
from gainforge.spectral import certify_two_ev, eigenvalues

ONE = Gain.exact(0, 1)
MINUS = Gain.exact(1, 2)


def spectrum_of(g):
    return np.array(eigenvalues(g).eigenvalues)


# -- weighing matrices -------------------------------------------------------

def test_named_weighings_have_stated_weights():
    for name, k in [("W2", 2), ("W3", 3), ("W4", 3), ("W5", 4), ("W7", 4)]:
        W = named_weighing(name)
        assert W.weight == k
        assert W.is_exact


def test_weighing_rows_are_orthogonal():
    W = named_weighing("W5")
    M = W.matrix()
    assert np.allclose(M @ M.conj().T, W.weight * np.eye(W.n))


def test_z_family_is_a_weighing_for_exact_unit_x():
    for p, q in [(0, 1), (1, 2), (1, 3), (1, 4), (1, 6)]:
        W = named_weighing("Z", Gain.exact(p, q))
        assert W.n == 6 and W.weight == 5
        M = W.matrix()
        assert np.allclose(M @ M.conj().T, 5 * np.eye(6))


def test_unknown_weighing_name():
    with pytest.raises(UnknownName):
        named_weighing("W9")


def test_make_weighing_rejects_unbalanced_rows():
    rows = [[ONE, ONE], [ONE, None]]
    with pytest.raises(NotAWeighingMatrix):
        make_weighing(rows)


def test_make_weighing_rejects_short_rows():
    with pytest.raises(NotAWeighingMatrix, match="2 rows of 2 entries"):
        make_weighing([[ONE], [ONE]])


def test_make_weighing_rejects_ragged_rows():
    # the first two entries of each row would pass as a weight-2 matrix
    with pytest.raises(NotAWeighingMatrix, match="2 rows of 2 entries"):
        make_weighing([[ONE, MINUS, None], [ONE, ONE]])


def test_make_weighing_rejects_the_empty_array():
    for make in (lambda: make_weighing([]), lambda: cm_weighing([])):
        with pytest.raises(NotAWeighingMatrix, match="empty"):
            make()


def test_make_weighing_rejects_entries_that_are_not_gains():
    with pytest.raises(NotAWeighingMatrix, match="not 1j"):
        make_weighing([[1j, None], [None, 1j]])


def _reference_weight(entries):
    """The weighing check entry by entry, in row-major order: ("weight", k),
    ("weights", the differing weights) or ("off", i, j)."""
    n = len(entries)
    weights = {sum(e is not None for e in row) for row in entries}
    weights |= {sum(entries[i][j] is not None for i in range(n)) for j in range(n)}
    if len(weights) != 1:
        return ("weights", sorted(weights))
    k = weights.pop()
    exact = all(e.is_exact for row in entries for e in row if e is not None)
    for i in range(n):
        for j in range(n):
            terms = [(a, b) for a, b in zip(entries[i], entries[j])
                     if a is not None and b is not None]
            if exact:
                counts = {}
                for a, b in terms:
                    turn = (a.angle - b.angle) % 1
                    counts[turn] = counts.get(turn, 0) + 1
                if i == j:
                    counts[Fraction(0)] = counts.get(Fraction(0), 0) - k
                off = not root_sum_is_zero(counts)
            else:
                s = sum(a.value * b.value.conjugate() for a, b in terms)
                off = abs(s - (k if i == j else 0.0)) > 1e-9
            if off:
                return ("off", i, j)
    return ("weight", k)


ORDER_24 = st.builds(Gain.exact, st.integers(0, 23), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
ENTRY = st.one_of(st.none(), ORDER_24)


@st.composite
def square_arrays(draw):
    """Square arrays of order <= 6: random ones, random gains on a circulant
    support, and Fourier or named weighing matrices moved by permutations and
    unit diagonals, one entry sometimes replaced; exact or numeric."""
    source = draw(st.sampled_from(["random", "circulant", "fourier", "named"]))
    if source == "named":
        rows = named_weighing(*draw(st.sampled_from([
            ("W2",), ("W3",), ("W4",), ("W5",), ("Z", Gain.exact(1, 8)), ("Z", Gain.exact(1, 4)),
        ]))).entries
    else:
        n = draw(st.integers(1, 6))
        if source == "random":
            rows = [[draw(ENTRY) for _ in range(n)] for _ in range(n)]
        elif source == "circulant":
            mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows = [[draw(ORDER_24) if mask[(j - i) % n] else None for j in range(n)]
                    for i in range(n)]
        else:
            rows = [[Gain.exact(i * j, n) for j in range(n)] for i in range(n)]
    n = len(rows)
    if source in ("fourier", "named"):
        p = draw(st.permutations(range(n)))
        q = draw(st.permutations(range(n)))
        r = draw(st.lists(ORDER_24, min_size=n, max_size=n))
        c = draw(st.lists(ORDER_24, min_size=n, max_size=n))
        rows = [[None if rows[p[i]][q[j]] is None else r[i] * rows[p[i]][q[j]] * c[j]
                 for j in range(n)] for i in range(n)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ENTRY)
    numeric = draw(st.sampled_from(["none", "one", "all"]))
    if numeric != "none":
        cells = [(i, j) for i in range(n) for j in range(n) if rows[i][j] is not None]
        if numeric == "one" and cells:
            cells = [draw(st.sampled_from(cells))]
        for i, j in cells:
            rows[i][j] = Gain.numeric(rows[i][j].value)
    return rows


@settings(max_examples=400, deadline=None)
@given(square_arrays())
def test_make_weighing_agrees_with_the_entry_by_entry_rule(rows):
    expected = _reference_weight(rows)
    if expected[0] == "weight":
        assert make_weighing(rows).weight == expected[1]
        return
    with pytest.raises(NotAWeighingMatrix) as err:
        make_weighing(rows)
    if expected[0] == "weights":
        assert str(err.value) == f"row/column weights differ: {expected[1]}"
    else:
        assert str(err.value).startswith(f"(WW*)[{expected[1]}][{expected[2]}] ")


def test_weighing_check_is_exact_at_a_large_order():
    x = Gain.exact(1, 997)
    W = named_weighing("Z", x)
    assert W.weight == 5 and W.is_exact
    rows = [list(row) for row in W.entries]
    rows[2][2] = x * x      # (WW*)[0][2] moves by x(x - 1), about 0.006 in modulus
    assert _reference_weight(rows) == ("off", 0, 2)
    with pytest.raises(NotAWeighingMatrix, match=r"\(WW\*\)\[0\]\[2\] is off"):
        make_weighing(rows)


def test_weighing_check_is_cheap_when_only_the_whole_array_has_a_large_order():
    # L, the lcm over the whole array, is 1e8 to 4e12 or past 2**62 below, but each
    # entry of WW* is a sum of roots of unity of order at most 4
    p, q, r = Gain.exact(1, 10007), Gain.exact(1, 10009), Gain.exact(1, 10037)
    W2, W4 = (named_weighing(name).entries for name in ("W2", "W4"))
    big, bigger = Gain.exact(1, 2 ** 32 - 1), Gain.exact(1, 2 ** 32 + 1)
    accepted = [
        [[p, None, None], [None, q, None], [None, None, r]],
        [[e * c for e, c in zip(row, (p, q))] for row in W2],
        [[None if e is None else e * c for e, c in zip(row, (p, q, r, p))] for row in W4],
        [[big, None], [None, bigger]],
        [[big, None], [None, Gain.numeric(1)]],
    ]
    for rows in accepted:
        assert make_weighing(rows).weight == _reference_weight(rows)[1]
    rows = [[p, q], [p, q]]        # (WW*)[0][1] = 2
    assert _reference_weight(rows) == ("off", 0, 1)
    with pytest.raises(NotAWeighingMatrix, match=r"\(WW\*\)\[0\]\[1\] is off"):
        make_weighing(rows)


def test_cm_weighing_builds_circulant():
    # a circulant weight-4 matrix of order 7
    W = cm_weighing([None, None, ONE, None, ONE, ONE, MINUS])
    assert W.n == 7 and W.weight == 4
    assert W.entries[1][3].close(ONE)  # shifted copy of the first row
    assert W.entries[1][1] is None


def test_cm_weighing_rejects_non_orthogonal_row():
    with pytest.raises(NotAWeighingMatrix):
        cm_weighing([None, ONE, MINUS])


def test_non_graphical_weighing_still_doubles():
    # weight-3 real weighing with nonzero diagonal: not a gain matrix
    # itself, but its bipartite double is the +-sqrt(3) signed cube
    rows = [
        [ONE, ONE, ONE, None],
        [ONE, MINUS, None, ONE],
        [ONE, None, MINUS, MINUS],
        [None, ONE, MINUS, ONE],
    ]
    W = make_weighing(rows)
    assert W.weight == 3
    g = ig(W)
    assert g.n == 8
    assert np.allclose(np.abs(spectrum_of(g)), math.sqrt(3))


# -- bipartite and negation doubles ---------------------------------------------

def test_ig_of_w2_is_the_quarter_turn_square():
    g = ig(named_weighing("W2"))
    assert g.n == 4 and sorted(g.degrees()) == [2, 2, 2, 2]
    cert = certify_two_ev(g)
    assert cert.theta1 == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("kind", ["ND", "SD", "SDstar"])
def test_doubles_of_the_quarter_turn_square(kind):
    g = double(ig(named_weighing("W2")), kind)
    k = 2
    target = {"ND": math.sqrt(k + 1), "SD": math.sqrt(2 * k),
              "SDstar": math.sqrt(2 * k + 1)}[kind]
    assert np.allclose(np.abs(spectrum_of(g)), target)


def test_double_rejects_non_root():
    # a path graph squares to something that is not a multiple of I
    from gainforge.gains import build
    g = build(3, [(0, 1, ONE), (1, 2, ONE)])
    with pytest.raises(NotSquareRootOfkI):
        double(g, "ND")


def test_double_checks_its_kind_first():
    path = build(3, [(0, 1, ONE), (1, 2, ONE)])
    for g in (path, GainGraph(0), ig(named_weighing("W2"))):
        with pytest.raises(UnknownName, match="'XX'"):
            double(g, "XX")


def test_double_rejects_the_empty_graph():
    with pytest.raises(EmptyGraph):
        double(GainGraph(0), "ND")


# -- toral tessellations and relatives -----------------------------------------

def test_toral_orders_and_regularity():
    for t in (3, 4, 5):
        g = toral(t, Gain.exact(1, 5))
        assert g.n == 2 * t
        assert set(g.degrees()) == {4}
        assert np.allclose(np.abs(spectrum_of(g)), 2.0)


def test_toral_rejects_small_t():
    with pytest.raises(InvalidOrder):
        toral(2, ONE)


def test_donut_spectrum():
    g = donut(4, Gain.exact(2, 7))
    cert = certify_two_ev(g)
    assert cert is not None
    assert cert.theta1 == pytest.approx(math.sqrt(5))


def test_d8_star_runs_on_any_unit():
    g = d8_star(Gain.exact(3, 11))
    assert np.allclose(np.abs(spectrum_of(g)), math.sqrt(5))


# -- Renes and star families ------------------------------------------------------

def test_renes_7_certificate():
    cert = certify_two_ev(renes(7))
    assert cert.theta1 == pytest.approx(math.sqrt(8))
    assert cert.theta2 == pytest.approx(-6 / math.sqrt(8))
    assert cert.m == 3


def test_renes_rejects_non_gaussian_prime():
    with pytest.raises(NotGaussianPrime):
        renes(5)  # 5 = 1 mod 4
    with pytest.raises(NotGaussianPrime):
        renes(9)


def test_renes_7_matches_circulant_example():
    w = switching_isomorphic(renes(7), example_1())
    assert w is not None


def test_k_star_nonzero_eigenvalues():
    g = k_star_pqr(1, 4, 9)
    evs = spectrum_of(g)
    big = np.sort(np.abs(evs))[-2:]
    assert np.allclose(big, 7.0)
    assert sum(abs(v) > 1e-9 for v in evs) == 2


def test_k_star_triangle_gain_is_i():
    from gainforge.gains import cycle_gain
    g = k_star_pqr(1, 1, 1)
    assert cycle_gain(g, [0, 1, 2]) == pytest.approx(1j) or \
        cycle_gain(g, [0, 2, 1]) == pytest.approx(1j)


def test_k222_is_fixed_and_two_ev():
    g = k222_gamma()
    cert = certify_two_ev(g)
    assert cert.theta1 == pytest.approx(2 * math.sqrt(2))
    assert cert.theta2 == pytest.approx(-math.sqrt(2))
    assert cert.m == 2


# -- the registry -------------------------------------------------------------------

def test_catalog_has_unique_names():
    names = [e.name for e in catalog()]
    assert len(names) == len(set(names))


def test_catalog_entry_lookup():
    e = catalog_entry("Renes7")
    assert e.order == 7 and e.degree == 6
    with pytest.raises(UnknownName):
        catalog_entry("Renes8")


def test_catalog_degree4_tag_selects_eight_families():
    tagged = [e for e in catalog() if "degree4" in e.tags]
    assert len(tagged) == 8
    assert all(e.degree == 4 for e in tagged)


def test_catalog_entries_build_to_declared_order():
    for e in catalog():
        if e.order > 20:
            continue
        params = {p: Gain.exact(1, 7) for p in e.parameters}
        g = e.build(**params)
        assert g.n == e.order, e.name
        assert sorted(g.degrees())[-1] == e.degree, e.name


def test_fixed_catalog_m2_is_bipartite_root_of_5():
    g = fixed_catalog("M2", x=ONE)
    assert g.n == 12
    assert np.allclose(np.abs(spectrum_of(g)), math.sqrt(5))


def test_fixed_catalog_unknown():
    with pytest.raises(UnknownName):
        fixed_catalog("M9")


def test_fixed_catalog_rejects_a_parameter_the_entry_does_not_take():
    with pytest.raises(BadParam, match="takes x"):
        fixed_catalog("T6", y=ONE)
    with pytest.raises(BadParam, match="takes no parameters"):
        fixed_catalog("K8star", x=ONE)


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.parameters])
def test_fixed_catalog_reads_a_value_that_is_not_a_gain_as_numeric(name):
    # as GainGraph, build and switch do
    slots = catalog_entry(name).parameters
    g = fixed_catalog(name, **dict.fromkeys(slots, 1j))
    assert g == fixed_catalog(name, **dict.fromkeys(slots, Gain.numeric(1j)))
    with pytest.raises(NonUnitGain):
        fixed_catalog(name, **dict.fromkeys(slots, 2.0))


def test_catalog_builders_take_exactly_the_declared_parameters():
    for e in catalog():
        assert tuple(inspect.signature(e.build).parameters) == e.parameters, e.name


def test_catalog_builders_look_up_constructions_when_called(monkeypatch):
    import gainforge.constructions as constructions
    catalog()   # made before the patch
    calls = []
    monkeypatch.setattr(constructions, "complete", lambda n: calls.append(n) or GainGraph(n))
    monkeypatch.setattr(constructions, "toral", lambda t, x: calls.append((t, x)) or GainGraph(2 * t))
    assert catalog_entry("K5").build().n == 5
    assert catalog_entry("T8").build(x=MINUS).n == 8
    assert calls == [5, (4, MINUS)]


def test_is_connected_agrees_with_the_bfs_tree():
    graphs = [GainGraph(0), GainGraph(1), build(4, [(0, 1, ONE), (2, 3, ONE)])]
    graphs += [e.build() for e in catalog()]
    for g in graphs:
        try:
            _bfs_tree(g)
            spanned = True
        except Disconnected:
            spanned = False
        assert is_connected(g) == spanned
    assert [is_connected(g) for g in graphs[:3]] == [False, True, False]


def test_catalog_verify_all_is_exported_by_the_library():
    import gainforge
    rows, ok = gainforge.catalog_verify_all(entries=[catalog_entry("K4")])
    assert ok and len(rows) == 2
    assert rows[0] == gainforge.CSV_HEADER and rows[1].startswith("K4,4,3,1,")


def test_catalog_verify_all_fails_a_wrong_spectrum_at_nan_tol():
    # K4's spectrum is (3, 1), (-1, 3): theta1 = 5 is wrong by any tolerance
    bad = CatalogEntry("bad", 4, 3, ((5.0, 1), (-1.0, 3)), lambda: complete(4))
    for tol in (1e-8, math.nan):
        rows, ok = catalog_verify_all(tol=tol, entries=[bad])
        assert not ok and rows[1].endswith(",FAIL"), tol


def test_catalog_verify_all_rejects_a_tag_no_entry_carries():
    with pytest.raises(UnknownName, match="degree4"):
        catalog_verify_all(only="nosuchtag")
    with pytest.raises(UnknownName, match="table2"):
        catalog_verify_all(only="degree4", entries=[catalog_entry("K4")])


def test_complete_graph_certificate():
    cert = certify_two_ev(complete(6))
    assert cert.theta1 == pytest.approx(5.0) and cert.m == 1
