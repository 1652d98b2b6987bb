"""Text round trips and parse diagnostics for both file formats."""

from __future__ import annotations

import numpy as np
import pytest

from gainforge.errors import (DuplicateEdge, IndexOutOfRange, NonUnitGain, NormViolation,
                              ParseError, SelfLoop)
from gainforge.fileio import (
    parse_gaingraph,
    parse_lines,
    serialize_gaingraph,
    serialize_lines,
)
from gainforge.gains import Gain, build
from gainforge.lines import LineSystem, geometry_lines


def sample_graph():
    return build(4, [
        (0, 1, Gain.exact(1, 4)),
        (0, 2, Gain.exact(0, 1)),
        (1, 3, Gain.numeric(complex(0.6, 0.8), tol=1e-9)),
        (2, 3, Gain.exact(1, 2)),
    ])


def test_gaingraph_round_trip():
    g = sample_graph()
    h = parse_gaingraph(serialize_gaingraph(g))
    assert h.n == g.n
    assert np.array_equal(h.matrix(), g.matrix())
    exact_flags = [w.is_exact for _, _, w in h.edges()]
    assert exact_flags == [True, True, False, True]


def test_gaingraph_comments_and_blank_lines_are_ignored():
    text = """
    # a quarter turn square
    gaingraph v1
    n 4        # four corners
    e 0 1 rot 0/1
    e 1 2 rot 0/1

    e 2 3 rot 0/1
    e 0 3 rot 1/4   # the twist
    """
    g = parse_gaingraph(text)
    assert g.n == 4 and len(list(g.edges())) == 4


@pytest.mark.parametrize("text,complaint", [
    ("", "header"),
    ("gaingraph v2\nn 1\n", "header"),
    ("gaingraph v1\nm 4\n", "n <N>"),
    ("gaingraph v1\nn four\n", "vertex count"),
    ("gaingraph v1\nn -2\n", "nonnegative"),
    ("gaingraph v1\nn 3\nx 0 1 rot 0/1\n", "edge line"),
    ("gaingraph v1\nn 3\ne 0 1\n", "too short"),
    ("gaingraph v1\nn 3\ne a b rot 0/1\n", "integers"),
    ("gaingraph v1\nn 3\ne 1 0 rot 0/1\n", "u < v"),
    ("gaingraph v1\nn 3\ne 0 1 rot 2/4\n", "reduced"),
    ("gaingraph v1\nn 3\ne 0 1 rot 5/4\n", "reduced"),
    ("gaingraph v1\nn 3\ne 0 1 spin 1\n", "gain kind"),
    ("gaingraph v1\nn 3\ne 0 1 num 1.0\n", "re and im"),
])
def test_gaingraph_parse_errors(text, complaint):
    with pytest.raises(ParseError) as err:
        parse_gaingraph(text)
    assert complaint in str(err.value)


def test_parse_error_carries_the_line_number():
    text = "gaingraph v1\nn 3\ne 0 1 rot 0/1\ne 1 2 rot 9/4\n"
    with pytest.raises(ParseError) as err:
        parse_gaingraph(text)
    assert err.value.line == 4


def test_gaingraph_rejects_self_loops():
    with pytest.raises(SelfLoop):
        parse_gaingraph("gaingraph v1\nn 3\ne 1 1 rot 0/1\n")


def test_gaingraph_rejects_non_unit_numeric_gain():
    with pytest.raises(NonUnitGain):
        parse_gaingraph("gaingraph v1\nn 3\ne 0 1 num 0.5 0.0\n")


@pytest.mark.parametrize("edges, error, complaint", [
    ("e 0 1 rot 0/1\ne 0 5 rot 0/1\n", IndexOutOfRange, "line 4: edge (0, 5) outside 0..2"),
    ("e -1 1 rot 0/1\n", IndexOutOfRange, "line 3: edge (-1, 1) outside 0..2"),
    ("e 0 1 rot 0/1\ne 1 2 rot 0/1\ne 0 1 rot 1/2\n", DuplicateEdge,
     "line 5: edge (0, 1) given twice"),
    ("e 0 1 rot 0/1\ne 1 2 num 2 0\n", NonUnitGain, "line 4: |z| = 2.0 is not 1"),
    # the first edge line at fault is named, whatever follows it
    ("e 1 2 rot 0/1\ne 1 2 rot 0/1\ne 0 7 rot 0/1\n", DuplicateEdge, "line 4:"),
])
def test_edge_line_errors_name_their_line(edges, error, complaint):
    with pytest.raises(error) as err:
        parse_gaingraph("gaingraph v1\nn 3\n" + edges)
    assert str(err.value).startswith(complaint)


@pytest.mark.parametrize("re, im", [("2", "0"), ("0.6", "0.8000001"), ("nan", "0"), ("0", "-inf")])
def test_a_non_unit_line_fails_as_gain_numeric_does_at_1e_9(re, im):
    with pytest.raises(NonUnitGain) as want:
        Gain.numeric(complex(float(re), float(im)), tol=1e-9)
    # a later faulty line does not displace the first
    text = f"gaingraph v1\nn 3\ne 0 1 num {re} {im}\ne 1 2 num 0.5 0\n"
    with pytest.raises(NonUnitGain) as got:
        parse_gaingraph(text)
    assert str(got.value) == f"line 3: {want.value}"
    assert str(got.value).endswith("is not 1 within 1e-09")


def test_numeric_gains_round_trip_bit_faithfully():
    z = complex(0.28734788556634544, 0.957829434341349)
    z /= abs(z)
    g = build(2, [(0, 1, Gain.numeric(z, tol=1e-9))])
    h = parse_gaingraph(serialize_gaingraph(g))
    (_, _, w) = next(iter(h.edges()))
    assert w.value == z


def test_lines_round_trip():
    s = geometry_lines("SIC2")
    t = parse_lines(serialize_lines(s))
    assert np.allclose(t.matrix, s.matrix)
    assert (t.dim, t.count) == (2, 4)


@pytest.mark.parametrize("text,complaint", [
    ("", "header"),
    ("lines v1\ndim 2\n", "dim/count"),
    ("lines v1\ndim 2\ntotal 3\n", "'count <int>'"),
    ("lines v1\ndim 0\ncount 1\n", "positive"),
    ("lines v1\ndim 2\ncount 2\nv 0 1.0 0.0 0.0 0.0\n", "count says 2"),
])
def test_lines_parse_errors(text, complaint):
    with pytest.raises(ParseError) as err:
        parse_lines(text)
    assert complaint in str(err.value)


@pytest.mark.parametrize("text,line", [
    ("lines v1\ndim x\ncount 1\n", 2),
    ("lines v1\ndim 0\ncount 1\n", 2),
    ("lines v1\ndim 1\ncount x\n", 3),
    ("lines v1\ndim 1\ncount -1\n", 3),
])
def test_lines_header_errors_name_their_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_lines(text)
    assert err.value.line == line


def test_lines_vector_index_validation():
    head = "lines v1\ndim 1\ncount 2\n"
    with pytest.raises(ParseError):
        parse_lines(head + "v 0 1.0 0.0\nv 0 1.0 0.0\n")  # repeated index
    with pytest.raises(ParseError):
        parse_lines(head + "v 0 1.0 0.0\nv 5 1.0 0.0\n")  # out of range
    with pytest.raises(ParseError):
        parse_lines(head + "v 0 1.0\nv 1 1.0 0.0\n")      # wrong arity


def test_lines_norm_checked_after_parse():
    with pytest.raises(NormViolation):
        parse_lines("lines v1\ndim 2\ncount 1\nv 0 0.5 0.0 0.0 0.0\n")
