"""Text round trips and parse diagnostics for both file formats."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainforge.constructions import catalog
from gainforge.errors import (DuplicateEdge, IndexOutOfRange, NonUnitGain, NormViolation,
                              ParseError, SelfLoop)
from gainforge.fileio import (
    parse_gaingraph,
    parse_lines,
    serialize_gaingraph,
    serialize_lines,
)
from gainforge.gains import Gain, _exact_values, _exponents, build
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
    ("gaingraph v1\nn 9223372036854775808\n", "below 9223372036854775808"),
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


@pytest.mark.parametrize("n", [-1, 2 ** 63, 99999999999999999999])
def test_a_vertex_count_outside_intp_is_refused_at_its_line(n):
    # past intp the graph's arrays could not be built or indexed
    text = f"# a graph\ngaingraph v1\nn {n}\ne 0 1 rot 0/1\n"
    for parse in (parse_gaingraph, _reference_parse):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == 3
    assert parse_gaingraph(f"gaingraph v1\nn {2 ** 63 - 1}\ne 0 1 rot 0/1\n").n == 2 ** 63 - 1


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
    ("e 0 1 num 1.7e308 1.7e308\n", NonUnitGain, "line 3: |z| = inf is not 1"),
    ("e 0 1 rot 0/1\ne 0 99999999999999999999 rot 0/1\n", IndexOutOfRange,
     "line 4: edge (0, 99999999999999999999) outside 0..2"),
    # the first edge line at fault is named, whatever follows it
    ("e 1 2 rot 0/1\ne 1 2 rot 0/1\ne 0 7 rot 0/1\n", DuplicateEdge, "line 4:"),
])
def test_edge_line_errors_name_their_line(edges, error, complaint):
    with pytest.raises(error) as err:
        parse_gaingraph("gaingraph v1\nn 3\n" + edges)
    assert str(err.value).startswith(complaint)


def test_edge_order_holds_past_the_int64_range_of_u_times_n():
    # at n = 2**40, u * n + v wraps int64 and puts (2**24, 2**25) on (0, 2**25)
    head = f"gaingraph v1\nn {2 ** 40}\n"
    with pytest.raises(DuplicateEdge, match=r"^line 5: edge \(0, 33554432\) given twice"):
        parse_gaingraph(head + "e 0 33554432 rot 0/1\ne 16777216 33554432 rot 1/2\n"
                               "e 0 33554432 rot 1/4\n")
    g = parse_gaingraph(head + "e 16777216 33554432 rot 1/2\ne 0 33554432 rot 1/4\n")
    assert g.u.tolist() == [0, 16777216] and g.v.tolist() == [33554432, 33554432]


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


# sha256 of serialize_gaingraph(entry.build()) for every catalog entry at its default
# parameters; a change to the text of an entry must restate its digest here
CATALOG_TEXT_SHA256 = {
    "K3": "b2e2cd51274a0634a9d9e43dfdd55f9d50cead6f5c6f9f2271985d9ac988e0ea",
    "K4": "87ed507ca420653882edac33aa6a2f8d37ca5ea1d0e5e7090f2d8dbbaf71d245",
    "K5": "27f349ba77381771862f40444b636fac694ff1911484f3cef0d2161a00bf2ef7",
    "K6": "1bf9962da5ce20ca1c0f8b0727b47b55c32d993bb807a13b6aec14cda009e9c3",
    "K7": "862ed29944ac8ad7399a1ab8dd46cb0d76d0482affa57b3e45ef83cde19a3f03",
    "IG(W2)": "8b11496bbd6c979da649c5b5e4d05ee794503e531b9a0f07fc5deb761c267f13",
    "W4": "6c1f97fa0af3c8dd15540a177b8ed5879aaad7bdab5d4e30534901416a2d1624",
    "K222_gamma": "450dfc524c6f0bf58629f7ab46839a6d1a4f93376771bee3bee63d462e12c575",
    "MUB_C3(2)": "e8d1969103cfc70c26d4831c103506cf991709173a29d63cb23ec4dd52a7c1d1",
    "MUB_C3(3)": "eda2d4670b49dad4edd81a9e7db3ad914b15b95607580cd917cf478a3a963cb4",
    "MUB_C3(4)": "1258c7cc925758ee175e43e940727c32426a58ead99e19cbcd809e7cc930d85e",
    "T6": "686d4ebae5774b2a8108076adec1cf4d5ad1ba673ac3f5d39c99cfb39b684884",
    "ETF6": "4f0d033dc2f657009d10e942df38c1e6521cb5202b065765adbe69112ef621d3",
    "Renes7": "d5ddbe39c80ac1710da488c0bf5e53f38ec872257077d934f6068704e3e64f7a",
    "SIC3": "07dd7fe604a5cb870834792371011865f3356ca5babacbcf16071c46e377946f",
    "IG(W3)": "c50bc1992e5e18d4c0c0fe4589d019bd4fd17c92373aa874701ac2fa499c6753",
    "ND(IG(W2))": "0da05cc8998ce5c26fb6e445c4b54476b50f7220318776d2ee56b20c0704dbd0",
    "ND(W4)": "f337577edbdee1f104edf81464ce81b36df9aa6f09f0638961d42704285bfc1e",
    "IG(W5)": "e997cbba36e37ae74b6b7a67a34df1cef27ceefa2273f304b88b30239183ee6f",
    "ND(IG(W3))": "40641decc0eba12bc28d6daf143298f4b9cd0609903917ddfe3206ddc85abdf2",
    "IG(W7)": "7dfc61aa7fd18939245b71c8f01294bc4efd42c3adcf47a0f4cd0f833e77d875",
    "ND(ND(IG(W2)))": "821297076c31a8e3cb87cd5ad41235059686d341a5138e5f9d54490739d1e765",
    "T8": "0b132392da420f773a146440dfaadd280291dd52e71197405b29cb7b7b8f0a3d",
    "T10": "c33217e64a4b386de4462da75657a834d5169a5e3ba4914510f915f146a1d774",
    "Donut6": "cfa3e1fa659b9da77e9555da3135fff08c1d32e53e435959efbb4ddfac1d4e55",
    "Donut8": "7ff4c48a659b80fb4589aeca0db6c06d61a2f2354d0f9de50d9273e168b63866",
    "D8star": "b15511a030b2995fb2f12f92c46eedac7ec03ad787a9af9d8cc174c60141e4e6",
    "GQ22": "be5d5e89912932bf71a2cf3dc2e310b7f3d8c044c2f128aa9596d5326a89cf8e",
    "Ramezani_Delta5": "4cd50e7238e611a1cb6822cc1ac4ea0d5a01640c2b3eaa6b4029789b4c01c2e2",
    "Witting": "968b31ca253cc043fcd5490b5a1ad5a196c84a812c881cfc8beab516fe74d04e",
    "ST33": "2da060aef80c54cade69f809250760f0ba26f708a43feda8e811a87ca911e51e",
    "CoxeterTodd2": "12d3b339603ba31567c55a27e063fc8647bfdee8c3e4c1ae88d4424ed98dc7af",
    "CoxeterTodd3": "fd413a9c84cc95ddb3f8836bcc68548cd429084a7b41d1183faa519659c37db0",
    "CoxeterTodd4": "e359df4533272f6a852bb958aa614681e76e0f4176e6c0c62f59f6d7953a53d6",
    "K8star": "5f7ab09a05d10d4cd1130b11aad8313efba193df092687cafbbb3e174e5d7b1a",
    "K10star": "ebe65ea86573e195f9e60f11be8c07f25b21cdc6f084638af3992e800e29fa75",
    "M1": "9823c56eeeea27fd372c20f50a92038f10786da3854860d283a034aa5010f67a",
    "M2": "b61310230c13826302bcdaf7f2f1a097c599ee95577b473178c1d1d7484b75ec",
    "M3": "29a7aa2e41cd691c197bb5b1cc496f95edae7b6469a746132d8a20ba7559f372",
    "M4": "0a839ce4a2d3d68cb3e4445d217465fc0168ae7b69997955d26b1d0485b2b692",
    "Example1": "7fa6ea4c1ea010f445784a7ed078927d177f1999dbf6470bb8eafe8e7ab784a7",
}


def test_catalog_text_is_pinned():
    got = {e.name: hashlib.sha256(serialize_gaingraph(e.build()).encode()).hexdigest()
           for e in catalog()}
    assert got == CATALOG_TEXT_SHA256


def _reference_text(g):
    """serialize_gaingraph as a loop that formats every edge's gain by itself."""
    out = ["gaingraph v1", f"n {g.n}"]
    for u, v, w in g.edges():
        if w.is_exact:
            out.append(f"e {u} {v} rot {w.angle.numerator}/{w.angle.denominator}")
        else:
            out.append(f"e {u} {v} num {w.value.real:.17g} {w.value.imag:.17g}")
    return "\n".join(out) + "\n"


def _reference_parse(text):
    """parse_gaingraph as a loop that converts and checks one edge line at a time:
    (n, u, v, k, z, L), or the error."""
    rows = [(i, raw.split("#", 1)[0].strip().split()) for i, raw in
            enumerate(text.splitlines(), start=1)]
    rows = [(i, tok) for i, tok in rows if tok]
    if not rows or rows[0][1] != ["gaingraph", "v1"]:
        raise ParseError(rows[0][0] if rows else 1, "expected header 'gaingraph v1'")
    if len(rows) < 2 or rows[1][1][0] != "n" or len(rows[1][1]) != 2:
        raise ParseError(rows[1][0] if len(rows) > 1 else 1, "expected 'n <N>'")
    try:
        n = int(rows[1][1][1])
    except ValueError:
        raise ParseError(rows[1][0], f"bad vertex count {rows[1][1][1]!r}") from None
    end = int(np.iinfo(np.intp).max) + 1    # a vertex count must also fit the intp arrays
    if not 0 <= n < end:
        raise ParseError(rows[1][0], f"vertex count must be nonnegative and below {end}")
    linenos, us, vs, rotations, values = [], [], [], [], []
    for lineno, tok in rows[2:]:
        if tok[0] != "e":
            raise ParseError(lineno, f"expected edge line, got {tok[0]!r}")
        if len(tok) < 5:
            raise ParseError(lineno, "edge line too short")
        try:
            u, v = int(tok[1]), int(tok[2])
        except ValueError:
            raise ParseError(lineno, "vertex ids must be integers") from None
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
        if u > v:
            raise ParseError(lineno, f"edges must satisfy u < v, got {u} {v}")
        if tok[3] == "rot":
            if len(tok) != 5 or "/" not in tok[4]:
                raise ParseError(lineno, "rot gain needs a single p/q token")
            ps, qs = tok[4].split("/", 1)
            try:
                p, q = int(ps), int(qs)
            except ValueError:
                raise ParseError(lineno, f"bad rotation {tok[4]!r}") from None
            if q <= 0 or not 0 <= p < q or math.gcd(p, q) != 1:
                raise ParseError(lineno, f"rotation {p}/{q} not reduced into [0,1)")
            rotations.append((p, q))
            values.append(0j)
        elif tok[3] == "num":
            if len(tok) != 6:
                raise ParseError(lineno, "num gain needs re and im")
            try:
                z = complex(float(tok[4]), float(tok[5]))
            except ValueError:
                raise ParseError(lineno, "bad numeric gain components") from None
            try:
                r = abs(z)
            except OverflowError:
                r = math.inf
            if not abs(r - 1.0) <= 1e-9:
                raise NonUnitGain(f"line {lineno}: |z| = {r!r} is not 1 within 1e-09")
            rotations.append(None)
            values.append(z)
        else:
            raise ParseError(lineno, f"unknown gain kind {tok[3]!r}")
        linenos.append(lineno)
        us.append(u)
        vs.append(v)
    k, L = _exponents(rotations)
    z = _exact_values(k, np.array(values, dtype=complex), L, k >= 0)
    first = {}
    for lineno, e in zip(linenos, zip(us, vs)):
        if not (0 <= e[0] and e[1] < n):
            raise IndexOutOfRange(f"line {lineno}: edge {e} outside 0..{n - 1}")
        if first.setdefault(e, lineno) != lineno:
            raise DuplicateEdge(f"line {lineno}: edge {e} given twice")
    u, v = np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
    order = sorted(range(len(us)), key=lambda i: (us[i], vs[i]))
    return n, u[order], v[order], k[order], z[order], L


def _outcome(parse, text):
    """What parse makes of text: the error's class and message, or the graph's arrays."""
    try:
        got = parse(text)
    except Exception as err:        # any error is part of the outcome compared
        return type(err), str(err)
    if not isinstance(got, tuple):
        got = (got.n, got.u, got.v, got.k, got.z, got.L)
    n, u, v, k, z, L = got
    return n, u.tobytes(), v.tobytes(), k.dtype, k.tolist(), z.tobytes(), L


_VERTICES = ["0", "1", "2", "3", "4", "+1", "01", "1_0", "٣", "-1", "7", "a", "1.0",
             "99999999999999999999"]
_VALID_GAINS = ["rot 0/1", "rot 1/2", "rot 1/4", "rot 3/4", "num 1 0", "num 0.6 0.8",
                "num -0 1", "num 0.6 -0.8", "num 1e0 -0.0"]
_GAINS = _VALID_GAINS + [
    "rot 2/4", "rot 1/+3", "rot 5/4", "rot 1/0", "rot x/3", "rot -1/3", "rot 7/12", "rot 1",
    "rot 1/3 4", "num nan 0", "num inf 0", "num 0.5 0", "num 1.7e308 1.7e308", "num 1",
    "num 1 0 0", "num a 0", "spin 1"]
_SPACE = st.sampled_from([" ", "  ", "\t"])


@st.composite
def _edge_line(draw):
    u, v = draw(st.sampled_from(_VERTICES)), draw(st.sampled_from(_VERTICES))
    sp = draw(st.lists(_SPACE, min_size=3, max_size=3))
    line = f"e{sp[0]}{u}{sp[1]}{v}{sp[2]}{draw(st.sampled_from(_GAINS))}"
    return line + draw(st.sampled_from(["", "", " # note", "\t#", "  "]))


_JUNK = st.sampled_from(["", "   ", "# c", "\t", "x 0 1 rot 0/1", "e", "e 0", "e 0 1",
                         "e 0 1 rot", "n 5"])
_PAIRS = [(a, b) for a in range(6) for b in range(a + 1, 6)]


@st.composite
def _graph_text(draw):
    """Valid edge lines with up to three lines of any kind put in among them."""
    head = draw(st.sampled_from(["gaingraph v1\nn 5\n", "gaingraph v1\nn 12\n",
                                 "# a graph\ngaingraph v1\n\n\tn 5 # five\n"]))
    gains = st.sampled_from(_VALID_GAINS)
    lines = [f"e {a} {b} {draw(gains)}"
             for a, b in draw(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=8))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_edge_line() | _JUNK))
    return head + "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n# end\n"]))


@settings(max_examples=400, deadline=None)
@given(_graph_text())
def test_parse_agrees_with_the_line_by_line_reference(text):
    assert _outcome(parse_gaingraph, text) == _outcome(_reference_parse, text)


_UNITS = [complex(1.0, 0.0), complex(1.0, -0.0), complex(-1.0, 0.0), complex(-1.0, -0.0),
          complex(0.0, 1.0), complex(-0.0, 1.0), complex(0.0, -1.0), complex(-0.0, -1.0),
          complex(0.6, 0.8), complex(0.6, -0.8), complex(math.cos(1.0), math.sin(1.0))]


@st.composite
def _mixed_graph(draw):
    n = draw(st.integers(0, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    exact = st.builds(Gain.exact, st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 12]))
    numeric = st.sampled_from(_UNITS).map(lambda z: Gain.numeric(z, tol=1e-9))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # an edge given as b -> a carries the conjugate gain
    return build(n, [(a, b, draw(exact | numeric)) if draw(st.booleans()) else
                     (b, a, draw(exact | numeric)) for a, b in edges])


@settings(max_examples=200, deadline=None)
@given(_mixed_graph())
def test_round_trip_keeps_the_bytes_and_the_arrays(g):
    text = serialize_gaingraph(g)
    assert text == _reference_text(g)
    h = parse_gaingraph(text)
    assert (h.n, h.L, h.k.dtype) == (g.n, g.L, g.k.dtype)
    for a, b in zip((h.u, h.v, h.k, h.z), (g.u, g.v, g.k, g.z)):
        assert a.tobytes() == b.tobytes()


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
