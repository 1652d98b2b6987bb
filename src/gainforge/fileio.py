"""Line-oriented text formats for gain graphs and line systems.

Both formats are versioned, diff-friendly, and locale-independent;
numeric values are written with 17 significant digits so that parse
after serialize is the identity for exact gains and bit-faithful for
numeric ones.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DuplicateEdge, IndexOutOfRange, NonUnitGain, ParseError, SelfLoop
from .gains import Gain, GainGraph, _assemble, _exact_values, _exponents, _unit_fault
from .lines import LineSystem


# how far a numeric gain's modulus may stray from 1
_UNIT_TOL = 1e-9


def strip_comment(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, tokens) for every line with content after comments."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = strip_comment(raw)
        if body:
            rows.append((lineno, body.split()))
    return rows


# -- gain graphs -----------------------------------------------------------------

def format_gain(gain: Gain) -> str:
    """``rot p/q`` for an exact gain, ``num re im`` for a numeric one."""
    if gain.is_exact:
        return f"rot {gain.angle.numerator}/{gain.angle.denominator}"
    return f"num {_fmt(gain.value.real)} {_fmt(gain.value.imag)}"


def serialize_gaingraph(g: GainGraph) -> str:
    """The ``gaingraph v1`` text of g: a header, ``n N``, then one ``e u v`` line per edge u < v."""
    out = ["gaingraph v1", f"n {g.n}"]
    # exponent k mod L is the reduced angle (k/d) / (L/d) for d = gcd(k, L)
    d = np.gcd(g.k, g.L)
    out += [f"e {u} {v} rot {p}/{q}" if p >= 0 else f"e {u} {v} num {z.real:.17g} {z.imag:.17g}"
            for u, v, p, q, z in zip(g.u.tolist(), g.v.tolist(), (g.k // d).tolist(),
                                     (g.L // d).tolist(), g.z.tolist())]
    return "\n".join(out) + "\n"


def parse_gaingraph(text: str) -> GainGraph:
    """The gain graph of a ``gaingraph v1`` text; every error names the offending line."""
    rows = _rows(text)
    if not rows or rows[0][1] != ["gaingraph", "v1"]:
        raise ParseError(rows[0][0] if rows else 1, "expected header 'gaingraph v1'")
    if len(rows) < 2 or rows[1][1][0] != "n" or len(rows[1][1]) != 2:
        raise ParseError(rows[1][0] if len(rows) > 1 else 1, "expected 'n <N>'")
    try:
        n = int(rows[1][1][1])
    except ValueError:
        raise ParseError(rows[1][0], f"bad vertex count {rows[1][1][1]!r}") from None
    if n < 0:
        raise ParseError(rows[1][0], "vertex count must be nonnegative")

    us, vs, rotations, values = [], [], [], []
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
        kind = tok[3]
        if kind == "rot":
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
            values.append(0j)       # set from the rotation below
        elif kind == "num":
            if len(tok) != 6:
                raise ParseError(lineno, "num gain needs re and im")
            try:
                z = complex(float(tok[4]), float(tok[5]))
            except ValueError:
                raise ParseError(lineno, "bad numeric gain components") from None
            # _unit_fault's test, written out: a call per line costs CoxeterTodd's
            # 5,040 num lines about 3% of their parse
            if not abs(abs(z) - 1.0) <= _UNIT_TOL:
                raise NonUnitGain(f"line {lineno}: {_unit_fault(z, _UNIT_TOL)}")
            rotations.append(None)
            values.append(z)
        else:
            raise ParseError(lineno, f"unknown gain kind {kind!r}")
        us.append(u)
        vs.append(v)
    k, L = _exponents(rotations)
    z = _exact_values(k, np.array(values, dtype=complex), L, k >= 0)
    try:
        return _assemble(n, np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp), k, z, L)
    except (IndexOutOfRange, DuplicateEdge):
        # a valid file never gets here: name the first edge line at fault
        first = {}
        for (lineno, _), e in zip(rows[2:], zip(us, vs)):
            if not (0 <= e[0] and e[1] < n):
                raise IndexOutOfRange(f"line {lineno}: edge {e} outside 0..{n - 1}") from None
            if first.setdefault(e, lineno) != lineno:
                raise DuplicateEdge(f"line {lineno}: edge {e} given twice") from None
        raise


# -- line systems ----------------------------------------------------------------

def serialize_lines(system: LineSystem) -> str:
    """The ``lines v1`` text of a line system: dim, count, then one ``v j`` line per vector."""
    out = ["lines v1", f"dim {system.dim}", f"count {system.count}"]
    for j in range(system.count):
        parts = [f"v {j}"]
        for x in system.matrix[:, j]:
            parts.append(f"{_fmt(x.real)} {_fmt(x.imag)}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def parse_lines(text: str) -> LineSystem:
    """The line system of a ``lines v1`` text; ParseError names the offending line."""
    rows = _rows(text)
    if not rows or rows[0][1] != ["lines", "v1"]:
        raise ParseError(rows[0][0] if rows else 1, "expected header 'lines v1'")
    if len(rows) < 3:
        raise ParseError(rows[-1][0], "missing dim/count headers")
    sizes = []
    for (lineno, tok), key in zip(rows[1:3], ("dim", "count")):
        if tok[0] != key or len(tok) != 2:
            raise ParseError(lineno, f"expected '{key} <int>'")
        try:
            sizes.append(int(tok[1]))
        except ValueError:
            raise ParseError(lineno, f"{key} must be an integer") from None
    m, n = sizes
    if m <= 0:
        raise ParseError(rows[1][0], "dim must be positive")
    if n < 0:
        raise ParseError(rows[2][0], "count must be nonnegative")

    vec_rows = rows[3:]
    if len(vec_rows) != n:
        raise ParseError(rows[-1][0] if rows else 1,
                         f"count says {n} vectors but found {len(vec_rows)}")
    N = np.zeros((m, n), dtype=complex)
    seen = set()
    for lineno, tok in vec_rows:
        if tok[0] != "v" or len(tok) != 2 + 2 * m:
            raise ParseError(lineno, f"expected 'v <j>' plus {m} re/im pairs")
        try:
            j = int(tok[1])
            vals = [float(t) for t in tok[2:]]
        except ValueError:
            raise ParseError(lineno, "bad vector entries") from None
        if not 0 <= j < n or j in seen:
            raise ParseError(lineno, f"vector index {j} out of range or repeated")
        seen.add(j)
        N[:, j] = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(m)]
    return LineSystem(N)   # NormViolation on non-unit columns
