"""Line-oriented text formats for gain graphs and line systems.

Both formats are versioned, diff-friendly, and locale-independent;
numeric values are written with 17 significant digits so that parse
after serialize is the identity for exact gains and bit-faithful for
numeric ones.  A gain graph's text costs what its distinct gains cost:
each distinct gain is formatted, or converted and checked, once however
many edges carry it, and the per-edge work is list and array operations.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import (DuplicateEdge, GainForgeError, IndexOutOfRange, NonUnitGain, ParseError,
                     SelfLoop)
from .gains import (Gain, GainGraph, _INTP_END, _assemble, _exact, _exact_values, _exponents,
                    _unit_fault)
from .lines import LineSystem


# how far a numeric gain's modulus may stray from 1
_UNIT_TOL = 1e-9


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, tokens) for every line with content after comments."""
    lines = [raw.partition("#")[0].split() for raw in text.splitlines()]
    return [(lineno, tok) for lineno, tok in enumerate(lines, start=1) if tok]


def _attempt(rule, *args):
    """rule(*args), or None where it raises: the caller runs the rule again where it counts."""
    try:
        return rule(*args)
    except (ValueError, GainForgeError):
        return None


# -- gain graphs -----------------------------------------------------------------

def format_gain(gain: Gain) -> str:
    """``rot p/q`` for an exact gain, ``num re im`` for a numeric one."""
    if gain.is_exact:
        return f"rot {gain.angle.numerator}/{gain.angle.denominator}"
    return f"num {_fmt(gain.value.real)} {_fmt(gain.value.imag)}"


def serialize_gaingraph(g: GainGraph) -> str:
    """The ``gaingraph v1`` text of g: a header, ``n N``, then one ``e u v`` line per edge u < v."""
    # each distinct gain is formatted once, an exact one keyed by its exponent k and a
    # numeric one by the bits of z, so that -0.0 keeps its sign
    text = {}
    out = [f"gaingraph v1\nn {g.n}\n"]
    bits = g.z.view(np.int64).tolist()
    for u, v, k, z, re, im in zip(g.u.tolist(), g.v.tolist(), g.k.tolist(), g.z.tolist(),
                                  bits[0::2], bits[1::2]):
        key = k if k >= 0 else (re, im)
        if key not in text:
            text[key] = format_gain(_exact(k, g.L) if k >= 0 else Gain(None, z))
        out.append(f"e {u} {v} {text[key]}\n")
    return "".join(out)


def _edge(lineno: int, tok: list[str]) -> tuple[int, int, Optional[tuple[int, int]], complex]:
    """(u, v, rotation (p, q) or None, value) of an edge line, or its error: the line rule."""
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
        return u, v, (p, q), 0j         # the value is set from the rotation
    if kind == "num":
        if len(tok) != 6:
            raise ParseError(lineno, "num gain needs re and im")
        try:
            z = complex(float(tok[4]), float(tok[5]))
        except ValueError:
            raise ParseError(lineno, "bad numeric gain components") from None
        fault = _unit_fault(z, _UNIT_TOL)
        if fault:
            raise NonUnitGain(f"line {lineno}: {fault}")
        return u, v, None, z
    raise ParseError(lineno, f"unknown gain kind {kind!r}")


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
    if not 0 <= n < _INTP_END:
        raise ParseError(rows[1][0], f"vertex count must be nonnegative and below {_INTP_END}")

    # the edge lines as columns: each distinct vertex token and gain token group is
    # converted once, and if any line breaks _edge's rule, _edge runs over the lines so
    # that the first such line raises.  A line of the wrong shape gets vertex ids that int
    # rejects; a gain token group is read as the line "e 0 1 <group>".
    lines = rows[2:]
    toks = [tok if len(tok) >= 5 and tok[0] == "e" else ["e", "", "", ""] for _, tok in lines]
    tokens, groups = {}, {}
    ends = [tokens.setdefault(tok[i], len(tokens)) for i in (1, 2) for tok in toks]
    at = np.array([groups.setdefault(tuple(tok[3:]), len(groups)) for tok in toks], np.intp)
    ids = [_attempt(int, t) for t in tokens]
    gains = [_attempt(_edge, 0, ["e", "0", "1", *group]) for group in groups]
    # vertex ids compare by rank, which stays exact past intp
    order = sorted({x for x in ids if x is not None})
    rank = {x: r for r, x in enumerate(order)}
    ranks = np.array([rank.get(x, -1) for x in ids], np.intp)[ends]
    ru, rv = ranks.reshape(2, -1)
    if None in ids or None in gains or not (ru < rv).all():
        for line in lines:
            _edge(*line)        # raises at the first line that breaks the rule
    k, L = _exponents([x[2] for x in gains])
    z = _exact_values(k, np.array([x[3] for x in gains], dtype=complex), L, k >= 0)
    try:
        u, v = np.array(order, dtype=np.intp)[ranks].reshape(2, -1)
        return _assemble(n, u, v, k[at], z[at], L)
    except (IndexOutOfRange, DuplicateEdge, OverflowError):
        # a valid file never gets here: name the first edge line at fault
        first = {}
        u, v = np.array(order, dtype=object)[ranks].reshape(2, -1)
        for (lineno, _), e in zip(lines, zip(u.tolist(), v.tolist())):
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
