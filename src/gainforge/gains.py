"""Complex unit gain graphs: representation, switching, and isomorphism.

A gain graph assigns a complex number of modulus one to every oriented
edge of a simple graph; the reversed orientation carries the complex
conjugate.  The resulting gain matrix is Hermitian, so its spectrum is
real.  Switching by a unit diagonal, relabeling the vertices and taking
the converse (entry-wise conjugate) all preserve that spectrum; the
equivalence they generate is the natural notion of isomorphism here.

Gains are dual-represented: ``Gain.exact(p, q)`` stores the rational
rotation exp(2*pi*i*p/q) exactly (angle arithmetic on ``Fraction``),
while ``Gain.numeric(z)`` stores an arbitrary unit complex number.
Exact gains survive switching and comparison without rounding, which is
what makes equivalence tests on root-of-unity graphs decidable.

``Gain`` is the value type at the API boundary; a ``GainGraph`` stores
edge arrays.  The edges u < v sit in sorted key order in two index
arrays, beside one complex array of values and, for exact gains, one
integer array of exponents modulo L, the lcm of the graph's
denominators.  So ``matrix`` is two fancy-index writes, exact switching
is exponent addition mod L, and ``switch``, ``relabel`` and ``converse``
are a few array operations.  They reproduce ``Gain`` arithmetic edge by
edge, bit for bit: an exact value comes from ``_turn`` of its reduced
angle, and a numeric product is formed as Python forms a complex
product, in the order conj(s_u) * gain * s_v (numpy's complex multiply
rounds differently).  ``gains``, the dict view of the same graph, is
built on first use.

Switching diagonals follow one rule: with the diagonal 1 at a first
vertex, each edge out of a vertex whose entry is known fixes the entry
at its other end.  ``normalize_spanning_tree`` applies it for target
gain 1 on the canonical BFS tree, and ``switching_equivalent`` compares
the two normal forms: they coincide exactly when a switch maps one
graph onto the other, and the witness is s1 * conj(s2) of the two
normalizing diagonals.  ``_diagonal_entry`` states the rule for the
isomorphism search, which prunes as soon as two edges disagree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

import numpy as np

from .errors import (
    Disconnected,
    DuplicateEdge,
    IndexOutOfRange,
    LengthMismatch,
    NonUnitGain,
    NotACycle,
    OrderMismatch,
    SelfLoop,
    SupportMismatch,
    Timeout,
)

NUMERIC_EQ_TOL = 1e-9
# node expansions a budgeted search may spend before it raises Timeout
SEARCH_BUDGET = 10_000_000


# -- unit gains -----------------------------------------------------------

_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0),
                  complex(-1.0, 0.0), complex(0.0, -1.0))


def _turn(a: Fraction) -> complex:
    """exp(2*pi*i*a) for an angle in [0, 1); exactly 1, i, -1, -i at quarter turns."""
    if 4 % a.denominator == 0:
        return _QUARTER_TURNS[4 * a.numerator // a.denominator]
    return complex(math.cos(2 * math.pi * a), math.sin(2 * math.pi * a))


def _unit_fault(z: complex, tol: float) -> Optional[str]:
    """Why z is not a unit gain: None if |z| is 1 within tol, else the message.  NaN fails."""
    r = abs(z)
    return None if abs(r - 1.0) <= tol else f"|z| = {r!r} is not 1 within {tol}"


class Gain:
    """A complex number of modulus one, exact or numeric.

    Exact gains are rotations by a rational angle p/q (in turns), kept in
    lowest terms with 0 <= p < q.  Products and conjugates of exact gains
    are exact; any operation that mixes in a numeric gain degrades to a
    numeric result.  An exact gain's complex value is computed from its
    angle by ``_turn`` when first read, so equal angles give equal values
    and gains hash by value.
    """

    __slots__ = ("angle", "_z")

    def __init__(self, angle: Optional[Fraction], z: Optional[complex] = None):
        self.angle = angle
        self._z = z

    @classmethod
    def exact(cls, p: int, q: int) -> "Gain":
        if q <= 0:
            raise NonUnitGain(f"denominator must be positive, got {q}")
        return cls(Fraction(p, q) % 1)

    @classmethod
    def numeric(cls, z: complex, tol: float = 1e-12) -> "Gain":
        z = complex(z)
        fault = _unit_fault(z, tol)
        if fault:
            raise NonUnitGain(fault)
        return cls(None, z)

    @property
    def value(self) -> complex:
        if self._z is None:
            self._z = _turn(self.angle)  # type: ignore[arg-type]
        return self._z

    @property
    def is_exact(self) -> bool:
        return self.angle is not None

    def conj(self) -> "Gain":
        if self.angle is not None:
            return Gain((-self.angle) % 1)
        return Gain(None, self._z.conjugate())

    def __mul__(self, other: "Gain") -> "Gain":
        if self.angle is not None and other.angle is not None:
            return Gain((self.angle + other.angle) % 1)
        return Gain(None, self.value * other.value)

    def __neg__(self) -> "Gain":
        return self * Gain.exact(1, 2)

    def close(self, other: "Gain", tol: float = NUMERIC_EQ_TOL) -> bool:
        """Equality up to tolerance; exact when both sides are exact."""
        if self.angle is not None and other.angle is not None:
            return self.angle == other.angle
        return abs(self.value - other.value) <= tol

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gain):
            return NotImplemented
        if self.angle is not None and other.angle is not None:
            return self.angle == other.angle
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        if self.angle is not None:
            return f"Gain.exact({self.angle.numerator}, {self.angle.denominator})"
        return f"Gain.numeric({self._z!r})"


ONE = Gain.exact(0, 1)
MINUS_ONE = Gain.exact(1, 2)
I_GAIN = Gain.exact(1, 4)


# -- edge arrays ------------------------------------------------------------------
#
# The helpers below act on the (k, z) arrays of GainGraph edge by edge as Gain
# acts on one gain, with the same bits (see the module docstring).

def _int_array(values, L: int) -> np.ndarray:
    """Exponents as int64, or as Python ints when L is too large for int64 sums."""
    # the object path is the only exact one past L = 2**62, and a test pins it
    return np.asarray(values, dtype=np.int64 if L < 2 ** 62 else object)


def _exponents(rotations: list[Optional[tuple[int, int]]]) -> tuple[np.ndarray, int]:
    """Exponents mod L of the rotations p/q in [0, 1), -1 for None, and L, the lcm of the q."""
    L = math.lcm(*{r[1] for r in rotations if r is not None})
    return _int_array([-1 if r is None else r[0] * (L // r[1]) for r in rotations], L), L


def _rescale(k: np.ndarray, L: int, to: int) -> np.ndarray:
    """Exponents mod L as exponents mod `to`, a multiple of L; -1 stays -1."""
    k = _int_array(k, to)
    return np.where(k >= 0, k * (to // L), -1)


@functools.lru_cache(maxsize=4096)
def _exact(j: int, L: int) -> Gain:
    """Gain.exact(j, L) with its value computed; equal arguments share one Gain."""
    angle = Fraction(j, L)
    return Gain(angle, _turn(angle))


def _roots(k: np.ndarray, L: int) -> np.ndarray:
    """exp(2*pi*i*k/L) for exponents 0 <= k < L, with the bits of Gain.exact(k, L).value."""
    return np.array([_exact(j, L)._z for j in k.tolist()], dtype=complex)


def _exact_values(k: np.ndarray, z: np.ndarray, L: int, exact: np.ndarray) -> np.ndarray:
    """z with its exact entries set from their exponents k mod L."""
    z[exact] = _roots(k[exact], L)
    return z


def _conj(k: np.ndarray, z: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Gain.conj, edge by edge."""
    exact = k >= 0
    k = np.where(exact, -k % L, -1)
    return k, _exact_values(k, z.conj(), L, exact)


def _mul(ka: np.ndarray, za: np.ndarray, kb: np.ndarray, zb: np.ndarray,
         L: int) -> tuple[np.ndarray, np.ndarray]:
    """Gain.__mul__, edge by edge: exact where both factors are."""
    exact = (ka >= 0) & (kb >= 0)
    k = np.where(exact, (ka + kb) % L, -1)
    return k, _exact_values(k, _cmul(za, zb), L, exact)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entry by entry, formed as Python forms a complex product.

    numpy's complex multiply rounds some products differently.
    """
    z = np.empty(len(a), dtype=complex)
    z.real = a.real * b.real - a.imag * b.imag
    z.imag = a.real * b.imag + a.imag * b.real
    return z


def _encode(gains: list) -> tuple[np.ndarray, np.ndarray, int]:
    """(k, z, L) of a list of gains; a value that is not a Gain is read as Gain.numeric."""
    gains = [x if isinstance(x, Gain) else Gain.numeric(x) for x in gains]
    k, L = _exponents([None if x.angle is None else (x.angle.numerator, x.angle.denominator)
                       for x in gains])
    return k, np.array([x.value for x in gains], dtype=complex), L


def _decode(k: np.ndarray, z: np.ndarray, L: int) -> list[Gain]:
    """The Gain of each entry; equal exact gains are one shared Gain."""
    return [Gain(None, w) if j < 0 else _exact(j, L) for j, w in zip(k.tolist(), z.tolist())]


def _check_unit(z: np.ndarray, tol: float) -> None:
    """_unit_fault on every entry, raising NonUnitGain at the first that fails."""
    r = np.hypot(z.real, z.imag)            # the bits of Python's abs
    unit = np.abs(r - 1.0) <= tol
    if np.count_nonzero(unit) < len(unit):
        raise NonUnitGain(_unit_fault(z[np.argmin(unit)].item(), tol))


# -- the graph type ---------------------------------------------------------

class GainGraph:
    """A simple graph with unit gains on its edges, stored as edge arrays.

    ``u`` and ``v`` hold the edges u < v in sorted order and ``z`` the value
    of the gain of each u -> v; the reverse orientation carries the
    conjugate and the diagonal is zero.  ``k`` holds each exact gain's
    exponent mod ``L`` (gain exp(2*pi*i*k/L)), and -1 for a numeric gain.
    Instances are immutable: the arrays are read-only, and ``gains``, a
    read-only mapping from (u, v) to the Gain of u -> v in sorted key
    order, is decoded from the arrays on first use.  ``GainGraph(n, gains)``
    takes such a mapping; a value that is not a Gain is read as Gain.numeric.
    """

    __slots__ = ("n", "u", "v", "k", "z", "L", "_gains")

    def __init__(self, n: int, gains: Optional[Mapping[tuple[int, int], Gain]] = None):
        keys = sorted(gains or ())
        pairs = np.array(keys, dtype=np.intp).reshape(-1, 2)
        u, v = pairs[:, 0].copy(), pairs[:, 1].copy()
        if not ((0 <= u) & (u < v) & (v < n)).all():
            raise IndexOutOfRange(f"gain keys must satisfy 0 <= u < v < {n}")
        self._fill(n, u, v, *_encode([gains[e] for e in keys]))  # type: ignore[index]

    def _fill(self, n: int, u: np.ndarray, v: np.ndarray, k: np.ndarray, z: np.ndarray,
              L: int) -> None:
        if n < 0:
            raise IndexOutOfRange(f"vertex count must be non-negative, got {n}")
        for a in (u, v, k, z):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (n, u, v, k, z, L, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GainGraph is immutable; cannot set {name}")

    def __reduce__(self):
        return _graph, (self.n, self.u, self.v, self.k, self.z, self.L)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GainGraph):
            return NotImplemented
        return self.n == other.n and self.gains == other.gains

    __hash__ = None     # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"GainGraph(n={self.n}, gains={dict(self.gains)!r})"

    @property
    def gains(self) -> Mapping[tuple[int, int], Gain]:
        if self._gains is None:
            keys = zip(self.u.tolist(), self.v.tolist())
            object.__setattr__(self, "_gains", MappingProxyType(
                dict(zip(keys, _decode(self.k, self.z, self.L)))))
        return self._gains

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.gains

    def gain(self, u: int, v: int) -> Gain:
        """Gain of the oriented edge u -> v."""
        if u < v:
            return self.gains[(u, v)]
        return self.gains[(v, u)].conj()

    def edges(self) -> Iterator[tuple[int, int, Gain]]:
        return zip(self.u.tolist(), self.v.tolist(), self.gains.values())

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        # in sorted edge order each list fills in increasing order
        for u, v in zip(self.u.tolist(), self.v.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        return np.bincount(np.concatenate([self.u, self.v]), minlength=self.n).tolist()

    def support(self) -> frozenset[frozenset[int]]:
        return frozenset(map(frozenset, zip(self.u.tolist(), self.v.tolist())))

    def matrix(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=complex)
        A[self.u, self.v] = self.z
        A[self.v, self.u] = self.z.conj()
        return A

    @property
    def is_exact(self) -> bool:
        return not (self.k < 0).any()


def _graph(n: int, u: np.ndarray, v: np.ndarray, k: np.ndarray, z: np.ndarray,
           L: int) -> GainGraph:
    """The graph of trusted arrays: edges u < v in sorted order, no repeats."""
    g = object.__new__(GainGraph)
    g._fill(n, u, v, k, z, L)
    return g


def _assemble(n: int, u: np.ndarray, v: np.ndarray, k: np.ndarray, z: np.ndarray,
              L: int) -> GainGraph:
    """The graph of the oriented edges u -> v with gains (k, z), checked as build checks."""
    bad = np.flatnonzero(~((0 <= u) & (u < n) & (0 <= v) & (v < n)) | (u == v))
    if bad.size:
        a, b = u[bad[0]].item(), v[bad[0]].item()
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRange(f"edge ({a},{b}) outside 0..{n - 1}")
        raise SelfLoop(f"self-loop at vertex {a}")
    g = _sorted(n, u, v, k, z, L)
    twice = np.flatnonzero((g.u[1:] == g.u[:-1]) & (g.v[1:] == g.v[:-1]))
    if twice.size:
        raise DuplicateEdge(f"edge {(g.u[twice[0]].item(), g.v[twice[0]].item())} given twice")
    return g


def _sorted(n: int, u: np.ndarray, v: np.ndarray, k: np.ndarray, z: np.ndarray,
            L: int) -> GainGraph:
    """The graph of the oriented edges u -> v, u != v, with gains (k, z)."""
    flip = u > v
    k, z = k.copy(), z.copy()
    k[flip], z[flip] = _conj(k[flip], z[flip], L)
    u, v = np.minimum(u, v), np.maximum(u, v)
    order = np.argsort(u * n + v)
    return _graph(n, u[order], v[order], k[order], z[order], L)


def build(n: int, edges: list[tuple[int, int, Gain]]) -> GainGraph:
    """Assemble a gain graph from an oriented edge list.

    Each item (u, v, g) declares gain g on the edge u -> v; the reverse
    direction gets conj(g).  Vertices are 0-indexed.
    """
    edges = list(edges)
    pairs = np.array([(a, b) for a, b, _ in edges], dtype=np.intp).reshape(-1, 2)
    return _assemble(n, pairs[:, 0].copy(), pairs[:, 1].copy(),
                     *_encode([x for _, _, x in edges]))


def from_matrix(A: np.ndarray) -> GainGraph:
    """Read a gain graph off a Hermitian matrix with unit-or-zero entries.

    The matrix must be square and Hermitian to 1e-9; 0 x 0 is the empty
    graph.  Entries of modulus at most 1e-8 are non-edges; the rest must
    be within 1e-6 of the unit circle and are normalized onto it.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LengthMismatch(f"need a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if not np.max(np.abs(A - A.conj().T), initial=0.0) <= 1e-9:
        raise NonUnitGain("matrix is not Hermitian")
    u, v = np.triu_indices(n, 1)
    w = A[u, v].astype(complex)
    r = np.hypot(w.real, w.imag)            # the bits of Python's abs
    edge = ~(r <= 1e-8)
    bad = np.flatnonzero(edge & ~(np.abs(r - 1.0) <= 1e-6))
    if bad.size:
        raise NonUnitGain(f"entry ({u[bad[0]]},{v[bad[0]]}) has modulus {r[bad[0]]}")
    return _unit_gains(n, u[edge], v[edge], w[edge])


def _unit_gains(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> GainGraph:
    """The numeric graph with gain w / |w| on each edge u < v, given in sorted order."""
    # lines_to_gain's rounding, so that the catalog graphs read off Gram matrices
    # keep their bits: numpy's scalar w / abs(w), which multiplies by 1 / hypot
    scale = 1.0 / np.hypot(w.real, w.imag)
    z = np.empty(len(w), dtype=complex)
    z.real = (w.real + w.imag * 0.0) * scale
    z.imag = (w.imag - w.real * 0.0) * scale
    return _graph(n, u, v, np.full(len(z), -1), z, 1)


# -- elementary operations ---------------------------------------------------

def cycle_gain(g: GainGraph, cycle: list[int]) -> complex:
    """Product of gains along a closed walk u1 -> u2 -> ... -> u1.

    The first vertex is not repeated at the end; interior vertices must
    be distinct and consecutive ones adjacent.
    """
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise NotACycle(f"{cycle} is not a simple cycle")
    out = ONE
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(a, b):
            raise NotACycle(f"({a},{b}) is not an edge")
        out = out * g.gain(a, b)
    return out.value


def _positions(g: GainGraph, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Where the edge {a, b} of each pair sits in g's arrays."""
    return np.searchsorted(g.u * g.n + g.v, [min(e) * g.n + max(e) for e in pairs])


def _switched(g: GainGraph, diagonal: list[Gain]) -> tuple[np.ndarray, np.ndarray, int]:
    """(k, z, L) of conj(s_u) * gain(u, v) * s_v, multiplied in that order."""
    ks, zs, Ls = _encode(diagonal)
    L = math.lcm(g.L, Ls)
    ks, k = _rescale(ks, Ls, L), _rescale(g.k, g.L, L)
    cks, czs = _conj(ks, zs, L)
    k, z = _mul(cks[g.u], czs[g.u], k, g.z, L)
    return (*_mul(k, z, ks[g.v], zs[g.v], L), L)


def switch(g: GainGraph, diagonal: list[Gain]) -> GainGraph:
    """Diagonal switching: gain'(u,v) = conj(s_u) * gain(u,v) * s_v."""
    if len(diagonal) != g.n:
        raise LengthMismatch(f"need {g.n} diagonal entries, got {len(diagonal)}")
    return _graph(g.n, g.u, g.v, *_switched(g, diagonal))


def converse(g: GainGraph) -> GainGraph:
    """Replace every gain by its conjugate (reverse all orientations)."""
    return _graph(g.n, g.u, g.v, *_conj(g.k, g.z, g.L), g.L)


def relabel(g: GainGraph, permutation: list[int]) -> GainGraph:
    """Rename vertex u to permutation[u]."""
    if sorted(permutation) != list(range(g.n)):
        raise LengthMismatch("not a permutation of the vertex set")
    p = np.array(permutation, dtype=np.intp)
    return _sorted(g.n, p[g.u], p[g.v], g.k, g.z, g.L)


def is_connected(g: GainGraph) -> bool:
    """Whether the support is connected; False for the empty graph."""
    try:
        _bfs_tree(g)
    except Disconnected:
        return False
    return True


# -- switching equivalence ----------------------------------------------------

@dataclass
class SwitchingWitness:
    """Recipe turning one graph into another.

    Apply as: take the converse if ``conjugated``, send vertex u to
    ``permutation[u]``, then switch by ``diagonal``.
    """

    permutation: list[int]
    diagonal: list[Gain]
    conjugated: bool = False


def apply_witness(g: GainGraph, w: SwitchingWitness) -> GainGraph:
    """The graph w turns g into: converse if conjugated, then relabel, then switch."""
    h = converse(g) if w.conjugated else g
    return switch(relabel(h, w.permutation), w.diagonal)


def _bfs_forest(g: GainGraph) -> list[tuple[int, int]]:
    """(parent, child) pairs in visit order of a BFS from each lowest
    unvisited vertex in turn, neighbors by index: one tree per component."""
    adj = g.neighbors()
    seen = [False] * g.n
    parent_edges = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:         # the loop reaches what it appends: a FIFO queue
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent_edges.append((u, v))
                    queue.append(v)
    return parent_edges


def _bfs_tree(g: GainGraph) -> list[tuple[int, int]]:
    """Canonical spanning tree: the BFS forest of a connected graph, rooted at 0.

    Raises Disconnected, also for the empty graph.
    """
    if g.n == 0:
        raise Disconnected("graph has no vertices")
    tree = _bfs_forest(g)
    if len(tree) != g.n - 1:
        raise Disconnected("graph is not connected")
    return tree


def normalize_spanning_tree(g: GainGraph) -> tuple[GainGraph, SwitchingWitness]:
    """Switch so that every canonical-BFS-tree edge carries gain 1.

    After this normalization the only remaining switching freedom on a
    connected graph is a global scalar, which acts trivially, so two
    graphs on the same support are switching equivalent exactly when
    their normalized forms coincide.
    """
    tree = _bfs_tree(g)
    at = _positions(g, tree)
    s = [ONE] * g.n
    # x is the gain of min(u, v) -> max(u, v); s[v] = s[u] * conj(gain(u -> v))
    for (u, v), x in zip(tree, _decode(g.k[at], g.z[at], g.L)):
        s[v] = s[u] * (x.conj() if u < v else x)
    k, z, L = _switched(g, s)
    # the switch leaves 1 on the tree up to rounding; write the exact 1
    k[at], z[at] = 0, ONE.value
    return _graph(g.n, g.u, g.v, k, z, L), SwitchingWitness(list(range(g.n)), s, False)


def _diagonal_entry(dw: Gain, hwu: Gain, gwv: Gain) -> Gain:
    """d_v with conj(d_w) * hwu * d_v = gwv; the isomorphism search's diagonal rule."""
    return dw * hwu.conj() * gwv


def _agree(g: GainGraph, h: GainGraph, tol: float) -> bool:
    """Whether every gain of g is Gain.close to h's on the same edge; one support."""
    common = math.lcm(g.L, h.L)
    k, kh = _rescale(g.k, g.L, common), _rescale(h.k, h.L, common)
    d = g.z - h.z
    return bool(np.where((k >= 0) & (kh >= 0), k == kh, np.hypot(d.real, d.imag) <= tol).all())


def switching_equivalent(g1: GainGraph, g2: GainGraph) -> Optional[SwitchingWitness]:
    """Witness that a diagonal switch alone maps g1 onto g2, if one exists.

    Numeric gains match when they lie within NUMERIC_EQ_TOL of each other.
    """
    if g1.n != g2.n or not (np.array_equal(g1.u, g2.u) and np.array_equal(g1.v, g2.v)):
        raise SupportMismatch("graphs must share their underlying support")
    (h1, w1), (h2, w2) = normalize_spanning_tree(g1), normalize_spanning_tree(g2)
    if not _agree(h1, h2, NUMERIC_EQ_TOL):
        return None
    # conj(s1_u) g1 s1_v = conj(s2_u) g2 s2_v, so d = s1 * conj(s2) switches g1 onto g2
    return SwitchingWitness(list(range(g1.n)),
                            [a * b.conj() for a, b in zip(w1.diagonal, w2.diagonal)], False)


class _Budget:
    """Node expansions left to a budgeted search; Timeout once they run out."""

    def __init__(self, limit: int, search: str):
        if limit < 0:
            raise ValueError(f"{search} budget must be non-negative, got {limit}")
        self.left = limit
        self.limit = limit
        self.search = search

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise Timeout(f"{self.search} exceeded {self.limit} expansions")


def _neighbor_degree_key(adj: list[list[int]], deg: list[int], u: int) -> tuple:
    return (deg[u], tuple(sorted(deg[v] for v in adj[u])))


def switching_isomorphic(g1: GainGraph, g2: GainGraph,
                         budget: int = SEARCH_BUDGET,
                         tol: float = NUMERIC_EQ_TOL) -> Optional[SwitchingWitness]:
    """Search for a switching isomorphism (switch + relabel + optional converse).

    Backtracks over support isomorphisms with degree-based pruning while
    fixing the diagonal, indexed by g2's vertices, as vertices are placed:
    a vertex's first placed neighbour fixes the entry at its image, and
    the image is pruned unless every other placed neighbour agrees within
    ``tol``.  Runs on g1, then on its converse, with one node-expansion
    budget for both; Timeout is *not* a proof of non-isomorphism.
    ValueError unless 0 <= tol < inf.
    """
    if not 0 <= tol < math.inf:     # NaN fails it
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if g1.n != g2.n:
        raise OrderMismatch(f"orders differ: {g1.n} vs {g2.n}")
    if not is_connected(g1) or not is_connected(g2):
        raise Disconnected("both graphs must be connected")
    adj1, adj2 = g1.neighbors(), g2.neighbors()
    deg1, deg2 = g1.degrees(), g2.degrees()
    keys1 = [_neighbor_degree_key(adj1, deg1, u) for u in range(g1.n)]
    keys2 = [_neighbor_degree_key(adj2, deg2, u) for u in range(g2.n)]
    if sorted(keys1) != sorted(keys2):
        return None

    set1 = [set(a) for a in adj1]
    # g2's gains out of each vertex, keyed by neighbour in index order
    out2 = [{v: g2.gain(x, v) for v in adj2[x]} for x in range(g2.n)]
    same_key: dict[tuple, set[int]] = {}
    for v, key in enumerate(keys2):
        same_key.setdefault(key, set()).add(v)

    # order g1's vertices so each one (after the first) touches the mapped part
    start = max(range(g1.n), key=lambda u: deg1[u])
    order = [start]
    placed = {start}
    while len(order) < g1.n:
        nxt = max(
            (u for u in range(g1.n) if u not in placed),
            key=lambda u: (len(set1[u] & placed), deg1[u]),
        )
        order.append(nxt)
        placed.add(nxt)

    budget_left = _Budget(budget, "isomorphism search")
    for conjugated in (False, True):
        h = converse(g1) if conjugated else g1
        # position i: the g2 vertices with its key, whether each earlier position
        # neighbours it, and (j, h(order[j] -> order[i])) for each j < i that does
        plan = [(same_key[keys1[u]], [w in set1[u] for w in order[:i]],
                 [(j, h.gain(w, u)) for j, w in enumerate(order[:i]) if w in set1[u]])
                for i, u in enumerate(order)]
        images = [0] * g1.n
        d: list[Optional[Gain]] = [None] * g2.n
        if _place(0, plan, out2, images, d, budget_left, tol):
            perm = [v for _, v in sorted(zip(order, images))]
            return SwitchingWitness(perm, d, conjugated)  # type: ignore[arg-type]
    return None


def _place(i: int, plan: list, out2: list[dict[int, Gain]], images: list[int],
           d: list[Optional[Gain]], budget: _Budget, tol: float) -> bool:
    """Map positions i, i+1, ... of the order onto g2 vertices v with d[v] None.

    images[j] is the image of position j < i.  The first placed neighbour
    fixes d at the image (1 for none); the others must agree within tol.
    """
    if i == len(plan):
        return True
    fits, adjacent, links = plan[i]
    # only neighbours of the image of the first placed neighbour can pass
    for v in out2[images[links[0][0]]] if i else range(len(d)):
        if d[v] is not None or v not in fits:
            continue
        row = out2[v]
        if any(a != (x in row) for a, x in zip(adjacent, images)):
            continue
        budget.spend()
        implied = (_diagonal_entry(d[images[j]], hwu, out2[images[j]][v]) for j, hwu in links)
        dv = next(implied, ONE)
        if not all(x.close(dv, tol) for x in implied):
            continue
        images[i] = v
        d[v] = dv
        if _place(i + 1, plan, out2, images, d, budget, tol):
            return True
        d[v] = None
    return False


# -- structural statistics --------------------------------------------------

@dataclass
class StructureStats:
    degrees: list[int]
    is_regular: bool
    is_bipartite: bool
    triangle_free: bool
    triangles_per_edge: dict[tuple[int, int], int]
    common_neighbors: dict[tuple[int, int], int]  # nonadjacent pairs only


def structure_stats(g: GainGraph) -> StructureStats:
    """Degrees, regularity, bipartiteness, and triangle and common-neighbour counts."""
    adj = [set(a) for a in g.neighbors()]
    deg = g.degrees()
    edges = list(zip(g.u.tolist(), g.v.tolist()))
    tri = {(u, v): len(adj[u] & adj[v]) for u, v in edges}
    common = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in adj[u]:
                common[(u, v)] = len(adj[u] & adj[v])
    # 2-colour along the BFS forest; bipartite when no edge joins equal colours
    color = [0] * g.n
    for u, v in _bfs_forest(g):
        color[v] = color[u] ^ 1
    bipartite = all(color[u] != color[v] for u, v in edges)
    return StructureStats(
        degrees=deg,
        is_regular=len(set(deg)) <= 1,
        is_bipartite=bipartite,
        triangle_free=all(t == 0 for t in tri.values()),
        triangles_per_edge=tri,
        common_neighbors=common,
    )


def max_coclique(g: GainGraph) -> tuple[int, list[int]]:
    """Exact maximum independent set of the support, by branch and bound.

    Each node covers its candidates greedily by cliques of the support;
    an independent set takes at most one vertex from each, so the number
    of cliques bounds what a branch can add (Tomita and Seki's colouring
    bound, on the complement).  Raises Timeout past SEARCH_BUDGET node
    expansions.
    """
    nbr = [0] * g.n
    for u, v in zip(g.u.tolist(), g.v.tolist()):
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    size, members = _coclique_search(nbr, (1 << g.n) - 1, 0, 0, (0, 0),
                                     _Budget(SEARCH_BUDGET, "coclique search"))
    return size, list(_bits(members))


def _coclique_search(nbr: list[int], cand: int, members: int, size: int,
                     best: tuple[int, int], budget: _Budget) -> tuple[int, int]:
    """The larger of best and the largest independent set that adds
    candidates from cand to members (size vertices), as (size, bitset)."""
    budget.spend()
    if size > best[0]:
        best = (size, members)
    # (v, k): v lies in the k-th clique of a greedy cover of cand
    cover = []
    k = 0
    rest = cand
    while rest:
        k += 1
        clique = rest
        while clique:
            v = (clique & -clique).bit_length() - 1
            cover.append((v, k))
            rest ^= 1 << v
            clique &= nbr[v]
    # the candidates left when v is reached all lie in the first k
    # cliques, so a branch from v adds at most k vertices
    for v, k in reversed(cover):
        if size + k <= best[0]:
            break
        bit = 1 << v
        best = _coclique_search(nbr, cand & ~nbr[v] & ~bit, members | bit, size + 1,
                                best, budget)
        cand ^= bit
    return best


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
