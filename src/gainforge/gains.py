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

Switching diagonals follow one rule: with the diagonal 1 at a first
vertex, each edge out of a vertex whose entry is known fixes the entry
at its other end.  ``_diagonal_entry`` states it for the equivalence and
isomorphism searches, and the latter prunes as soon as two edges
disagree.  ``normalize_spanning_tree`` writes it out for target gain 1,
which saves a ``Gain`` product per tree edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

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
        if not abs(abs(z) - 1.0) <= tol:      # NaN fails too
            raise NonUnitGain(f"|z| = {abs(z)!r} is not 1 within {tol}")
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


# -- the graph type ---------------------------------------------------------

@dataclass
class GainGraph:
    """A simple graph with unit gains on its edges.

    ``gains`` maps (u, v) with u < v to the gain of the oriented edge
    u -> v; the reverse orientation is implied by conjugation.  The
    diagonal is implicitly zero.  Treat instances as immutable.
    """

    n: int
    gains: dict[tuple[int, int], Gain] = field(default_factory=dict)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.gains

    def gain(self, u: int, v: int) -> Gain:
        """Gain of the oriented edge u -> v."""
        if u < v:
            return self.gains[(u, v)]
        return self.gains[(v, u)].conj()

    def edges(self) -> Iterator[tuple[int, int, Gain]]:
        for (u, v), g in sorted(self.gains.items()):
            yield u, v, g

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self.gains:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.gains:
            deg[u] += 1
            deg[v] += 1
        return deg

    def support(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(e) for e in self.gains)

    def matrix(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=complex)
        for (u, v), g in self.gains.items():
            A[u, v] = g.value
            A[v, u] = g.value.conjugate()
        return A

    @property
    def is_exact(self) -> bool:
        return all(g.is_exact for g in self.gains.values())


def build(n: int, edges: list[tuple[int, int, Gain]]) -> GainGraph:
    """Assemble a gain graph from an oriented edge list.

    Each item (u, v, g) declares gain g on the edge u -> v; the reverse
    direction gets conj(g).  Vertices are 0-indexed.
    """
    gains: dict[tuple[int, int], Gain] = {}
    for u, v, g in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not isinstance(g, Gain):
            g = Gain.numeric(g)
        key = (u, v) if u < v else (v, u)
        if key in gains:
            raise DuplicateEdge(f"edge {key} given twice")
        gains[key] = g if u < v else g.conj()
    return GainGraph(n, gains)


def from_matrix(A: np.ndarray) -> GainGraph:
    """Read a gain graph off a Hermitian matrix with unit-or-zero entries.

    The matrix must be Hermitian to 1e-9.  Entries of modulus at most
    1e-8 are non-edges; the rest must be within 1e-6 of the unit circle
    and are normalized onto it.
    """
    n = A.shape[0]
    if not np.max(np.abs(A - A.conj().T)) <= 1e-9:
        raise NonUnitGain("matrix is not Hermitian")
    gains: dict[tuple[int, int], Gain] = {}
    for u in range(n):
        for v in range(u + 1, n):
            z = complex(A[u, v])
            r = abs(z)
            if r <= 1e-8:
                continue
            if not abs(r - 1.0) <= 1e-6:
                raise NonUnitGain(f"entry ({u},{v}) has modulus {r}")
            gains[(u, v)] = Gain.numeric(z / r)
    return GainGraph(n, gains)


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


def switch(g: GainGraph, diagonal: list[Gain]) -> GainGraph:
    """Diagonal switching: gain'(u,v) = conj(s_u) * gain(u,v) * s_v."""
    if len(diagonal) != g.n:
        raise LengthMismatch(f"need {g.n} diagonal entries, got {len(diagonal)}")
    new = {}
    for (u, v), gn in g.gains.items():
        new[(u, v)] = diagonal[u].conj() * gn * diagonal[v]
    return GainGraph(g.n, new)


def converse(g: GainGraph) -> GainGraph:
    """Replace every gain by its conjugate (reverse all orientations)."""
    return GainGraph(g.n, {e: gn.conj() for e, gn in g.gains.items()})


def relabel(g: GainGraph, permutation: list[int]) -> GainGraph:
    """Rename vertex u to permutation[u]."""
    if sorted(permutation) != list(range(g.n)):
        raise LengthMismatch("not a permutation of the vertex set")
    new = {}
    for (u, v), gn in g.gains.items():
        a, b = permutation[u], permutation[v]
        new[(a, b) if a < b else (b, a)] = gn if a < b else gn.conj()
    return GainGraph(g.n, new)


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
    s = [ONE] * g.n
    for u, v in tree:
        s[v] = s[u] * g.gain(u, v).conj()
    normalized = switch(g, s)
    for u, v in tree:
        normalized.gains[(min(u, v), max(u, v))] = ONE
    return normalized, SwitchingWitness(list(range(g.n)), s, False)


def _diagonal_entry(dw: Gain, hwu: Gain, gwv: Gain) -> Gain:
    """d_v with conj(d_w) * hwu * d_v = gwv: the switch sending w -> u onto w' -> v."""
    return dw * hwu.conj() * gwv


def switching_equivalent(g1: GainGraph, g2: GainGraph) -> Optional[SwitchingWitness]:
    """Witness that a diagonal switch alone maps g1 onto g2, if one exists.

    Numeric gains match when they lie within NUMERIC_EQ_TOL of each other.
    """
    if g1.n != g2.n or g1.support() != g2.support():
        raise SupportMismatch("graphs must share their underlying support")
    d = [ONE] * g1.n
    for u, v in _bfs_tree(g1):
        d[v] = _diagonal_entry(d[u], g1.gain(u, v), g2.gain(u, v))
    if not all(gn.close(g2.gains[e]) for e, gn in switch(g1, d).gains.items()):
        return None
    return SwitchingWitness(list(range(g1.n)), d, False)


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
    """
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
    adj = [set(a) for a in g.neighbors()]
    deg = g.degrees()
    tri = {e: len(adj[e[0]] & adj[e[1]]) for e in g.gains}
    common = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in adj[u]:
                common[(u, v)] = len(adj[u] & adj[v])
    # 2-colour along the BFS forest; bipartite when no edge joins equal colours
    color = [0] * g.n
    for u, v in _bfs_forest(g):
        color[v] = color[u] ^ 1
    bipartite = all(color[u] != color[v] for u, v in g.gains)
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
    for (u, v) in g.gains:
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
