"""Named two-eigenvalue gain graphs and the families that generate them.

Weighing matrices (WW* = kI) are the seed: their bipartite doubles and
the three doubling constructions below turn a square root of kI into
larger two-eigenvalue graphs, and the cyclic/toral constructions cover
the 4- and 5-regular families.  Everything with root-of-unity gains is
built with exact gains so that the weighing identities can be verified
with zero residual; the one family with inherently irrational gains
(quadratic-residue graphs on a Gaussian prime) is numeric.

``catalog()`` is the immutable registry of every named example together
with its expected spectrum; ``catalog_verify_all`` rebuilds and certifies
every entry.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import lines
from .cyclotomic import _vanishes
from .errors import (
    BadParam,
    EmptyGraph,
    GainForgeError,
    InvalidOrder,
    NotAWeighingMatrix,
    NotGaussianPrime,
    NotSquareRootOfkI,
    UnknownName,
)
from .gains import (Gain, GainGraph, ONE, MINUS_ONE, I_GAIN, _encode, build, from_matrix,
                    is_connected)
from .spectral import certify_two_ev

PHI = Gain.exact(1, 3)      # primitive third root of unity
PHI_BAR = Gain.exact(2, 3)

Entry = Optional[Gain]


# -- weighing matrices -------------------------------------------------------

@dataclass
class WeighingMatrix:
    """n x n matrix of unit gains and zeros with WW* = W*W = kI."""

    n: int
    entries: list[list[Entry]]
    weight: int

    def matrix(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e is not None:
                    A[i, j] = e.value
        return A

    @property
    def is_exact(self) -> bool:
        return all(e.is_exact for row in self.entries for e in row if e is not None)


def make_weighing(entries: list[list[Entry]]) -> WeighingMatrix:
    """The weighing matrix of a square array of gains and zeros (None), validated:
    one row and column weight k, and WW* = kI -- exactly (``cyclotomic._vanishes``)
    when every entry is exact, else to 1e-9 in each entry."""
    n = len(entries)
    if n == 0:
        raise NotAWeighingMatrix("the array is empty")
    if any(len(row) != n for row in entries):
        raise NotAWeighingMatrix(f"need {n} rows of {n} entries: {[len(r) for r in entries]}")
    if bad := [e for row in entries for e in row if e is not None and not isinstance(e, Gain)]:
        raise NotAWeighingMatrix(f"entries must be Gains or None, not {bad[0]!r}")
    present = np.array([[e is not None for e in row] for row in entries])
    weights = set(present.sum(axis=0).tolist()) | set(present.sum(axis=1).tolist())
    if len(weights) != 1:
        raise NotAWeighingMatrix(f"row/column weights differ: {sorted(weights)}")
    W = WeighingMatrix(n, entries, weights.pop())
    exponents, _, L = _encode([e for row in entries for e in row if e is not None])
    if (exponents >= 0).all():      # no numeric gain (-1)
        K = np.zeros((n, n), dtype=exponents.dtype)     # exponents mod L
        K[present] = exponents
        # (WW*)[i][i] is k terms 1; (WW*)[i][j] for i < j sums zeta_L^(K[i,h] - K[j,h])
        # over the columns h both rows use, and (WW*)[j][i], its conjugate, comes later
        i, j, h = np.nonzero(present[:, None] & present[None, :])
        up = i < j
        d = ((K[i, h] - K[j, h])[up] % L).tolist()
        cuts = np.searchsorted(i[up] * n + j[up], np.arange(n * n + 1)).tolist()
        ok = _vanishes(d, [1] * len(d), L, cuts)     # one sum per (i, j), row-major
        if not all(ok):
            raise NotAWeighingMatrix("(WW*)[{}][{}] is off".format(*divmod(ok.index(False), n)))
    else:
        A = W.matrix()
        S = A @ A.conj().T
        off = np.flatnonzero(np.abs(S - W.weight * np.eye(n)) > 1e-9)
        if len(off):
            raise NotAWeighingMatrix("(WW*)[{}][{}] = {}".format(*divmod(off[0], n), S.flat[off[0]]))
    return W


def cm_weighing(first_row: list[Entry]) -> WeighingMatrix:
    """Circulant matrix from its first row, validated as a weighing matrix."""
    n = len(first_row)
    entries = [[first_row[(j - i) % n] for j in range(n)] for i in range(n)]
    return make_weighing(entries)


def _parse_row(tokens: str, x: Optional[Gain] = None) -> list[Entry]:
    base: dict[str, Entry] = {
        "0": None, "1": ONE, "-1": MINUS_ONE,
        "i": I_GAIN, "-i": I_GAIN.conj(),
        "f": PHI, "F": PHI_BAR,
    }
    if x is not None:
        base.update({"x": x, "-x": -x, "X": x.conj(), "-X": -(x.conj())})
    return [base[t] for t in tokens.split()]


def _parse_matrix(rows: list[str], x: Optional[Gain] = None) -> list[list[Entry]]:
    return [_parse_row(r, x) for r in rows]


_Z_ROWS = [
    "1  1  1  1  1  0",
    "1 -X -1  X  0 -x",
    "1 -1  x  0 -x  x",
    "1  X  0 -X -1 -x",
    "1  0 -x -1  x  x",
    "0  X -X  X -X  1",
]


def named_weighing(name: str, x: Optional[Gain] = None) -> WeighingMatrix:
    """The small library of unit weighing matrices: W2, W3, W4, W5, W7, Z.

    ``Z`` takes a free unit parameter x and has weight 5; W4 is the
    Hermitian zero-diagonal one of weight 3; W5 and W7 are circulant.
    """
    if name == "W2":
        return make_weighing(_parse_matrix(["1 1", "1 -1"]))
    if name == "W3":
        return make_weighing(_parse_matrix(["1 1 1", "1 f F", "1 F f"]))
    if name == "W4":
        return make_weighing(_parse_matrix([
            "0  1  1  1",
            "1  0  i -i",
            "1 -i  0  i",
            "1  i -i  0",
        ]))
    if name == "W5":
        return cm_weighing(_parse_row("0 1 f f 1"))
    if name == "W7":
        return cm_weighing(_parse_row("-1 1 1 0 1 0 0"))
    if name == "Z":
        if x is None:
            x = ONE
        return make_weighing(_parse_matrix(_Z_ROWS, x))
    raise UnknownName(f"no weighing matrix named {name!r}")


# -- doubling constructions ---------------------------------------------------

def _graph_from_entries(entries: list[list[Entry]]) -> GainGraph:
    n = len(entries)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if entries[u][v] is not None:
                edges.append((u, v, entries[u][v]))
    return build(n, edges)


def ig(W: WeighingMatrix) -> GainGraph:
    """Bipartite double [[0, B], [B*, 0]]; eigenvalues +-sqrt(weight)."""
    n = W.n
    edges = [
        (i, n + j, W.entries[i][j])
        for i in range(n)
        for j in range(n)
        if W.entries[i][j] is not None
    ]
    g = build(2 * n, edges)
    if not is_connected(g):
        warnings.warn("weighing matrix is reducible; IG is disconnected")
    return g


def double(g: GainGraph, kind: str) -> GainGraph:
    """Grow a gain graph whose matrix W squares to kI: ND -> +-sqrt(k+1),
    SD -> +-sqrt(2k), SDstar -> +-sqrt(2k+1)."""
    if kind not in ("ND", "SD", "SDstar"):
        raise UnknownName(f"kind must be ND, SD or SDstar, not {kind!r}")
    if g.n == 0:
        raise EmptyGraph("cannot double a graph with no vertices")
    A = g.matrix()
    sq = A @ A
    k = sq[0, 0].real
    if np.max(np.abs(sq - k * np.eye(g.n))) > 1e-9 or abs(k - round(k)) > 1e-9:
        raise NotSquareRootOfkI("input does not satisfy W^2 = kI")
    n = g.n
    edges: list[tuple[int, int, Gain]] = []
    for (u, v), e in g.gains.items():
        edges += [(u, v, e), (n + u, n + v, -e)]                   # W, -W blocks
        if kind in ("SD", "SDstar"):
            edges += [(u, n + v, e), (v, n + u, e.conj())]         # W off-block
    if kind == "ND":
        edges += [(u, n + u, ONE) for u in range(n)]
    elif kind == "SDstar":
        edges += [(u, n + u, I_GAIN) for u in range(n)]
    return build(2 * n, edges)


# -- cyclic families ----------------------------------------------------------

def _toral_graph(t: int, x: Gain, spokes: bool) -> GainGraph:
    """[[C + C*, C - C*], [(C - C*)*, -C - C*]] for the directed t-cycle C
    with gains (1, ..., 1, x), plus the identity spokes when asked."""
    if t < 3:
        raise InvalidOrder(f"need t >= 3, got {t}")
    edges = []
    for j in range(t):
        h, g = (j + 1) % t, (ONE if j < t - 1 else x)
        edges += [(j, h, g), (t + j, t + h, -g),             # C + C*, -C - C*
                  (j, t + h, g), (h, t + j, -(g.conj()))]    # C - C*
        if spokes:
            edges.append((j, t + j, ONE))
    return build(2 * t, edges)


def toral(t: int, x: Gain) -> GainGraph:
    """Toral tessellation graph on 2t vertices: 4-regular, eigenvalues +-2."""
    return _toral_graph(t, x, spokes=False)


def donut(t: int, x: Gain) -> GainGraph:
    """The order-2t donut: toral blocks plus identity spokes; 5-regular, +-sqrt(5)."""
    return _toral_graph(t, x, spokes=True)


def d8_star(c: Gain) -> GainGraph:
    """The exceptional 5-regular order-8 graph (not a donut for generic c).

    Its triangles carry gains +-c, whereas order-8 donut triangles carry
    +-1; that invariant separates the two switching classes.
    """
    edges = [
        (0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (0, 3, ONE),
        (4, 5, MINUS_ONE), (5, 6, MINUS_ONE), (6, 7, MINUS_ONE), (4, 7, MINUS_ONE),
        (0, 4, ONE), (1, 5, ONE), (2, 6, ONE), (3, 7, ONE),
        (0, 5, c), (6, 1, c), (2, 7, c), (4, 3, c),
        (0, 7, -c), (4, 1, -c), (2, 5, -c), (6, 3, -c),
    ]
    return build(8, edges)


# -- quadratic-residue family ---------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def renes(p: int) -> GainGraph:
    """Equiangular gain graph on K_p from quadratic residues, p prime = 3 mod 4.

    A = (p+1)^(-1/2) (I - J - i sqrt(p) M) with M the antisymmetric
    residue sign matrix; eigenvalues sqrt(p+1) (multiplicity (p-1)/2)
    and -(p-1)/sqrt(p+1).  Gains are numeric (irrational angles).
    """
    if not _is_prime(p) or p % 4 != 3:
        raise NotGaussianPrime(f"{p} is not a prime congruent to 3 mod 4")
    residues = {(x * x) % p for x in range(1, p)}
    s = math.sqrt(p + 1.0)
    edges = []
    for j in range(p):
        for h in range(j + 1, p):
            sign = 1.0 if (h - j) % p in residues else -1.0
            z = (-1.0 - 1j * math.sqrt(p) * sign) / s
            edges.append((j, h, Gain.numeric(z, tol=1e-12)))
    return build(p, edges)


def k_star_pqr(p: int, q: int, r: int) -> GainGraph:
    """Complete tripartite gain graph whose triangles all have gain i.

    One representative of the switching class: gain 1 on the first two
    part-pairs and gain i on edges oriented from the third part back to
    the first.  Rank 2; nonzero eigenvalues +-sqrt(pq+qr+rp).
    """
    P = range(p)
    Q = range(p, p + q)
    R = range(p + q, p + q + r)
    edges = [(u, v, ONE) for u in P for v in Q]
    edges += [(u, v, ONE) for u in Q for v in R]
    edges += [(w, u, I_GAIN) for w in R for u in P]
    return build(p + q + r, edges)


def complete(n: int) -> GainGraph:
    """K_n with every gain 1: eigenvalues {n-1, -1^(n-1)}."""
    return build(n, [(u, v, ONE) for u in range(n) for v in range(u + 1, n)])


# -- literal fixtures ----------------------------------------------------------

_K222_ROWS = [
    " 0  0 -i  i  1  1",
    " 0  0  1  1 -1  1",
    " i  1  0  0 -X  x",
    "-i  1  0  0 -x  X",
    " 1 -1 -x -X  0  0",
    " 1  1  X  x  0  0",
]

_K8STAR_ROWS = [
    "0 1 1 1 1 1 1 1",
    "1 0 i -i i -i i -i",
    "1 -i 0 -i -i i i i",
    "1 i i 0 -i -i -i i",
    "1 -i i i 0 i -i -i",
    "1 i -i i -i 0 i -i",
    "1 -i -i i i -i 0 i",
    "1 i -i -i i i -i 0",
]

_K10STAR_ROWS = [
    "0 1 1 1 1 1 1 1 1 1",
    "1 0 -1 -1 1 1 -1 -1 1 1",
    "1 -1 0 1 1 -1 1 -1 -1 1",
    "1 -1 1 0 -1 -1 -1 1 1 1",
    "1 1 1 -1 0 -1 1 -1 1 -1",
    "1 1 -1 -1 -1 0 1 1 -1 1",
    "1 -1 1 -1 1 1 0 1 -1 -1",
    "1 -1 -1 1 -1 1 1 0 1 -1",
    "1 1 -1 1 1 -1 -1 1 0 -1",
    "1 1 1 1 -1 1 -1 -1 -1 0",
]

_M1_ROWS = [
    "0 1 0 0 0 1 1 1 0 0 0 1",
    "1 0 1 0 0 0 1 -1 1 0 0 0",
    "0 1 0 1 0 0 0 -1 -1 1 0 0",
    "0 0 1 0 1 0 0 0 -1 -1 1 0",
    "0 0 0 1 0 x 0 0 0 -1 -1 -x",
    "1 0 0 0 X 0 -1 0 0 0 -X 1",
    "1 1 0 0 0 -1 0 1 0 0 0 -1",
    "1 -1 -1 0 0 0 1 0 -1 0 0 0",
    "0 1 -1 -1 0 0 0 -1 0 -1 0 0",
    "0 0 1 -1 -1 0 0 0 -1 0 -1 0",
    "0 0 0 1 -1 -x 0 0 0 -1 0 x",
    "1 0 0 0 -X 1 -1 0 0 0 X 0",
]

_M3_ROWS = [
    "0 0 0 0 1 0 0 1 1 0 1 1",
    "0 0 0 0 1 0 0 1 0 1 -1 -1",
    "0 0 0 0 0 1 1 0 -x x x 0",
    "0 0 0 0 0 1 1 0 x -x 0 -x",
    "1 1 0 0 0 0 1 0 0 0 -x x",
    "0 0 1 1 0 0 0 -1 1 1 0 0",
    "0 0 1 1 1 0 0 0 -1 -1 0 0",
    "1 1 0 0 0 -1 0 0 0 0 x -x",
    "1 0 -X X 0 1 -1 0 0 0 0 0",
    "0 1 X -X 0 1 -1 0 0 0 0 0",
    "1 -1 X 0 -X 0 0 X 0 0 0 0",
    "1 -1 0 -X X 0 0 -X 0 0 0 0",
]

_M4_ROWS = [
    "0 0 0 1 0 0 1 0 1 1 1 0",
    "0 0 0 0 1 0 1 1 0 0 -1 1",
    "0 0 0 0 0 1 1 -1 0 0 -1 -1",
    "1 0 0 0 0 0 i 0 -i -i i 0",
    "0 1 0 0 0 0 0 -i i -i 0 i",
    "0 0 1 0 0 0 0 i i -i 0 -i",
    "1 1 1 -i 0 0 0 0 0 i 0 0",
    "0 1 -1 0 i -i 0 0 0 0 0 -i",
    "1 0 0 i -i -i 0 0 0 0 -i 0",
    "1 0 0 i i i -i 0 0 0 0 0",
    "1 -1 -1 -i 0 0 0 0 i 0 0 0",
    "0 1 -1 0 -i i 0 i 0 0 0 0",
]


def k222_gamma() -> GainGraph:
    """Octahedral gain graph with spectrum {2 sqrt(2) ^2, -sqrt(2) ^4}.

    Arises from three mutually unbiased bases of C^2.  The mixed gain is
    the primitive eighth root of unity; only it and its conjugate close
    the square identity, so there is no free parameter here.
    """
    return _graph_from_entries(_parse_matrix(_K222_ROWS, Gain.exact(1, 8)))


def example_1() -> GainGraph:
    """Order-7 equiangular-line graph, (1/4) sqrt(2) (I - J - i sqrt(7) (N - N^T))."""
    N = np.zeros((7, 7))
    row = [0, 1, 1, 0, 1, 0, 0]
    for j in range(7):
        for h in range(7):
            N[j, h] = row[(h - j) % 7]
    A = (math.sqrt(2.0) / 4.0) * (np.eye(7) - np.ones((7, 7)) - 1j * math.sqrt(7.0) * (N - N.T))
    return from_matrix(A)


# -- the registry --------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A named graph with its expected two-eigenvalue spectrum.

    ``expected_spectrum`` is ((theta1, m1), (theta2, m2)); ``parameters``
    names the free unit-gain slots of ``build``, which takes exactly
    those keywords (sampled by the batch verifier).  ``tags`` group
    entries for report filtering.
    """

    name: str
    order: int
    degree: int
    expected_spectrum: tuple[tuple[float, int], tuple[float, int]]
    build: Callable[..., GainGraph]
    parameters: tuple[str, ...] = ()
    tags: frozenset = frozenset()
    note: str = ""


def _lines_graph(geometry: str, **params) -> GainGraph:
    """The gain graph of a named line geometry, read at its declared angle."""
    system = lines.geometry_lines(geometry, **params)
    return lines.lines_to_gain(system, system.declared_angle)


def _spec(t1: float, m1: int, t2: float, m2: int):
    return ((t1, m1), (t2, m2))


_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SQRT7 = math.sqrt(7.0)


def _catalog_entries() -> list[CatalogEntry]:
    # builders look their constructions up when called, not when the
    # catalog is made, so a function replaced on the module (a tracer's
    # wrapper, say) is the one that runs
    E = CatalogEntry

    def complete_entry(n: int) -> CatalogEntry:
        return E(f"K{n}", n, n - 1, _spec(float(n - 1), 1, -1.0, n - 1),
                 lambda: complete(n),
                 tags=frozenset({"table2", "complete"} | ({"table3"} if n <= 4 else set())
                                | ({"degree4", "table3"} if n == 5 else set())),
                 note="all-ones complete graph")

    entries = [
        # least multiplicity at most 3
        *[complete_entry(n) for n in (3, 4, 5, 6, 7)],
        E("IG(W2)", 4, 2, _spec(_SQRT2, 2, -_SQRT2, 2),
          lambda: ig(named_weighing("W2")),
          tags=frozenset({"table2", "table3"}), note="bipartite double of W2"),
        E("W4", 4, 3, _spec(_SQRT3, 2, -_SQRT3, 2),
          lambda: _graph_from_entries(named_weighing("W4").entries),
          tags=frozenset({"table2", "table3"}), note="graphical weight-3 weighing matrix"),
        E("K222_gamma", 6, 4, _spec(2 * _SQRT2, 2, -_SQRT2, 4),
          lambda: k222_gamma(),
          tags=frozenset({"table2", "table3", "degree4"}),
          note="octahedron with eighth-root gains, from three MUBs in C^2"),
        E("MUB_C3(2)", 6, 3, _spec(_SQRT3, 3, -_SQRT3, 3),
          lambda: _lines_graph("MUB_C3", t=2),
          tags=frozenset({"table2", "mub"}), note="two mutually unbiased bases in C^3"),
        E("MUB_C3(3)", 9, 6, _spec(2 * _SQRT3, 3, -_SQRT3, 6),
          lambda: _lines_graph("MUB_C3", t=3),
          tags=frozenset({"table2", "mub"}), note="three mutually unbiased bases in C^3"),
        E("MUB_C3(4)", 12, 9, _spec(3 * _SQRT3, 3, -_SQRT3, 9),
          lambda: _lines_graph("MUB_C3", t=4),
          tags=frozenset({"table2", "mub"}), note="four mutually unbiased bases in C^3"),
        E("T6", 6, 4, _spec(2.0, 3, -2.0, 3),
          lambda x=ONE: toral(3, x), ("x",),
          tags=frozenset({"table2"}), note="order-6 toral tessellation, free unit x"),
        E("ETF6", 6, 5, _spec(_SQRT5, 3, -_SQRT5, 3),
          lambda z=ONE: _lines_graph("ETF6", z=z), ("z",),
          tags=frozenset({"table2"}), note="order-6 equiangular tight frame family"),
        E("Renes7", 7, 6, _spec(2 * _SQRT2, 3, -3.0 / _SQRT2, 4),
          lambda: renes(7),
          tags=frozenset({"table2"}), note="quadratic-residue gains on K7"),
        E("SIC3", 9, 8, _spec(4.0, 3, -2.0, 6),
          lambda: _lines_graph("SIC3"),
          tags=frozenset({"table2"}), note="nine equiangular lines in C^3"),
        # degree at most 4 (remaining rows)
        E("IG(W3)", 6, 3, _spec(_SQRT3, 3, -_SQRT3, 3),
          lambda: ig(named_weighing("W3")),
          tags=frozenset({"table3"}), note="bipartite double of W3"),
        E("ND(IG(W2))", 8, 3, _spec(_SQRT3, 4, -_SQRT3, 4),
          lambda: double(ig(named_weighing("W2")), "ND"),
          tags=frozenset({"table3"}), note="signed cube"),
        E("ND(W4)", 8, 4, _spec(2.0, 4, -2.0, 4),
          lambda: double(_graph_from_entries(named_weighing("W4").entries), "ND"),
          tags=frozenset({"table3", "degree4"}), note="doubled W4 graph"),
        E("IG(W5)", 10, 4, _spec(2.0, 5, -2.0, 5),
          lambda: ig(named_weighing("W5")),
          tags=frozenset({"table3", "degree4"}), note="bipartite double of W5"),
        E("ND(IG(W3))", 12, 4, _spec(2.0, 6, -2.0, 6),
          lambda: double(ig(named_weighing("W3")), "ND"),
          tags=frozenset({"table3", "degree4"}), note="doubled bipartite double of W3"),
        E("IG(W7)", 14, 4, _spec(2.0, 7, -2.0, 7),
          lambda: ig(named_weighing("W7")),
          tags=frozenset({"table3", "degree4"}), note="bipartite double of W7"),
        E("ND(ND(IG(W2)))", 16, 4, _spec(2.0, 8, -2.0, 8),
          lambda: double(double(ig(named_weighing("W2")), "ND"), "ND"),
          tags=frozenset({"table3", "degree4"}), note="twice-doubled 4-cycle"),
        E("T8", 8, 4, _spec(2.0, 4, -2.0, 4),
          lambda x=ONE: toral(4, x), ("x",),
          tags=frozenset({"table3", "degree4"}), note="order-8 toral tessellation, free unit x"),
        E("T10", 10, 4, _spec(2.0, 5, -2.0, 5),
          lambda x=ONE: toral(5, x), ("x",),
          tags=frozenset({"toral"}), note="order-10 toral tessellation, free unit x"),
        # degree 5
        E("Donut6", 6, 5, _spec(_SQRT5, 3, -_SQRT5, 3),
          lambda x=ONE: donut(3, x), ("x",),
          tags=frozenset({"degree5"}), note="order-6 donut, free unit x"),
        E("Donut8", 8, 5, _spec(_SQRT5, 4, -_SQRT5, 4),
          lambda x=ONE: donut(4, x), ("x",),
          tags=frozenset({"degree5"}), note="order-8 donut, free unit x"),
        E("D8star", 8, 5, _spec(_SQRT5, 4, -_SQRT5, 4),
          lambda c=I_GAIN: d8_star(c), ("c",),
          tags=frozenset({"degree5"}), note="exceptional order-8 five-regular family"),
        # geometries
        E("GQ22", 15, 6, _spec(3.0, 6, -2.0, 9),
          lambda: _lines_graph("Hexacode"),
          tags=frozenset({"geometry"}), note="hexacode line system on 15 vertices"),
        E("Ramezani_Delta5", 10, 6, _spec(3.0, 4, -2.0, 6),
          lambda: _lines_graph("SimplexDiff", m=5),
          tags=frozenset({"geometry"}), note="simplex difference lines, ten vertices"),
        E("Witting", 40, 27, _spec(9 * _SQRT3, 4, -_SQRT3, 36),
          lambda: _lines_graph("Witting"),
          tags=frozenset({"geometry"}), note="forty lines of the Witting polytope"),
        E("ST33", 45, 32, _spec(16.0, 5, -2.0, 40),
          lambda: _lines_graph("ST33"),
          tags=frozenset({"geometry"}), note="45 lines in C^5 meeting the second bound"),
        E("CoxeterTodd2", 126, 80, _spec(40.0, 6, -2.0, 120),
          lambda: _lines_graph("CoxeterTodd", base=2),
          tags=frozenset({"geometry", "coxeter-todd"}), note="Coxeter-Todd lines, base-2 frame"),
        E("CoxeterTodd3", 126, 80, _spec(40.0, 6, -2.0, 120),
          lambda: _lines_graph("CoxeterTodd", base=3),
          tags=frozenset({"geometry", "coxeter-todd"}), note="Coxeter-Todd lines, base-3 frame"),
        E("CoxeterTodd4", 126, 80, _spec(40.0, 6, -2.0, 120),
          lambda: _lines_graph("CoxeterTodd", base=4),
          tags=frozenset({"geometry", "coxeter-todd"}), note="Coxeter-Todd lines, base-4 frame"),
        # sporadic search results
        E("K8star", 8, 7, _spec(_SQRT7, 4, -_SQRT7, 4),
          lambda: _graph_from_entries(_parse_matrix(_K8STAR_ROWS)),
          tags=frozenset({"sporadic"}), note="seven-regular graph on eight vertices"),
        E("K10star", 10, 9, _spec(3.0, 5, -3.0, 5),
          lambda: _graph_from_entries(_parse_matrix(_K10STAR_ROWS)),
          tags=frozenset({"sporadic"}), note="nine-regular signed graph on ten vertices"),
        E("M1", 12, 5, _spec(_SQRT5, 6, -_SQRT5, 6),
          lambda x=ONE: _graph_from_entries(_parse_matrix(_M1_ROWS, x)), ("x",),
          tags=frozenset({"sporadic"}), note="five-regular family on the icosahedron"),
        E("M2", 12, 5, _spec(_SQRT5, 6, -_SQRT5, 6),
          lambda x=ONE: ig(named_weighing("Z", x)), ("x",),
          tags=frozenset({"sporadic"}), note="bipartite double of the weight-5 matrix Z"),
        E("M3", 12, 5, _spec(_SQRT5, 6, -_SQRT5, 6),
          lambda x=ONE: _graph_from_entries(_parse_matrix(_M3_ROWS, x)), ("x",),
          tags=frozenset({"sporadic"}), note="five-regular sporadic family"),
        E("M4", 12, 5, _spec(_SQRT5, 6, -_SQRT5, 6),
          lambda: _graph_from_entries(_parse_matrix(_M4_ROWS)),
          tags=frozenset({"sporadic"}), note="five-regular sporadic graph, quartic gains"),
        E("Example1", 7, 6, _spec(2 * _SQRT2, 3, -3.0 / _SQRT2, 4),
          lambda: example_1(),
          tags=frozenset({"equiangular"}), note="seven equiangular lines in C^4"),
    ]
    return entries


_CATALOG: Optional[tuple[CatalogEntry, ...]] = None


def catalog() -> tuple[CatalogEntry, ...]:
    """The immutable registry of all named examples, in fixed report order."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = tuple(_catalog_entries())
    return _CATALOG


def catalog_entry(name: str) -> CatalogEntry:
    """The catalog entry with this name; UnknownName if there is none."""
    for e in catalog():
        if e.name == name:
            return e
    raise UnknownName(f"no catalog entry named {name!r}")


def fixed_catalog(name: str, **params) -> GainGraph:
    """The catalog entry ``name`` built with the given free parameters; a
    value that is not a Gain is read as ``Gain.numeric(value)``."""
    entry = catalog_entry(name)
    unknown = sorted(set(params) - set(entry.parameters))
    if unknown:
        takes = ", ".join(entry.parameters) or "no parameters"
        raise BadParam(f"{name} has no parameter {', '.join(unknown)}; it takes {takes}")
    return entry.build(**{key: x if isinstance(x, Gain) else Gain.numeric(x)
                          for key, x in params.items()})


# -- batch verification ----------------------------------------------------------

CSV_HEADER = "name,order,k,m,theta1,theta2,residual,status"


def catalog_verify_all(tol: float = 1e-8, only: Optional[str] = None,
                       entries=None) -> tuple[list[str], bool]:
    """Build every entry (sampling free parameters), certify, compare.

    Returns the CSV rows (header first) and an all-passed flag.  Rows
    keep catalog order.  An entry with free parameters is built from 5
    draws of them, from a generator with a fixed seed, and passes only
    when every draw does; its row shows the first certificate and the
    worst residual of the passing draws.  A tag ``only`` that no entry
    carries raises UnknownName.
    """
    rng = np.random.default_rng(20240801)
    if entries is None:
        entries = catalog()
    if only is not None:
        tags = set().union(*(e.tags for e in entries))
        if only not in tags:
            raise UnknownName(f"no catalog entry carries the tag {only!r}; "
                              f"known tags: {', '.join(sorted(tags))}")
        entries = [e for e in entries if only in e.tags]
    rows = [CSV_HEADER]
    all_ok = True
    for entry in entries:
        (t1, m1), (t2, m2) = entry.expected_spectrum
        draws = 5 if entry.parameters else 1
        certs, residuals = [], []
        for _ in range(draws):
            params = {}
            for pname in entry.parameters:
                angle = rng.uniform(0.0, 2.0 * np.pi)
                params[pname] = Gain.numeric(complex(np.cos(angle), np.sin(angle)),
                                             tol=1e-9)
            try:
                g = entry.build(**params)
                cert = certify_two_ev(g)
            except GainForgeError:
                continue
            if cert is None:
                continue
            certs.append(cert)
            # written so that a NaN tol fails
            if (g.n != entry.order
                    or not abs(cert.theta1 - t1) <= tol or not abs(cert.theta2 - t2) <= tol
                    or cert.m != m1 or g.n - cert.m != m2):
                continue
            residuals.append(cert.residual)
        ok = len(residuals) == draws
        if not certs:
            rows.append(f"{entry.name},{entry.order},,,,,,FAIL")
        else:
            status = "PASS" if ok else "FAIL"
            rows.append(
                f"{entry.name},{entry.order},{certs[0].k:.10g},{certs[0].m},"
                f"{certs[0].theta1:.10g},{certs[0].theta2:.10g},"
                f"{max(residuals, default=0.0):.3e},{status}")
        all_ok = all_ok and ok
    return rows, all_ok
