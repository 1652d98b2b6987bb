"""Systems of unit vectors in C^m and their two-eigenvalue gain graphs.

A two-eigenvalue gain graph and a tight system of equiangular-or-orthogonal
lines are the same object viewed from two sides: I - A/theta_min is a PSD
Gram matrix whose factor columns are the lines, and conversely the scaled
off-diagonal Gram entries of a tight {0, alpha}-system are unit gains.
This module implements both directions, the tightness and angle checks
that make the equivalence precise, order bounds, the dismantling of a
system into orthonormal bases, and the library of named geometries
(SIC-POVMs, mutually unbiased bases, the hexacode, the Witting polytope,
a rank-5 reflection group, and three frames for the Coxeter-Todd lattice).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import (
    AngleViolation,
    BadParam,
    NonNegativeThetaMin,
    NormViolation,
    NotTwoEigenvalue,
    PartitionInvalid,
    PartNotTight,
    Timeout,
    UnknownName,
)
from .gains import ONE, SEARCH_BUDGET, Gain, GainGraph, build, max_coclique
from .spectral import TwoEvCertificate, certify_two_ev

_PHI = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


def _phi(j: int) -> complex:
    return _PHI ** (j % 3)


# -- core types ----------------------------------------------------------------

@dataclass
class LineSystem:
    """n unit vectors in C^m, stored as the columns of ``matrix``."""

    matrix: np.ndarray
    declared_angle: Optional[float] = None

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2:
            raise BadParam("line system matrix must be 2-dimensional")
        norms = np.linalg.norm(self.matrix, axis=0)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))     # NaN fails too
        if bad.size:
            raise NormViolation(f"column {bad[0]} has norm {norms.item(bad[0])!r}")
        if self.declared_angle is not None:
            G = np.abs(self.gram())
            off = G[~np.eye(self.count, dtype=bool)]
            ok = (off <= 1e-8) | (np.abs(off - self.declared_angle) <= 1e-8)
            if not ok.all():
                raise AngleViolation(
                    f"off-diagonal |inner product| {off[~ok][0]} is near neither "
                    f"0 nor {self.declared_angle}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def gram(self) -> np.ndarray:
        return self.matrix.conj().T @ self.matrix

    def take(self, columns) -> LineSystem:
        return LineSystem(self.matrix[:, list(columns)], self.declared_angle)


@dataclass
class TightnessReport:
    is_tight: bool
    z: float
    residual: float


def tightness_check(system: LineSystem) -> TightnessReport:
    """Is NN* a multiple of the identity?  z = n/m for unit columns."""
    N = system.matrix
    m = system.dim
    z = system.count / m
    residual = float(np.linalg.norm(N @ N.conj().T - z * np.eye(m)))
    return TightnessReport(residual <= 1e-8 * m, z, residual)


@dataclass
class AngleProfile:
    """Distinct off-diagonal |inner product| values and their class."""

    values: tuple[float, ...]
    classification: str          # "A1", "A2", "orthogonal", or "other"
    alpha: Optional[float]


def angle_profile(system: LineSystem) -> AngleProfile:
    """Cluster the off-diagonal |inner products|; values within 1e-8 are one angle."""
    tol = 1e-8
    G = np.abs(system.gram())
    off = np.sort(G[~np.eye(system.count, dtype=bool)])
    values: list[float] = []
    start = 0
    for i in range(1, len(off) + 1):
        if i == len(off) or off[i] - off[i - 1] > tol:
            values.append(float(off[start:i].mean()))
            start = i
    has_zero = bool(values) and values[0] <= tol
    nonzero = [v for v in values if v > tol]
    if not nonzero:
        kind, alpha = "orthogonal", None
    elif len(nonzero) == 1:
        kind, alpha = ("A2" if has_zero else "A1"), nonzero[0]
    else:
        kind, alpha = "other", None
    return AngleProfile(tuple(values), kind, alpha)


# -- the gain graph / line system bridge ----------------------------------------

def gain_to_lines(g: GainGraph, cert: Optional[TwoEvCertificate] = None) -> LineSystem:
    """Factor I - A/theta_min into unit columns spanning rank-many dimensions."""
    if cert is None:
        cert = certify_two_ev(g)
    if cert is None:
        raise NotTwoEigenvalue("graph does not have exactly two eigenvalues")
    if cert.negated:
        theta_min, rank = -cert.theta1, g.n - cert.m
    else:
        theta_min, rank = cert.theta2, cert.m
    if theta_min >= 0:
        raise NonNegativeThetaMin(f"smallest eigenvalue {theta_min} is not negative")
    A = g.matrix()
    B = np.eye(g.n) - A / theta_min
    vals, vecs = np.linalg.eigh(B)
    keep = vals > 1e-8
    if int(keep.sum()) != rank:
        raise NotTwoEigenvalue("Gram factor rank disagrees with certificate")
    N = np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T
    # eigh residue can leave columns off unit norm by ~1e-12; renormalize
    N = N / np.linalg.norm(N, axis=0)
    return LineSystem(N, declared_angle=-1.0 / theta_min)


def lines_to_gain(system: LineSystem, alpha: float) -> GainGraph:
    """Scaled Gram off-diagonal as gains: edge where |inner| = alpha, none at 0."""
    G = system.gram()
    n = system.count
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = G[u, v]
            r = abs(w)
            if r <= 1e-8:
                continue
            if abs(r - alpha) > 1e-8:
                raise AngleViolation(
                    f"|<v{u},v{v}>| = {r} is near neither 0 nor alpha={alpha}")
            edges.append((u, v, Gain.numeric(w / r, tol=1e-9)))
    return build(n, edges)


# -- order bounds ----------------------------------------------------------------

@dataclass
class BoundsReport:
    absolute_bound: int
    n: Optional[int] = None
    distinct_lines: Optional[int] = None
    absolute_ok: Optional[bool] = None
    m_prime: Optional[int] = None
    rank_bound: Optional[int] = None       # m^2 + m'
    rank_bound_ok: Optional[bool] = None
    max_coclique: Optional[int] = None
    coclique_ok: Optional[bool] = None


def bounds_check(m: int, s: int, has_zero: bool,
                 g: Optional[GainGraph] = None) -> BoundsReport:
    """Absolute bound for an s-angle system in C^m, plus graph-side bounds.

    The absolute bound counts *distinct* lines, so parallel vectors
    collapse before the comparison (for a complete graph all vectors lie
    on a single line and the bound holds trivially).  With a graph
    supplied, also computes m' (multiplicity of -km/(n-m) in the 0/1
    underlying adjacency) for the n <= m^2 + m' bound, and the coclique
    bound (independent sets have at most m vertices).
    """
    eps = 1 if has_zero else 0
    bound = comb(m + s - 1, m - 1) * comb(m + s - 1 - eps, m - 1)
    report = BoundsReport(absolute_bound=bound)
    if g is None:
        return report
    report.n = g.n
    cert = certify_two_ev(g)
    if cert is not None:
        system = gain_to_lines(g, cert)
        gram = np.abs(system.gram())
        distinct = 0
        seen: list[int] = []
        for j in range(system.count):
            if all(gram[j, h] < 1.0 - 1e-8 for h in seen):
                seen.append(j)
                distinct += 1
        report.distinct_lines = distinct
        report.absolute_ok = distinct <= bound
        target = -cert.k * cert.m / (g.n - cert.m)
        U = (np.abs(g.matrix()) > 0.5).astype(float)
        evs = np.linalg.eigvalsh(U)
        m_prime = int(np.sum(np.abs(evs - target) <= 1e-6))
        report.m_prime = m_prime
        report.rank_bound = cert.m ** 2 + m_prime
        report.rank_bound_ok = g.n <= report.rank_bound
    else:
        report.absolute_ok = g.n <= bound
    size, _ = max_coclique(g)
    report.max_coclique = size
    report.coclique_ok = size <= m
    return report


# -- GF(4) and the hexacode -------------------------------------------------------

# elements 0, 1, 2, 3 stand for 0, 1, w, w+1 with w^2 = w + 1
_GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _gf4_mul(a: int, b: int) -> int:
    return _GF4_MUL[a][b]


def _gf4_add(a: int, b: int) -> int:
    return a ^ b


def _hexacodewords() -> list[tuple[int, ...]]:
    """All 64 codewords (p2, p1, p0, f(1), f(w), f(w+1))."""
    words = []
    for p2 in range(4):
        for p1 in range(4):
            for p0 in range(4):
                word = [p2, p1, p0]
                for pt in (1, 2, 3):
                    v = _gf4_add(_gf4_add(
                        _gf4_mul(p2, _gf4_mul(pt, pt)), _gf4_mul(p1, pt)), p0)
                    word.append(v)
                words.append(tuple(word))
    return words


def _projective_weight4_hexacodewords() -> list[tuple[int, ...]]:
    """The 15 weight-4 codewords normalized to leading coefficient 1."""
    reps = []
    seen = set()
    for w in _hexacodewords():
        if sum(1 for c in w if c) != 4:
            continue
        lead = next(c for c in w if c)
        # scale so the first nonzero entry is 1 (inverse: 1->1, w->w+1, w+1->w)
        inv = {1: 1, 2: 3, 3: 2}[lead]
        rep = tuple(_gf4_mul(inv, c) for c in w)
        if rep not in seen:
            seen.add(rep)
            reps.append(rep)
    assert len(reps) == 15
    return reps


_GF4_TO_C = {0: 0.0, 1: 1.0 + 0.0j, 2: _phi(1), 3: _phi(2)}


def _hexacode_vectors() -> np.ndarray:
    cols = []
    for word in _projective_weight4_hexacodewords():
        cols.append([_GF4_TO_C[c] / 2.0 for c in word])
    return np.array(cols, dtype=complex).T


# -- named geometries --------------------------------------------------------------

def _unit(x: Gain | complex) -> complex:
    return x.value if isinstance(x, Gain) else complex(x)


def _std_basis(m: int) -> list[np.ndarray]:
    return [np.eye(m, dtype=complex)[:, j] for j in range(m)]


def _sic2() -> np.ndarray:
    s3, s2 = math.sqrt(3.0), math.sqrt(2.0)
    cols = [[s3, 0], [1, s2], [1, s2 * _phi(1)], [1, s2 * _phi(2)]]
    return np.array(cols, dtype=complex).T / s3


def _sic3() -> np.ndarray:
    # sixth root of unity, not a cube root: the nine columns are only
    # equiangular (common angle 1/2) with w on the shorter rotation
    w = cmath.exp(1j * math.pi / 3.0)
    wb = w.conjugate()
    rows = [
        [1, 0, w, 1, 0, -1, 1, 0, wb],
        [w, 1, 0, -1, 1, 0, wb, 1, 0],
        [0, w, 1, 0, -1, 1, 0, wb, 1],
    ]
    return np.array(rows, dtype=complex) / math.sqrt(2.0)


def _mub_c2(t: int = 3) -> np.ndarray:
    if t not in (2, 3):
        raise BadParam(f"t must be 2 or 3, got {t}")
    s2 = math.sqrt(2.0)
    cols = _std_basis(2)
    cols += [np.array([1, 1]) / s2, np.array([1, -1]) / s2]
    if t == 3:
        cols += [np.array([1, 1j]) / s2, np.array([1, -1j]) / s2]
    return np.array(cols, dtype=complex).T


def _mub_c3(t: int = 4) -> np.ndarray:
    if t not in (2, 3, 4):
        raise BadParam(f"t must be 2, 3 or 4, got {t}")
    cols = _std_basis(3)
    s3 = math.sqrt(3.0)
    for s in range(t - 1):
        for j in range(3):
            h = (s - j) % 3
            cols.append(np.array([1, _phi(j), _phi(h)]) / s3)
    return np.array(cols, dtype=complex).T


def _mub_c4_pair(x: Gain | complex = ONE) -> np.ndarray:
    x = _unit(x)
    cols = _std_basis(4)
    cols += [
        np.array([1, 1, 1, -1]) / 2.0,
        np.array([1, 1, -1, 1]) / 2.0,
        np.array([1, -1, x, x]) / 2.0,
        np.array([-1, 1, x, x]) / 2.0,
    ]
    return np.array(cols, dtype=complex).T


def _etf6(z: Gain | complex = ONE) -> np.ndarray:
    z = _unit(z)
    tau = math.sqrt((5.0 + math.sqrt(5.0)) / 10.0)
    sig = math.sqrt((5.0 - math.sqrt(5.0)) / 10.0)
    cols = [
        [0, tau, sig], [sig, 0, tau], [tau * z, sig, 0],
        [0, tau, -sig], [-sig, 0, tau], [tau * z, -sig, 0],
    ]
    return np.array(cols, dtype=complex).T


def _simplex_diff(m: int = 5) -> np.ndarray:
    """Normalized e_h - e_j in span coordinates (rank m-1)."""
    if m < 2:
        raise BadParam(f"need m >= 2, got {m}")
    cols = []
    for j in range(m):
        for h in range(j + 1, m):
            v = np.zeros(m)
            v[h], v[j] = 1.0, -1.0
            cols.append(v / math.sqrt(2.0))
    N = np.array(cols, dtype=complex).T
    # the vectors span the hyperplane orthogonal to all-ones; express them
    # there so that tightness is judged against the space they actually fill
    U, s, Vh = np.linalg.svd(N, full_matrices=False)
    keep = s > 1e-8 * s[0]
    return s[keep, None] * Vh[keep, :]


def _witting() -> np.ndarray:
    cols = _std_basis(4)
    s3 = math.sqrt(3.0)
    for j in range(3):
        for h in range(3):
            cols.append(np.array([1, 0, -_phi(j), -_phi(h)]) / s3)
    for j in range(3):
        for h in range(3):
            cols.append(np.array([1, -_phi(j), 0, _phi(h)]) / s3)
    for j in range(3):
        for h in range(3):
            cols.append(np.array([1, _phi(j), _phi(h), 0]) / s3)
    for j in range(3):
        for h in range(3):
            cols.append(np.array([0, 1, -_phi(j), _phi(h)]) / s3)
    return np.array(cols, dtype=complex).T


def _st33() -> np.ndarray:
    cols = []
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    for a in range(4):
        for b in range(a + 1, 4):
            for j in range(3):
                v = np.zeros(5, dtype=complex)
                v[a] = 1.0
                v[b] = -_phi(j)
                cols.append(v / s2)
    for j1 in range(3):
        for j2 in range(3):
            for j3 in range(3):
                # last exponent is +sum: with the doubled weight on the
                # final coordinate this is the choice that keeps every
                # pairwise inner product in {0, 1/2}
                v = np.array([1, _phi(j1), _phi(j2), _phi(j3),
                              s2 * _phi(j1 + j2 + j3)])
                cols.append(v / s6)
    return np.array(cols, dtype=complex).T


def _coxeter_todd(base: int = 2) -> np.ndarray:
    cols: list[np.ndarray] = []
    if base == 2:
        for word in _projective_weight4_hexacodewords():
            support = [i for i, c in enumerate(word) if c]
            for signs in range(8):
                v = np.array([_GF4_TO_C[c] for c in word])
                for bit, pos in enumerate(support[1:]):
                    if (signs >> bit) & 1:
                        v[pos] = -v[pos]
                cols.append(v / 2.0)
        cols += _std_basis(6)
    elif base == 3:
        s3, s6 = math.sqrt(3.0), math.sqrt(6.0)
        for a in range(6):
            for b in range(a + 1, 6):
                for c in range(3):
                    v = np.zeros(6, dtype=complex)
                    v[a] = 1j * s3
                    v[b] = -1j * s3 * _phi(c)
                    cols.append(v / s6)
        for j in np.ndindex(3, 3, 3, 3):
            v = np.array([1, _phi(j[0]), _phi(j[1]), _phi(j[2]), _phi(j[3]),
                          _phi(-sum(j))])
            cols.append(v / s6)
    elif base == 4:
        r8 = 2.0 * math.sqrt(2.0)
        s3 = math.sqrt(3.0)
        for a in range(6):
            for bits in range(16):
                v = np.zeros(6, dtype=complex)
                v[a] = 1j * s3
                rest = [p for p in range(6) if p != a]
                signs = [(bits >> b) & 1 for b in range(4)]
                signs.append(sum(signs) % 2)
                for pos, s in zip(rest, signs):
                    v[pos] = -1.0 if s else 1.0
                cols.append(v / r8)
        for a in range(6):
            for b in range(a + 1, 6):
                for s in (1.0, -1.0):
                    v = np.zeros(6, dtype=complex)
                    v[a], v[b] = 2.0, 2.0 * s
                    cols.append(v / r8)
    else:
        raise BadParam(f"base must be 2, 3 or 4, got {base}")
    return np.array(cols, dtype=complex).T


# name -> (column builder taking the geometry's parameters, declared angle)
_GEOMETRIES = {
    "SIC2": (_sic2, 1 / math.sqrt(3.0)),
    "SIC3": (_sic3, 0.5),
    "MUB_C2": (_mub_c2, 1 / math.sqrt(2.0)),
    "MUB_C3": (_mub_c3, 1 / math.sqrt(3.0)),
    "MUB_C4_pair": (_mub_c4_pair, 0.5),
    "ETF6": (_etf6, 1 / math.sqrt(5.0)),
    "SimplexDiff": (_simplex_diff, 0.5),
    "Hexacode": (_hexacode_vectors, 0.5),
    "Witting": (_witting, 1 / math.sqrt(3.0)),
    "ST33": (_st33, 0.5),
    "CoxeterTodd": (_coxeter_todd, 0.5),
}


def geometry_lines(name: str, **params) -> LineSystem:
    """Build a named line system; see the module docstring for the menu.

    ``params`` go to the geometry's column builder, so a parameter the
    geometry does not take raises TypeError.
    """
    if name not in _GEOMETRIES:
        raise UnknownName(f"no geometry named {name!r}")
    columns, angle = _GEOMETRIES[name]
    return LineSystem(columns(**params), declared_angle=angle)


# -- dismantling -----------------------------------------------------------------

@dataclass
class DismantleResult:
    """Per-part tightness plus certified prefix-union graphs."""

    part_reports: list[TightnessReport]
    union_graphs: list[GainGraph]
    union_certificates: list[Optional[TwoEvCertificate]]


def dismantle(system: LineSystem, partition: list[list[int]],
              alpha: float) -> DismantleResult:
    """Split the columns into tight parts and certify every prefix union."""
    seen: set[int] = set()
    for part in partition:
        for c in part:
            if c in seen or not 0 <= c < system.count:
                raise PartitionInvalid(f"column {c} repeated or out of range")
            seen.add(c)
    if len(seen) != system.count:
        raise PartitionInvalid("partition does not cover every column")

    reports = []
    for idx, part in enumerate(partition):
        rep = tightness_check(system.take(part))
        if not rep.is_tight:
            raise PartNotTight(idx)
        reports.append(rep)

    union_graphs: list[GainGraph] = []
    union_certs: list[Optional[TwoEvCertificate]] = []
    columns: list[int] = []
    for part in partition:
        columns.extend(part)
        g = lines_to_gain(system.take(columns), alpha)
        union_graphs.append(g)
        union_certs.append(certify_two_ev(g) if g.gains else None)
    return DismantleResult(reports, union_graphs, union_certs)


def _orthogonality_masks(system: LineSystem) -> list[int]:
    """Bitmask per column of the other columns within 1e-8 of orthogonal to it."""
    near = np.abs(system.gram()) <= 1e-8
    np.fill_diagonal(near, False)
    return [sum(1 << int(v) for v in np.flatnonzero(row)) for row in near]


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise Timeout("basis-partition search budget exhausted")


def _cover_search(masks: list[int], m: int, uncovered: int,
                  parts: list[list[int]], budget: _Budget) -> Optional[list[list[int]]]:
    if uncovered == 0:
        return [list(p) for p in parts]
    budget.spend()
    c = (uncovered & -uncovered).bit_length() - 1

    def extend(members: list[int], cand: int) -> Optional[list[list[int]]]:
        if len(members) == m:
            parts.append(members)
            found = _cover_search(masks, m, uncovered & ~sum(1 << v for v in members),
                                  parts, budget)
            parts.pop()
            return found
        budget.spend()
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            found = extend(members + [v], cand & masks[v] & ~((1 << (v + 1)) - 1))
            if found is not None:
                return found
        return None

    try:
        return extend([c], masks[c] & uncovered & ~((1 << (c + 1)) - 1))
    finally:
        # extend refers to itself; without this its state outlives the call until gc runs
        del extend


def find_basis_partition(system: LineSystem,
                         budget: int = SEARCH_BUDGET) -> Optional[list[list[int]]]:
    """Search for a partition of the columns into orthonormal bases.

    Returns the partition, or None when the exhaustive search proves none
    exists; raises Timeout when the budget runs out first (which is NOT
    evidence of nonexistence).
    """
    m, n = system.dim, system.count
    if n % m != 0:
        raise BadParam(f"{n} columns cannot split into bases of size {m}")
    masks = _orthogonality_masks(system)
    return _cover_search(masks, m, (1 << n) - 1, [], _Budget(budget))
