"""Spectra of gain matrices and the two-eigenvalue certificate.

A connected gain graph whose Hermitian matrix A has exactly two distinct
eigenvalues theta1 > theta2 satisfies A^2 = aA + kI with a = theta1 +
theta2 and k = -theta1*theta2, which forces k-regularity.  We adopt the
sign convention a >= 0 (negating A otherwise), so the multiplicity m of
theta1 is at most n/2.

The characteristic polynomial is also computed independently of any
eigensolver, from the elementary subgraphs of the underlying graph
(components that are single edges or cycles); that second route is the
oracle used to cross-check the numerics.  A table of path sums over vertex
subsets weighs each subset as one component, by one rule for edges and cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    Disconnected,
    EmptyGraph,
    InvalidParameters,
    NoConvergence,
    TooLarge,
)
from .gains import GainGraph, _bits, is_connected


@dataclass
class Spectrum:
    """All eigenvalues, sorted descending, plus their clustered view."""

    eigenvalues: list[float]
    clusters: list[tuple[float, int]]  # (value, multiplicity)
    cluster_tol: float


@dataclass
class TwoEvCertificate:
    """Witness of A^2 = aA + kI.

    ``negated`` records that the convention a >= 0 required replacing A
    by -A (equivalently: the reported thetas belong to -A).
    """

    theta1: float
    theta2: float
    m: int
    a: float
    k: float
    residual: float
    degree_check: bool
    negated: bool = False


def _cluster(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """(mean, size) of each run of sorted values, cut where neighbours are
    more than tol apart or either is NaN."""
    if not values.size:
        return []
    cuts = np.flatnonzero(~(np.abs(np.diff(values)) <= tol)) + 1
    bounds = [0, *cuts.tolist(), len(values)]
    # a running sum adds in order, as a loop would; .mean() sums pairwise
    return [(float(values[a:b].cumsum()[-1]) / (b - a), b - a)
            for a, b in zip(bounds, bounds[1:])]


def eigenvalues(g: GainGraph, cluster_tol: float = 1e-8) -> Spectrum:
    """Real spectrum of the gain matrix, sorted descending."""
    if g.n == 0:
        raise EmptyGraph("no vertices")
    return _spectrum(g.matrix(), cluster_tol)


def _spectrum(A: np.ndarray, cluster_tol: float) -> Spectrum:
    try:
        evs = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise NoConvergence(str(exc)) from exc
    vals = evs[::-1]        # eigvalsh sorts ascending
    return Spectrum(vals.tolist(), _cluster(vals, cluster_tol), cluster_tol)


def certify_two_ev(g: GainGraph, tol: float = 1e-9) -> Optional[TwoEvCertificate]:
    """Certify that the gain matrix has exactly two distinct eigenvalues.

    Returns None when the clustered spectrum has more or fewer than two
    values, or when the minimal-polynomial residual check fails.  Raises
    ValueError unless 0 <= tol < inf.
    """
    if not 0 <= tol < math.inf:     # NaN fails it
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if g.n == 0 or not g.u.size:
        raise EmptyGraph("certification needs at least one edge")
    if not is_connected(g):
        raise Disconnected("certification requires a connected graph")
    cluster_tol = max(1e-8, 1e3 * tol)
    A = g.matrix()
    spec = _spectrum(A, cluster_tol)
    if len(spec.clusters) != 2:
        return None
    (t1, m1), (t2, m2) = spec.clusters
    negated = False
    if t1 + t2 < 0:
        # a >= 0 convention: certify -A instead
        t1, t2 = -t2, -t1
        m1, m2 = m2, m1
        negated = True
    a = t1 + t2
    k = -t1 * t2
    if negated:
        A = -A
    residual = float(np.linalg.norm(A @ A - a * A - k * np.eye(g.n)))
    if residual > 1e-6 * g.n:
        return None
    deg = g.degrees()
    degree_check = len(set(deg)) == 1 and abs(k - deg[0]) <= 1e-6
    return TwoEvCertificate(t1, t2, m1, a, k, residual, degree_check, negated)


def predicted_thetas(n: int, m: int, k: int) -> tuple[float, float]:
    """The eigenvalues forced by (order, multiplicity, degree).

    theta1 = sqrt(k(n-m)/m) with multiplicity m, theta2 = -sqrt(km/(n-m)).
    These closed forms lose no digits to cancellation, as the roots of
    x^2 - (theta1 + theta2) x - k by the quadratic formula would.
    """
    if not (0 < m <= n / 2 and k > 0):      # NaN fails it
        raise InvalidParameters(f"need 0 < m <= n/2 and k > 0, got {(n, m, k)}")
    return math.sqrt(k * (n - m) / m), -math.sqrt(k * m / (n - m))


# -- characteristic polynomial from elementary subgraphs ---------------------
#
# det(xI - A) = sum_i c_i x^(n-i) where c_i collects every subgraph H on i
# vertices whose components are single edges or cycles, weighted by
# (-1)^(#components) * 2^(#cycles) * prod_cycles Re(gain) (Harary 1962).
# Tables over vertex subsets (bitmasks), after Held and Karp (1962): paths[S][u]
# sums the gain products of the paths from min(S) to u through exactly S; minus
# their sum closed at min(S) weighs S as one component, -|gain|^2 = -1 for an
# edge and -2 Re(gain) for a cycle walked both ways.  covers[mask] splits off
# the component through the lowest vertex of mask.

def char_poly_elementary(g: GainGraph) -> list[float]:
    """Coefficients [c_0, ..., c_n] of det(xI - A), c_0 = 1.

    Sums over elementary subgraphs instead of calling an eigensolver,
    so it serves as an independent oracle.  Exponential in n; raises
    TooLarge for n > 12.
    """
    n = g.n
    if n > 12:
        raise TooLarge(f"n = {n} exceeds the enumeration limit 12")
    A = g.matrix().tolist()
    adj = [sum(1 << w for w, a in enumerate(row) if a) for row in A]
    paths = [[0j] * n for _ in range(1 << n)]
    for v in range(n):
        paths[1 << v][v] = 1 + 0j
    # every entry reads smaller masks only, so increasing order has them ready
    weight = [0.0] * (1 << n)
    for S in range(1, 1 << n):
        v = (S & -S).bit_length() - 1
        closed = 0j
        for u in _bits(S):
            p = paths[S][u]
            if p:
                closed += p * A[u][v]
                for w in _bits((adj[u] & ~S) >> v << v):    # w > v outside S
                    paths[S | 1 << w][w] += p * A[u][w]
        weight[S] = -closed.real
    covers = [1.0] + [0.0] * ((1 << n) - 1)
    coeffs = [1.0] + [0.0] * n
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = sub = mask ^ low
        total = 0.0
        while sub:          # a lone vertex weighs 0, so sub = 0 adds nothing
            total += weight[sub | low] * covers[rest ^ sub]
            sub = (sub - 1) & rest
        covers[mask] = total
        if total:
            coeffs[mask.bit_count()] += total
    return coeffs


def char_poly_from_eigenvalues(evs: list[float]) -> list[float]:
    """Expand prod (x - lambda_j) into a coefficient list, c_0 = 1."""
    return [float(c) for c in np.poly(evs)] if len(evs) else [1.0]
