"""Spectra of gain matrices and the two-eigenvalue certificate.

A connected gain graph whose Hermitian matrix A has exactly two distinct
eigenvalues theta1 > theta2 satisfies A^2 = aA + kI with a = theta1 +
theta2 and k = -theta1*theta2, which forces k-regularity.  We adopt the
sign convention a >= 0 (negating A otherwise), so the multiplicity m of
theta1 is at most n/2.

The characteristic polynomial is also computed independently of any
eigensolver, from the elementary subgraphs of the underlying graph
(components that are single edges or cycles); that second route is the
oracle used to cross-check the numerics.
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

    theta1 = sqrt(k(n-m)/m) with multiplicity m, theta2 = -sqrt(km/(n-m));
    cross-checked against the quadratic-formula form.
    """
    if not (0 < m <= n / 2 and k > 0):      # NaN fails it
        raise InvalidParameters(f"need 0 < m <= n/2 and k > 0, got {(n, m, k)}")
    t1 = math.sqrt(k * (n - m) / m)
    t2 = -math.sqrt(k * m / (n - m))
    a = t1 + t2
    disc = math.sqrt(a * a + 4 * k)
    alt1, alt2 = (a + disc) / 2, (a - disc) / 2
    if abs(alt1 - t1) > 1e-12 * max(1.0, abs(t1)) or \
       abs(alt2 - t2) > 1e-12 * max(1.0, abs(t2)):
        raise InvalidParameters("quadratic-form cross-check failed")
    return t1, t2


# -- characteristic polynomial from elementary subgraphs ---------------------
#
# det(xI - A) = sum_i c_i x^(n-i) where c_i collects every subgraph H on i
# vertices whose components are single edges or cycles, weighted by
# (-1)^(#components) * 2^(#cycles) * prod_cycles Re(gain).  Computed by a
# deletion recurrence on vertex subsets (bitmasks): the lowest vertex of a
# subset is covered either by one of its edges or by a cycle through it.

def char_poly_elementary(g: GainGraph) -> list[float]:
    """Coefficients [c_0, ..., c_n] of det(xI - A), c_0 = 1.

    Enumerates elementary subgraphs instead of calling an eigensolver,
    so it serves as an independent oracle.  Exponential in n; raises
    TooLarge for n > 12.
    """
    n = g.n
    if n > 12:
        raise TooLarge(f"n = {n} exceeds the enumeration limit 12")
    adj = [0] * n
    gain_val: dict[tuple[int, int], complex] = {}
    for u, v, z in zip(g.u.tolist(), g.v.tolist(), g.z.tolist()):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        gain_val[(u, v)] = z
        gain_val[(v, u)] = z.conjugate()

    # covers[mask]: summed weight over elementary subgraphs covering exactly
    # mask.  Each term reads a strict submask, so increasing order has it ready.
    covers = [1.0] + [0.0] * ((1 << n) - 1)
    coeffs = [1.0] + [0.0] * n
    for mask in range(1, 1 << n):
        total = 0.0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        for u in _bits(adj[v] & rest):
            total -= covers[rest & ~(1 << u)]
        for u1 in _bits(adj[v] & rest):
            total += _cycles(adj, gain_val, covers, mask, v, u1, (1 << v) | (1 << u1),
                             gain_val[(v, u1)], u1)
        covers[mask] = total
        if total:
            coeffs[mask.bit_count()] += total
    return coeffs


def _cycles(adj: list[int], gain_val: dict[tuple[int, int], complex], covers: list[float],
            mask: int, v: int, node: int, used: int, prod: complex, first: int) -> float:
    """Weight of the cycles through v inside mask that extend the path
    v -> first -> ... -> node over the vertices in used, each times the
    covers of the rest of mask."""
    acc = 0.0
    for u in _bits(adj[node] & mask & ~used):
        p2 = prod * gain_val[(node, u)]
        used2 = used | (1 << u)
        # close the cycle back at v; count each cycle in one
        # orientation only (first step < last step)
        if (adj[u] >> v) & 1 and used2.bit_count() >= 3 and first < u:
            acc += -2.0 * (p2 * gain_val[(u, v)]).real * covers[mask & ~used2]
        acc += _cycles(adj, gain_val, covers, mask, v, u, used2, p2, first)
    return acc


def char_poly_from_eigenvalues(evs: list[float]) -> list[float]:
    """Expand prod (x - lambda_j) into a coefficient list, c_0 = 1."""
    return [float(c) for c in np.poly(evs)] if len(evs) else [1.0]
