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

import functools
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
from .gains import GainGraph, is_connected


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
    """Real spectrum of the gain matrix, sorted descending.

    Raises ValueError unless 0 <= cluster_tol < inf.
    """
    if not 0 <= cluster_tol < math.inf:     # NaN fails it
        raise ValueError(f"cluster_tol must be finite and non-negative, got {cluster_tol}")
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
# Tables over vertex subsets (bitmasks), after Held and Karp (1962), filled one
# popcount layer at a time by array operations; each layer reads smaller ones
# only.  paths[S][u] sums the gain products of the paths from min(S) to u
# through exactly S.  One matrix product paths[S] @ A per layer extends them
# all by an edge: its entry at w > min(S) outside S is paths[S | w][w], which
# has no other source, so one gather fills the next layer; minus the real part
# of its entry at min(S) weighs S as one component, -|gain|^2 = -1 for an edge
# and -2 Re(gain) for a cycle walked both ways.  covers[mask] splits off the
# component through the lowest vertex of mask: it sums weight[sub | low] *
# covers[rest ^ sub] over the nonempty submasks sub of the rest, one gather per
# layer, in decreasing order of sub, and c_i sums covers over the masks on i
# vertices in increasing order; cumsum adds each sum in that order.

@functools.lru_cache(maxsize=13)
def _layers(n: int) -> list[tuple]:
    """The index tables of char_poly_elementary on n vertices, one per layer.

    Tables have a row per subset, by popcount layer and then by increasing
    mask.  Layer r = 2..n is rows a:b, and its read-only index arrays are:
    into and source, flat indices into a (2^n, n) table, that fill its paths
    from the products of layer r - 1; closed, the flat index of each row's
    (S, min(S)); and sets and rests, (rows, 2^(r-1) - 1) arrays that hold
    the rows of sub | low and of rest ^ sub.
    """
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n) & 1).astype(bool)
    order = np.argsort(member.sum(axis=1), kind="stable")      # the mask of each row
    row = np.empty_like(order)
    row[order] = masks
    low = np.searchsorted(1 << np.arange(n), masks & -masks)   # min(S); 0 for S empty
    layers = []
    a = n + 1                   # after the empty set and the lone vertices
    for r in range(2, n + 1):
        b = a + math.comb(n, r)
        S = order[a:b]
        # (S, w) for each w in S but min(S); its one source is (S without w, w)
        at, w = np.nonzero(member[S] & (np.arange(n) != low[S, None]))
        lowbit = 1 << low[S]
        rest = S ^ lowbit
        place = np.nonzero(member[rest])[1].reshape(len(S), r - 1)
        # the nonempty submasks of rest in decreasing order, as j descends
        j = np.arange((1 << r - 1) - 1, 0, -1)
        sub = (1 << place) @ (j[:, None] >> np.arange(r - 1) & 1).T
        layers.append((a, b, (a + at) * n + w, row[S[at] ^ 1 << w] * n + w,
                       np.arange(a, b) * n + low[S], row[sub | lowbit[:, None]],
                       row[rest[:, None] ^ sub]))
        for x in layers[-1][2:]:
            x.setflags(write=False)
        a = b
    return layers


def char_poly_elementary(g: GainGraph) -> list[float]:
    """Coefficients [c_0, ..., c_n] of det(xI - A), c_0 = 1.

    Sums over elementary subgraphs instead of calling an eigensolver,
    so it serves as an independent oracle.  Exponential in n; raises
    TooLarge for n > 12.
    """
    n = g.n
    if n > 12:
        raise TooLarge(f"n = {n} exceeds the enumeration limit 12")
    layers = _layers(n)
    A = g.matrix()
    table = np.zeros((1 << n, n), dtype=complex)
    table[1:n + 1] = A                  # the path of one vertex, times A
    flat = table.ravel()
    weight = np.zeros(1 << n)           # a lone vertex weighs 0
    covers = np.zeros(1 << n)
    covers[0] = 1.0
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    for r, (a, b, into, source, closed, sets, rests) in enumerate(layers, start=2):
        flat[into] = flat[source]
        table[a:b] = table[a:b] @ A
        weight[a:b] = -flat[closed].real
        covers[a:b] = (weight[sets] * covers[rests]).cumsum(axis=1)[:, -1]
        coeffs[r] = covers[a:b].cumsum()[-1]
    return (coeffs + 0.0).tolist()      # a zero is +0.0, as a sum of nonzero terms is


def char_poly_from_eigenvalues(evs: list[float]) -> list[float]:
    """Expand prod (x - lambda_j) into a coefficient list, c_0 = 1."""
    return [float(c) for c in np.poly(evs)] if len(evs) else [1.0]
