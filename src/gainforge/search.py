"""Search for two-eigenvalue gain functions on a fixed underlying graph.

The state space is a torus: one free angle per non-tree edge (a spanning
tree can always be switched to gain 1, so its edges are pinned).  The
objective drops to zero exactly when the gain matrix has at most two
distinct eigenvalues.  ``run_search`` solves locally first, by
Levenberg–Marquardt (``refine_gains``) from each chain's seeded start,
and falls back to simulated annealing (``anneal``), polished by the same
solve.  Converged results whose gains land on low-order roots of unity
are snapped to an exact certified graph.

An objective is any callable that maps one Hermitian ``(n, n)`` matrix
to a real number.  A Metropolis step costs one proposal, one objective
call and one acceptance test: one small eigensolve plus a fixed
overhead of about twenty small numpy calls.  The built-in objectives
call LAPACK through numpy's eigvalsh gufunc directly, since for an 8x8
matrix numpy's wrapper adds about half the cost of the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LengthMismatch
from .gains import Gain, GainGraph, _bfs_tree, build, normalize_spanning_tree
from .spectral import TwoEvCertificate, certify_two_ev

Objective = Callable[[np.ndarray], float]


# -- objectives -----------------------------------------------------------------

def _raise_nonconvergence(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# np.linalg.eigvalsh's LAPACK gufunc: for one small matrix the wrapper's
# checks and errstate cost about half as much as the solve.  The square
# complex128 matrices the search builds skip them; other input keeps them.
_EIGVALSH_LO = np.linalg._umath_linalg.eigvalsh_lo
_COMPLEX = np.dtype(complex)


@np.errstate(call=_raise_nonconvergence, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def _eigvalsh(A: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(A), bit for bit and with the same errors."""
    if A.dtype == _COMPLEX and A.ndim >= 2 and A.shape[-1] == A.shape[-2]:
        return _EIGVALSH_LO(A, signature="D->d")
    return np.linalg.eigvalsh(A)


def objective_two_ev(A: np.ndarray) -> float:
    """Frobenius norm of A^2 - (l1+ln)A + l1*ln*I, via the spectral form.

    For Hermitian A the matrix has eigenvalues (l - l1)(l - ln), so the
    norm is computable from the spectrum alone; zero iff at most two
    distinct eigenvalues.
    """
    evs = _eigvalsh(np.asarray(A))
    q = evs - evs[:1]
    q *= evs - evs[-1:]
    q *= q
    return float(np.sqrt(np.add.reduce(q)))


def objective_cospectral(A: np.ndarray, target: np.ndarray) -> float:
    """Sum of squared deviations between the sorted spectra."""
    evs = _eigvalsh(np.asarray(A))
    target = np.sort(np.asarray(target, dtype=float))
    if len(target) != len(evs):
        raise LengthMismatch(f"target has {len(target)} values for order {len(evs)}")
    return float(np.add.reduce(np.square(evs - target)))


# -- configuration and results ----------------------------------------------------

@dataclass
class SearchConfig:
    t0: float = 1.0
    alpha: float = 0.95
    tau: float = 1e-4
    iters_per_temp: int = 2000
    epsilon: float = 1e-6
    seed: int = 0
    chains: int = 1
    snap_order: int = 24

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.t0 <= 0 or self.tau <= 0:
            raise ValueError(f"t0 and tau must be positive, got t0={self.t0}, tau={self.tau}")
        if self.tau >= self.t0:
            raise ValueError("tau must be below t0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.iters_per_temp <= 0:
            raise ValueError("iters_per_temp must be positive")
        if self.chains < 1:
            raise ValueError(f"chains must be at least 1, got {self.chains}")
        if self.snap_order < 1:
            raise ValueError(f"snap_order must be at least 1, got {self.snap_order}")


@dataclass
class SearchResult:
    status: str                     # "Converged" | "Exhausted"
    best_gains: GainGraph
    best_f: float
    snapped: Optional[GainGraph] = None
    snapped_cert: Optional[TwoEvCertificate] = None
    # the trace and the counters describe the annealing: empty and 0 when
    # run_search's local solve converged without it
    trace: list = field(default_factory=list)   # (temperature, best_f) rows
    seed: int = 0
    steps: int = 0          # Metropolis steps taken, one objective call each
    accepted: int = 0       # accepted moves


# -- the annealer ----------------------------------------------------------------

def _edge_layout(underlying: GainGraph):
    """Split edges into a pinned BFS tree and the free remainder."""
    tree = set(_bfs_tree(underlying))           # raises Disconnected
    tree = {(min(u, v), max(u, v)) for u, v in tree}
    all_edges = sorted(underlying.gains.keys())
    free = [e for e in all_edges if e not in tree]
    return sorted(tree), free


def _graph_from_state(n: int, tree: list, free: list, angles: np.ndarray) -> GainGraph:
    edges = [(u, v, Gain.exact(0, 1)) for u, v in tree]
    edges += [(u, v, Gain.numeric(complex(np.exp(1j * a)), tol=1e-6))
              for (u, v), a in zip(free, angles)]
    return build(n, edges)


_DRAW_CHUNK = 4096      # uniforms drawn per refill of a chain's buffer


def _seeded_start(m: int, seed: int):
    """The generator of the chain seeded with seed, and its first draw: m start angles."""
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(0.0, 2.0 * math.pi, size=m)


def _anneal_chain(n: int, tree: list, free: list, cfg: SearchConfig,
                  objective: Objective, seed: int):
    """One Metropolis chain; returns best_f, best_angles, trace and counters.

    Each step scores one proposal and makes one Metropolis test.  The
    uniforms come from one buffer refilled in chunks and read in the order
    of one-by-one draws (m step draws per proposal, then an acceptance draw
    unless the proposal goes downhill): they are the same numbers.
    """
    rng, angles = _seeded_start(len(free), seed)
    m = len(free)
    A = np.zeros((n, n), dtype=complex)
    for u, v in tree:
        A[u, v] = A[v, u] = 1.0
    # flat positions of the free entries above and below the diagonal
    flat = A.reshape(-1)
    upper = np.array([u * n + v for u, v in free], dtype=int)
    lower = np.array([v * n + u for u, v in free], dtype=int)

    # the state and the proposals are carried as i times their angles:
    # multiplying by i is exact, the imaginary parts are the angles and the
    # real parts are +-0, which exp ignores, so a proposal is one addition
    # away from its gains
    phases = 1j * angles
    z = np.exp(phases)
    flat[upper] = z
    flat[lower] = z.conj()
    f = objective(A)
    best_f, best_angles = f, angles.copy()
    steps = accepted = 0
    trace = []
    t = cfg.t0
    converged = f < cfg.epsilon
    # drawn up front, as the window of moves needs m draws: uniforms drawn
    # in chunks are the same numbers as uniforms drawn one by one
    buf, pos = rng.random(max(m + 1, _DRAW_CHUNK)), 0
    while not converged:
        step = math.pi * min(1.0, t)
        lo, span = -step, step - (-step)   # Generator.uniform(-step, step)
        # row r: i times the m angle steps drawn from buf[r] on
        moves = sliding_window_view(1j * (lo + span * buf), m)
        # with no free angle every proposal is the current state and is
        # accepted (exp(0) = 1) to no effect: only the cooling is left
        for _ in range(cfg.iters_per_temp if m else 0):
            if pos + m + 1 > len(buf):
                buf = np.concatenate((buf[pos:], rng.random(max(m + 1, _DRAW_CHUNK))))
                pos = 0
                moves = sliding_window_view(1j * (lo + span * buf), m)
            P = phases + moves[pos]
            Z = np.exp(P)
            flat[upper] = Z
            flat[lower] = Z.conj()
            f_new = objective(A)
            steps += 1
            coin = pos + m
            # a downhill move never reads its acceptance draw
            pos = coin + (not f_new < f)
            # f >= epsilon > 0 here, so the division below is safe
            if f_new < f or buf.item(coin) < math.exp((f - f_new) / (f * t)):
                accepted += 1
                phases, f = P, f_new
                if f < best_f:
                    best_f, best_angles = f, phases.imag.copy()
                if f < cfg.epsilon:
                    converged = True
                    break
        trace.append((t, best_f))
        t *= cfg.alpha
        if t <= cfg.tau:
            break
    return best_f, best_angles, trace, (steps, accepted)


def anneal(underlying: GainGraph, cfg: SearchConfig = SearchConfig(),
           objective: Objective = objective_two_ev) -> SearchResult:
    """Run the annealing loop; returns the best state over all chains.

    The trace logs (temperature, best_f) once per cooling step of the
    winning chain; the counters sum over all chains.  Deterministic for
    a fixed config.
    """
    tree, free = _edge_layout(underlying)
    n = underlying.n
    results = [_anneal_chain(n, tree, free, cfg, objective, cfg.seed + i)
               for i in range(cfg.chains)]
    best_f, best_angles, trace, _ = min(results, key=lambda r: r[0])
    steps, accepted = (sum(c) for c in zip(*(r[3] for r in results)))
    g = _graph_from_state(n, tree, free, best_angles)
    status = "Converged" if best_f < cfg.epsilon else "Exhausted"
    return SearchResult(status, g, best_f, trace=trace, seed=cfg.seed,
                        steps=steps, accepted=accepted)


# -- distillation -----------------------------------------------------------------

def _residual(A: np.ndarray, fu: np.ndarray, fv: np.ndarray):
    """R = A^2 - aA - kI and its (m, n, n) derivatives in the angles of edges (fu, fv).

    k = tr A^2 / n (constant on unit gains) and a = tr A^3 / tr A^2; as
    tr A = 0, R = 0 exactly when A has at most two distinct eigenvalues.
    dA/dθ_e = i z_e E_uv - i conj(z_e) E_vu, d tr A^3 = 3 tr(A^2 dA) and
    dR = dA A + A dA - da A - a dA.
    """
    n, m = len(A), len(fu)
    tr2 = np.vdot(A, A).real
    A2 = A @ A
    a = np.vdot(A2, A).real / tr2
    R = A2 - a * A
    R.flat[::n + 1] -= tr2 / n
    z = A[fu, fv]
    dA = np.zeros((m, n, n), dtype=complex)
    dA[np.arange(m), fu, fv] = 1j * z
    dA[np.arange(m), fv, fu] = -1j * z.conj()
    da = -6.0 * (z * A2[fv, fu]).imag / tr2
    return R, dA @ A + A @ dA - da[:, None, None] * A - a * dA


def refine_gains(g: GainGraph) -> GainGraph:
    """Levenberg–Marquardt solve for two eigenvalues over the non-tree angles.

    Switches g to its spanning-tree normal form (the tree the annealer
    pins) and minimises ||R|| of _residual, one damped Gauss–Newton trial
    step per iteration, for at most 200 iterations.  Stops earlier at a
    residual of rounding size, or when a step gains under a millionth of
    ||R||^2 or the damping passes 1e12.
    Returns the tree-normal graph at the best angles.
    """
    g, _ = normalize_spanning_tree(g)
    tree, free = _edge_layout(g)
    if not free:            # a tree: there is nothing to move
        return g
    fu, fv = np.array(free).T
    A = g.matrix()
    tol = (1e-13 * len(g.gains)) ** 2      # ||R|| <= 5e-14 ||A||^2, as ||A||^2 = 2 |E|

    def at(theta):
        z = np.exp(1j * theta)
        A[fu, fv] = z
        A[fv, fu] = z.conj()
        R, dR = _residual(A, fu, fv)
        J = dR.reshape(len(dR), -1)
        return np.vdot(R, R).real, (J.conj() @ J.T).real, (J.conj() @ R.reshape(-1)).real

    theta = np.array([np.angle(g.gains[e].value) for e in free])
    cost, H, grad = at(theta)
    lam, gain = 1e-3, math.inf
    for _ in range(200):
        # a step that gains under a millionth of the cost marks a stationary
        # point with a nonzero residual: no solution nearby
        if cost <= tol or gain < 1e-6 * cost or lam > 1e12:
            break
        trial = theta - np.linalg.solve(H + lam * np.eye(len(theta)), grad)
        cost_t, H_t, grad_t = at(trial)
        if cost_t < cost:
            gain = cost - cost_t
            theta, cost, H, grad = trial, cost_t, H_t, grad_t
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 10.0
    return _graph_from_state(g.n, tree, free, theta)


def snap_gains(g: GainGraph, Q: int = 24) -> Optional[tuple[GainGraph, TwoEvCertificate]]:
    """Replace each gain by the nearest root of unity of order at most Q.

    Gains further than 1e-3 radians from every such root abort the snap.
    Returns the snapped graph with its certificate at tol 1e-9, or None
    if it does not re-certify.
    """
    edges = []
    for (u, v), gn in sorted(g.gains.items()):
        if gn.is_exact and gn.angle.denominator <= Q:
            edges.append((u, v, gn))
            continue
        turns = (math.atan2(gn.value.imag, gn.value.real) / (2 * math.pi)) % 1.0
        best = None
        for q in range(1, Q + 1):
            p = round(turns * q)
            dist = abs(turns - p / q)
            if best is None or dist < best[0]:
                best = (dist, p % q, q)
        dist, p, q = best
        if dist * 2 * math.pi <= 1e-3:
            edges.append((u, v, Gain.exact(p, q)))
        else:
            return None
    snapped = build(g.n, edges)
    cert = certify_two_ev(snapped, tol=1e-9)
    return None if cert is None else (snapped, cert)


def run_search(underlying: GainGraph, cfg: SearchConfig = SearchConfig(),
               objective: Objective = objective_two_ev) -> SearchResult:
    """refine_gains from each chain's seeded start; anneal and refine if none converges.

    "Converged" means the objective of best_gains is below cfg.epsilon; a
    converged run is snapped to low-order roots of unity if they re-certify.
    """
    tree, free = _edge_layout(underlying)
    for i in range(cfg.chains):
        _, angles = _seeded_start(len(free), cfg.seed + i)
        g = refine_gains(_graph_from_state(underlying.n, tree, free, angles))
        f = objective(g.matrix())
        if f < cfg.epsilon:
            result = SearchResult("Converged", g, f, seed=cfg.seed)
            break
    else:
        result = anneal(underlying, cfg, objective)
        refined = refine_gains(result.best_gains)
        refined_f = objective(refined.matrix())
        if refined_f < result.best_f:
            result.best_gains, result.best_f = refined, refined_f
            result.status = "Converged" if refined_f < cfg.epsilon else "Exhausted"
    if result.status == "Converged":
        snap = snap_gains(result.best_gains, cfg.snap_order)
        if snap is not None:
            result.snapped, result.snapped_cert = snap
    return result
