"""Search for two-eigenvalue gain functions on a fixed underlying graph.

The state space is a torus: one free angle per non-tree edge (a spanning
tree can always be switched to gain 1, so its edges are pinned).  Both
search stages work on one residual, R = A^2 - aA - kI fitted by least
squares (``_fit``), which is zero exactly when the gain matrix has at most
two distinct eigenvalues.  One call runs one chain, seeded with
``cfg.seed``.  ``run_search`` solves locally, by Levenberg–Marquardt on R
(``refine_gains``), from the seeded start, and if that fails anneals on
||R||_F, hands its best state to the same solve as it cools (basin
hopping) until it converges or stalls, and polishes it once at the end.
``anneal`` runs the bare chain to the end of its schedule.  Converged
results whose gains land on low-order roots of unity are snapped to an
exact certified graph.  A multi-start search is a loop over seeds.

An objective is any callable that maps one Hermitian ``(n, n)`` matrix
to a real number.  The chain scores its states through ``_scorer``,
prepared once per support.  ``objective_two_ev`` is scored in cycle form:
one small matvec over the triangles and 4-cycles, one ``cos`` and two
reductions per step, with no matrix.  That form cancels near zero, so it
only ranks moves: "Converged" is decided on the matrix.  Any other
objective is called on the gain matrix, written in place at each step;
only ``objective_cospectral`` solves for eigenvalues.  One writer,
``_writer``, puts a state's exp(i * angle) and its conjugate into the
matrix, for the chain's scores and rescores and for ``refine_gains``.

The polish builds nothing it does not need.  ``refine_gains`` switches to
the tree-normal form only when a tree gain is not the exact 1, which a
state handed over by ``run_search`` always is; it writes each iterate's
matrix with ``_writer`` and its derivatives into one buffer per solve.
A state's graph (``_graph_from_state``) takes one sort of its u < v
pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import LengthMismatch
from .gains import (GainGraph, _bfs_tree, _check_unit, _exponents, _graph, _positions, _roots,
                    normalize_spanning_tree)
from .spectral import TwoEvCertificate, certify_two_ev

Objective = Callable[[np.ndarray], float]


# -- objectives -----------------------------------------------------------------

def _fit(A: np.ndarray):
    """R = A^2 - aA - kI, with A^2, a and tr A^2, for a Hermitian A with tr A = 0.

    a = tr A^3 / tr A^2 and k = tr A^2 / n fit A^2 by least squares on
    span{A, I}, whose two vectors are orthogonal as tr A = 0; R = 0 exactly
    when A has at most two distinct eigenvalues.  A = 0 gives a = k = 0.
    """
    n = len(A)
    tr2 = np.vdot(A, A).real
    A2 = A.dot(A)       # the same bits as A @ A, and for 8x8 about 0.4 us cheaper
    a = k = 0.0
    if tr2:
        a, k = np.vdot(A2, A).real / tr2, tr2 / n
    R = A2 - a * A
    R.ravel("K")[::n + 1] -= k      # a view, as the new R is contiguous
    return R, A2, a, tr2


def objective_two_ev(A: np.ndarray) -> float:
    """||R||_F for R = A^2 - aA - kI, the least-squares residual of A^2 on span{A, I}.

    Zero exactly when the Hermitian matrix A has at most two distinct
    eigenvalues; ``refine_gains`` drives the same R to zero.  A is centred
    first (shifting by a multiple of I leaves the span and R unchanged) and
    R is formed by ``_fit``.  Raises LinAlgError on non-square input and
    where R is not a number, as for NaN input.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise np.linalg.LinAlgError("objective_two_ev needs one square matrix")
    # a gain matrix has a zero diagonal and needs no centring; this test
    # costs a quarter of the trace
    if any(A.diagonal().tolist()):
        n = len(A)
        A = A - A.trace().real / n * np.eye(n)
    R = _fit(A)[0]
    f = math.sqrt(np.vdot(R, R).real)
    if math.isnan(f):
        raise np.linalg.LinAlgError("objective_two_ev input is not finite")
    return f


def objective_cospectral(A: np.ndarray, target: np.ndarray) -> float:
    """Sum of squared deviations between the sorted spectra; target in any order."""
    return _cospectral(A, np.sort(np.asarray(target, dtype=float)))


def _cospectral(A: np.ndarray, target: np.ndarray) -> float:
    """objective_cospectral for a float target already sorted ascending."""
    evs = np.linalg.eigvalsh(A)
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
    snap_order: int = 24

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        # NaN fails each check: a NaN or infinite t0 would never cool to tau
        if not (self.t0 > 0 and self.tau > 0):
            raise ValueError(f"t0 and tau must be positive, got t0={self.t0}, tau={self.tau}")
        if not self.tau < self.t0 < math.inf:
            raise ValueError(f"tau must be below t0 and t0 finite, got t0={self.t0}, tau={self.tau}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.iters_per_temp <= 0:
            raise ValueError("iters_per_temp must be positive")
        if self.snap_order < 1:
            raise ValueError(f"snap_order must be at least 1, got {self.snap_order}")


@dataclass
class SearchResult:
    status: str                     # "Converged" | "Exhausted"
    best_gains: GainGraph
    best_f: float                   # the objective of best_gains.matrix()
    snapped: Optional[GainGraph] = None
    snapped_cert: Optional[TwoEvCertificate] = None
    # the chain's annealing, empty (with zero counters) if run_search's start
    # solved or the support has no free angle; run_search stops the chain
    # early, so its trace is a prefix of anneal's
    trace: list = field(default_factory=list)   # (temperature, chain's best score) rows
    seed: int = 0
    steps: int = 0          # Metropolis steps taken, one score each
    accepted: int = 0       # accepted moves


# -- the annealer ----------------------------------------------------------------

def _edge_layout(underlying: GainGraph):
    """Split edges into a pinned BFS tree and the free remainder."""
    tree = set(_bfs_tree(underlying))           # raises Disconnected
    tree = {(min(u, v), max(u, v)) for u, v in tree}
    free = [e for e in zip(underlying.u.tolist(), underlying.v.tolist()) if e not in tree]
    return sorted(tree), free


def _graph_from_state(n: int, tree: list, free: list, angles: np.ndarray) -> GainGraph:
    """Exact gain 1 on the tree edges, exp(i * angle) on the free ones."""
    z = np.ones(len(tree) + len(free), dtype=complex)
    z[len(tree):] = np.exp(1j * np.asarray(angles, dtype=float))
    if not np.isfinite(z).all():     # a finite angle gives a unit gain
        _check_unit(z, 1e-6)
    k = np.zeros(len(z), dtype=np.int64)
    k[len(tree):] = -1
    # tree and free pairs are u < v already: only their order is left to set
    u, v = np.array(tree + free, dtype=np.intp).reshape(-1, 2).T
    order = np.argsort(u * n + v)
    return _graph(n, u[order], v[order], k[order], z[order], 1)


def _writer(n: int, tree: list, free: list):
    """write(angles): the state's gain matrix, one array rewritten at the free entries.

    The array holds what ``_graph_from_state(...).matrix()`` holds, bit for
    bit: the tree's exact 1s above the diagonal and their conjugates 1 - 0j
    below it, and each write puts exp(i * angle) and its conjugate at the
    free entries.
    """
    A = np.zeros((n, n), dtype=complex)
    flat = A.reshape(-1)
    tu, tv = np.array(tree, dtype=int).reshape(-1, 2).T
    flat[tu * n + tv] = 1.0
    flat[tv * n + tu] = complex(1.0, -0.0)
    # flat positions of the free entries above and below the diagonal
    fu, fv = np.array(free, dtype=int).reshape(-1, 2).T
    upper, lower = fu * n + fv, fv * n + fu

    def write(angles: np.ndarray) -> np.ndarray:
        Z = np.exp(1j * angles)
        flat[upper] = Z
        flat[lower] = Z.conj()
        return A

    return write


def _seeded_start(m: int, seed: int):
    """The generator of the chain seeded with seed, and its first draw: m start angles."""
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(0.0, 2.0 * math.pi, size=m)


# The cycle form costs a (rows, m) matvec and one cos per row a step, so
# writing the matrix wins once rows * m is large: per step, 8.9 against
# 15.7 us on SIC3 (462 cycles x 28 angles), 19.1 against 14.0 us on
# K10star (750 x 36).  Past this product the chain scores on the matrix.
_CYCLE_CAP = 20_000


def _cycles(n: int, edges: list):
    """Every triangle (a, b, c), then every 4-cycle (a, b, c, d), of the graph, once.

    A cycle starts at its lowest vertex a.  A 4-cycle is found through a
    pair b < d of common neighbours of a and its opposite vertex c.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    up = [sorted(w for w in adj[a] if w > a) for a in range(n)]
    for a in range(n):
        for i, b in enumerate(up[a]):
            for c in up[a][i + 1:]:
                if c in adj[b]:
                    yield a, b, c
    for a in range(n):
        for c in range(a + 1, n):
            common = [w for w in up[a] if w in adj[c]]
            for i, b in enumerate(common):
                for d in common[i + 1:]:
                    yield a, b, c, d


def _cycle_scorer(n: int, tree: list, free: list):
    """objective_two_ev of a state from its cycle angles, or None past _CYCLE_CAP.

    R is the residual of A^2 projected onto span{A, I}, so
    ||R||^2 = tr A^4 - (tr A^3)^2 / tr A^2 - (tr A^2)^2 / n.  On unit gains
    tr A^2 = 2|E| is fixed, tr A^3 = 6 sum cos(triangle angle) and
    tr A^4 = c4 + 8 sum cos(4-cycle angle), where c4 = 2 sum deg^2 - 2|E|
    counts the closed 4-walks that backtrack.  A cycle angle is a signed
    sum of free angles: row r of B holds its signs.  The sum cancels: on
    exact catalog solutions it reads up to 2.4e-7 (MUB_C3(3)) where the
    matrix reads under 1e-14, and a negative square reads as 0.
    """
    m = len(free)
    limit = _CYCLE_CAP // m
    cycles = list(itertools.islice(_cycles(n, tree + free), limit + 1))
    if len(cycles) > limit:
        return None
    column = {e: j for j, e in enumerate(free)}
    B = np.zeros((len(cycles), m))
    for r, cycle in enumerate(cycles):
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            j = column.get((min(x, y), max(x, y)))
            if j is not None:
                B[r, j] = 1.0 if x < y else -1.0
    triangles = sum(len(cycle) == 3 for cycle in cycles)
    weights = np.zeros((2, len(cycles)))
    weights[0, :triangles] = 6.0        # to tr A^3
    weights[1, triangles:] = 8.0        # to tr A^4 - c4
    tr2 = 2.0 * (len(tree) + m)
    degrees = np.bincount(np.array(tree + free).reshape(-1), minlength=n)
    base = 2.0 * float(np.square(degrees).sum()) - tr2 - tr2 * tr2 / n     # c4 - tr2^2 / n

    def score(angles: np.ndarray) -> float:
        tr3, cycles4 = weights.dot(np.cos(B.dot(angles))).tolist()
        return math.sqrt(max(base + cycles4 - tr3 * tr3 / tr2, 0.0))

    return score


def _scorer(n: int, tree: list, free: list, objective: Objective):
    """The chain's score(angles), and rescore(angles, f) on the state's gain matrix.

    rescore gives the objective of the matrix of a state that scored f.
    objective_two_ev is scored in cycle form (``_cycle_scorer``) where it
    fits under _CYCLE_CAP and the support has a free angle, and rescored
    on the state's gain matrix.  Every other objective is called on the
    gain matrix, written in place, and rescore returns f as it is.
    """
    write = _writer(n, tree, free)
    if free and objective is objective_two_ev:
        score = _cycle_scorer(n, tree, free)
        if score is not None:
            return score, lambda angles, f: objective_two_ev(write(angles))
    return lambda angles: objective(write(angles)), lambda angles, f: f


def _anneal_chain(m: int, cfg: SearchConfig, score, rescore):
    """The Metropolis chain on m free angles seeded with cfg.seed, as a generator.

    Yields (t, best_f, best_angles, steps, accepted): first the start, with
    t None and no step taken, then once after each temperature t.  It ends
    when a state scores below cfg.epsilon on its matrix or t cools to
    cfg.tau; a consumer may also stop early.  score and rescore come from
    ``_scorer``.  A state that scores below cfg.epsilon takes its rescore,
    so "Converged" is never decided on the cycle form; best_f, and the
    trace rows built from it, may carry cycle-form scores otherwise.

    Each temperature draws an (iters_per_temp, m) block of real angle
    steps with one ``rng.uniform`` call, then its acceptance uniforms with
    one ``rng.random`` call; step r scores row r and tests it with coin r.
    The block is 52 KB for the octagon complement (m = 13) at 500 steps
    per temperature, 208 KB at the default 2000.
    """
    rng, angles = _seeded_start(m, cfg.seed)
    f = score(angles)
    if f < cfg.epsilon:
        f = rescore(angles, f)
    best_f, best_angles = f, angles
    steps = accepted = 0
    yield None, best_f, best_angles, steps, accepted
    t = cfg.t0
    converged = f < cfg.epsilon
    # with no free angle nothing moves: only the cooling is left
    iters = cfg.iters_per_temp if m else 0
    while not converged:
        step = math.pi * min(1.0, t)
        moves = rng.uniform(-step, step, size=(iters, m))
        coins = rng.random(iters)
        for move, coin in zip(moves, coins.tolist()):
            P = angles + move
            f_new = score(P)
            steps += 1
            # f >= epsilon > 0 here, so the division below is safe
            if f_new < f or coin < math.exp((f - f_new) / (f * t)):
                accepted += 1
                if f_new < cfg.epsilon:
                    f_new = rescore(P, f_new)
                angles, f = P, f_new
                if f < best_f:
                    best_f, best_angles = f, angles
                if f < cfg.epsilon:
                    converged = True
                    break
        yield t, best_f, best_angles, steps, accepted
        t *= cfg.alpha
        if t <= cfg.tau:
            break


def anneal(underlying: GainGraph, cfg: SearchConfig = SearchConfig(),
           objective: Objective = objective_two_ev) -> SearchResult:
    """Run the annealing chain to the end of its schedule, or until it converges.

    The trace logs (temperature, best_f) once per cooling step, in the
    chain's scores; the result's best_f is the objective of best_gains.
    Deterministic for a fixed config.
    """
    tree, free = _edge_layout(underlying)
    score, rescore = _scorer(underlying.n, tree, free, objective)
    states = list(_anneal_chain(len(free), cfg, score, rescore))
    _, best_f, best_angles, steps, accepted = states[-1]
    g = _graph_from_state(underlying.n, tree, free, best_angles)
    best_f = rescore(best_angles, best_f)
    status = "Converged" if best_f < cfg.epsilon else "Exhausted"
    return SearchResult(status, g, best_f, trace=[(t, f) for t, f, *_ in states[1:]],
                        seed=cfg.seed, steps=steps, accepted=accepted)


# -- distillation -----------------------------------------------------------------

def _derivative_buffer(n: int, fu: np.ndarray, fv: np.ndarray):
    """A zero (m, n, n) array for dA/dθ_e, with the flat positions _residual writes.

    Those are (e, fu_e, fv_e) and (e, fv_e, fu_e); every other entry stays
    zero, so one buffer serves every iteration of a solve.
    """
    e = np.arange(len(fu)) * (n * n)
    return np.zeros((len(fu), n, n), dtype=complex), e + fu * n + fv, e + fv * n + fu


def _residual(A: np.ndarray, fu: np.ndarray, fv: np.ndarray, buffer: tuple):
    """R of _fit and its (m, n, n) derivatives in the angles of edges (fu, fv).

    A is a gain matrix: its diagonal is zero, so _fit takes it as it is.
    k = tr A^2 / n is constant on unit gains, so only a moves:
    dA/dθ_e = i z_e E_uv - i conj(z_e) E_vu, d tr A^3 = 3 tr(A^2 dA) and
    dR = dA A + A dA - da A - a dA.  buffer is a ``_derivative_buffer``
    for A's order and these edges.
    """
    R, A2, a, tr2 = _fit(A)
    dA, upper, lower = buffer
    z = A[fu, fv]
    flat = dA.reshape(-1)
    flat[upper] = 1j * z
    flat[lower] = -1j * z.conj()
    da = -6.0 * (z * A2[fv, fu]).imag / tr2
    return R, dA @ A + A @ dA - da[:, None, None] * A - a * dA


def refine_gains(g: GainGraph) -> GainGraph:
    """Levenberg–Marquardt solve for two eigenvalues over the non-tree angles.

    Switches g to its spanning-tree normal form (the tree the annealer
    pins), unless every tree gain is already the exact 1, and minimises
    ||R|| of _residual, one damped Gauss–Newton trial step per iteration,
    for at most 200 iterations.  Stops earlier at a residual of rounding
    size, or when a step gains under a millionth of ||R||^2 or the damping
    passes 1e12.
    Returns the tree-normal graph at the best angles.
    """
    tree, free = _edge_layout(g)
    # run_search's states carry the exact 1 on the tree already; the switch
    # keeps the support, so the layout stands
    if np.count_nonzero(g.k[_positions(g, tree)]):
        g, _ = normalize_spanning_tree(g)
    if not free:            # a tree: there is nothing to move
        return g
    fu, fv = np.array(free).T
    write = _writer(g.n, tree, free)
    buffer = _derivative_buffer(g.n, fu, fv)
    eye = np.eye(len(free))
    tol = (1e-13 * g.u.size) ** 2          # ||R|| <= 5e-14 ||A||^2, as ||A||^2 = 2 |E|

    def at(theta):
        R, dR = _residual(write(theta), fu, fv, buffer)
        J = dR.reshape(len(dR), -1)
        Jc = J.conj()
        return np.vdot(R, R).real, (Jc @ J.T).real, (Jc @ R.reshape(-1)).real

    theta = np.angle(g.matrix()[fu, fv])
    cost, H, grad = at(theta)
    lam, gain = 1e-3, math.inf
    for _ in range(200):
        # a step that gains under a millionth of the cost marks a stationary
        # point with a nonzero residual: no solution nearby
        if cost <= tol or gain < 1e-6 * cost or lam > 1e12:
            break
        trial = theta - np.linalg.solve(H + lam * eye, grad)
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

    Exact gains of order at most Q stay.  Gains further than 1e-3 radians
    from every such root abort the snap.  Returns the snapped graph with
    its certificate at tol 1e-9, or None if it does not re-certify.
    ValueError unless Q >= 1.
    """
    if not Q >= 1:
        raise ValueError(f"snap order Q must be at least 1, got {Q}")
    rotations = []      # (p, q) per edge
    for j, z in zip(g.k.tolist(), g.z.tolist()):
        d = math.gcd(j, g.L)
        if j >= 0 and g.L // d <= Q:
            rotations.append((j // d, g.L // d))
            continue
        turns = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0
        best = None
        for q in range(1, Q + 1):
            p = round(turns * q)
            dist = abs(turns - p / q)
            if best is None or dist < best[0]:
                best = (dist, p % q, q)
        dist, p, q = best
        if not dist * 2 * math.pi <= 1e-3:
            return None
        rotations.append((p, q))
    k, L = _exponents(rotations)
    snapped = _graph(g.n, g.u, g.v, k, _roots(k, L), L)
    cert = certify_two_ev(snapped, tol=1e-9)
    return None if cert is None else (snapped, cert)


# run_search hands the chain's best state to refine_gains whenever its
# best_f has halved since the last hand-off, and gives up after _STALL
# temperatures in a row in which the chain's best_f did not fall below the
# fraction 1 - _STALL_DROP of the last one's
_STALL = 10
_STALL_DROP = 1e-3


def run_search(underlying: GainGraph, cfg: SearchConfig = SearchConfig(),
               objective: Objective = objective_two_ev) -> SearchResult:
    """Start → anneal → one closing polish → snap, for the chain seeded with cfg.seed.

    Returns the local solve from the seeded start, with no trace and zero
    counters, if it converges or the support has no free angle to anneal.
    Else anneals with hand-offs until a polish converges or the chain
    stalls or ends, polishes its final best state unless the last hand-off
    did, and returns the lowest of that state and every polish, the
    start's included, with the chain's trace and counters.  "Converged"
    means the objective of best_gains is below cfg.epsilon; a converged
    run is snapped to low-order roots of unity if they re-certify.
    """
    tree, free = _edge_layout(underlying)
    n = underlying.n

    def polish(angles, kept=None):
        """refine_gains from these angles with its score, or kept if that scores no higher."""
        g = refine_gains(_graph_from_state(n, tree, free, angles))
        f = objective(g.matrix())
        return (g, f) if kept is None or f < kept[1] else kept

    best = polish(_seeded_start(len(free), cfg.seed)[1])
    trace, steps, accepted = [], 0, 0
    if free and not best[1] < cfg.epsilon:
        score, rescore = _scorer(n, tree, free, objective)
        chain = _anneal_chain(len(free), cfg, score, rescore)
        _, best_f, best_angles, steps, accepted = next(chain)
        handed = prev = math.inf
        handed_angles = None
        stalled = 0
        for t, best_f, best_angles, steps, accepted in chain:
            trace.append((t, best_f))
            if best_f <= handed / 2:
                handed, handed_angles = best_f, best_angles
                best = polish(best_angles, best)
                if best[1] < cfg.epsilon:
                    break
            # a stall is judged on the chain's own best_f, not on the polished
            # one; a NaN or infinite best_f never falls, so it stalls
            stalled = 0 if best_f < (1 - _STALL_DROP) * prev else stalled + 1
            prev = best_f
            if stalled == _STALL:
                break
        # the chain yields a new array only when its best state moves
        if best_angles is not handed_angles:
            best = polish(best_angles, best)
        best_f = rescore(best_angles, best_f)
        if not best[1] < best_f:
            best = _graph_from_state(n, tree, free, best_angles), best_f
    g, f = best
    status = "Converged" if f < cfg.epsilon else "Exhausted"
    result = SearchResult(status, g, f, trace=trace, seed=cfg.seed,
                          steps=steps, accepted=accepted)
    if status == "Converged":
        snap = snap_gains(g, cfg.snap_order)
        if snap is not None:
            result.snapped, result.snapped_cert = snap
    return result
