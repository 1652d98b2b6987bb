"""Annealer, objectives, gain refinement and snapping."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

from gainforge import search
from gainforge.constructions import catalog_entry, complete, toral
from gainforge.errors import Disconnected, LengthMismatch
from gainforge.gains import Gain, build, switch, switching_isomorphic
from gainforge.search import (
    SearchConfig,
    SearchResult,
    anneal,
    objective_cospectral,
    objective_two_ev,
    refine_gains,
    run_search,
    snap_gains,
)
from gainforge.spectral import certify_two_ev

ONE = Gain.exact(0, 1)
QUICK = dict(t0=1.0, alpha=0.9, iters_per_temp=500, tau=1e-4, epsilon=1e-6)


def c4():
    return build(4, [(0, 1, ONE), (1, 2, ONE), (2, 3, ONE), (3, 0, ONE)])


def octagon_complement():
    # 8 vertices, each joined to the 5 non-neighbours on the 8-cycle
    return build(8, [(u, v, ONE) for u in range(8) for v in range(u + 1, 8)
                     if (v - u) % 8 not in (1, 7)])


SUPPORTS = {
    "C4": c4,
    "K4": lambda: complete(4),
    "cube": lambda: build(8, [(u, v, ONE) for u in range(8) for v in range(u + 1, 8)
                              if bin(u ^ v).count("1") == 1]),
    "octahedron": lambda: build(6, [(u, v, ONE) for u in range(6) for v in range(u + 1, 6)
                                    if {u, v} not in ({0, 1}, {2, 3}, {4, 5})]),
    "octagon complement": octagon_complement,
    "K33": lambda: build(6, [(u, v, ONE) for u in range(3) for v in range(3, 6)]),
}


# -- objectives -------------------------------------------------------------------

def test_objective_zero_on_a_two_ev_graph():
    g = catalog_entry("W4").build()
    assert objective_two_ev(g.matrix()) < 1e-12


def test_objective_on_the_plain_four_cycle():
    # eigenvalues 2, 0, 0, -2: each zero mode contributes (0-2)(0+2) = -4
    assert objective_two_ev(c4().matrix()) == pytest.approx(4 * math.sqrt(2))


def test_objective_on_the_empty_matrix():
    assert objective_two_ev(np.zeros((0, 0))) == 0.0


def test_cospectral_objective():
    A = complete(4).matrix()
    target = np.array([-1.0, -1.0, -1.0, 3.0])
    assert objective_cospectral(A, target) == pytest.approx(0.0, abs=1e-24)
    assert objective_cospectral(A, target + [0, 0, 0, 0.5]) == pytest.approx(0.25)
    with pytest.raises(LengthMismatch):
        objective_cospectral(A, np.zeros(5))


# the objectives as written on np.linalg.eigvalsh: the library's own
# eigensolve and arithmetic must reproduce them bit for bit
def _numpy_two_ev(A):
    evs = np.linalg.eigvalsh(A)
    q = evs - evs[:1]
    q *= evs - evs[-1:]
    q *= q
    return float(np.sqrt(np.add.reduce(q)))


def _numpy_cospectral(A, target):
    evs = np.linalg.eigvalsh(A)
    return float(np.sum((evs - np.sort(target)) ** 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
def test_objectives_equal_their_numpy_formulas_bit_for_bit(n):
    rng = np.random.default_rng(n)
    target = rng.normal(size=n)
    for _ in range(4):
        for scale in (1e-3, 1.0, 1e3):
            X = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            hermitian = X + X.T.conj()
            for A in (hermitian, hermitian.real):
                for got, want in ((objective_two_ev(A), _numpy_two_ev(A)),
                                  (objective_cospectral(A, target), _numpy_cospectral(A, target))):
                    assert type(got) is float and got == want


@pytest.mark.parametrize("objective", [objective_two_ev,
                                       lambda A: objective_cospectral(A, np.zeros(4))],
                         ids=["two_ev", "cospectral"])
def test_objectives_raise_linalgerror_where_eigvalsh_does(objective):
    bad = np.full((4, 4), np.nan, dtype=complex)
    errstate = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # and no floating-point warning first
        for A in (bad, np.zeros((4, 3), dtype=complex)):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(A)
            with pytest.raises(np.linalg.LinAlgError):
                objective(A)
    assert np.geterr() == errstate


# -- configuration ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(alpha=1.0)
    with pytest.raises(ValueError):
        SearchConfig(tau=2.0, t0=1.0)
    with pytest.raises(ValueError):
        SearchConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SearchConfig(iters_per_temp=0)


@pytest.mark.parametrize("bad", [
    dict(t0=0, tau=-1),
    dict(t0=1, tau=-1, alpha=0.5),
    dict(chains=0),
    dict(snap_order=0),
    dict(snap_order=-3),
])
def test_config_rejects_values_the_annealer_cannot_run(bad):
    with pytest.raises(ValueError, match="must be (positive|at least 1)"):
        SearchConfig(**bad)


# -- annealing ---------------------------------------------------------------------

def test_anneal_requires_connected_support():
    g = build(4, [(0, 1, ONE), (2, 3, ONE)])
    with pytest.raises(Disconnected):
        anneal(g, SearchConfig(**QUICK))


def test_anneal_is_deterministic_for_a_fixed_seed():
    cfg = SearchConfig(seed=11, **QUICK)
    r1 = anneal(c4(), cfg)
    r2 = anneal(c4(), cfg)
    assert r1.best_f == r2.best_f
    assert r1.trace == r2.trace
    assert np.array_equal(r1.best_gains.matrix(), r2.best_gains.matrix())


def test_anneal_trace_temperatures_cool_geometrically():
    cfg = SearchConfig(seed=3, **QUICK)
    res = anneal(c4(), cfg)
    temps = [t for t, _ in res.trace]
    assert temps[0] == pytest.approx(1.0)
    for a, b in zip(temps, temps[1:]):
        assert b == pytest.approx(a * 0.9)


def test_run_search_on_the_four_cycle_snaps_to_the_quarter_turn_square():
    res = run_search(c4(), SearchConfig(seed=0, **QUICK))
    assert res.status == "Converged" and res.best_f < 1e-6
    assert res.snapped is not None and res.snapped_cert is not None
    assert res.snapped_cert.theta1 == pytest.approx(math.sqrt(2), abs=1e-9)
    target = catalog_entry("IG(W2)").build()
    assert switching_isomorphic(res.snapped, target, tol=1e-6) is not None


def test_run_search_reports_exhausted_on_a_hopeless_support():
    res = run_search(octagon_complement(), SearchConfig(seed=0, **QUICK))
    assert res.status == "Exhausted"
    assert res.best_f > 1e-6
    assert res.snapped is None


def test_extra_chains_only_improve_the_result():
    base = anneal(c4(), SearchConfig(seed=9, **QUICK))
    multi = anneal(c4(), SearchConfig(seed=9, chains=3, **QUICK))
    assert multi.best_f <= base.best_f


# the annealer written plainly: one proposal, one eigensolve and one
# Metropolis test at a time, each draw taken from the generator as needed
def _reference_chain(n: int, tree: list, free: list, cfg: SearchConfig,
                     objective, seed: int):
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=complex)
    for u, v in tree:
        A[u, v] = A[v, u] = 1.0
    fu = np.array([e[0] for e in free], dtype=int)
    fv = np.array([e[1] for e in free], dtype=int)

    def place(angles: np.ndarray) -> None:
        z = np.exp(1j * angles)
        A[fu, fv] = z
        A[fv, fu] = z.conj()

    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(free))
    place(angles)
    f = objective(A)
    best_f, best_angles = f, angles.copy()
    trace = []
    t = cfg.t0
    converged = f < cfg.epsilon
    while not converged:
        for _ in range(cfg.iters_per_temp):
            step = math.pi * min(1.0, t)
            proposal = angles + rng.uniform(-step, step, size=len(free))
            place(proposal)
            f_new = objective(A)
            # f >= epsilon > 0 here, so the division below is safe
            if f_new < f or rng.random() < math.exp((f - f_new) / (f * t)):
                angles, f = proposal, f_new
                if f < best_f:
                    best_f, best_angles = f, angles.copy()
                if f < cfg.epsilon:
                    converged = True
                    break
            else:
                place(angles)
        trace.append((t, best_f))
        t *= cfg.alpha
        if t <= cfg.tau:
            break
    return best_f, best_angles, trace, converged


def _reference_anneal(underlying, cfg):
    tree, free = search._edge_layout(underlying)
    results = [_reference_chain(underlying.n, tree, free, cfg, _numpy_two_ev,
                                cfg.seed + i) for i in range(cfg.chains)]
    best_f, best_angles, trace, _ = min(results, key=lambda r: r[0])
    return best_f, search._graph_from_state(underlying.n, tree, free, best_angles), trace


SHORT = dict(t0=1.0, alpha=0.75, iters_per_temp=120, tau=1e-3, epsilon=1e-6)


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_anneal_follows_the_reference_chain(name):
    support = SUPPORTS[name]()
    for seed, chains in [(0, 1), (1, 1), (2, 1), (5, 3)]:
        cfg = SearchConfig(seed=seed, chains=chains, **SHORT)
        best_f, best_gains, trace = _reference_anneal(support, cfg)
        res = anneal(support, cfg)
        assert res.best_f == best_f
        assert res.trace == trace
        assert np.array_equal(res.best_gains.matrix(), best_gains.matrix())


def test_counters_bound_each_other():
    for name in ("C4", "octagon complement"):
        cfg = SearchConfig(seed=2, chains=2, **SHORT)
        calls = []

        def counted(A):
            calls.append(1)
            return objective_two_ev(A)

        res = anneal(SUPPORTS[name](), cfg, objective=counted)
        assert all(type(c) is int for c in (res.steps, res.accepted))
        assert 0 < res.accepted <= res.steps
        # one objective call per step, plus one per chain for its start
        assert len(calls) == res.steps + cfg.chains
    # an unconverged chain takes every step of its schedule
    res = anneal(octagon_complement(), SearchConfig(seed=2, **SHORT))
    assert res.status == "Exhausted"
    assert res.steps == len(res.trace) * SHORT["iters_per_temp"]


def test_a_tree_support_only_runs_the_cooling_schedule():
    path = build(3, [(0, 1, ONE), (1, 2, ONE)])
    cfg = SearchConfig(seed=1, **QUICK)
    start = time.perf_counter()
    res = anneal(path, cfg)
    elapsed = time.perf_counter() - start
    # eigenvalues sqrt 2, 0, -sqrt 2: the middle one gives |(0 - sqrt 2)(0 + sqrt 2)|
    assert res.status == "Exhausted"
    assert res.best_f == objective_two_ev(path.matrix()) == pytest.approx(2.0)
    temps = math.ceil(math.log(QUICK["tau"]) / math.log(QUICK["alpha"]))
    assert len(res.trace) == temps
    assert res.trace == [(t, res.best_f) for t, _ in res.trace]
    assert (res.steps, res.accepted) == (0, 0)
    assert elapsed < 1.0
    short = SearchConfig(seed=1, **SHORT)
    best_f, _, trace = _reference_anneal(path, short)
    res = anneal(path, short)
    assert (res.best_f, res.trace) == (best_f, trace)


# -- the local solve first, annealing as the fallback --------------------------------

@pytest.mark.parametrize("name", ["cube", "octahedron"])
def test_residual_jacobian_matches_central_differences(name):
    support = SUPPORTS[name]()
    tree, free = search._edge_layout(support)
    fu, fv = np.array(free).T
    rng = np.random.default_rng(8)
    h = 1e-6

    def residual(angles):
        A = search._graph_from_state(support.n, tree, free, angles).matrix()
        return search._residual(A, fu, fv)

    for _ in range(3):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=len(free))
        _, dR = residual(angles)
        assert dR.shape == (len(free), support.n, support.n)
        for e in range(len(free)):
            step = h * np.eye(len(free))[e]
            central = (residual(angles + step)[0] - residual(angles - step)[0]) / (2 * h)
            assert np.max(np.abs(dR[e] - central)) < 1e-7


def test_refine_returns_the_tree_normal_graph():
    support = SUPPORTS["octahedron"]()
    tree, free = search._edge_layout(support)
    _, angles = search._seeded_start(len(free), 0)
    start = search._graph_from_state(support.n, tree, free, angles)
    # a switch moves tree gains off 1 without changing the spectrum
    s = [Gain.exact(v, 7) for v in range(support.n)]
    refined = refine_gains(switch(start, s))
    assert refined.support() == support.support()
    assert all(refined.gain(u, v) == ONE for u, v in tree)
    assert objective_two_ev(refined.matrix()) < 1e-9


def test_refine_stops_at_a_stationary_point(monkeypatch):
    # on the octagon complement, the search's negative control, these local
    # solves end at stationary points with a nonzero residual; run until
    # the damping limit, they take 1161 residuals
    support = octagon_complement()
    tree, free = search._edge_layout(support)
    residual, calls = search._residual, []

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(search, "_residual", counted)
    for seed in range(10):
        _, angles = search._seeded_start(len(free), seed)
        refined = refine_gains(search._graph_from_state(support.n, tree, free, angles))
        assert objective_two_ev(refined.matrix()) > 1.0
    assert len(calls) < 700


@pytest.mark.parametrize("name", ["C4", "K4", "K33", "octahedron"])
def test_run_search_solves_known_supports_without_annealing(name):
    support = SUPPORTS[name]()
    for seed in range(10):
        res = run_search(support, SearchConfig(seed=seed, **QUICK))
        assert res.status == "Converged" and res.best_f < 1e-6
        assert res.trace == []
        assert (res.steps, res.accepted) == (0, 0)
        assert res.best_gains.support() == support.support()
        h, tol = (res.snapped, 1e-9) if res.snapped is not None else (res.best_gains, 1e-5)
        assert certify_two_ev(h, tol=tol) is not None


# a path has no free angle, so its local solve has nothing to move
@pytest.mark.parametrize("support", [octagon_complement(),
                                     build(3, [(0, 1, ONE), (1, 2, ONE)])],
                         ids=["octagon complement", "path"])
def test_run_search_anneals_exactly_when_the_local_solve_fails(support):
    cfg = SearchConfig(seed=1, chains=2, **SHORT)
    res = run_search(support, cfg)
    annealed = anneal(support, cfg)
    assert res.trace == annealed.trace
    assert (res.steps, res.accepted) == (annealed.steps, annealed.accepted)
    assert res.status == "Exhausted" and res.best_f <= annealed.best_f


def test_run_search_keeps_a_local_answer_only_if_the_objective_takes_it():
    target = np.array([2.0, 0.0, 0.0, -2.0])
    cfg = SearchConfig(seed=4, **QUICK)
    res = run_search(c4(), cfg, objective=lambda A: objective_cospectral(A, target))
    # the local solve finds the quarter-turn square, spectrum +-sqrt 2
    assert res.steps > 0 and res.trace
    assert res.status == "Converged" and res.best_f < 1e-6


def test_cospectral_search_hits_a_prescribed_spectrum():
    target = np.array([2.0, 0.0, 0.0, -2.0])
    cfg = SearchConfig(seed=4, **QUICK)
    res = anneal(c4(), cfg, objective=lambda A: objective_cospectral(A, target))
    assert res.best_f < 1e-6  # the all-ones gain already does it


# -- refinement and snapping ----------------------------------------------------

def test_refine_tightens_a_jittered_solution():
    rng = np.random.default_rng(7)
    g = toral(3, Gain.exact(1, 5))
    noisy = build(g.n, [
        (u, v, Gain.numeric(w.value * np.exp(1j * rng.normal(0, 1e-3)), tol=1e-2))
        for u, v, w in g.edges()
    ])
    f0 = objective_two_ev(noisy.matrix())
    refined = refine_gains(noisy)
    assert objective_two_ev(refined.matrix()) < min(f0, 1e-8)


def test_snap_recovers_exact_roots_of_unity():
    g = toral(3, Gain.exact(1, 8))
    jig = build(g.n, [
        (u, v, Gain.numeric(w.value * np.exp(2e-4j), tol=1e-3))
        for u, v, w in g.edges()
    ])
    snapped, cert = snap_gains(jig, Q=24)
    assert cert == certify_two_ev(snapped, tol=1e-9)
    for _, _, w in snapped.edges():
        assert w.is_exact


def test_snap_returns_none_for_irrational_angles():
    g = catalog_entry("Renes7").build()
    snap = snap_gains(g, Q=24)
    assert snap is None or all(w.is_exact for _, _, w in snap[0].edges())
    # the circulant presentation carries gains at irrational angles
    from gainforge.gains import normalize_spanning_tree
    h, _ = normalize_spanning_tree(g)
    assert snap_gains(h, Q=24) is None


def test_snap_is_identity_on_exact_graphs():
    g = complete(4)
    snapped, _ = snap_gains(g, Q=24)
    assert np.array_equal(snapped.matrix(), g.matrix())


def test_run_search_certifies_its_snapped_graph_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return certify_two_ev(*args, **kwargs)

    monkeypatch.setattr(search, "certify_two_ev", counted)
    res = run_search(c4(), SearchConfig(seed=0, **QUICK))
    assert res.snapped is not None and res.snapped_cert is not None
    assert len(calls) == 1
