"""Annealer, objectives, gain refinement and snapping."""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gainforge import gains, search
from gainforge.constructions import catalog, catalog_entry, complete, toral
from gainforge.errors import Disconnected, LengthMismatch
from gainforge.gains import Gain, build, normalize_spanning_tree, switch, switching_isomorphic
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
    # tr A^3 = 0 and tr A^2 / n = 2, so R = A^2 - 2I: eigenvalues 2, -2, -2, 2
    assert objective_two_ev(c4().matrix()) == 4.0


def test_objective_on_the_empty_matrix():
    assert objective_two_ev(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("A", [np.zeros((3, 3)), np.zeros((4, 4), dtype=complex), 5.0 * np.eye(3)],
                         ids=["zero", "complex zero", "multiple of I"])
def test_objective_is_zero_on_a_single_eigenvalue(A):
    assert objective_two_ev(A) == 0.0


def test_objective_is_positive_on_three_eigenvalues_and_a_nonzero_trace():
    # diag(1, 2, 4) centres to diag(-4, -1, 5)/3, and R = diag(6, -9, 3)/7
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    A = Q @ np.diag([1.0, 2.0, 4.0]) @ Q.conj().T
    assert objective_two_ev(A) == pytest.approx(math.sqrt(18 / 7), rel=1e-12)


def test_objective_is_rounding_size_on_every_catalog_graph():
    for entry in catalog():
        if entry.order > 40:
            continue
        A = entry.build(**{p: Gain.exact(1, 7) for p in entry.parameters}).matrix()
        assert objective_two_ev(A) < 1e-12 * np.vdot(A, A).real, entry.name


def test_objective_is_the_norm_of_the_local_solves_residual():
    support = SUPPORTS["octahedron"]()
    tree, free = search._edge_layout(support)
    fu, fv = np.array(free).T
    for seed in range(3):
        _, angles = search._seeded_start(len(free), seed)
        A = search._graph_from_state(support.n, tree, free, angles).matrix()
        R, _ = search._residual(A, fu, fv, search._derivative_buffer(support.n, fu, fv))
        assert objective_two_ev(A) == pytest.approx(np.linalg.norm(R), rel=1e-14, abs=0)


# ||(A - l1)(A - ln)||_F from the spectrum: the objective before the
# least-squares fit, whose a = l1 + ln and k = -l1 ln are one choice of many
def _spectral_two_ev(A):
    evs = np.linalg.eigvalsh(A)
    return float(np.sqrt(np.sum(((evs - evs[0]) * (evs - evs[-1])) ** 2)))


@st.composite
def _hermitian(draw):
    n = draw(st.integers(1, 7))
    x = np.array(draw(st.lists(st.integers(-64, 64), min_size=2 * n * n,
                               max_size=2 * n * n))) / 16.0
    X = x[:n * n].reshape(n, n) + 1j * x[n * n:].reshape(n, n)
    if draw(st.booleans()):
        X = X.real
    return X + X.conj().T       # its diagonal is 2 Re X_ii, mostly nonzero


@given(_hermitian())
def test_objective_is_at_most_the_spectral_formula(A):
    # R is the least-squares minimum over a and k, the spectral formula one point
    assert objective_two_ev(A) <= _spectral_two_ev(A) + 1e-12 * np.vdot(A, A).real


def test_cospectral_objective():
    A = complete(4).matrix()
    target = np.array([-1.0, -1.0, -1.0, 3.0])
    assert objective_cospectral(A, target) == pytest.approx(0.0, abs=1e-24)
    assert objective_cospectral(A, target + [0, 0, 0, 0.5]) == pytest.approx(0.25)
    with pytest.raises(LengthMismatch):
        objective_cospectral(A, np.zeros(5))


# the objectives written plainly in numpy: the least-squares fit of the
# centred B^2 on span{B, I}, and the sorted spectra.  The library's
# arithmetic must reproduce them bit for bit
def _numpy_two_ev(A):
    n = len(A)
    B = A - np.trace(A).real / n * np.eye(n)
    tr2 = np.vdot(B, B).real
    B2 = B @ B
    a = np.vdot(B2, B).real / tr2
    R = B2 - a * B - tr2 / n * np.eye(n)
    return float(np.sqrt(np.vdot(R, R).real))


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


@pytest.mark.parametrize("bad", [dict(t0=math.nan), dict(tau=math.nan), dict(epsilon=math.nan),
                                 dict(t0=math.inf)],
                         ids=["t0 nan", "tau nan", "epsilon nan", "t0 inf"])
def test_config_rejects_nan_and_a_temperature_that_never_cools(bad):
    with pytest.raises(ValueError, match="must be"):
        SearchConfig(**bad)


@pytest.mark.parametrize("bad", [
    dict(t0=0, tau=-1),
    dict(t0=1, tau=-1, alpha=0.5),
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


# the gain matrix of a state, written the way the annealer's generic scorer
# writes it: exact 1 on the tree, exp(i angle) and its conjugate on the free edges
def _placer(n: int, tree: list, free: list):
    A = np.zeros((n, n), dtype=complex)
    for u, v in tree:
        A[u, v] = A[v, u] = 1.0
    fu = np.array([e[0] for e in free], dtype=int)
    fv = np.array([e[1] for e in free], dtype=int)

    def place(angles: np.ndarray) -> np.ndarray:
        z = np.exp(1j * angles)
        A[fu, fv] = z
        A[fv, fu] = z.conj()
        return A

    return place


# the annealer written plainly: one proposal, one score and one Metropolis
# test at a time, each draw taken from the generator as needed.  A state
# that scores below epsilon is scored again on its matrix, which decides
def _reference_chain(n: int, tree: list, free: list, cfg: SearchConfig, score):
    rng = np.random.default_rng(cfg.seed)
    place = _placer(n, tree, free)

    def checked(angles: np.ndarray) -> float:
        f = score(angles)
        return _numpy_two_ev(place(angles)) if f < cfg.epsilon else f

    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(free))
    f = checked(angles)
    best_f, best_angles = f, angles.copy()
    trace = []
    t = cfg.t0
    converged = f < cfg.epsilon
    while not converged:
        step = math.pi * min(1.0, t)
        moves = rng.uniform(-step, step, size=(cfg.iters_per_temp, len(free)))
        coins = rng.random(cfg.iters_per_temp)
        for r in range(cfg.iters_per_temp):
            proposal = angles + moves[r]
            f_new = score(proposal)
            # f >= epsilon > 0 here, so the division below is safe
            if f_new < f or coins[r] < math.exp((f - f_new) / (f * t)):
                angles, f = proposal, checked(proposal)
                if f < best_f:
                    best_f, best_angles = f, angles.copy()
                if f < cfg.epsilon:
                    converged = True
                    break
        trace.append((t, best_f))
        t *= cfg.alpha
        if t <= cfg.tau:
            break
    return best_angles, trace


def _matrix_score(n: int, tree: list, free: list):
    place = _placer(n, tree, free)
    return lambda angles: _numpy_two_ev(place(angles))


def _reference_anneal(underlying, cfg, score=None):
    """best_f on the returned graph's matrix, that graph's matrix, and the trace."""
    tree, free = search._edge_layout(underlying)
    score = score or _matrix_score(underlying.n, tree, free)
    best_angles, trace = _reference_chain(underlying.n, tree, free, cfg, score)
    A = search._graph_from_state(underlying.n, tree, free, best_angles).matrix()
    return _numpy_two_ev(A), A, trace


SHORT = dict(t0=1.0, alpha=0.75, iters_per_temp=120, tau=1e-3, epsilon=1e-6)


def _outcome(res: SearchResult):
    return res.best_f, res.best_gains.matrix(), res.trace


def _same(got, want) -> bool:
    return got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_anneal_follows_the_reference_chain(name):
    support = SUPPORTS[name]()
    tree, free = search._edge_layout(support)
    cycle_score = search._cycle_scorer(support.n, tree, free)
    for seed in (0, 1, 2, 5):
        cfg = SearchConfig(seed=seed, **SHORT)
        # a wrapped objective is called on the matrix at every step
        wrapped = anneal(support, cfg, objective=lambda A: objective_two_ev(A))
        assert _same(_outcome(wrapped), _reference_anneal(support, cfg))
        # objective_two_ev itself ranks its moves in cycle form
        assert _same(_outcome(anneal(support, cfg)),
                     _reference_anneal(support, cfg, cycle_score))


# -- the cycle form -------------------------------------------------------------------

def _state(name):
    """A support as (graph, tree, free, angles of its free gains)."""
    if name in SUPPORTS:
        g = SUPPORTS[name]()
    else:
        g, _ = normalize_spanning_tree(catalog_entry(name).build())
    tree, free = search._edge_layout(g)
    z = dict(zip(zip(g.u.tolist(), g.v.tolist()), g.z.tolist()))
    assert all(z[e] == 1 for e in tree)
    return g, tree, free, np.angle([z[e] for e in free])


@pytest.mark.parametrize("name", sorted(SUPPORTS) + ["K8star", "MUB_C3(3)", "Renes7"])
def test_the_cycle_form_scores_what_the_matrix_scores(name):
    g, tree, free, angles = _state(name)
    score = search._cycle_scorer(g.n, tree, free)
    bound = 1e-12 * (2 * g.u.size) ** 2
    rng = np.random.default_rng(0)
    states = [angles, np.zeros(len(free))] + [rng.uniform(-10.0, 10.0, len(free))
                                              for _ in range(20)]
    for state in states:
        A = search._graph_from_state(g.n, tree, free, state).matrix()
        assert abs(score(state) ** 2 - objective_two_ev(A) ** 2) <= bound
    # every triangle and 4-cycle once, and the backtracking 4-walks on top
    U = (np.abs(g.matrix()) > 0.5).astype(np.int64)
    cycles = list(search._cycles(g.n, tree + free))
    degrees = U.sum(axis=0)
    assert np.trace(U @ U @ U) == 6 * sum(len(c) == 3 for c in cycles)
    assert np.trace(U @ U @ U @ U) == \
        2 * (degrees ** 2).sum() - 2 * g.u.size + 8 * sum(len(c) == 4 for c in cycles)


def test_large_supports_score_on_the_matrix(monkeypatch):
    cycles, pulled = search._cycles, []

    def counted(n, edges):
        for cycle in cycles(n, edges):
            pulled.append(cycle)
            yield cycle

    monkeypatch.setattr(search, "_cycles", counted)
    rng = np.random.default_rng(1)
    for name in ("Witting", "K10star"):
        g, tree, free, _ = _state(name)
        pulled.clear()
        assert search._cycle_scorer(g.n, tree, free) is None
        # the enumeration stops one cycle past the cap: Witting has 3,240
        # triangles and 59,670 4-cycles
        assert len(pulled) == search._CYCLE_CAP // len(free) + 1
        score, rescore = search._scorer(g.n, tree, free, objective_two_ev)
        angles = rng.uniform(0.0, 2 * math.pi, len(free))
        A = search._graph_from_state(g.n, tree, free, angles).matrix()
        assert score(angles) == objective_two_ev(A) == rescore(angles, score(angles))


def test_every_criterion_12_support_takes_the_cycle_form():
    for name in SUPPORTS:
        g, tree, free, _ = _state(name)
        assert search._cycle_scorer(g.n, tree, free) is not None, name


def test_converged_is_decided_on_the_matrix(monkeypatch):
    # a cycle form that reads 0 everywhere claims every state solves the control
    monkeypatch.setattr(search, "_cycle_scorer", lambda n, tree, free: lambda angles: 0.0)
    cfg = SearchConfig(seed=3, **SHORT)
    annealed = anneal(octagon_complement(), cfg)
    # 0.75^25 <= 1e-3 < 0.75^24: the chain never stops on a cycle score
    assert len(annealed.trace) == 25
    for res in (annealed, run_search(octagon_complement(), cfg)):
        assert res.status == "Exhausted" and res.snapped is None
        assert res.best_f == objective_two_ev(res.best_gains.matrix()) > 1.0
        assert res.steps == len(res.trace) * SHORT["iters_per_temp"] > 0


@pytest.mark.parametrize("name", sorted(SUPPORTS))
def test_results_are_scored_on_their_matrix(name):
    support = SUPPORTS[name]()
    target = np.linalg.eigvalsh(support.matrix())[::-1]
    for seed in range(3):
        cfg = SearchConfig(seed=seed, **SHORT)
        for objective in (objective_two_ev, lambda A: objective_cospectral(A, target)):
            for res in (anneal(support, cfg, objective), run_search(support, cfg, objective)):
                assert res.best_f == objective(res.best_gains.matrix())
                assert (res.status == "Converged") == (res.best_f < cfg.epsilon)


def test_counters_bound_each_other():
    for name in ("C4", "octagon complement"):
        cfg = SearchConfig(seed=2, **SHORT)
        calls = []

        def counted(A):
            calls.append(1)
            return objective_two_ev(A)

        res = anneal(SUPPORTS[name](), cfg, objective=counted)
        assert all(type(c) is int for c in (res.steps, res.accepted))
        assert 0 < res.accepted <= res.steps
        # one objective call per step, plus one for the start
        assert len(calls) == res.steps + 1
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
    # tr A^3 = 0, so R = A^2 - (4/3)I = [[-1/3, 0, 1], [0, 2/3, 0], [1, 0, -1/3]]
    assert res.status == "Exhausted"
    assert res.best_f == objective_two_ev(path.matrix()) == pytest.approx(math.sqrt(8 / 3))
    temps = math.ceil(math.log(QUICK["tau"]) / math.log(QUICK["alpha"]))
    assert len(res.trace) == temps
    assert res.trace == [(t, res.best_f) for t, _ in res.trace]
    assert (res.steps, res.accepted) == (0, 0)
    assert elapsed < 1.0
    short = SearchConfig(seed=1, **SHORT)
    assert _same(_outcome(anneal(path, short)), _reference_anneal(path, short))


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
        return search._residual(A, fu, fv, search._derivative_buffer(support.n, fu, fv))

    for _ in range(3):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=len(free))
        _, dR = residual(angles)
        assert dR.shape == (len(free), support.n, support.n)
        for e in range(len(free)):
            step = h * np.eye(len(free))[e]
            central = (residual(angles + step)[0] - residual(angles - step)[0]) / (2 * h)
            assert np.max(np.abs(dR[e] - central)) < 1e-7


# _graph_from_state as it was built, through gains._sorted's flip, conjugate
# and sort; its pairs are u < v already, so only the sort does anything
def _reference_graph_from_state(n, tree, free, angles):
    z = np.ones(len(tree) + len(free), dtype=complex)
    z[len(tree):] = np.exp(1j * np.asarray(angles, dtype=float))
    k = np.zeros(len(z), dtype=np.int64)
    k[len(tree):] = -1
    u, v = np.array(tree + free, dtype=np.intp).reshape(-1, 2).T
    return gains._sorted(n, u, v, k, z, 1)


def _graph_bytes(g):
    return g.n, g.L, [(a.dtype, a.tobytes()) for a in (g.u, g.v, g.k, g.z)]


@pytest.mark.parametrize("name", sorted(SUPPORTS) + ["path"])
def test_a_states_graph_and_matrix_keep_their_bits(name):
    support = SUPPORTS[name]() if name != "path" else build(3, [(0, 1, ONE), (1, 2, ONE)])
    tree, free = search._edge_layout(support)
    write = search._writer(support.n, tree, free)
    rng = np.random.default_rng(12)
    # signed zeros and the turns where a component is exactly zero or one
    special = np.resize([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi], len(free))
    for angles in [rng.uniform(-7.0, 7.0, len(free)) for _ in range(4)] + [special]:
        g = search._graph_from_state(support.n, tree, free, angles)
        want = _reference_graph_from_state(support.n, tree, free, angles)
        assert _graph_bytes(g) == _graph_bytes(want)
        # the writer rewrites one array: every write holds the matrix, -0.0 included
        assert write(angles).tobytes() == g.matrix().tobytes()


def test_refine_skips_the_switch_on_a_tree_normal_graph(monkeypatch):
    normalize, calls = search.normalize_spanning_tree, []

    def counted(g):
        calls.append(1)
        return normalize(g)

    for name in ("C4", "cube", "octagon complement"):
        support = SUPPORTS[name]()
        tree, free = search._edge_layout(support)
        for seed in range(3):
            g = search._graph_from_state(support.n, tree, free,
                                         search._seeded_start(len(free), seed)[1])
            want = refine_gains(normalize_spanning_tree(g)[0])
            with monkeypatch.context() as patch:
                patch.setattr(search, "normalize_spanning_tree", counted)
                got = refine_gains(g)
            assert calls == []
            assert _graph_bytes(got) == _graph_bytes(want)
    # a tree gain off the exact 1, numeric 1 included, is switched once
    support = SUPPORTS["octahedron"]()
    tree, free = search._edge_layout(support)
    start = search._graph_from_state(support.n, tree, free,
                                     search._seeded_start(len(free), 0)[1])
    monkeypatch.setattr(search, "normalize_spanning_tree", counted)
    for s in ([Gain.exact(v, 7) for v in range(6)], [Gain.numeric(1)] + [ONE] * 5):
        refined = refine_gains(switch(start, s))
        assert all(refined.gain(u, v) == ONE for u, v in tree)
        assert objective_two_ev(refined.matrix()) < 1e-9
    assert len(calls) == 2


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


# a path has no free angle, so its local solve fails with nothing to anneal
@pytest.mark.parametrize("support", [octagon_complement(),
                                     build(3, [(0, 1, ONE), (1, 2, ONE)])],
                         ids=["octagon complement", "path"])
def test_run_search_anneals_exactly_when_the_local_solve_fails(support):
    cfg = SearchConfig(seed=1, **SHORT)
    res = run_search(support, cfg)
    annealed = anneal(support, cfg)
    assert res.status == "Exhausted" and res.best_f <= annealed.best_f
    # run_search runs the first temperatures of anneal's chain, so its trace
    # is a prefix of anneal's and its counters are one state of that chain;
    # on a path it stops at the chain's start state, before any temperature
    tree, free = search._edge_layout(support)
    scorer = search._scorer(support.n, tree, free, objective_two_ev)
    states = list(search._anneal_chain(len(free), cfg, *scorer))
    assert annealed.trace == [(t, f) for t, f, *_ in states[1:]]
    assert (len(res.trace) > 0) == bool(free)
    assert res.trace == annealed.trace[:len(res.trace)]
    ran = states[1:] if free else states[:1]
    assert (res.steps, res.accepted) in {(s[3], s[4]) for s in ran}
    assert res.steps <= annealed.steps and res.accepted <= annealed.accepted


@pytest.mark.parametrize("seed", [0, 1])
def test_run_search_gives_up_on_the_control_before_the_schedule_ends(seed):
    support = octagon_complement()
    cfg = SearchConfig(seed=seed, **QUICK)
    res = run_search(support, cfg)
    assert res.status == "Exhausted" and res.snapped is None
    # 0.9^88 <= 1e-4 < 0.9^87: anneal runs 88 temperatures
    annealed = anneal(support, cfg)
    assert len(annealed.trace) == 88
    assert 0 < len(res.trace) < 88
    assert res.trace == annealed.trace[:len(res.trace)]
    assert res.steps == len(res.trace) * QUICK["iters_per_temp"]


# a path once cooled through ten stalled temperatures before its closing
# polish; it now stops before the first, with the start's polish as answer
def test_run_search_on_a_path_stops_after_ten_stalled_temperatures(monkeypatch):
    path = build(3, [(0, 1, ONE), (1, 2, ONE)])
    cfg = SearchConfig(seed=1, **QUICK)
    refine, calls = search.refine_gains, []

    def counted(g):
        calls.append(1)
        return refine(g)

    monkeypatch.setattr(search, "refine_gains", counted)
    res = run_search(path, cfg)
    # no free angle, so nothing can anneal: the start's polish is the answer
    assert res.status == "Exhausted" and res.trace == []
    assert (res.steps, res.accepted) == (0, 0)
    assert len(calls) == 1
    assert res.best_f == anneal(path, cfg).best_f


def test_run_search_converges_the_cube_fallbacks_at_a_hand_off():
    # the seeds whose local solve from the seeded start fails
    support = SUPPORTS["cube"]()
    target = catalog_entry("ND(IG(W2))").build()
    for seed in (1, 12, 14, 17, 20, 21):
        res = run_search(support, SearchConfig(seed=seed, **QUICK))
        assert res.status == "Converged" and res.best_f < 1e-6, seed
        assert 0 < len(res.trace) < 88, seed
        assert res.snapped is not None, seed
        cert = certify_two_ev(res.snapped, tol=1e-9)
        assert res.snapped_cert is not None and cert == res.snapped_cert
        h = build(8, [(u, v, -w) for u, v, w in res.snapped.edges()]) \
            if cert.negated else res.snapped
        assert switching_isomorphic(h, target, tol=1e-6) is not None, seed


def test_run_search_keeps_a_local_answer_only_if_the_objective_takes_it(monkeypatch):
    target = np.array([2.0, 0.0, 0.0, -2.0])
    cfg = SearchConfig(seed=4, **QUICK)
    refine, polished = search.refine_gains, []

    def recorded(g):
        polished.append(refine(g))
        return polished[-1]

    monkeypatch.setattr(search, "refine_gains", recorded)
    res = run_search(c4(), cfg, objective=lambda A: objective_cospectral(A, target))
    # the local solve and every hand-off find the quarter-turn square,
    # spectrum +-sqrt 2, which the objective rejects
    assert res.steps > 0 and res.trace
    assert len(polished) > 3
    assert all(res.best_gains is not h for h in polished)
    assert res.status == "Converged" and res.best_f < 1e-6
    assert np.allclose(np.linalg.eigvalsh(res.best_gains.matrix()), np.sort(target), atol=1e-3)


@pytest.mark.parametrize("seed", range(4, 9))
def test_run_search_never_polishes_the_same_state_twice(monkeypatch, seed):
    target = np.array([2.0, 0.0, 0.0, -2.0])
    refine, inputs = search.refine_gains, []

    def recorded(g):
        inputs.append(g.matrix().tobytes())
        return refine(g)

    monkeypatch.setattr(search, "refine_gains", recorded)
    res = run_search(c4(), SearchConfig(seed=seed, **QUICK),
                     objective=lambda A: objective_cospectral(A, target))
    assert res.status == "Converged"
    assert len(inputs) == len(set(inputs))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_search_gives_up_quickly_on_a_non_finite_objective(bad):
    target = np.array([bad, 0.0, 0.0, -2.0])
    res = run_search(c4(), SearchConfig(seed=0, **QUICK),
                     objective=lambda A: objective_cospectral(A, target))
    # best_f never falls, so every temperature counts as stalled
    assert res.status == "Exhausted" and not math.isfinite(res.best_f)
    assert 0 < len(res.trace) <= 11
    assert res.steps == len(res.trace) * QUICK["iters_per_temp"]


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


@pytest.mark.parametrize("Q", [0, -3])
def test_snap_rejects_an_order_below_one(Q):
    g = build(3, [(0, 1, Gain.numeric(1j)), (1, 2, Gain.exact(1, 3))])
    with pytest.raises(ValueError, match="at least 1"):
        snap_gains(g, Q)


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
