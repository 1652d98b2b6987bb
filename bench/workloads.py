"""The three benchmark workloads: anneal, certify and classify.

Each workload turns the workload seed into a fixed *cycle* of op classes
plus the inputs for every op, all before the first timed op.  The run
loop (run.py) executes ops in cycle order, one at a time (closed loop,
one caller), and only whole cycles, so every run sees the same op mix.

Every op goes through gainforge's public API, always looked up as a
module attribute at call time so that the traced run, which swaps those
attributes for timing wrappers, sees every call.  An op returns an
OpResult: whether its output passed the workload's correctness check,
whether it counts as a solution, and a few facts for the per-layer
metrics.  Checks compare against what the inputs fix independently of
the code under test (published spectra, the disguise that made a pair,
spectra computed with numpy from the raw gains) or against a second
route through the library (certifying a search result, the two
characteristic-polynomial routes).
"""

from __future__ import annotations

import io
import math
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import gainforge
from gainforge import cli, constructions, fileio, gains, lines, search, spectral
from gainforge.errors import Timeout

# criterion 12's quick annealing schedule
QUICK = dict(t0=1.0, alpha=0.9, iters_per_temp=500, tau=1e-4, epsilon=1e-6)

# The char-poly oracle enumerates elementary subgraphs, exponential in n:
# K10star alone takes 5.1 s there, which would be most of a certify run.
CHAR_POLY_MAX_N = 8

ISO_BUDGET = 200_000
ISO_NUMERIC_TOL = 1e-6

# Pairs left out of the op mix: too slow for a run, or too erratic for a
# fixed mix.  README.md ("Left out") gives the times measured for each.
CLASSIFY_SKIP = frozenset({"CoxeterTodd2", "CoxeterTodd3", "CoxeterTodd4", "K10star",
                           "SIC3", "ST33"})
CLASSIFY_SKIP_NEGATIVE = frozenset({"K7", "MUB_C3(4)", "K8star", "Witting"})
# Positives are ~100x cheaper than negatives and their time depends on
# the disguise, so each graph gets several per cycle; with six the median
# op sits inside the block of positives that always take a few ms.
CLASSIFY_POSITIVES = 6

# how many distinct input sets each cycle position cycles through
ANNEAL_SEEDS = 600
CERTIFY_VARIANTS = 16
CLASSIFY_VARIANTS = 2


@dataclass
class OpResult:
    ok: bool
    solution: bool
    error: str = ""
    facts: dict = field(default_factory=dict)


@dataclass
class Inputs:
    """A workload's generated inputs: the op classes of one cycle and a runner."""

    cycle: list[str]
    run: Callable[[int, Any], OpResult]   # (op index, tracer) -> result
    data: Any = None                      # the generated inputs, for inspection


def _unit(rng: np.random.Generator) -> gainforge.Gain:
    return gainforge.Gain.numeric(complex(np.exp(2j * math.pi * rng.random())), tol=1e-9)


def _hermitian(g) -> np.ndarray:
    """The gain matrix, assembled here so that checks do not rely on GainGraph.matrix."""
    A = np.zeros((g.n, g.n), dtype=complex)
    for (u, v), gn in g.gains.items():
        A[u, v] = gn.value
        A[v, u] = gn.value.conjugate()
    return A


def _spectrum(g) -> np.ndarray:
    return np.linalg.eigvalsh(_hermitian(g))


# -- anneal -------------------------------------------------------------------

def _supports() -> list[tuple[str, Any, bool]]:
    """Criterion 12's known supports, then the octagon complement as a control."""
    one = gains.ONE
    b = gainforge.build
    cube = [(u, v, one) for u in range(8) for v in range(u + 1, 8) if bin(u ^ v).count("1") == 1]
    octa = [(u, v, one) for u in range(6) for v in range(u + 1, 6)
            if {u, v} not in ({0, 1}, {2, 3}, {4, 5})]
    octagon_complement = [(u, v, one) for u in range(8) for v in range(u + 1, 8)
                          if (v - u) % 8 not in (1, 7)]
    return [
        ("C4", b(4, [(0, 1, one), (1, 2, one), (2, 3, one), (0, 3, one)]), True),
        ("K4", constructions.complete(4), True),
        ("K33", b(6, [(u, v, one) for u in range(3) for v in range(3, 6)]), True),
        ("cube", b(8, cube), True),
        ("octahedron", b(6, octa), True),
        ("octagon_complement", b(8, octagon_complement), False),
    ]


def anneal(seed: int, workdir: Path, tr) -> Inputs:
    supports = _supports()
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=ANNEAL_SEEDS)

    def run(i: int, tr) -> OpResult:
        name, support, known = supports[i % len(supports)]
        cfg = search.SearchConfig(seed=int(seeds[i % ANNEAL_SEEDS]), **QUICK)
        objective = tr.wrapper("search.objective", search.objective_two_ev, hot=True) \
            if tr.enabled else search.objective_two_ev
        res = search.run_search(support, cfg, objective)
        converged = res.status == "Converged"
        facts = {"temperatures": len(res.trace), "converged": converged,
                 "snapped": res.snapped is not None}
        if not known:
            return OpResult(not converged, False,
                            "" if not converged else "control converged", facts)
        if not converged:
            return OpResult(True, False, facts=facts)
        h, tol = (res.snapped, 1e-9) if res.snapped is not None else (res.best_gains, 1e-5)
        cert = spectral.certify_two_ev(h, tol=tol)
        if cert is None or h.support() != support.support():
            return OpResult(False, False, "Converged result does not certify", facts)
        return OpResult(True, True, facts=facts)

    return Inputs([f"anneal:{name}" for name, _, _ in supports], run, seeds)


# -- certify ------------------------------------------------------------------

def _params(entry, rng: np.random.Generator) -> dict:
    return {p: _unit(rng) for p in entry.parameters}


def _certify_entry(entry, params: dict, tr) -> OpResult:
    (t1, m1), (t2, m2) = entry.expected_spectrum
    g = tr.span("constructions.build", entry.build, **params)
    text = fileio.serialize_gaingraph(g)
    g2 = fileio.parse_gaingraph(text)
    if g2.n != g.n or np.max(np.abs(_hermitian(g2) - _hermitian(g)), initial=0.0) > 1e-12:
        return OpResult(False, False, "serialize/parse changed the graph")
    cert = spectral.certify_two_ev(g2)
    if (cert is None or g2.n != entry.order or abs(cert.theta1 - t1) > 1e-8
            or abs(cert.theta2 - t2) > 1e-8 or cert.m != m1 or g2.n - cert.m != m2):
        return OpResult(False, False, "spectrum differs from the published one")
    system = lines.gain_to_lines(g2, cert)
    tight = lines.tightness_check(system)
    if not tight.is_tight or abs(tight.z - g2.n / system.dim) > 1e-8:
        return OpResult(False, False, "line system not tight at z = n/m")
    profile = lines.angle_profile(system)
    theta_min = -cert.theta1 if cert.negated else cert.theta2
    h = lines.lines_to_gain(system, alpha=-1.0 / theta_min)
    if np.max(np.abs(_hermitian(h) - _hermitian(g2))) > 1e-8:
        return OpResult(False, False, "lines_to_gain round trip drifted")
    angles = [v for v in profile.values if v < 1 - 1e-6]
    has_zero = bool(angles) and angles[0] <= 1e-8
    rep = lines.bounds_check(system.dim, len(angles), has_zero, g=g2)
    if not (rep.absolute_ok and rep.rank_bound_ok and rep.coclique_ok):
        return OpResult(False, False, "order bound violated")
    if g2.n <= CHAR_POLY_MAX_N:
        via_sums = np.array(spectral.char_poly_elementary(g2))
        via_evs = np.array(spectral.char_poly_from_eigenvalues(
            list(spectral.eigenvalues(g2).eigenvalues)))
        if np.max(np.abs(via_sums - via_evs)) > 1e-6:
            return OpResult(False, False, "characteristic polynomial routes disagree")
    return OpResult(True, True, facts={"bytes": len(text)})


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _verify_all(entries) -> OpResult:
    code, text = _cli(["catalog", "--verify-all"])
    rows = text.strip().splitlines()[1:]
    if code != 0 or len(rows) != len(entries) or not all(r.endswith(",PASS") for r in rows):
        return OpResult(False, False, f"catalog --verify-all exit {code}")
    return OpResult(True, True)


def _verify_file(path: Path, spectrum) -> OpResult:
    code, text = _cli(["verify", str(path)])
    fields = dict(f.split("=", 1) for f in text.split()[1:] if "=" in f)
    (t1, _), (t2, _) = spectrum
    if (code != 0 or not text.startswith("TWO-EV")
            or abs(float(fields.get("theta1", "nan")) - t1) > 1e-8
            or abs(float(fields.get("theta2", "nan")) - t2) > 1e-8):
        return OpResult(False, False, f"verify {path.name} exit {code}")
    return OpResult(True, True)


def certify(seed: int, workdir: Path, tr) -> Inputs:
    rng = np.random.default_rng(seed)
    entries = list(constructions.catalog())
    params = [[_params(e, rng) for e in entries] for _ in range(CERTIFY_VARIANTS)]
    files = []
    for e in entries:
        if "coxeter-todd" in e.tags:
            path = workdir / f"{e.name}.gg"
            g = tr.span("constructions.build", e.build)
            path.write_text(fileio.serialize_gaingraph(g), encoding="utf-8")
            files.append((path, e.expected_spectrum))
    cycle = ([f"certify:{e.name}" for e in entries] + ["cli:catalog --verify-all"]
             + [f"cli:verify {p.name}" for p, _ in files])

    def run(i: int, tr) -> OpResult:
        j = i % len(cycle)
        if j < len(entries):
            return _certify_entry(entries[j], params[(i // len(cycle)) % CERTIFY_VARIANTS][j], tr)
        if j == len(entries):
            return tr.span("cli.verify_all", _verify_all, entries)
        path, spectrum = files[j - len(entries) - 1]
        return tr.span("cli.verify", _verify_file, path, spectrum)

    return Inputs(cycle, run, params)


# -- classify -----------------------------------------------------------------

def _disguise(g, rng: np.random.Generator):
    """A random converse, relabel and switch of g; exact 24th roots on exact graphs."""
    h = gainforge.converse(g) if rng.random() < 0.5 else g
    h = gainforge.relabel(h, [int(x) for x in rng.permutation(g.n)])
    if g.is_exact:
        diag = [gainforge.Gain.exact(int(k), 24) for k in rng.integers(0, 24, size=g.n)]
    else:
        diag = [_unit(rng) for _ in range(g.n)]
    return gainforge.switch(h, diag)


def _negative(g, rng: np.random.Generator):
    """A disguised copy with one edge's gain negated, whose spectrum moved by > 1e-6.

    Edges are tried in random order; None when no single negation moves
    the spectrum.
    """
    h = _disguise(g, rng)
    reference = _spectrum(g)
    keys = sorted(h.gains)
    for idx in rng.permutation(len(keys)):
        flipped = dict(h.gains)
        flipped[keys[idx]] = -flipped[keys[idx]]
        cand = gainforge.GainGraph(h.n, flipped)
        if np.max(np.abs(_spectrum(cand) - reference)) > 1e-6:
            return cand
    return None


@dataclass
class Pair:
    name: str
    positive: bool
    g: Any
    h: Any
    tol: Optional[float]


def classify(seed: int, workdir: Path, tr) -> Inputs:
    """One positive pair per graph and one negative where allowed, in catalog order."""
    rng = np.random.default_rng(seed)
    graphs = []
    for e in constructions.catalog():
        if e.name in CLASSIFY_SKIP:
            continue
        g = tr.span("constructions.build", e.build, **_params(e, rng))
        graphs.append((e.name, g, None if g.is_exact else ISO_NUMERIC_TOL))
    variants = []
    for _ in range(CLASSIFY_VARIANTS):
        pairs = []
        for name, g, tol in graphs:
            pairs += [Pair(name, True, g, _disguise(g, rng), tol)
                      for _ in range(CLASSIFY_POSITIVES)]
            if name not in CLASSIFY_SKIP_NEGATIVE:
                h = _negative(g, rng)
                if h is not None:
                    pairs.append(Pair(name, False, g, h, tol))
        variants.append(pairs)
    # whether a graph has a spectrum-moving negation does not depend on the
    # disguise, so every variant must carry the same op classes
    classes = [[f"{'pos' if p.positive else 'neg'}:{p.name}" for p in pairs]
               for pairs in variants]
    if any(c != classes[0] for c in classes):
        raise RuntimeError("classify variants disagree on the op mix")
    size = len(classes[0])

    def run(i: int, tr) -> OpResult:
        pair = variants[(i // size) % CLASSIFY_VARIANTS][i % size]
        kwargs = {} if pair.tol is None else {"tol": pair.tol}
        try:
            w = gains.switching_isomorphic(pair.g, pair.h, budget=ISO_BUDGET, **kwargs)
        except Timeout:
            tr.count("gains.iso_timeouts")
            return OpResult(False, False, "Timeout", {"positive": pair.positive})
        facts = {"positive": pair.positive}
        if not pair.positive:
            return OpResult(w is None, w is None,
                            "" if w is None else "witness for a negative pair", facts)
        if w is None:
            return OpResult(False, False, "no witness for a positive pair", facts)
        image = gains.apply_witness(pair.g, w)
        if np.max(np.abs(_hermitian(image) - _hermitian(pair.h))) > 1e-6:
            return OpResult(False, False, "witness does not reproduce the copy", facts)
        return OpResult(True, True, facts=facts)

    return Inputs([f"classify:{c}" for c in classes[0]], run, variants)


WORKLOADS = {"anneal": anneal, "certify": certify, "classify": classify}


def run_op(inputs: Inputs, i: int, tr) -> OpResult:
    """Run op i; any exception, Timeout included, is a failed op and never a solution."""
    try:
        return inputs.run(i, tr)
    except Exception as exc:  # the run loop must go on and report every failure
        return OpResult(False, False, "".join(
            traceback.format_exception_only(type(exc), exc)).strip())
