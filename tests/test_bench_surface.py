"""The benchmark must still find every gainforge name it uses.

``bench/run.py --trace 1`` looks each wrapped function up by name; a
library name that moves or disappears breaks the traced benchmark.  This
installs and removes the tracer the way the benchmark does, and reads a
gain graph the way ``bench/workloads.py`` does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import gainforge
from gainforge import constructions, gains

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_installs_over_the_public_api():
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    originals = (constructions.fixed_catalog, gains.GainGraph.matrix)
    tracer = tracing.Tracer()
    try:
        run.install_tracer(tracer, gainforge)
        assert constructions.fixed_catalog is not originals[0]
        assert gains.GainGraph.matrix is not originals[1]
    finally:
        tracer.restore()
    assert (constructions.fixed_catalog, gains.GainGraph.matrix) == originals


def test_the_gain_graph_surface_the_bench_reads():
    # bench/workloads.py assembles matrices from g.gains and negates one
    # edge of a copied dict; these are the only graph internals it reads
    g = gains.build(3, [(0, 1, gains.Gain.exact(1, 3)), (2, 1, gains.ONE),
                        (0, 2, gains.Gain.numeric(complex(0.6, 0.8)))])
    copied = dict(g.gains)
    keys = sorted(g.gains)
    assert keys == [(0, 1), (0, 2), (1, 2)] and sorted(copied) == keys
    A = np.zeros((g.n, g.n), dtype=complex)
    for (u, v), gn in g.gains.items():
        A[u, v] = gn.value
        A[v, u] = gn.value.conjugate()
    assert np.array_equal(A, g.matrix())
    copied[keys[0]] = -copied[keys[0]]
    h = gains.GainGraph(g.n, copied)
    assert h.support() == g.support() == {frozenset(e) for e in keys}
    assert h.gain(0, 1) == gains.Gain.exact(5, 6) and h.gains[keys[1]] == g.gains[keys[1]]
    assert not g.is_exact and not h.is_exact
    assert gains.GainGraph(g.n, {e: gains.ONE for e in keys}).is_exact
