"""The benchmark's tracer must still find every gainforge name it wraps.

``bench/run.py --trace 1`` looks each wrapped function up by name; a
library name that moves or disappears breaks the traced benchmark.  This
installs and removes the tracer the way the benchmark does.
"""

from __future__ import annotations

import sys
from pathlib import Path

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
