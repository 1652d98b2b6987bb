"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import summary  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


# -- the tail-percentile rule -------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    samples = [float(x) for x in range(n)]
    p, value = summary.tail_percentile(samples)
    assert p == expected
    if p > 50:
        # at least ten samples beyond the reported value, and the next
        # rung up would have fewer than ten
        assert sum(x > value for x in samples) >= 10
        higher = [q for q in summary.TAIL_LADDER if float(q) > p]
        if higher:
            assert summary.samples_beyond(n, higher[-1]) < 10


def test_tail_cap_holds_the_rung_when_more_samples_arrive():
    samples = [float(x) for x in range(5000)]
    assert summary.tail_percentile(samples, cap="95")[0] == 95.0
    # the cap never lifts a rung the rule does not allow
    assert summary.tail_percentile(samples[:60], cap="95")[0] == 75.0


def test_tail_value_interpolates_like_numpy():
    rng = np.random.default_rng(3)
    samples = list(rng.exponential(size=250))
    p, value = summary.tail_percentile(samples)
    assert p == 95.0
    assert value == pytest.approx(float(np.percentile(samples, 95.0)))


# -- self time with nested frames ---------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_spans_and_aggregates():
    clock = _FakeClock()
    tr = Tracer(clock)

    def innermost():
        clock.t += 0.5

    def leaf():
        clock.t += 2.0
        tr.aggregate("hot.inner", innermost)

    def inner():
        clock.t += 1.0
        tr.aggregate("hot", leaf)
        tr.aggregate("hot", leaf)
        clock.t += 1.0

    def outer():
        clock.t += 3.0
        tr.span("inner", inner)
        clock.t += 4.0

    tr.op = 7
    tr.span("outer", outer)
    frames = {name: (op, count, total, self_t)
              for name, op, count, total, self_t in tr.frames()}
    assert frames["outer"] == (7, 1, pytest.approx(14.0), pytest.approx(7.0))
    assert frames["inner"] == (7, 1, pytest.approx(7.0), pytest.approx(2.0))
    assert frames["hot"] == (7, 2, pytest.approx(5.0), pytest.approx(4.0))
    assert frames["hot.inner"] == (7, 2, pytest.approx(1.0), pytest.approx(1.0))
    # the self times of all frames add back up to the root's duration
    assert sum(f[3] for f in frames.values()) == pytest.approx(14.0)


def test_patch_reaches_aliases_and_restore_undoes_it():
    import gainforge
    from gainforge import gains, spectral
    original = spectral.certify_two_ev
    tr = Tracer()
    tr.patch([gainforge, gains, spectral], spectral, "certify_two_ev", "spectral.certify")
    assert gainforge.certify_two_ev is spectral.certify_two_ev is not original
    cert = gainforge.certify_two_ev(gainforge.complete(4))
    assert cert is not None
    assert [name for name, *_ in tr.frames()] == ["spectral.certify"]
    tr.restore()
    assert gainforge.certify_two_ev is original and spectral.certify_two_ev is original


# -- host-speed normalisation ------------------------------------------------------

def test_normalise_drops_sampling_time_and_scales_by_nearby_kernel_times():
    import hostspeed
    sampler = hostspeed.Sampler()
    ref = hostspeed.REF_KERNEL_S
    # samples at t = 0, 1, 2, 3, each 0.1 s long; the host is twice as slow
    # from t = 1 on, so the kernel takes 2 * ref there
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.ends = [0.1, 1.1, 2.1, 3.1]
    sampler.kernel_s = [ref, 2 * ref, 2 * ref, 2 * ref]
    # an op from 1.5 to 2.5 holds the sample at 2.0; its neighbours are 1.0 and 3.0
    assert sampler.normalise(1.5, 2.5) == pytest.approx((1.0 - 0.1) / 2)
    # a short op between samples is scaled by the samples on either side
    assert sampler.normalise(0.5, 0.6) == pytest.approx(0.1 / 1.5)
    # an interval that starts before the first sample
    assert sampler.normalise(-0.5, 0.5) == pytest.approx((1.0 - 0.1) / 1.5)


# -- workload generation ------------------------------------------------------------

def _classify_matrices(inputs):
    return [[workloads._hermitian(p.h) for p in pairs] for pairs in inputs.data]


def test_same_seed_gives_identical_inputs(tmp_path):
    a = workloads.anneal(5, tmp_path, NullTracer())
    b = workloads.anneal(5, tmp_path, NullTracer())
    assert np.array_equal(a.data, b.data)
    c1 = workloads.certify(5, tmp_path, NullTracer())
    c2 = workloads.certify(5, tmp_path, NullTracer())
    assert c1.cycle == c2.cycle
    assert [[{k: g.value for k, g in p.items()} for p in v] for v in c1.data] == \
        [[{k: g.value for k, g in p.items()} for p in v] for v in c2.data]
    k1 = workloads.classify(5, tmp_path, NullTracer())
    k2 = workloads.classify(5, tmp_path, NullTracer())
    assert k1.cycle == k2.cycle
    for m1, m2 in zip(_classify_matrices(k1), _classify_matrices(k2)):
        assert all(np.array_equal(x, y) for x, y in zip(m1, m2))


def test_different_seed_gives_different_seeds_and_disguises(tmp_path):
    a = workloads.anneal(5, tmp_path, NullTracer())
    b = workloads.anneal(6, tmp_path, NullTracer())
    assert not np.array_equal(a.data, b.data)
    k1 = workloads.classify(5, tmp_path, NullTracer())
    k2 = workloads.classify(6, tmp_path, NullTracer())
    # the op mix is fixed by the catalog; only the inputs move
    assert k1.cycle == k2.cycle
    differ = [not np.allclose(x, y) for x, y in
              zip(_classify_matrices(k1)[0], _classify_matrices(k2)[0])]
    assert sum(differ) > len(differ) // 2


@pytest.mark.parametrize("seed", [1, 2])
def test_every_classify_negative_has_a_different_spectrum(tmp_path, seed):
    inputs = workloads.classify(seed, tmp_path, NullTracer())
    negatives = 0
    for pairs in inputs.data:
        for pair in pairs:
            gap = np.max(np.abs(workloads._spectrum(pair.g) - workloads._spectrum(pair.h)))
            if pair.positive:
                assert gap < 1e-8, pair.name
            else:
                negatives += 1
                assert gap > 1e-6, pair.name
    assert negatives > 0


# -- the run's contract ---------------------------------------------------------------

def test_run_fails_without_the_library(tmp_path):
    """Given only the benchmark's own files, a run exits non-zero with no result."""
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
