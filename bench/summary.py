"""Turn op records and trace frames into the benchmark's metrics.

End-to-end metrics come from the untraced run, per-layer metrics from
the traced one.  Nothing here imports numpy or gainforge, so the rules
can be tested on their own.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

# percentiles tried for the tail, highest first
TAIL_LADDER = ("99.9", "99", "95", "90", "75", "50")
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default rule)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: str) -> int:
    """How many of n samples lie above the p-th percentile's rank."""
    return n - math.ceil(Fraction(p) * n / 100)


def tail_percentile(samples: list[float], cap: str = TAIL_LADDER[0]) -> tuple[float, float]:
    """(p, value) for the highest ladder percentile, at most cap, with ten samples beyond it.

    With fewer than 20 samples no percentile above the median qualifies;
    the tail then collapses to the median (p = 50), and the caller
    reports p so that nobody mistakes it for a resolved tail.  A
    workload caps p at the rung its run reaches at the seed commit, so a
    faster program, which fits more ops into a run, is not measured at
    a higher percentile than its parent.
    """
    for p in TAIL_LADDER[TAIL_LADDER.index(cap):]:
        if samples_beyond(len(samples), p) >= TAIL_MIN_BEYOND:
            return float(p), percentile(samples, float(p))
    return 50.0, percentile(samples, 50.0)


@dataclass
class OpRecord:
    op: int
    cls: str
    t0: float          # perf_counter at the op's start and end
    t1: float
    wall_s: float      # as measured
    ok: bool
    solution: bool
    error: str
    facts: dict
    seconds: float = 0.0   # normalised to the reference host speed; wall_s if not

    def __post_init__(self) -> None:
        self.seconds = self.seconds or self.wall_s


def _timings(latencies: list[float], solutions: int, tail_cap: str) -> tuple[dict, float]:
    """ops_per_s, op_p50_ms, op_tail_ms and s_per_solution, plus the tail's percentile."""
    busy = sum(latencies)
    p, tail = tail_percentile(latencies, tail_cap)
    return {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        # with no solution the run is reported as incorrect anyway
        "s_per_solution": (busy / max(solutions, 1), "s"),
    }, p


def end_to_end(records: list[OpRecord], cycle: list[str], tail_cap: str,
               setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics as {name: (value, unit)}, plus descriptive extras.

    The metrics use each op's normalised seconds; the extras give the
    same timings from wall time as measured ("wall_clock").
    """
    solutions = sum(r.solution for r in records)
    timings, p = _timings([r.seconds for r in records], solutions, tail_cap)
    wall, _ = _timings([r.wall_s for r in records], solutions, tail_cap)
    metrics = {"setup_s": (setup_s, "s"), **timings, "peak_rss_mb": (peak_rss_mb, "MB")}
    extras = {
        "failed_frac": sum(not r.ok for r in records) / len(records),
        "tail_percentile": p,
        "samples": len(records),
        "cycles": len(records) // len(cycle),
        "solutions": solutions,
        "wall_clock": {k: v for k, (v, _) in wall.items()},
    }
    return metrics, extras


# -- per-layer -------------------------------------------------------------------

PER_LAYER_UNITS = {
    "search.run_search_ms": "ms", "search.anneal_ms": "ms",
    "search.objective_calls": "count", "search.objective_us": "us",
    "search.anneal_self_frac": "ratio", "search.temperatures": "count",
    "search.runs": "count", "search.anneal_converged_frac": "ratio",
    "search.converged_frac": "ratio", "search.snapped_frac": "ratio",
    "search.refine_ms": "ms", "search.snap_ms": "ms",
    "spectral.certify_calls": "count", "spectral.certify_ms": "ms",
    "spectral.eigenvalues_ms": "ms", "spectral.char_poly_ms": "ms",
    "constructions.build_ms": "ms", "cyclotomic.root_sum_calls": "count",
    "fileio.serialize_ms": "ms", "fileio.parse_ms": "ms", "fileio.bytes": "B",
    "lines.gain_to_lines_ms": "ms", "lines.lines_to_gain_ms": "ms",
    "lines.bounds_check_self_ms": "ms",
    "gains.coclique_ms": "ms", "gains.matrix_us": "us",
    "gains.iso_pos_ms": "ms", "gains.iso_neg_ms": "ms",
    "gains.iso_leaves": "count", "gains.leaf_us": "us",
    "gains.normalize_calls": "count", "gains.normalize_us": "us",
    "gains.iso_timeouts": "count",
    "cli.verify_all_ms": "ms", "cli.verify_ms": "ms",
    "bench.span_coverage": "ratio", "bench.trace_overhead": "ratio",
}


class _Frames:
    """Trace frames grouped by name: calls, summed time and self time."""

    def __init__(self, frames):
        self.calls: dict[str, int] = {}
        self.op_calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.by_op: dict[str, dict] = {}
        for name, op, count, total, self_t in frames:
            self.calls[name] = self.calls.get(name, 0) + count
            if isinstance(op, int):
                self.op_calls[name] = self.op_calls.get(name, 0) + count
                per_op = self.by_op.setdefault(name, {})
                per_op[op] = per_op.get(op, 0.0) + total
            self.total[name] = self.total.get(name, 0.0) + total
            self.self_time[name] = self.self_time.get(name, 0.0) + self_t

    def mean(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.total[name] / calls * scale if calls else 0.0

    def self_mean(self, name: str, scale: float) -> float:
        calls = self.calls.get(name, 0)
        return self.self_time[name] / calls * scale if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(frames, counts: dict, records: list[OpRecord],
              overhead: float) -> dict:
    """The per-layer metrics as {name: value}.

    Times are means per call over every traced call, set-up included;
    ``_calls`` counts are per timed op.  Layers a workload leaves idle
    read 0.
    """
    f = _Frames(frames)
    n_ops = len(records)
    runs = f.op_calls.get("search.run_search", 0)
    anneal_recs = [r for r in records if "temperatures" in r.facts]
    iso = f.by_op.get("gains.iso", {})
    kinds = {r.op: r.facts.get("positive") for r in records}
    pos = [t for op, t in iso.items() if kinds.get(op) is True]
    neg = [t for op, t in iso.items() if kinds.get(op) is False]
    bench_total = f.total.get("bench.op", 0.0)
    m = {
        "search.run_search_ms": f.mean("search.run_search", 1e3),
        "search.anneal_ms": f.mean("search.anneal", 1e3),
        "search.objective_calls": _ratio(f.op_calls.get("search.objective", 0), runs),
        "search.objective_us": f.mean("search.objective", 1e6),
        "search.anneal_self_frac": _ratio(f.self_time.get("search.anneal", 0.0),
                                          f.total.get("search.anneal", 0.0)),
        "search.temperatures": _ratio(sum(r.facts["temperatures"] for r in anneal_recs),
                                      len(anneal_recs)),
        "search.runs": runs,
        "search.anneal_converged_frac": _ratio(counts.get("search.anneal_converged", 0), runs),
        "search.converged_frac": _ratio(sum(r.facts["converged"] for r in anneal_recs), runs),
        "search.snapped_frac": _ratio(sum(r.facts["snapped"] for r in anneal_recs), runs),
        "search.refine_ms": f.mean("search.refine", 1e3),
        "search.snap_ms": f.mean("search.snap", 1e3),
        "spectral.certify_calls": _ratio(f.op_calls.get("spectral.certify", 0), n_ops),
        "spectral.certify_ms": f.mean("spectral.certify", 1e3),
        "spectral.eigenvalues_ms": f.mean("spectral.eigenvalues", 1e3),
        "spectral.char_poly_ms": f.mean("spectral.char_poly", 1e3),
        "constructions.build_ms": f.mean("constructions.build", 1e3),
        "cyclotomic.root_sum_calls": _ratio(f.op_calls.get("cyclotomic.root_sum", 0), n_ops),
        "fileio.serialize_ms": f.mean("fileio.serialize", 1e3),
        "fileio.parse_ms": f.mean("fileio.parse", 1e3),
        "fileio.bytes": _ratio(counts.get("fileio.bytes", 0), f.calls.get("fileio.serialize", 0)),
        "lines.gain_to_lines_ms": f.mean("lines.gain_to_lines", 1e3),
        "lines.lines_to_gain_ms": f.mean("lines.lines_to_gain", 1e3),
        "lines.bounds_check_self_ms": f.self_mean("lines.bounds_check", 1e3),
        "gains.coclique_ms": f.mean("gains.coclique", 1e3),
        "gains.matrix_us": f.mean("gains.matrix", 1e6),
        "gains.iso_pos_ms": statistics.median(pos) * 1e3 if pos else 0.0,
        "gains.iso_neg_ms": statistics.median(neg) * 1e3 if neg else 0.0,
        "gains.iso_leaves": _ratio(f.op_calls.get("gains.leaf", 0), n_ops),
        "gains.leaf_us": f.mean("gains.leaf", 1e6),
        "gains.normalize_calls": _ratio(f.op_calls.get("gains.normalize", 0), n_ops),
        "gains.normalize_us": f.mean("gains.normalize", 1e6),
        "gains.iso_timeouts": counts.get("gains.iso_timeouts", 0),
        "cli.verify_all_ms": f.mean("cli.verify_all", 1e3),
        "cli.verify_ms": f.mean("cli.verify", 1e3),
        # share of op time spent inside traced library calls rather than in
        # the benchmark's own code between them
        "bench.span_coverage": _ratio(bench_total - f.self_time.get("bench.op", 0.0),
                                      bench_total),
        "bench.trace_overhead": overhead,
    }
    return m


def layer_self_times(frames) -> dict[str, float]:
    """Self seconds per layer (the part of a frame name before the first dot)."""
    out: dict[str, float] = {}
    for name, _op, _count, _total, self_t in frames:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_t
    return out
