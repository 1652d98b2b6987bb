"""gainforge benchmark: the anneal, certify and classify workloads.

One workload per run:

    python3 bench/run.py --workload anneal --seed 1 --seconds 40 --trace 0

Everything, each workload untraced and traced, with a table of metrics:

    python3 bench/run.py --all

A run prints a readable report, then as its last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 gives
the end-to-end metrics; --trace 1 wraps gainforge's public functions in
timing spans and gives the per-layer metrics instead.  Details (run
context, every op, failed op ids, spans) go to .bench_out/ at the root
of the checkout.  README.md next to this file defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import summary
from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("anneal", "certify", "classify")
# the tail percentile each workload's run reaches at the seed commit (README.md)
TAIL_CAP = {"anneal": "50", "certify": "95", "classify": "95"}
SETUP_PROBES = 4          # extra cold set-ups, each in a fresh interpreter
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads.

    One caller drives one process, and the matrices (4x4 up to 126x126)
    are too small for a second thread to pay: with two threads on two
    cores the 126-vertex certify ops spread over 235-350 ms from run to
    run, with one thread over 300-340 ms.
    """
    threads = 1
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _import_library():
    """Import gainforge from this checkout's src/, never from anywhere else."""
    if not (SRC / "gainforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no gainforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gainforge
    if Path(gainforge.__file__).resolve().parent != (SRC / "gainforge").resolve():
        raise SystemExit(f"error: imported gainforge from {gainforge.__file__}")
    import workloads
    return gainforge, workloads


# -- run context -------------------------------------------------------------

def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _package_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "gainforge").glob("*.py")))


def run_context(threads: int) -> dict:
    import numpy as np
    return {
        "nproc": _nproc(),
        "blas": _blas(),
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "package_loc": _package_loc(),
    }


# -- tracing -----------------------------------------------------------------

def install_tracer(tracer, gainforge) -> None:
    """Wrap the public functions of every gainforge module (see README.md)."""
    from gainforge import (cli, constructions, cyclotomic, fileio, gains, lines,
                           search, spectral)
    mods = [gainforge, gains, spectral, constructions, lines, search, fileio,
            cyclotomic, cli]
    spans = [
        (search, "run_search", "search.run_search"), (search, "refine_gains", "search.refine"),
        (search, "snap_gains", "search.snap"),
        (spectral, "certify_two_ev", "spectral.certify"),
        (spectral, "eigenvalues", "spectral.eigenvalues"),
        (spectral, "char_poly_elementary", "spectral.char_poly"),
        (spectral, "char_poly_from_eigenvalues", "spectral.char_poly_from_eigenvalues"),
        (fileio, "parse_gaingraph", "fileio.parse"),
        (lines, "gain_to_lines", "lines.gain_to_lines"),
        (lines, "lines_to_gain", "lines.lines_to_gain"),
        (lines, "bounds_check", "lines.bounds_check"),
        (lines, "tightness_check", "lines.tightness_check"),
        (lines, "angle_profile", "lines.angle_profile"),
        (lines, "geometry_lines", "lines.geometry_lines"),
        (gains, "max_coclique", "gains.coclique"),
        (gains, "switching_isomorphic", "gains.iso"),
        (gains, "apply_witness", "gains.apply_witness"),
        (cli, "main", "cli.main"),
    ] + [(constructions, fn, f"constructions.{fn}") for fn in (
        "complete", "ig", "double", "toral", "donut", "d8_star", "renes",
        "k222_gamma", "named_weighing", "fixed_catalog")]
    for owner, attr, name in spans:
        tracer.patch(mods, owner, attr, name)
    tracer.patch(mods, search, "anneal", "search.anneal",
                 note=lambda r: {"search.anneal_converged": r.status == "Converged"})
    tracer.patch(mods, fileio, "serialize_gaingraph", "fileio.serialize",
                 note=lambda text: {"fileio.bytes": len(text)})
    for owner, attr, name in [
        (gains, "switching_equivalent", "gains.leaf"),
        (gains, "normalize_spanning_tree", "gains.normalize"),
        (gains.GainGraph, "matrix", "gains.matrix"),
        (cyclotomic, "root_sum_is_zero", "cyclotomic.root_sum"),
    ]:
        tracer.patch(mods, owner, attr, name, hot=True)


# -- the run loop ------------------------------------------------------------

def run_cycle(workloads, inputs, c: int, tracer) -> list:
    """Run cycle c, one op at a time; ops of cycle c get the indices c*size ..."""
    size = len(inputs.cycle)
    records = []
    for j in range(size):
        i = c * size + j
        tracer.op = i
        t0 = time.perf_counter()
        res = tracer.span("bench.op", workloads.run_op, inputs, i, tracer)
        t1 = time.perf_counter()
        records.append(summary.OpRecord(i, inputs.cycle[j], t0, t1, t1 - t0, res.ok,
                                        res.solution, res.error, res.facts))
    return records


def _another_cycle(start: float, done: int, seconds: float) -> bool:
    """Whether the mean cycle time so far says another cycle ends within seconds."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _workdir() -> Path:
    """A private scratch directory for generated input files."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def set_up(workload: str, seed: int, tracer):
    """Import gainforge and generate the inputs.

    Returns (modules, inputs, sampler, (start, end) of the set-up).  The
    workdir holds files the inputs refer to; the caller removes it.  A
    hostspeed.Sampler starts as soon as numpy is loaded and is returned
    running.  A tracer is installed, and times its spans without the
    sampler's own time.
    """
    t0 = time.perf_counter()
    gainforge, workloads = _import_library()
    import hostspeed   # loads numpy, so not before the BLAS threads are pinned
    sampler = hostspeed.Sampler()
    sampler.start()
    if tracer.enabled:
        tracer.clock = sampler.clock
        install_tracer(tracer, gainforge)
        tracer.op = "setup"
    workdir = _workdir()
    inputs = tracer.span("bench.setup", workloads.WORKLOADS[workload], seed, workdir, tracer)
    return (gainforge, workloads, workdir), inputs, sampler, (t0, time.perf_counter())


def _setup_probe(workload: str, seed: int) -> float:
    """Time one cold set-up in a fresh interpreter (import plus input generation)."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                          "--workload", workload, "--seed", str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_untraced(args):
    """Set up, then whole cycles; the end-to-end run.

    Op and set-up times are normalised to the reference host speed
    (hostspeed.py); each op's wall time is kept as measured.
    """
    (_, workloads, workdir), inputs, sampler, setup = set_up(args.workload, args.seed,
                                                             NullTracer())
    try:
        records = []
        start = time.perf_counter()
        while True:
            records += run_cycle(workloads, inputs, len(records) // len(inputs.cycle),
                                 NullTracer())
            if not _another_cycle(start, len(records) // len(inputs.cycle), args.seconds):
                break
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for r in records:
        r.seconds = sampler.normalise(r.t0, r.t1)
    setup_samples = [sampler.normalise(*setup)] + [_setup_probe(args.workload, args.seed)
                                                   for _ in range(SETUP_PROBES)]
    return inputs, records, setup_samples


def run_traced(args, tracer):
    """Set up, then whole cycles, each run traced and untraced in alternating order.

    Per-layer metrics come from the traced cycles.  The untraced run of
    the same ops right next to it gives the tracing overhead, from op
    times normalised as in the untraced run.
    """
    (gainforge, workloads, workdir), inputs, sampler, setup = set_up(args.workload,
                                                                     args.seed, tracer)
    tracer.restore()
    traced, plain = [], []
    try:
        start = time.perf_counter()
        c = 0
        while True:
            for on in ((False, True) if c % 2 == 0 else (True, False)):
                if on:
                    install_tracer(tracer, gainforge)
                    traced += run_cycle(workloads, inputs, c, tracer)
                    tracer.restore()
                else:
                    plain += run_cycle(workloads, inputs, c, NullTracer())
            c += 1
            if not _another_cycle(start, c, args.seconds):
                break
    finally:
        sampler.stop()
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    for r in traced + plain:
        r.seconds = sampler.normalise(r.t0, r.t1)
    return inputs, traced, plain, [sampler.normalise(*setup)]


def run_workload(args, threads: int) -> dict:
    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    plain = []
    if traced:
        inputs, records, plain, setup_samples = run_traced(args, tracer)
    else:
        inputs, records, setup_samples = run_untraced(args)
    wall = sum(r.wall_s for r in records)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, extras = summary.end_to_end(records, inputs.cycle, TAIL_CAP[args.workload],
                                     statistics.median(setup_samples), peak_rss_mb)
    # a traced run checks its untraced reruns too
    failed_ops = [{"op": r.op, "class": r.cls, "error": r.error}
                  for r in records + plain if not r.ok]
    correct = not failed_ops and extras["solutions"] > 0
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(traced), "context": run_context(threads),
        "cycle": inputs.cycle, "setup_samples_s": setup_samples,
        "failed_ops": failed_ops, **extras,
        "ops": [vars(r) for r in records],
    }
    if traced:
        frames = list(tracer.frames())
        overhead = sum(r.seconds for r in records) / sum(r.seconds for r in plain)
        layer = summary.per_layer(frames, tracer.counts, records, overhead)
        metrics = {k: {"value": v, "unit": summary.PER_LAYER_UNITS[k]}
                   for k, v in layer.items()}
        detail["layer_self_s"] = summary.layer_self_times(frames)
        detail["overhead_walls_s"] = {"traced": wall,
                                      "untraced": sum(r.wall_s for r in plain)}
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    detail["metrics"] = metrics
    stem = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str),
                                      encoding="utf-8")

    ctx = detail["context"]
    print(f"workload {args.workload} seed {args.seed} trace {int(traced)}: "
          f"{len(records)} ops in {extras['cycles']} cycles of "
          f"{len(inputs.cycle)}, {wall:.2f} s of op wall time")
    print(f"context: nproc={ctx['nproc']} blas={ctx['blas']} threads={ctx['blas_threads']} "
          f"python={ctx['python']} numpy={ctx['numpy']} commit={ctx['git_commit']} "
          f"loc={ctx['package_loc']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {extras['failed_frac']:.6g} ratio; tail is "
          f"p{extras['tail_percentile']:g} of {extras['samples']} ops")
    if not traced:
        print("  as measured, before host-speed normalisation: " + ", ".join(
            f"{k} {v:.6g}" for k, v in extras["wall_clock"].items()))
    if failed_ops:
        print("failed ops: " + ", ".join(f"{f['op']} ({f['class']}: {f['error']})"
                                          for f in failed_ops))
    return {"correct": correct, "attempted": len(records + plain), "failed": len(failed_ops),
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload, untraced then traced, in child processes; prints a table."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if not trace:
                print(f"  {'failed_frac':32s} {result['failed'] / result['attempted']:.6g} ratio")
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads = _pin_blas_threads()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    if args.setup_probe:
        (_, _, workdir), _, sampler, setup = set_up(args.workload, args.seed, NullTracer())
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        print(sampler.normalise(*setup))
        return 0
    result = run_workload(args, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
