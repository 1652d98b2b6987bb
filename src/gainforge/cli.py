"""Command-line front end.

Thin dispatch over the library: every subcommand parses its files,
calls the corresponding library operation, and prints the result in a
stable, locale-independent text form.  Exit codes: 0 success, 2 usage,
3 search exhausted, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import constructions, fileio, lines as lines_mod, search as search_mod
from .errors import GainForgeError
from .fileio import _fmt
from .gains import SEARCH_BUDGET, Gain, switching_equivalent, switching_isomorphic
from .spectral import certify_two_ev, eigenvalues

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_FAIL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_param(spec: str) -> tuple[str, Gain]:
    """Parse 'x=rot:p/q' or 'x=num:re,im' into a named unit gain."""
    if "=" not in spec:
        raise ValueError(f"parameter {spec!r} is not of the form name=value")
    name, value = spec.split("=", 1)
    if value.startswith("rot:"):
        p, q = value[4:].split("/", 1)
        return name, Gain.exact(int(p), int(q))
    if value.startswith("num:"):
        re_s, im_s = value[4:].split(",", 1)
        z = complex(float(re_s), float(im_s))
        if not abs(abs(z) - 1.0) <= 1e-6:
            raise ValueError(f"parameter {name} has modulus {abs(z)}, need 1")
        return name, Gain.numeric(z / abs(z), tol=1e-9)
    raise ValueError(f"parameter value {value!r} must start with rot: or num:")


# -- subcommand handlers --------------------------------------------------------

def _cmd_construct(args) -> int:
    params = dict(_parse_param(s) for s in args.param or [])
    g = constructions.fixed_catalog(args.name, **params)
    _emit(fileio.serialize_gaingraph(g), args.output)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.verify_all:
        rows, ok = constructions.catalog_verify_all(tol=args.tol, only=args.only)
        print("\n".join(rows))
        return EXIT_OK if ok else EXIT_FAIL
    for entry in constructions.catalog():
        (t1, m1), (t2, m2) = entry.expected_spectrum
        print(f"{entry.name:18s} n={entry.order:<4d} k={entry.degree:<3d} "
              f"spectrum {{{t1:.6g}^{m1}, {t2:.6g}^{m2}}}  {entry.note}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = fileio.parse_gaingraph(_read(args.file))
    spec = eigenvalues(g)
    out = [_fmt(v) for v in spec.eigenvalues]
    out.append("clusters:")
    for value, mult in spec.clusters:
        out.append(f"{_fmt(value)} {mult}")
    print("\n".join(out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = fileio.parse_gaingraph(_read(args.file))
    cert = certify_two_ev(g, tol=args.tol)
    if cert is None:
        spec = eigenvalues(g)
        print(f"NOT-TWO-EV clusters={len(spec.clusters)}")
        return EXIT_FAIL
    print(f"TWO-EV theta1={_fmt(cert.theta1)} theta2={_fmt(cert.theta2)} "
          f"m={cert.m} a={_fmt(cert.a)} k={_fmt(cert.k)} "
          f"residual={_fmt(cert.residual)}")
    return EXIT_OK


def _witness_text(w) -> str:
    return (f"perm {' '.join(str(p) for p in w.permutation)}\n"
            f"diag {'; '.join(fileio.format_gain(gain) for gain in w.diagonal)}\n"
            f"conjugated {str(w.conjugated).lower()}")


def _cmd_equiv(args) -> int:
    g1 = fileio.parse_gaingraph(_read(args.first))
    g2 = fileio.parse_gaingraph(_read(args.second))
    w = switching_equivalent(g1, g2)
    if w is None:
        print("NOT-EQUIVALENT")
        return EXIT_FAIL
    print("EQUIVALENT")
    print(_witness_text(w))
    return EXIT_OK


def _cmd_iso(args) -> int:
    g1 = fileio.parse_gaingraph(_read(args.first))
    g2 = fileio.parse_gaingraph(_read(args.second))
    w = switching_isomorphic(g1, g2, budget=args.budget)
    if w is None:
        print("NOT-ISOMORPHIC")
        return EXIT_FAIL
    print("ISOMORPHIC")
    print(_witness_text(w))
    return EXIT_OK


def _cmd_lines(args) -> int:
    if args.mode == "export":
        g = fileio.parse_gaingraph(_read(args.file))
        system = lines_mod.gain_to_lines(g)
        _emit(fileio.serialize_lines(system), args.output)
        return EXIT_OK
    system = fileio.parse_lines(_read(args.file))
    if args.mode == "import":
        if args.alpha is None:
            print("lines import requires --alpha", file=sys.stderr)
            return EXIT_USAGE
        g = lines_mod.lines_to_gain(system, args.alpha)
        _emit(fileio.serialize_gaingraph(g), args.output)
        return EXIT_OK
    # check
    report = lines_mod.tightness_check(system)
    profile = lines_mod.angle_profile(system)
    print(f"dim {system.dim} count {system.count}")
    print(f"tight {str(report.is_tight).lower()} z={_fmt(report.z)} "
          f"residual={_fmt(report.residual)}")
    print(f"angles {profile.classification} "
          f"[{', '.join(_fmt(v) for v in profile.values)}]")
    return EXIT_OK if report.is_tight else EXIT_FAIL


def _parse_partition(text: str) -> list[list[int]]:
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        cols: list[int] = []
        for piece in chunk.split(","):
            piece = piece.strip()
            if "-" in piece:
                lo, hi = piece.split("-", 1)
                cols.extend(range(int(lo), int(hi) + 1))
            else:
                cols.append(int(piece))
        parts.append(cols)
    return parts


def _cmd_dismantle(args) -> int:
    system = fileio.parse_lines(_read(args.file))
    if args.find:
        partition = lines_mod.find_basis_partition(system, budget=args.budget)
        if partition is None:
            print("NO-PARTITION")
            return EXIT_FAIL
        print("partition " + ";".join(",".join(str(c) for c in part)
                                      for part in partition))
    else:
        if not args.partition:
            print("dismantle requires --partition or --find", file=sys.stderr)
            return EXIT_USAGE
        partition = _parse_partition(args.partition)
    alpha = args.alpha
    if alpha is None:
        profile = lines_mod.angle_profile(system)
        alpha = profile.alpha
        if alpha is None:
            print("cannot infer --alpha from the angle profile", file=sys.stderr)
            return EXIT_USAGE
    result = lines_mod.dismantle(system, partition, alpha)
    for i, rep in enumerate(result.part_reports):
        print(f"part {i} size={len(partition[i])} z={_fmt(rep.z)} tight")
    for t, (g, cert) in enumerate(zip(result.union_graphs,
                                      result.union_certificates), start=1):
        if cert is None:
            print(f"union {t} n={g.n} empty-or-not-two-ev")
        else:
            print(f"union {t} n={g.n} theta1={_fmt(cert.theta1)} "
                  f"theta2={_fmt(cert.theta2)} m={cert.m}")
    return EXIT_OK


def _search_config(args) -> search_mod.SearchConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("GAINFORGE_SEED", "0"))
    return search_mod.SearchConfig(
        t0=args.t0, alpha=args.alpha, tau=args.tau,
        iters_per_temp=args.iters, epsilon=args.eps,
        seed=seed, chains=args.chains, snap_order=args.snap)


def _cmd_search(args) -> int:
    g = fileio.parse_gaingraph(_read(args.underlying))
    cfg = _search_config(args)
    if args.target_spectrum:
        target = np.array([float(tok) for tok in
                           _read(args.target_spectrum).split()])
        objective = lambda A: search_mod.objective_cospectral(A, target)
    else:
        objective = search_mod.objective_two_ev
    result = search_mod.run_search(g, cfg, objective)
    print(f"{result.status} best_f={_fmt(result.best_f)} seed={result.seed}")
    if result.snapped is not None:
        print("snapped exact; certified")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("temperature,best_f\n")
            for t, f in result.trace:
                fh.write(f"{_fmt(t)},{_fmt(f)}\n")
    best = result.snapped if result.snapped is not None else result.best_gains
    if args.output:
        _emit(fileio.serialize_gaingraph(best), args.output)
    return EXIT_OK if result.status == "Converged" else EXIT_EXHAUSTED


# -- argument parsing -------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainforge",
        description="Two-eigenvalue gain graphs: construct, certify, convert, search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named graph and print/save it")
    p.add_argument("name")
    p.add_argument("--param", action="append",
                   help="free parameter, e.g. x=rot:1/8 or x=num:0.6,0.8")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("catalog", help="list or verify the registry")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--verify-all", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--only", help="restrict to entries carrying this tag")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("spectrum", help="print eigenvalues and clusters")
    p.add_argument("file")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="certify the two-eigenvalue property")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("equiv", help="switching equivalence (fixed labeling)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("iso", help="switching isomorphism (relabeling allowed)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("lines", help="line-system export/import/check")
    p.add_argument("mode", choices=("export", "import", "check"))
    p.add_argument("file")
    p.add_argument("--alpha", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("dismantle", help="split a line system into tight parts")
    p.add_argument("file")
    p.add_argument("--partition", help='e.g. "0-3;4-7;8-11"')
    p.add_argument("--find", action="store_true",
                   help="search for an orthonormal-basis partition")
    p.add_argument("--alpha", type=float)
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.set_defaults(func=_cmd_dismantle)

    p = sub.add_parser("search", help="search for a two-eigenvalue gain function")
    cfg = search_mod.SearchConfig()
    p.add_argument("--underlying", required=True)
    p.add_argument("--t0", type=float, default=cfg.t0)
    p.add_argument("--alpha", type=float, default=cfg.alpha)
    p.add_argument("--tau", type=float, default=cfg.tau)
    p.add_argument("--iters", type=int, default=cfg.iters_per_temp)
    p.add_argument("--eps", type=float, default=cfg.epsilon)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chains", type=int, default=cfg.chains)
    p.add_argument("--snap", type=int, default=cfg.snap_order)
    p.add_argument("--target-spectrum",
                   help="file of whitespace-separated target eigenvalues")
    p.add_argument("--trace", help="write per-temperature best-f CSV here "
                   "(only the header when the local solve needed no annealing)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GainForgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
