"""Batch command-line front-end.

Every subcommand prints its full resolved configuration as a key=value line
before doing any work, so output files are self-describing, and logs are
line-oriented key=value records for downstream scripting.

Exit statuses: 0 success, 2 invalid input (a bad value or file, or an
output path the command cannot write), 3 verification failure, 4 budget
exhaustion. Commands raise OSError or ValueError for status 2, and `main`
alone turns that into one `error` line on standard error.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path

from . import e8, formats, hypercube
from .core import cloud_automorphisms, degree_profile, ratio_lower_bound
from .e8 import CertificateError
from .solve import (
    ChiBracket,
    ColoringResult,
    MisIncomplete,
    SolveOptions,
    chromatic_number,
    max_independent_set,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAIL = 3
EXIT_BUDGET = 4


def _print_config(args: argparse.Namespace) -> None:
    pairs = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                     if k != "func" and v is not None)
    print(f"config {pairs}")


def _solve_options(args: argparse.Namespace) -> SolveOptions:
    return SolveOptions(
        node_budget=args.budget_nodes if args.budget_nodes else None,
        time_budget=args.budget_seconds if args.budget_seconds else None,
    )


def _check_output(path: str) -> None:
    """Raise OSError unless the directory that path names a file in exists
    and is writable, so that a command refuses an output path it cannot
    write before its work, not after it."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise OSError(f"output directory {directory} of {path} does not exist")
    if not os.access(directory, os.W_OK):
        raise OSError(f"output directory {directory} of {path} is not writable")


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    # Kept so existing command lines keep working; it sets nothing. The clique
    # search splits its work across the usable CPUs by itself.
    p.add_argument("--threads", type=int, choices=[1], default=1,
                   help="accepted for compatibility; only 1 is valid")


def _add_budget_flags(p: argparse.ArgumentParser, seconds: float) -> None:
    p.add_argument("--budget-nodes", type=int, default=0,
                   help="node budget per solve, 0 = unlimited (default 0)")
    p.add_argument("--budget-seconds", type=float, default=seconds,
                   help=f"time budget in seconds per solve, 0 = unlimited "
                        f"(default {seconds:g})")
    _add_threads_flag(p)


def cmd_build(args) -> int:
    family = args.family
    if family == "cube":
        graph, cloud = hypercube.hamming_graph(args.d, args.u)
    elif family == "half":
        graph, cloud = hypercube.half_cube(args.d, args.u)
    elif family == "slice":
        if args.s is None:
            raise ValueError("slice requires -s")
        graph, cloud = hypercube.slice_graph(args.d, args.u, args.s)
    else:
        graph, cloud = e8.build_g0()
    graph_path = Path(f"{args.out}.graph")
    coords_path = Path(f"{args.out}.coords")
    formats.write_graph(graph, graph_path)
    formats.write_point_cloud(cloud, coords_path)
    lo, hi, regular = degree_profile(graph)
    print(f"built name={graph.name} n={graph.n} m={graph.edge_count()} "
          f"min_degree={lo} max_degree={hi} regular={regular}")
    print(f"wrote graph={graph_path} coords={coords_path}")
    return EXIT_OK


def cmd_alpha(args) -> int:
    graph = formats.read_graph(args.graph)
    opts = _solve_options(args)
    automorphisms = []
    coords_path = Path(args.graph).with_suffix(".coords")
    if args.graph.endswith(".graph") and coords_path.exists():
        cloud = formats.read_point_cloud(coords_path)
        if len(cloud) != graph.n:
            raise ValueError(f"{coords_path} has {len(cloud)} points "
                             f"for {graph.n} vertices")
        automorphisms = cloud_automorphisms(cloud)
    witness_path = args.witness or f"{args.graph}.alpha.witness"
    _check_output(witness_path)
    res = max_independent_set(graph, opts, automorphisms)
    if isinstance(res, MisIncomplete):
        print(f"incomplete alpha_lower={res.lower_bound} alpha_upper={res.upper_bound} "
              f"nodes={res.nodes_explored} seconds={res.wall_time:.2f}")
        return EXIT_BUDGET
    bound = ratio_lower_bound(graph.n, res.alpha) if graph.n else 0
    print(f"result alpha={res.alpha} ratio_bound={bound} n={graph.n} "
          f"nodes={res.nodes_explored} seconds={res.wall_time:.2f}")
    formats.write_independent_set_witness(witness_path, args.graph, res.witness)
    print(f"wrote witness={witness_path}")
    return EXIT_OK


def cmd_chi(args) -> int:
    graph = formats.read_graph(args.graph)
    opts = _solve_options(args)
    witness_path = args.witness or f"{args.graph}.coloring.witness"
    _check_output(witness_path)
    t0 = time.perf_counter()
    res = chromatic_number(graph, opts)
    elapsed = time.perf_counter() - t0
    if isinstance(res, ChiBracket):
        print(f"incomplete chi_lower={res.lower} chi_upper={res.upper} "
              f"nodes={res.nodes_explored} seconds={elapsed:.2f}")
        return EXIT_BUDGET
    print(f"result chi={res.chi} n={graph.n} nodes={res.nodes_explored} "
          f"seconds={elapsed:.2f}")
    formats.write_coloring_witness(witness_path, args.graph, res.coloring)
    print(f"wrote witness={witness_path}")
    return EXIT_OK


def _load_pool(args) -> e8.CandidatePool:
    if args.pool_file:
        # Same point rules as the verifier, so augment cannot write a
        # certificate that verify rejects.
        points = []
        seen = set()
        text = Path(args.pool_file).read_text(encoding="ascii")
        for line_no, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts:
                continue
            try:
                x = tuple(int(c) for c in parts)
            except ValueError:
                raise formats.FormatError(
                    f"pool point {raw.strip()!r} has a non-integer coordinate",
                    line=line_no) from None
            violation = e8.point_violation(x)
            if violation is not None:
                raise formats.FormatError(f"pool point {violation[1]}", line=line_no)
            if x in seen:
                raise formats.FormatError(f"pool point {x} listed twice", line=line_no)
            seen.add(x)
            points.append(x)
        pool = e8.CandidatePool(tuple(points))
    else:
        pool = e8.enumerate_ball()
    if args.order == "lex":
        return pool
    shuffled = list(pool.points)
    random.Random(args.seed).shuffle(shuffled)
    return e8.CandidatePool(tuple(shuffled))


def cmd_augment(args) -> int:
    _check_output(args.out)
    if args.budget_seconds < 0:
        raise ValueError("negative time budget")
    for flag, value in (("candidates", args.budget_candidates),
                        ("accepted", args.budget_accepted)):
        if value < -1:
            raise ValueError(f"--budget-{flag} {value}: use -1 for unlimited")
    pool = _load_pool(args)
    base_graph, base_cloud = e8.build_g0()
    state = e8.initial_state(base_graph, base_cloud)
    print(f"base name={base_graph.name} n={base_graph.n} alpha={state.alpha}")

    def log(point, accepted, alpha):
        word = "accepted" if accepted else "rejected"
        coords = ",".join(str(c) for c in point)
        print(f"candidate point={coords} outcome={word} alpha={alpha}")

    final = e8.augment_greedy(
        state, pool,
        max_candidates=args.budget_candidates if args.budget_candidates >= 0 else None,
        max_accepted=args.budget_accepted if args.budget_accepted >= 0 else None,
        time_budget=args.budget_seconds if args.budget_seconds else None,
        log=log)
    n_final = final.graph.n
    bound = ratio_lower_bound(n_final, final.alpha)
    cert = e8.Certificate(
        base=e8.GOSSET_BASE_NAME, points=final.added,
        claimed_alpha=final.alpha, claimed_chi_lower=bound)
    formats.write_certificate(cert, args.out)
    print(f"result accepted={len(final.added)} rejected={final.rejected_count} "
          f"tested={final.candidates_tested} n={n_final} alpha={final.alpha} "
          f"chi_lower={bound} termination={final.termination}")
    print(f"wrote certificate={args.out}")
    if final.termination != "pool_exhausted":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = formats.read_certificate(args.certificate)
    try:
        report = e8.verify_certificate(cert)
    except CertificateError as exc:
        print(f"FAIL condition={exc.condition} detail={exc.detail}")
        return EXIT_VERIFY_FAIL
    print(f"PASS graph={report.graph_name} n={report.n_vertices} "
          f"alpha={report.alpha} chi_lower={report.chi_lower}")
    return EXIT_OK


def _parse_range(spec: str) -> list[int]:
    """The dimensions named by "d" or "lo..hi"; ValueError unless all lie in 1..MAX_DIM."""
    lo, sep, hi = spec.partition("..")
    try:
        dims = list(range(int(lo), int(hi) + 1)) if sep else [int(spec)]
    except ValueError:
        raise ValueError(f"dimension {spec!r} is neither an integer nor a range lo..hi") from None
    if not dims:
        raise ValueError(f"dimension range {spec!r} is empty")
    if dims[0] < 1:
        raise ValueError(f"dimension d={dims[0]} must be at least 1")
    if dims[-1] > hypercube.MAX_DIM:
        raise ValueError(f"dimension d={dims[-1]} exceeds the width cap {hypercube.MAX_DIM}")
    return dims


def cmd_table(args) -> int:
    dims = _parse_range(args.d)
    if min(args.u) < 1:
        raise ValueError(f"Hamming distance u={min(args.u)} must be at least 1")
    opts = _solve_options(args)
    rows: list[formats.TableRow] = []
    for u in args.u:
        for d in dims:
            t0 = time.perf_counter()
            if u > d:
                # No pair of d-bit vectors is at Hamming distance u > d, so the
                # graph is edgeless and one color suffices.
                rows.append(formats.TableRow(
                    d=d, u=u, status="exact", value=1, alpha=1 << d,
                    n=1 << d, runtime=time.perf_counter() - t0))
                continue
            graph, _ = hypercube.hamming_graph(d, u)
            res = chromatic_number(graph, opts)
            elapsed = time.perf_counter() - t0
            if isinstance(res, ColoringResult):
                rows.append(formats.TableRow(
                    d=d, u=u, status="exact", value=res.chi, alpha=None,
                    n=graph.n, runtime=elapsed))
            else:
                rows.append(formats.TableRow(
                    d=d, u=u, status="lower-bound", value=res.lower, alpha=None,
                    n=graph.n, runtime=elapsed))
    table = formats.ResultTable(rows)
    if args.format == "csv":
        sys.stdout.write(table.render_csv())
    elif args.format == "records":
        for rec in table.records():
            print(" ".join(f"{k}={v}" for k, v in rec.items()))
    else:
        sys.stdout.write(table.render_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitdist",
        description="Unit-distance graph construction, exact solving, and "
                    "certificate verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph family member")
    p.add_argument("family", choices=["cube", "half", "slice", "gosset"])
    p.add_argument("-d", type=int, default=0, help="dimension")
    p.add_argument("-u", type=int, default=0, help="Hamming distance")
    p.add_argument("-s", type=int, default=None, help="slice height")
    p.add_argument("-o", "--out", required=True,
                   help="output prefix; writes <out>.graph and <out>.coords")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("alpha", help="exact maximum independent set")
    p.add_argument("graph", help="graph file; a .coords sidecar gives checked symmetry")
    p.add_argument("--witness", default=None, help="witness output path")
    _add_budget_flags(p, seconds=900.0)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("chi", help="exact chromatic number")
    p.add_argument("graph", help="graph file")
    p.add_argument("--witness", default=None, help="witness output path")
    _add_budget_flags(p, seconds=900.0)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("augment", help="greedy alpha-preserving augmentation of "
                                       "the 240-vertex Gosset graph")
    p.add_argument("--order", choices=["lex", "random"], default="lex")
    p.add_argument("--seed", type=int, default=1, help="seed for --order random")
    p.add_argument("--pool-file", default=None,
                   help="candidate points, one per line, instead of the full ball")
    p.add_argument("--budget-candidates", type=int, default=1000,
                   help="max candidates tested, -1 = unlimited (default 1000)")
    p.add_argument("--budget-accepted", type=int, default=-1,
                   help="max accepted points, -1 = unlimited")
    p.add_argument("--budget-seconds", type=float, default=3600.0,
                   help="wall-clock budget, 0 = unlimited (default 3600)")
    _add_threads_flag(p)
    p.add_argument("-o", "--out", required=True, help="certificate output path")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("verify", help="recompute a certificate's claims")
    p.add_argument("certificate", help="certificate file")
    _add_threads_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="chromatic numbers over a (d, u) grid")
    p.add_argument("-u", type=int, action="append", required=True,
                   help="Hamming distance row; repeatable")
    p.add_argument("-d", required=True, help="dimension or range, e.g. 2..8")
    p.add_argument("--format", choices=["text", "csv", "records"], default="text")
    _add_budget_flags(p, seconds=300.0)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _print_config(args)
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, so it must come first
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error message={exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
