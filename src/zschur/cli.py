"""Command-line interface.

Subcommands: ``bounds`` (theorem table for one (k, r)), ``construct``
(write a certified solution-free coloring), ``check`` (decide a coloring
file), ``solve`` (exact value by exhaustive search) and ``verify``
(replay every verification check; it takes no options).

Exit codes are uniform across subcommands: 0 success, 1 a witness or
property failure, 2 invalid input (parameters too large to hold in memory
included), 3 budget exhausted (``solve`` only).
Output is one fact per line in ``key=value`` form where a summary is
involved.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import verification
from .bounds import theoretical_bounds
from .checker import find_zero_sum_solution
from .constructions import construct
from .core import (
    ColoringFormatError,
    ConstructionContradictionError,
    Palette,
    ProblemSpec,
    SolveStatus,
    format_coloring,
    format_value,
    format_witness,
    read_coloring,
    write_coloring,
)
from .solver import SearchConfig, solve_exact

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def run_bounds(args) -> int:
    report = theoretical_bounds(args.k, args.r, Palette(args.variant))
    for entry in report.entries:
        print(f"{entry.kind} {format_value(entry.value)} {entry.source}")
    exact = "true" if report.exact else "false"
    print(f"lower={format_value(report.lower)} "
          f"upper={format_value(report.upper)} exact={exact}")
    return EXIT_OK


def run_construct(args) -> int:
    chi = construct(args.k, args.r)
    if args.out:
        write_coloring(chi, args.k, args.out)
        print(f"n={chi.n}")
    else:
        sys.stdout.write(format_coloring(chi, args.k))
        print(f"n={chi.n}", file=sys.stderr)
    return EXIT_OK


def run_check(args) -> int:
    chi, header_k = read_coloring(args.coloring)
    k = args.k if args.k is not None else header_k
    spec = ProblemSpec(k=k, r=chi.r)
    if k != header_k:
        print(f"warning: file header says k={header_k}, checking with k={k}",
              file=sys.stderr)
    witness = find_zero_sum_solution(chi, spec)
    if witness is None:
        print("FREE")
        return EXIT_OK
    print(format_witness(witness))
    return EXIT_WITNESS


def run_solve(args) -> int:
    spec = ProblemSpec(k=args.k, r=args.r, palette=Palette(args.variant))
    cfg = SearchConfig(max_nodes=args.max_nodes, timeout=args.timeout,
                       deterministic=args.deterministic)
    # refuse an unwritable certificate path before the search, not after;
    # the file itself is made only once there is a certificate to write
    if args.cert_out:
        cert = Path(args.cert_out)
        if cert.is_dir() or not cert.parent.is_dir():
            raise OSError(f"cannot write {cert}: it is a directory or its "
                          f"directory does not exist")
    result = solve_exact(spec, cfg)
    stats = result.stats
    print(f"status={result.status.value} value={format_value(result.value)} "
          f"nodes={stats.nodes} prunes={stats.prunes} probes={stats.probes} "
          f"max_depth={stats.max_depth} elapsed={stats.elapsed:.3f}")
    if args.cert_out and result.certificate is not None:
        write_coloring(result.certificate, args.k, args.cert_out)
        print(f"certificate={args.cert_out} n={result.certificate.n}")
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    return EXIT_OK


def run_verify(args) -> int:
    results = verification.run_suite()
    for res in results:
        print(res.line())
    code = verification.suite_exit_code(results)
    passed = sum(r.ok for r in results)
    print(f"passed={passed}/{len(results)} exit={code}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zschur",
        description="Zero-sum generalized Schur numbers: bounds, "
                    "constructions, checking, exact search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print the theorem-backed bound table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--variant", choices=("full", "binary"), default="full")
    p.set_defaults(func=run_bounds)

    p = sub.add_parser("construct",
                       help="build the certified solution-free coloring")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=run_construct)

    p = sub.add_parser("check", help="decide whether a coloring file is free")
    p.add_argument("coloring", help="coloring file in the text format")
    p.add_argument("--k", type=int,
                   help="equation length (default: the file header's k)")
    p.set_defaults(func=run_check)

    p = sub.add_parser("solve", help="compute the exact value by search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--variant", choices=("full", "binary"), default="full")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    p.add_argument("--deterministic", action="store_true",
                   help="an exact value's certificate is the lex-least "
                        "free coloring of the reduced space; a budget cut "
                        "before it is found exits 3 with the construction")
    p.add_argument("--cert-out", help="write the certificate coloring here")
    p.set_defaults(func=run_solve)

    p = sub.add_parser("verify",
                       help="replay every verification check, including "
                            "the paper's exact values")
    p.set_defaults(func=run_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ColoringFormatError, ConstructionContradictionError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the parameters are too large", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
