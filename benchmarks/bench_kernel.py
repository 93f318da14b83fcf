#!/usr/bin/env python3
"""Time the kernel on the hot workloads and check each result.

Run from a checkout:

    python3 benchmarks/bench_kernel.py [--repeats N] [--json PATH]

Workloads:
  reach-pass      first_zero_sum_target (n=500, k=50, r=10) over a
                  coloring whose first zero-sum target is near the end
                  (489), so the pass runs almost to n.  The checker's
                  narrow pass stops at 2k; only the solver's check of
                  its certified start runs the pass to n
  reach-150-10    the same pass (n=1500, k=150, r=10) over the k=150
                  construction plus zeros, first target 1489: the
                  colorings of length about kr that certify the bounds
  extract         lex-least witness extraction on the reach-pass coloring
                  and target: 47 x 1, 2, 440, the greedy alone, reading
                  the table the checker's decision built
  extract-150-10  the same on the reach-150-10 coloring and target:
                  147 x 1, 2, 1340
  find-150-10     find_zero_sum_solution on the reach-150-10 coloring:
                  the checker end to end on a late witness (a narrow
                  pass to 2k that misses, the exact table, the greedy)
  find-early-100-20
                  find_zero_sum_solution on a seeded random coloring
                  (n=2000, k=100, r=20; random.Random(1)) whose least
                  target, 105, the narrow pass finds: 96 x 1, 2, 2, 5
  free-150-10     zero_sum_table on the free k=150, r=10 construction
                  (n=1488): the checker's decision with no witness (a
                  narrow pass to 2k that misses, then the exact table,
                  whose last row has no target)
  search-8-4      exhaust the reduced four-color search at n=27 (the
                  S_z(8,4) decision step: 40 extension checks, 149
                  probes)
  search-6-3      exhaust the reduced three-color search at n=15 (16
                  extension checks, 38 probes)
  solve-12-4      2M-node budgeted slice of the k=12, r=4 search at n=43
                  (exhausted in 62 nodes and 379 probes)
  exhaust-12-6    exhaust the reduced six-color search at n=68, the
                  S_z(12,6) decision step (3,463 nodes and 66,895
                  probes; about 4.5M nodes without probing): long
                  enough to show the cost per node and per probe
  exhaust-18-6    exhaust the reduced six-color search at n=104, the
                  S_z(18,6) decision step (7,868 nodes and 309,012
                  probes): the probe-heavy search
  exhaust-8-8     exhaust the reduced eight-color search at n=55, the
                  S_z(8,8) decision step (28,291 nodes and 381,234
                  probes): the long search whose node count the probes
                  of each new node cut
  scan-12-4       deterministic solve_exact of S_z(12,4)=43: one window
                  from the construction's n=42 to the proven upper bound
                  43, the lex-least search at 42 going on to the
                  exhaustion at 43 (127 nodes and 465 probes in all)
  scan-12-6       deterministic solve_exact of S_z(12,6)=68: one window
                  of five levels, from the construction's n=64 to the
                  proven upper bound 68, where it exhausts (3,721 nodes
                  and 65,669 probes in all): the long k > r scan
  scan-5-5        deterministic solve_exact of S_z(5,5)=38: k = r is odd,
                  so the scan starts from the diagonal coloring of
                  [1..37]; its window runs up to twice that n, and it
                  finds the lex-least coloring of 37 and exhausts 38
                  (187 nodes and 367 probes in all)
  scan-6-6        deterministic solve_exact of S_z(6,6)=32: five levels,
                  from the construction's n=28 to the n=32 exhaustion;
                  k = r has no finite proven upper bound, so the scan is
                  one window from 28, up to twice the construction's n
                  (1,666 nodes and 6,211 probes in all): the cost of the
                  ascending scan

Each run is checked: the reach passes must return the targets in
REACH, each extraction the lex-least parts in EXTRACT, each find the
witness in FIND, each decision the target in DECIDE, each search must
end with the status, nodes, prunes, max depth and probes in WORKLOADS,
and each scan must give the value, certificate, nodes and probes in
SCAN.
Exit 1 on a failed check.  ``--json PATH`` also writes the machine
(nproc, CPU model, Python), the commit, and per workload its best time,
repeat count and the checked results to PATH.

The timings of each change are in the committed BENCH_*.json reports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
from pathlib import Path
from time import perf_counter

from zschur import (
    Coloring,
    ProblemSpec,
    SearchConfig,
    _kernel_py,
    find_zero_sum_solution,
    solve_exact,
)
from zschur.checker import _lex_least_parts
from zschur.constructions import construct_even

#: Reach workloads: (n, k, r) of the construction padded with zeros to n,
#: and the first target the pass must return.
REACH = {
    "reach-pass": ((500, 50, 10), 489),
    "reach-150-10": ((1500, 150, 10), 1489),
}


def reach_args(n, k, r):
    prefix = construct_even(k, r)
    values = prefix.values + (0,) * (n - prefix.n)
    return (values, n, k, r)


#: Extraction workloads: the reach workload whose coloring and target
#: they take, and the lex-least parts they must return.
EXTRACT = {
    "extract": ("reach-pass", (1,) * 47 + (2, 440)),
    "extract-150-10": ("reach-150-10", (1,) * 147 + (2, 1340)),
}


def extract_args(reach):
    """The greedy's arguments, with the table the checker's decision
    builds for the reach workload's coloring."""
    (n, k, r), _ = REACH[reach]
    values = reach_args(n, k, r)[0]
    target, rows, geo = _kernel_py.zero_sum_table(values, n, k, r)
    return (Coloring.of(values, r), k, target, rows, geo)


def random_values(seed, n, r):
    rng = random.Random(seed)
    return tuple(rng.randrange(r) for _ in range(n))


#: Find workloads: the coloring's values, its (k, r), and the least
#: witness (target, parts) find_zero_sum_solution must return.
FIND = {
    "find-150-10": (reach_args(1500, 150, 10)[0], (150, 10),
                    (1489, (1,) * 147 + (2, 1340))),
    "find-early-100-20": (random_values(1, 2000, 20), (100, 20),
                          (105, (1,) * 96 + (2, 2, 5))),
}


def find_args(values, kr):
    k, r = kr
    return (Coloring.of(values, r), ProblemSpec(k, r))


#: Decision workloads: (k, r) of the construction zero_sum_table decides,
#: and the least target it must return (0: free).
DECIDE = {
    "free-150-10": ((150, 10), 0),
}


def decide_args(k, r):
    values = construct_even(k, r).values
    return (values, len(values), k, r)


#: Search workloads: arguments of search_free_coloring and the
#: (status, nodes, prunes, max_depth, probes) it must end with.
WORKLOADS = {
    "search-8-4": ((27, 8, 4, (0, 1, 2, 3), 0b110, None, None),
                   (_kernel_py.EXHAUSTED, 40, 23, 8, 149)),
    "search-6-3": ((15, 6, 3, (0, 1, 2), 0b010, None, None),
                   (_kernel_py.EXHAUSTED, 16, 8, 6, 38)),
    "solve-12-4": ((43, 12, 4, (0, 1, 2, 3), 0b110, 2_000_000, None),
                   (_kernel_py.EXHAUSTED, 62, 33, 12, 379)),
    "exhaust-12-6": ((68, 12, 6, tuple(range(6)), 0b1110, None, None),
                     (_kernel_py.EXHAUSTED, 3_463, 2_158, 32, 66_895)),
    "exhaust-18-6": ((104, 18, 6, tuple(range(6)), 0b1110, None, None),
                     (_kernel_py.EXHAUSTED, 7_868, 4_637, 50, 309_012)),
    "exhaust-8-8": ((55, 8, 8, tuple(range(8)), 0b10110, None, None),
                    (_kernel_py.EXHAUSTED, 28_291, 20_720, 43, 381_234)),
}


#: Scan workloads: (k, r) of the deterministic solve, and the value,
#: lex-least certificate, nodes and probes it must give.
SCAN = {
    "scan-12-4": ((12, 4),
                  (43, "012301230120022002200220022002203210321032", 127,
                   465)),
    "scan-12-6": ((12, 6),
                  (68, "01234501234201501201501101401101401104101104102105"
                       "10210510543210543", 3_721, 65_669)),
    "scan-5-5": ((5, 5),
                 (38, "0101010404040404040404040404040101010", 187, 367)),
    "scan-6-6": ((6, 6),
                 (32, "0123420150110140110410210510543", 1_666, 6_211)),
}


def deterministic_solve(k, r):
    return solve_exact(ProblemSpec(k, r), SearchConfig(deterministic=True))


def best_time(fn, args, repeats):
    best = None
    result = None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn(*args)
        took = perf_counter() - t0
        best = took if best is None else min(best, took)
    return best, result


def machine() -> dict:
    """nproc, CPU model and Python version of this machine."""
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def commit() -> str | None:
    """The checkout's commit, marked -dirty with uncommitted changes."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the machine, commit and results "
                             "to PATH")
    args = parser.parse_args()

    rows = []  # (name, best seconds, checked results, note)
    for wname, (nkr, want) in REACH.items():
        took, target = best_time(_kernel_py.first_zero_sum_target,
                                 reach_args(*nkr), args.repeats)
        if target != want:
            print(f"{wname}: target {target}, expected {want}")
            return 1
        rows.append((wname, took, {"target": target}, f"target {target}"))

    for wname, (reach, want) in EXTRACT.items():
        took, parts = best_time(_lex_least_parts, extract_args(reach),
                                args.repeats)
        if parts != want:
            print(f"{wname}: parts {parts}, expected {want}")
            return 1
        rows.append((wname, took, {"parts": list(parts)},
                     f"{len(parts)} parts, last {parts[-1]}"))

    for wname, (values, kr, want) in FIND.items():
        took, w = best_time(find_zero_sum_solution, find_args(values, kr),
                            args.repeats)
        got = None if w is None else (w.target, w.parts)
        if got != want:
            print(f"{wname}: witness {got}, expected {want}")
            return 1
        rows.append((wname, took, {"target": w.target, "parts": list(w.parts)},
                     f"target {w.target}, last part {w.parts[-1]}"))

    for wname, (kr, want) in DECIDE.items():
        took, (target, _, _) = best_time(_kernel_py.zero_sum_table,
                                         decide_args(*kr), args.repeats)
        if target != want:
            print(f"{wname}: target {target}, expected {want}")
            return 1
        rows.append((wname, took, {"target": target}, f"target {target}"))

    for wname, (sargs, want) in WORKLOADS.items():
        took, (status, _, *counts) = best_time(
            _kernel_py.search_free_coloring, sargs, args.repeats)
        got = (status, *counts)
        if got != want:
            print(f"{wname}: status, nodes, prunes, max_depth, probes {got}, "
                  f"expected {want}")
            return 1
        checked = dict(zip(("status", "nodes", "prunes", "max_depth",
                            "probes"), got))
        rows.append((wname, took, checked, f"status {status}, "
                                           f"{counts[0]} nodes, "
                                           f"{counts[3]} probes"))

    for wname, (kr, want) in SCAN.items():
        took, result = best_time(deterministic_solve, kr, args.repeats)
        got = (result.value, "".join(map(str, result.certificate.values)),
               result.stats.nodes, result.stats.probes)
        if got != want:
            print(f"{wname}: value, certificate, nodes, probes {got}, "
                  f"expected {want}")
            return 1
        checked = dict(zip(("value", "certificate", "nodes", "probes"), got))
        rows.append((wname, took, checked, f"value {got[0]}, {got[2]} nodes, "
                                           f"{got[3]} probes"))

    width = max(len(name) for name, *_ in rows)
    for name, took, _, note in rows:
        print(f"{name:<{width}}  {took * 1e3:>9.1f} ms  {note}")
    if args.json:
        report = {"machine": machine(), "commit": commit(),
                  "workloads": {name: {"best_s": took,
                                       "repeats": args.repeats,
                                       "checked": checked}
                                for name, took, checked, _ in rows}}
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
