#!/usr/bin/env python3
"""Time the kernel on the hot workloads and check each result.

Run from a checkout:

    python3 benchmarks/bench_kernel.py [--repeats N] [--json PATH]

Workloads:
  start-check     least_target(values, 0, n, k, r), the call of the
                  solver's check of its certified start: one exact
                  table of sums up to n (n=500, k=50, r=10) over the
                  k=50 construction plus zeros, whose least target is
                  near the end (489)
  start-150-10    the same call (n=1500, k=150, r=10) over the k=150
                  construction plus zeros, least target 1489: the
                  colorings of length about kr that certify the bounds
  extract         lex-least witness extraction on the start-check
                  coloring and target: 47 x 1, 2, 440, the greedy alone,
                  reading the table the checker's decision built
  extract-150-10  the same on the start-150-10 coloring and target:
                  147 x 1, 2, 1340
  find-150-10     find_zero_sum_solution on the start-150-10 coloring:
                  the checker end to end on a late witness (a table at
                  sum cap k+15 that misses, the table at n, the greedy)
  find-early-100-20
                  find_zero_sum_solution on a seeded random coloring
                  (n=2000, k=100, r=20; random.Random(1)) whose least
                  target, 105, the table at sum cap k+15 finds:
                  96 x 1, 2, 2, 5
  find-mid-150-10 find_zero_sum_solution on the first 225 = 1.5k colors
                  of the k=150, r=10 construction and a seeded random
                  tail (random.Random(5)) to n=1500: its least target,
                  230, lies above k+15, so the check pays for the table
                  at n: 148 x 1, 82
  free-150-10     zero_sum_table on the free k=150, r=10 construction
                  (n=1488): the checker's decision with no witness (a
                  table at sum cap k+15 that misses, then the table at
                  n, whose last row has no target)
  search-8-4      exhaust the reduced four-color search at n=27 (the
                  S_z(8,4) decision step: 40 extension checks, 62
                  probes)
  search-6-3      exhaust the reduced three-color search at n=15 (16
                  extension checks, 38 probes)
  solve-12-4      2M-node budgeted slice of the k=12, r=4 search at n=43
                  (exhausted in 62 nodes and 109 probes)
  exhaust-12-6    exhaust the reduced six-color search at n=68, the
                  S_z(12,6) decision step (3,463 nodes and 35,590
                  probes; about 4.5M nodes without probing): long
                  enough to show the cost per node and per probe
  exhaust-18-6    exhaust the reduced six-color search at n=104, the
                  S_z(18,6) decision step (7,868 nodes and 123,503
                  probes): the probe-heavy search
  exhaust-8-8     exhaust the reduced eight-color search at n=55, the
                  S_z(8,8) decision step (28,291 nodes and 220,666
                  probes): the long search whose node count the probes
                  of each new node cut
  scan-12-4       deterministic solve_exact of S_z(12,4)=43: one window
                  from the construction's n=42 to the proven upper bound
                  43, the lex-least search at 42 going on to the
                  exhaustion at 43 (127 nodes and 148 probes in all)
  scan-12-6       deterministic solve_exact of S_z(12,6)=68: one window
                  of five levels, from the construction's n=64 to the
                  proven upper bound 68, where it exhausts (3,721 nodes
                  and 35,176 probes in all): the long k > r scan
  scan-5-5        deterministic solve_exact of S_z(5,5)=38: k = r is odd,
                  so the scan starts from the diagonal coloring of
                  [1..37]; its window runs up to twice that n, and it
                  finds the lex-least coloring of 37 and exhausts 38
                  (187 nodes and 371 probes in all)
  scan-6-6        deterministic solve_exact of S_z(6,6)=32: five levels,
                  from the construction's n=28 to the n=32 exhaustion;
                  k = r has no finite proven upper bound, so the scan is
                  one window from 28, up to twice the construction's n
                  (1,666 nodes and 4,870 probes in all): the cost of the
                  ascending scan

Each run is checked: the start checks must return the targets in
START, each extraction the lex-least parts in EXTRACT, each find the
witness in FIND, each decision the target in DECIDE, each search must
end with the status, nodes, prunes, max depth and probes in WORKLOADS,
and each scan must give the value, certificate, nodes and probes in
SCAN.
Each run also times a fixed pure-Python computation that shares no
code with zschur, the reference (perfbench's: fifty naive freeness
checks of a free 3-coloring of [1..32] for k=12), best of --repeats
runs before the workloads and as many after them, and reports each
workload's best time over the reference's (ref) beside it.  A host's
speed moves both alike, so the ref column compares across hosts and
runs where the seconds do not.

Exit 1 on a failed check.  ``--json PATH`` also writes the machine
(nproc, CPU model, Python), the commit, the reference's best time, and
per workload its best time, that time over the reference's, the repeat
count and the checked results to PATH.

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

#: Start-check workloads: (n, k, r) of the construction padded with
#: zeros to n, and the least target the check must return.
START = {
    "start-check": ((500, 50, 10), 489),
    "start-150-10": ((1500, 150, 10), 1489),
}


def padded_values(n, k, r):
    prefix = construct_even(k, r)
    return prefix.values + (0,) * (n - prefix.n)


def start_args(n, k, r):
    """The arguments of the solver's start check, least_target over
    every target of the padded construction."""
    return (padded_values(n, k, r), 0, n, k, r)


#: Extraction workloads: the start-check workload whose coloring and
#: target they take, and the lex-least parts they must return.
EXTRACT = {
    "extract": ("start-check", (1,) * 47 + (2, 440)),
    "extract-150-10": ("start-150-10", (1,) * 147 + (2, 1340)),
}


def extract_args(start):
    """The greedy's arguments, with the table the checker's decision
    builds for the start-check workload's coloring."""
    (n, k, r), _ = START[start]
    values = padded_values(n, k, r)
    target, rows, geo = _kernel_py.zero_sum_table(values, n, k, r)
    return (Coloring.of(values, r), k, target, rows, geo)


def random_values(seed, n, r):
    rng = random.Random(seed)
    return tuple(rng.randrange(r) for _ in range(n))


def mid_values(seed, k, r):
    """The first 1.5k colors of the construction and a seeded random
    tail to n = kr."""
    prefix = construct_even(k, r).values[:3 * k // 2]
    return prefix + random_values(seed, k * r - len(prefix), r)


#: Find workloads: the coloring's values, its (k, r), and the least
#: witness (target, parts) find_zero_sum_solution must return.
FIND = {
    "find-150-10": (padded_values(1500, 150, 10), (150, 10),
                    (1489, (1,) * 147 + (2, 1340))),
    "find-early-100-20": (random_values(1, 2000, 20), (100, 20),
                          (105, (1,) * 96 + (2, 2, 5))),
    "find-mid-150-10": (mid_values(5, 150, 10), (150, 10),
                        (230, (1,) * 148 + (82,))),
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
                   (_kernel_py.EXHAUSTED, 40, 23, 8, 62)),
    "search-6-3": ((15, 6, 3, (0, 1, 2), 0b010, None, None),
                   (_kernel_py.EXHAUSTED, 16, 8, 6, 38)),
    "solve-12-4": ((43, 12, 4, (0, 1, 2, 3), 0b110, 2_000_000, None),
                   (_kernel_py.EXHAUSTED, 62, 33, 12, 109)),
    "exhaust-12-6": ((68, 12, 6, tuple(range(6)), 0b1110, None, None),
                     (_kernel_py.EXHAUSTED, 3_463, 2_158, 32, 35_590)),
    "exhaust-18-6": ((104, 18, 6, tuple(range(6)), 0b1110, None, None),
                     (_kernel_py.EXHAUSTED, 7_868, 4_637, 50, 123_503)),
    "exhaust-8-8": ((55, 8, 8, tuple(range(8)), 0b10110, None, None),
                    (_kernel_py.EXHAUSTED, 28_291, 20_720, 43, 220_666)),
}


#: Scan workloads: (k, r) of the deterministic solve, and the value,
#: lex-least certificate, nodes and probes it must give.
SCAN = {
    "scan-12-4": ((12, 4),
                  (43, "012301230120022002200220022002203210321032", 127,
                   148)),
    "scan-12-6": ((12, 6),
                  (68, "01234501234201501201501101401101401104101104102105"
                       "10210510543210543", 3_721, 35_176)),
    "scan-5-5": ((5, 5),
                 (38, "0101010404040404040404040404040101010", 187, 371)),
    "scan-6-6": ((6, 6),
                 (32, "0123420150110140110410210510543", 1_666, 4_870)),
}


def deterministic_solve(k, r):
    return solve_exact(ProblemSpec(k, r), SearchConfig(deterministic=True))


#: The reference's coloring: free for k = 12, r = 3.
REFERENCE_COLORING = "01201201201101101101102102102102"


def reference() -> None:
    """Fifty naive freeness checks of REFERENCE_COLORING for k = 12, r = 3:
    a set dynamic program over the (sum, color sum) pairs of k-1 parts,
    tens of milliseconds of pure Python."""
    colors = [int(c) for c in REFERENCE_COLORING]
    n, k, r = len(colors), 12, 3
    for _ in range(50):
        reach = {(0, 0)}
        for _ in range(k - 1):
            reach = {(s + v, (c + colors[v - 1]) % r)
                     for s, c in reach for v in range(1, n - s + 1)}
        if any((t, -colors[t - 1] % r) in reach for t in range(1, n + 1)):
            raise RuntimeError("the reference coloring is free, but the "
                               "check says not")


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

    ref_s, _ = best_time(reference, (), args.repeats)
    rows = []  # (name, best seconds, checked results, note)
    for wname, (nkr, want) in START.items():
        took, (target, _, _) = best_time(_kernel_py.least_target,
                                         start_args(*nkr), args.repeats)
        if target != want:
            print(f"{wname}: target {target}, expected {want}")
            return 1
        rows.append((wname, took, {"target": target}, f"target {target}"))

    for wname, (start, want) in EXTRACT.items():
        took, parts = best_time(_lex_least_parts, extract_args(start),
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

    ref_s = min(ref_s, best_time(reference, (), args.repeats)[0])
    width = max(len(name) for name, *_ in rows)
    print(f"{'reference':<{width}}  {ref_s * 1e3:>9.1f} ms  {1:>8.4f} ref")
    for name, took, _, note in rows:
        print(f"{name:<{width}}  {took * 1e3:>9.1f} ms  "
              f"{took / ref_s:>8.4f} ref  {note}")
    if args.json:
        report = {"machine": machine(), "commit": commit(),
                  "reference_s": ref_s,
                  "workloads": {name: {"best_s": took,
                                       "best_ref": took / ref_s,
                                       "repeats": args.repeats,
                                       "checked": checked}
                                for name, took, checked, _ in rows}}
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
