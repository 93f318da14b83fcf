#!/usr/bin/env python3
"""Time the kernel on the hot workloads and check each result.

Run from a checkout:

    python3 benchmarks/bench_kernel.py [--repeats N] [--json PATH]

Workloads, in the order they run; their pinned results are in WORKLOADS:
  start-check     least_target over every target of the k=50, r=10
                  construction padded with zeros to n=500: the solver's
                  check of its certified start, least target near the end
  start-150-10    the same at n=1500, k=150, r=10: the length of the
                  colorings that certify the bounds
  extract         the lex-least witness greedy alone, on the start-check
                  coloring and target, reading the checker's table
  extract-150-10  the same on the start-150-10 coloring and target
  find-150-10     find_zero_sum_solution on the start-150-10 coloring:
                  the checker end to end on a late witness (a table at
                  sum cap k+15 that misses, the table at n, the greedy)
  find-early-100-20
                  find_zero_sum_solution on a seeded random coloring
                  (n=2000, k=100, r=20) whose least target the table at
                  sum cap k+15 finds
  find-mid-150-10 find_zero_sum_solution on the first 1.5k colors of the
                  k=150, r=10 construction and a seeded random tail to
                  n=1500, whose least target, above k+15, pays for the
                  table at n
  free-150-10     checker._zero_sum_table on the free k=150, r=10
                  construction (n=1488): the checker's decision with no
                  witness
  search-8-4      the reduced search at n=27, the S_z(8,4) decision step
  search-6-3      the same at n=15, k=6, r=3
  solve-12-4      a 2M-node budgeted slice of the k=12, r=4 search at
                  n=43, which exhausts inside the budget
  exhaust-12-6    the S_z(12,6) decision step at n=68 (about 4.5M nodes
                  without probing): the cost per node and per probe
  exhaust-18-6    the S_z(18,6) decision step at n=104: probe-heavy
  exhaust-8-8     the S_z(8,8) decision step at n=55: the long search
                  whose node count the probes of each new node cut
  scan-12-4       deterministic solve_exact of S_z(12,4)=43: one window
                  from the construction's n=42 to the proven upper bound
  scan-12-6       deterministic solve_exact of S_z(12,6)=68: one window
                  of five levels from the construction's n=64, the long
                  k > r scan
  scan-5-5        deterministic solve_exact of S_z(5,5)=38 from the
                  diagonal coloring of [1..37], for odd k = r
  scan-6-6        deterministic solve_exact of S_z(6,6)=32: k = r has no
                  finite proven upper bound, so one window from the
                  construction's n=28 to twice that, the ascending scan
  exhaust-18-9    the S_z(18,9) decision step at n=153: a k > r search
                  at an odd r that is not prime
  exhaust-20-10   the S_z(20,10) decision step at n=194: a k > r search
                  at a square-free composite r, the longest workload

Each search is the reduced full-palette search, with the solver's
symmetry filters.  WORKLOADS holds one row per workload: the call, a
function that builds its arguments before the call is timed, a function
that maps the call's result to the checked results, and the checked
results it must give.  One loop times every row, best of --repeats
calls, and compares its checked results with the row's.
Each run also times a fixed pure-Python computation that shares no
code with zschur, the reference (perfbench's: fifty naive freeness
checks of a free 3-coloring of [1..32] for k=12), best of --repeats
runs before the workloads and as many after them, and reports each
workload's best time over the reference's (ref) beside it.  The ref
column compares the workloads of one report, or reports of runs
alternated in one session, and no more: two runs of one tree minutes
apart (2-vCPU VM) timed the reference at 47.1 and 30.3 ms, and from the
first to the second exhaust-8-8's ref rose 45% while free-150-10's fell
18%, so the reference does not cancel a host's speed across runs.

Exit 1, naming the workload, on a failed check.  ``--json PATH`` also
writes the machine (nproc, CPU model, Python), the commit, the
reference's best time, and per workload its best time, that time over
the reference's, the repeat count and the checked results to PATH.

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
    construct,
    find_zero_sum_solution,
    solve_exact,
)
from zschur.checker import _lex_least_parts, _zero_sum_table
from zschur.solver import _symmetry_filters

EXHAUSTED = _kernel_py.EXHAUSTED


def padded_values(n, k, r):
    """The colors of construct(k, r), padded with zeros to n."""
    prefix = construct(k, r)
    return prefix.values + (0,) * (n - prefix.n)


def random_values(seed, n, r):
    rng = random.Random(seed)
    return tuple(rng.randrange(r) for _ in range(n))


def mid_values(seed, k, r):
    """The first 1.5k colors of the construction and a seeded random
    tail to n = kr."""
    prefix = construct(k, r).values[:3 * k // 2]
    return prefix + random_values(seed, k * r - len(prefix), r)


def extract_args(n, k, r):
    """The greedy's arguments on the padded construction, with the table
    the checker's decision builds for it."""
    chi = Coloring.of(padded_values(n, k, r), r)
    target, rows, geo = _zero_sum_table(chi, ProblemSpec(k, r))
    return (chi, k, target, rows, geo)


def check_args(values, k, r):
    return (Coloring.of(values, r), ProblemSpec(k, r))


def search_args(n, k, r, max_nodes=None):
    """The reduced full-palette search at n, with the solver's palette and
    canonical mask."""
    return (n, k, r, *_symmetry_filters(ProblemSpec(k, r)), max_nodes, None)


def deterministic_solve(k, r):
    return solve_exact(ProblemSpec(k, r), SearchConfig(deterministic=True))


def target(found):
    return {"target": found[0]}


def parts(got):
    return {"parts": list(got)}


def witness(w):
    return None if w is None else {"target": w.target, "parts": list(w.parts)}


def counts(out):
    status, _, nodes, prunes, max_depth, probes = out
    return {"status": status, "nodes": nodes, "prunes": prunes,
            "max_depth": max_depth, "probes": probes}


def scanned(result):
    return {"value": result.value,
            "certificate": "".join(map(str, result.certificate.values)),
            "nodes": result.stats.nodes, "probes": result.stats.probes}


least_target = _kernel_py.least_target
search = _kernel_py.search_free_coloring

#: name: (call, argument builder, result to checked results, pinned
#: checked results), in the order the workloads run.
WORKLOADS = {
    "start-check": (least_target,
                    lambda: (padded_values(500, 50, 10), 500, 50, 10),
                    target, {"target": 489}),
    "start-150-10": (least_target,
                     lambda: (padded_values(1500, 150, 10), 1500, 150, 10),
                     target, {"target": 1489}),
    "extract": (_lex_least_parts, lambda: extract_args(500, 50, 10), parts,
                {"parts": [1] * 47 + [2, 440]}),
    "extract-150-10": (_lex_least_parts, lambda: extract_args(1500, 150, 10),
                       parts, {"parts": [1] * 147 + [2, 1340]}),
    "find-150-10": (find_zero_sum_solution,
                    lambda: check_args(padded_values(1500, 150, 10), 150, 10),
                    witness, {"target": 1489, "parts": [1] * 147 + [2, 1340]}),
    "find-early-100-20": (find_zero_sum_solution,
                          lambda: check_args(random_values(1, 2000, 20),
                                             100, 20),
                          witness, {"target": 105,
                                    "parts": [1] * 96 + [2, 2, 5]}),
    "find-mid-150-10": (find_zero_sum_solution,
                        lambda: check_args(mid_values(5, 150, 10), 150, 10),
                        witness, {"target": 230, "parts": [1] * 148 + [82]}),
    "free-150-10": (_zero_sum_table,
                    lambda: check_args(construct(150, 10).values, 150, 10),
                    target, {"target": 0}),
    "search-8-4": (search, lambda: search_args(27, 8, 4), counts,
                   {"status": EXHAUSTED, "nodes": 40, "prunes": 23,
                    "max_depth": 8, "probes": 62}),
    "search-6-3": (search, lambda: search_args(15, 6, 3), counts,
                   {"status": EXHAUSTED, "nodes": 16, "prunes": 8,
                    "max_depth": 6, "probes": 38}),
    "solve-12-4": (search, lambda: search_args(43, 12, 4, 2_000_000), counts,
                   {"status": EXHAUSTED, "nodes": 62, "prunes": 33,
                    "max_depth": 12, "probes": 109}),
    "exhaust-12-6": (search, lambda: search_args(68, 12, 6), counts,
                     {"status": EXHAUSTED, "nodes": 3_463, "prunes": 2_158,
                      "max_depth": 32, "probes": 35_590}),
    "exhaust-18-6": (search, lambda: search_args(104, 18, 6), counts,
                     {"status": EXHAUSTED, "nodes": 7_868, "prunes": 4_637,
                      "max_depth": 50, "probes": 123_503}),
    "exhaust-8-8": (search, lambda: search_args(55, 8, 8), counts,
                    {"status": EXHAUSTED, "nodes": 28_291, "prunes": 20_720,
                     "max_depth": 43, "probes": 220_666}),
    "scan-12-4": (deterministic_solve, lambda: (12, 4), scanned,
                  {"value": 43,
                   "certificate": "012301230120022002200220022002203210321032",
                   "nodes": 127, "probes": 148}),
    "scan-12-6": (deterministic_solve, lambda: (12, 6), scanned,
                  {"value": 68,
                   "certificate": "0123450123420150120150110140110140110410"
                                  "110410210510210510543210543",
                   "nodes": 3_721, "probes": 35_176}),
    "scan-5-5": (deterministic_solve, lambda: (5, 5), scanned,
                 {"value": 38,
                  "certificate": "0101010404040404040404040404040101010",
                  "nodes": 187, "probes": 371}),
    "scan-6-6": (deterministic_solve, lambda: (6, 6), scanned,
                 {"value": 32,
                  "certificate": "0123420150110140110410210510543",
                  "nodes": 1_666, "probes": 4_870}),
    "exhaust-18-9": (search, lambda: search_args(153, 18, 9), counts,
                     {"status": EXHAUSTED, "nodes": 5_011, "prunes": 3_232,
                      "max_depth": 50, "probes": 143_108}),
    "exhaust-20-10": (search, lambda: search_args(194, 20, 10), counts,
                      {"status": EXHAUSTED, "nodes": 23_693, "prunes": 15_480,
                       "max_depth": 91, "probes": 915_551}),
}


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
    rows = []  # (name, best seconds, checked results)
    for name, (call, build, check, pinned) in WORKLOADS.items():
        took, result = best_time(call, build(), args.repeats)
        checked = check(result)
        if checked != pinned:
            print(f"{name}: checked {checked}, expected {pinned}")
            return 1
        rows.append((name, took, checked))

    ref_s = min(ref_s, best_time(reference, (), args.repeats)[0])
    width = max(len(name) for name, *_ in rows)
    print(f"{'reference':<{width}}  {ref_s * 1e3:>9.1f} ms  {1:>8.4f} ref")
    for name, took, checked in rows:
        note = ", ".join(f"{key} {value}" if isinstance(value, int)
                         else f"{len(value)} {key}"
                         for key, value in checked.items())
        print(f"{name:<{width}}  {took * 1e3:>9.1f} ms  "
              f"{took / ref_s:>8.4f} ref  {note}")
    if args.json:
        report = {"machine": machine(), "commit": commit(),
                  "reference_s": ref_s,
                  "workloads": {name: {"best_s": took,
                                       "best_ref": took / ref_s,
                                       "repeats": args.repeats,
                                       "checked": checked}
                                for name, took, checked in rows}}
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
