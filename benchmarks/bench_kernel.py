#!/usr/bin/env python3
"""Time the kernel on the hot workloads and check each result.

Run from a checkout:

    python3 benchmarks/bench_kernel.py [--repeats N]

Workloads:
  reach-pass      one full reachability pass (n=500, k=50, r=10) over a
                  coloring whose first zero-sum target is near the end
                  (489), i.e. the pass cannot stop early
  reach-150-10    one full reachability pass (n=1500, k=150, r=10) over
                  the k=150 construction plus zeros, first target 1489:
                  the colorings of length about kr that certify the bounds
  extract         lex-least witness extraction on the reach-pass coloring
                  and target: 47 x 1, 2, 440
  extract-150-10  lex-least witness extraction on the reach-150-10
                  coloring and target: 147 x 1, 2, 1340
  search-8-4      exhaust the reduced four-color search at n=27 (the
                  S_z(8,4) decision step: 939 extension checks)
  search-6-3      exhaust the reduced three-color search at n=15 (21
                  extension checks)
  solve-12-4      2M-node budgeted slice of the k=12, r=4 search at n=43
                  (exhausted in 15,335 nodes)
  slice-12-6      the first 200,000 nodes of the k=12, r=6 search at
                  n=68 (exhausted only after about 4.5M): a fixed amount
                  of search work, long enough to show the cost per node
  scan-12-4       deterministic solve_exact of S_z(12,4)=43: the lex-least
                  search at n=42, then the n=43 exhaustion resumed from it
                  (15,414 nodes in all)

Each run is checked: the reach passes must return the targets in
REACH, each extraction the lex-least parts in EXTRACT, each search must
end with the status, nodes, prunes and max depth in WORKLOADS, and the
scan must give the value, certificate and node count in SCAN.  Exit 1
on a failed check.

Best of 3 on a 2-vCPU Xeon VM, three runs on a busy host: reach-pass
2.2-3.2 ms, reach-150-10 16-25 ms, extract 1.9-3.2 ms, extract-150-10
16-26 ms, search-8-4 2.5-3.5 ms, search-6-3 0.1 ms, solve-12-4 46-58 ms,
scan-12-4 36-59 ms.  Extraction from one table per value (v_max + 1
tables) took 2.9-3.5 ms on extract and 28-38 ms on the extract-150-10
input, with 17 MB of tracemalloc peak there against 0.3 MB now.
slice-12-6 took 0.38-0.74 s on the same VM, by host load.
"""

from __future__ import annotations

import argparse
from time import perf_counter

from zschur import (
    Coloring,
    ProblemSpec,
    SearchConfig,
    _kernel_py,
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
    (n, k, r), target = REACH[reach]
    values = reach_args(n, k, r)[0]
    return (Coloring.of(values, r), k, r, target)


#: Search workloads: arguments of search_free_coloring and the
#: (status, nodes, prunes, max_depth) it must end with.
WORKLOADS = {
    "search-8-4": ((27, 8, 4, (0, 1, 2, 3), 0, 0b110, None, None),
                   (_kernel_py.EXHAUSTED, 939, 703, 14)),
    "search-6-3": ((15, 6, 3, (0, 1, 2), 0, 0b010, None, None),
                   (_kernel_py.EXHAUSTED, 21, 13, 6)),
    "solve-12-4": ((43, 12, 4, (0, 1, 2, 3), 0, 0b110, 2_000_000, None),
                   (_kernel_py.EXHAUSTED, 15_335, 11_499, 22)),
    "slice-12-6": ((68, 12, 6, tuple(range(6)), 0, 0b1110, 200_000, None),
                   (_kernel_py.BUDGET, 200_000, 166_655, 31)),
}


#: Scan workload: (k, r) of the deterministic solve, and the value,
#: lex-least certificate and nodes it must give.
SCAN = {
    "scan-12-4": ((12, 4),
                  (43, "012301230120022002200220022002203210321032", 15_414)),
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rows = []
    for wname, (nkr, want) in REACH.items():
        took, target = best_time(_kernel_py.first_zero_sum_target,
                                 reach_args(*nkr), args.repeats)
        if target != want:
            print(f"{wname}: target {target}, expected {want}")
            return 1
        rows.append((wname, took, f"target {target}"))

    for wname, (reach, want) in EXTRACT.items():
        took, parts = best_time(_lex_least_parts, extract_args(reach),
                                args.repeats)
        if parts != want:
            print(f"{wname}: parts {parts}, expected {want}")
            return 1
        rows.append((wname, took, f"{len(parts)} parts, last {parts[-1]}"))

    for wname, (sargs, want) in WORKLOADS.items():
        took, (status, _, *counts) = best_time(
            _kernel_py.search_free_coloring, sargs, args.repeats)
        got = (status, *counts)
        if got != want:
            print(f"{wname}: status, nodes, prunes, max_depth {got}, "
                  f"expected {want}")
            return 1
        rows.append((wname, took, f"status {status}, {counts[0]} nodes"))

    for wname, (kr, want) in SCAN.items():
        took, result = best_time(deterministic_solve, kr, args.repeats)
        got = (result.value, "".join(map(str, result.certificate.values)),
               result.stats.nodes)
        if got != want:
            print(f"{wname}: value, certificate, nodes {got}, expected {want}")
            return 1
        rows.append((wname, took, f"value {got[0]}, {got[2]} nodes"))

    width = max(len(name) for name, _, _ in rows)
    for name, took, note in rows:
        print(f"{name:<{width}}  {took * 1e3:>9.1f} ms  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
