#!/usr/bin/env python3
"""Time the kernel on the hot workloads and check each result.

Run from a checkout:

    python3 benchmarks/bench_kernel.py [--repeats N]

Workloads:
  reach-pass      one full reachability pass (n=500, k=50, r=10) over a
                  coloring whose first zero-sum target is near the end
                  (489), i.e. the pass cannot stop early
  extract         lex-least witness extraction on the same coloring and
                  target
  search-8-4      exhaust the reduced four-color search at n=27 (the
                  S_z(8,4) decision step: 939 extension checks)
  search-6-3      exhaust the reduced three-color search at n=15 (21
                  extension checks)
  solve-12-4      2M-node budgeted slice of the k=12, r=4 search at n=43
                  (exhausted in 15,335 nodes)

Each run is checked: the reach pass must return target 489, the
extracted witness must validate, and each search must end with the
status in WORKLOADS.  Exit 1 on a failed check.

Best of 3 on a 2-vCPU Xeon VM, five runs: reach-pass 12-19 ms, extract
4-7 ms, search-8-4 2-4 ms, search-6-3 0.1 ms, solve-12-4 49-75 ms.
"""

from __future__ import annotations

import argparse
from time import perf_counter

from zschur import Coloring, ProblemSpec, Witness, _kernel_py, validate_witness
from zschur.checker import _lex_least_parts
from zschur.constructions import construct_even

REACH_TARGET = 489


def reach_pass_args():
    prefix = construct_even(50, 10)
    values = prefix.values + (0,) * (500 - prefix.n)
    return (values, 500, 50, 10)


def extract_args():
    values, _, k, r = reach_pass_args()
    return (Coloring.of(values, r), k, r, REACH_TARGET)


#: Search workloads: arguments of search_free_coloring and the status it must end with.
WORKLOADS = {
    "search-8-4": ((27, 8, 4, (0, 1, 2, 3), 0, 0b110, None, None),
                   _kernel_py.EXHAUSTED),
    "search-6-3": ((15, 6, 3, (0, 1, 2), 0, 0b010, None, None),
                   _kernel_py.EXHAUSTED),
    "solve-12-4": ((43, 12, 4, (0, 1, 2, 3), 0, 0b110, 2_000_000, None),
                   _kernel_py.EXHAUSTED),
}


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
    took, target = best_time(_kernel_py.first_zero_sum_target,
                             reach_pass_args(), args.repeats)
    if target != REACH_TARGET:
        print(f"reach-pass: target {target}, expected {REACH_TARGET}")
        return 1
    rows.append(("reach-pass", took, f"target {target}"))

    wargs = extract_args()
    took, parts = best_time(_lex_least_parts, wargs, args.repeats)
    chi, k, r, target = wargs
    if not validate_witness(Witness(parts, target), chi, ProblemSpec(k, r)):
        print(f"extract: INVALID WITNESS {parts}")
        return 1
    rows.append(("extract", took, "witness valid"))

    for wname, (sargs, want) in WORKLOADS.items():
        took, (status, _, nodes, _, _) = best_time(
            _kernel_py.search_free_coloring, sargs, args.repeats)
        if status != want:
            print(f"{wname}: status {status}, expected {want}")
            return 1
        rows.append((wname, took, f"status {status}, {nodes} nodes"))

    width = max(len(name) for name, _, _ in rows)
    for name, took, note in rows:
        print(f"{name:<{width}}  {took * 1e3:>9.1f} ms  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
