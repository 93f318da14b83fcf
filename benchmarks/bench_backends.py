#!/usr/bin/env python3
"""Compare the compiled and pure kernels on the hot workloads.

Run from a checkout:

    python3 benchmarks/bench_backends.py [--repeats N]

Workloads:
  reach-pass      one full reachability pass (n=500, k=50, r=10) over a
                  coloring whose first zero-sum target is near the end
                  (489), i.e. the pass cannot stop early
  extract         lex-least witness extraction on the same coloring and
                  target (pure only: extraction always runs in Python)
  search-8-4      exhaust the reduced four-color search at n=27 (the
                  S_z(8,4) decision step: ~1.0M extension checks in the
                  compiled kernel, 939 with the pure kernel's forward
                  checking and singleton propagation)
  search-6-3      exhaust the reduced three-color search at n=15 (21
                  extension checks in the pure kernel)
  solve-12-4      2M-node budgeted slice of the k=12, r=4 search at n=43
                  (the pure kernel exhausts it in 15,335 nodes)

The kernels search different trees, so searches are compared on status
and coloring, and only where neither ran out of budget.

Pure kernel, best of 3 on a 2-vCPU Xeon VM: reach-pass 18-21 ms,
extract 7 ms, search-8-4 4 ms, search-6-3 0.1 ms, solve-12-4 81-89 ms.
The compiled kernel (gcc build): reach-pass 2.7 ms, search-8-4 40 ms,
solve-12-4 84 ms, stopped by its budget.
"""

from __future__ import annotations

import argparse
from time import perf_counter

from zschur import Coloring, ProblemSpec, Witness, validate_witness
from zschur.backend import available_backends
from zschur.checker import _lex_least_parts
from zschur.constructions import construct_even


def reach_pass_args():
    prefix = construct_even(50, 10)
    values = prefix.values + (0,) * (500 - prefix.n)
    return (values, 500, 50, 10)


def extract_args():
    values, _, k, r = reach_pass_args()
    return (Coloring.of(values, r), k, r, 489)


WORKLOADS = {
    "reach-pass": ("first_zero_sum_target", reach_pass_args()),
    "search-8-4": ("search_free_coloring",
                   (27, 8, 4, (0, 1, 2, 3), (), 0, 0b110, None, None)),
    "search-6-3": ("search_free_coloring",
                   (15, 6, 3, (0, 1, 2), (), 0, 0b010, None, None)),
    "solve-12-4": ("search_free_coloring",
                   (43, 12, 4, (0, 1, 2, 3), (), 0, 0b110, 2_000_000, None)),
}

#: Workloads outside the kernels, timed once in the pure column.
PURE_ONLY = {
    "extract": (_lex_least_parts, extract_args()),
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

    backends = available_backends()
    if "compiled" not in backends:
        print("note: compiled kernel not built; timing the pure kernel only")

    name_width = max(len(n) for n in (*WORKLOADS, *PURE_ONLY))
    header = f"{'workload':<{name_width}}  " + "".join(
        f"{b:>12}" for b in sorted(backends)) + "     speedup"
    print(header)
    print("-" * len(header))
    for wname, (entry, wargs) in WORKLOADS.items():
        times = {}
        results = {}
        for bname, module in sorted(backends.items()):
            fn = getattr(module, entry)
            times[bname], results[bname] = best_time(fn, wargs, args.repeats)
        answers = set()
        for bname, res in results.items():
            if entry == "first_zero_sum_target":
                answers.add(res)
            elif res[0] != backends[bname].BUDGET:
                answers.add((res[0], tuple(res[1] or ())))
        if len(answers) > 1:
            print(f"{wname}: BACKENDS DISAGREE: {results}")
            return 1
        row = f"{wname:<{name_width}}  " + "".join(
            f"{times[b] * 1e3:>10.1f}ms" for b in sorted(times))
        if "compiled" in times and "pure" in times and times["compiled"] > 0:
            row += f"  {times['pure'] / times['compiled']:>9.1f}x"
        print(row)
    for wname, (fn, wargs) in PURE_ONLY.items():
        took, parts = best_time(fn, wargs, args.repeats)
        chi, k, r, target = wargs
        if not validate_witness(Witness(parts, target), chi, ProblemSpec(k, r)):
            print(f"{wname}: INVALID WITNESS {parts}")
            return 1
        print(f"{wname:<{name_width}}  " + "".join(
            f"{took * 1e3:>10.1f}ms" if b == "pure" else f"{'-':>12}"
            for b in sorted(backends)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
