#!/usr/bin/env python3
"""Record the program's answers for every fixed benchmark input.

    python3 perfbench/record.py > perfbench/answers.json

Each answer is rechecked before it is written: solve certificates by the
naive set DP of oracle.py, witnesses by their arithmetic.  The known value
of a budgeted slice, which the slice cannot settle, is the bounds table's
exact value.  Answers of the random check colorings depend on the seed and
are not recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def record_solve(zs, inst, deterministic: bool) -> dict:
    name, k, r, palette, _ = inst
    rec = {}  # filled in below; op.check reads it when called
    op = workloads.solve_op(inst, rec, zs, deterministic)
    res = op.call()
    bounds = zs.theoretical_bounds(k, r, zs.Palette(palette))
    known = res.value if res.status.value == "exact" else bounds.lower
    if res.status.value != "exact" and not bounds.exact:
        raise SystemExit(f"{name}: budgeted, and the bounds table has no exact value")
    if bounds.exact and bounds.lower != known:
        raise SystemExit(f"{name}: search gives {known}, bounds table {bounds.lower}")
    rec.update(known=known, status=res.status.value, value=res.value,
               certificate=workloads.certificate_string(res.certificate.values))
    out = op.check(res)
    if not out.ok:
        raise SystemExit(f"{name}: {out.error}")
    return rec if deterministic else {"known": known}


def main() -> None:
    zs = run.import_zschur()
    answers = {"solve": {}, "threads": {}, "check": {}}
    for size in ("full", "tiny"):
        for inst in workloads.SOLVE_INSTANCES[size]:
            answers["solve"][inst[0]] = record_solve(zs, inst, deterministic=True)
        for inst in workloads.THREAD_INSTANCES[size]:
            answers["threads"][inst[0]] = record_solve(zs, inst, deterministic=False)
        for kind, name, colors, k, r in workloads.check_inputs(0, size, zs):
            if kind == "random":
                continue
            w = zs.find_zero_sum_solution(zs.Coloring.of(colors, r), zs.ProblemSpec(k, r))
            rec = None if w is None else {"target": w.target, "parts": list(w.parts)}
            out = workloads.check_witness(w, colors, k, r, "random" if w else None)
            if not out.ok:
                raise SystemExit(f"{name}: {out.error}")
            answers["check"][name] = rec
    # One answer per line, so that a changed answer shows as one changed line.
    sections = []
    for section, recs in sorted(answers.items()):
        lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(rec, sort_keys=True)}"
                           for name, rec in sorted(recs.items()))
        sections.append(f" {json.dumps(section)}: {{\n{lines}\n }}")
    sys.stdout.write("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    main()
