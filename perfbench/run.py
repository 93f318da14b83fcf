#!/usr/bin/env python3
"""The zschur benchmark: one workload per process, every answer rechecked.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 60 --trace 0

Workloads are described in workloads.py.  The run imports zschur from the
checkout's src/, builds the workload's inputs from --seed, then runs the
operations in turn, over and over, until the next would end after
--seconds (one whole pass at least).  Every answer is rechecked outside
the timed region.  Between operations, for a tenth of the time they take,
it times a fixed pure-Python computation, the reference, that shares no
code with zschur.

Output: a metadata line {"meta": {...}}, then as last line one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics:
    wall_ref      one pass over the operations, each at its mean time over
                  the run, over the mean time of the reference in the same
                  run (ref).  The host's speed swings over minutes, alike
                  for every computation; this ratio far less.  The pass in
                  seconds is wall_s in the metadata line.
    setup_s       median, over fresh processes, of process start to ready:
                  zschur import, inputs built, answers loaded (s)
    peak_rss_mb   peak resident memory of this process (MB)
    ok_frac       operations whose answer passed its recheck, over attempted
    kernel_steps  per pass: search extension checks the solver reports, plus
                  the values the reach pass of each check call feeds, as
                  implied by its answer (count)
    settled       per pass: exact values, and colorings given a verified
                  verdict (count)
On check, kernel_steps and settled are fixed by the inputs: they move only
when an answer fails its recheck.
--trace 1 alternates plain and traced passes and gives the per-layer
metrics of tracing.layer_metrics, plus checker.extract_peak_alloc_mb and
trace.overhead_frac (traced over plain pass time, minus one).  The spans
are written to .bench_out/ at the root of the checkout.

Exit code 1 when an answer fails its recheck; 2 when zschur cannot be
imported from the checkout, before any result is printed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import monotonic, perf_counter

import oracle
import tracing
import workloads
from workloads import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
# A shared host's speed swings by up to 1.8x over seconds to minutes, alike
# for every computation on it, so the operations' time is divided by that of
# a fixed computation timed all through the same run.
REFERENCE_COLORING = "01201201201101101101102102102102"  # free for k = 12, r = 3
REFERENCE_SHARE = 0.1


def import_zschur():
    sys.path.insert(0, str(SRC))
    import zschur
    if Path(zschur.__file__).resolve().parent != (SRC / "zschur").resolve():
        raise ImportError(f"zschur imported from {zschur.__file__}, not from {SRC}")
    return zschur


def setup(args, zs, tracer=None):
    """Load the recorded answers and build the operations."""
    answers = json.loads((HERE / "answers.json").read_text())
    absent = tracer.install() if tracer is not None else []
    try:
        ops = workloads.build(args.workload, args.seed, args.size, answers, zs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, absent


def setup_seconds(args) -> list[float]:
    """Process start to ready of fresh processes that only set up.

    Each process prints time.monotonic() when it is ready; that clock is
    shared by all processes, so interpreter teardown is not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        start = monotonic()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
        times.append(float(proc.stdout) - start)
    return times


def run_op(op, tracer=None) -> tuple[float, Outcome]:
    """Seconds spent in the timed call of one operation, and its outcome."""
    start = perf_counter()
    try:
        res = tracer.run_op(op.call) if tracer is not None else op.call()
    except Exception as exc:  # a call that raises is a failed operation
        return perf_counter() - start, Outcome(False, False, 0, f"{op.name}: {type(exc).__name__}: {exc}")
    busy = perf_counter() - start
    try:
        if tracer is not None and op.probe is not None:
            tracer.call("probe", op.probe, res)
        out = op.check(res)
    except Exception as exc:  # an answer of the wrong shape fails its recheck
        out = Outcome(False, False, 0, f"{type(exc).__name__}: {exc}")
    if out.error:
        out.error = f"{op.name}: {out.error}"
    return busy, out


def reference() -> None:
    """A fixed pure-Python computation that shares no code with zschur:
    fifty naive freeness checks of a free 3-coloring of [1..32] for k = 12,
    tens of milliseconds."""
    colors = [int(c) for c in REFERENCE_COLORING]
    for _ in range(50):
        if not oracle.is_free(colors, 12, 3):
            raise RuntimeError("the reference coloring is free, but the check says not")


def measure(ops, seconds: float):
    """Run the operations in turn, over and over, until the next would end
    after `seconds` (one whole pass at least).  Every operation is timed
    on its own, so the whole run counts, not only its whole passes.  The
    reference runs before the first operation, after the last, and
    between operations for REFERENCE_SHARE of the time they take.

    Returns (seconds, outcome) of every run of each operation, and the
    seconds of every run of the reference.
    """
    runs = [[] for _ in ops]
    refs = []

    def time_reference() -> float:
        start = perf_counter()
        reference()
        refs.append(perf_counter() - start)
        return refs[-1]

    start = perf_counter()
    owed = -time_reference()
    for i in itertools.count():
        j = i % len(ops)
        if i >= len(ops) and perf_counter() - start + runs[j][-1][0] > seconds:
            break
        busy, out = run_op(ops[j])
        runs[j].append((busy, out))
        owed += REFERENCE_SHARE * busy
        while owed > 0:
            owed -= time_reference()
    time_reference()
    return runs, refs


def measure_traced(ops, seconds: float, tracer):
    """Whole passes, alternating plain and traced, at least one of each,
    until the next would end after `seconds`.

    Returns (plain pass seconds, traced pass seconds, outcomes).
    """
    plain, traced, outcomes = [], [], []
    start = perf_counter()
    while True:
        if len(plain) > len(traced):
            tracer.phase = len(traced)
            tracer.install()
            try:
                runs = [run_op(op, tracer) for op in ops]
            finally:
                tracer.uninstall()
            traced.append(sum(busy for busy, _ in runs))
        else:
            runs = [run_op(op) for op in ops]
            plain.append(sum(busy for busy, _ in runs))
        outcomes += [out for _, out in runs]
        elapsed = perf_counter() - start
        if traced and elapsed + elapsed / (len(plain) + len(traced)) > seconds:
            return plain, traced, outcomes


def metadata(zs) -> dict:
    backend = tracing.resolve(("zschur.backend:backend_name", "zschur:backend_name"))
    return {
        "backend": backend() if backend is not None else "absent",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "commit": commit(),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small instances, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; used to time set-up in a fresh process")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = tracing.Tracer() if args.trace else None
    try:
        zs = import_zschur()
    except ImportError as exc:
        print(f"perfbench: cannot import zschur from {SRC}: {exc}", file=sys.stderr)
        return 2
    ops, absent = setup(args, zs, tracer)
    if args.setup_only:
        print(monotonic())
        return 0
    setup_s = setup_seconds(args) if tracer is None else []

    if tracer is None:
        runs, refs = measure(ops, args.seconds)
        outcomes = [out for op_runs in runs for _, out in op_runs]
        # One pass, each operation at its mean over the run: like the mean
        # reference run, it averages the host's speed over the whole run.
        wall_s = sum(statistics.fmean(busy for busy, _ in op_runs) for op_runs in runs)
        steps = sum(statistics.median(out.steps for _, out in op_runs) for op_runs in runs)
        settled = sum(statistics.median(out.settled for _, out in op_runs) for op_runs in runs)
        timing = {"wall_s": wall_s, "reference_s": statistics.fmean(refs),
                  "reference_runs": len(refs), "op_runs": [len(op_runs) for op_runs in runs]}
    else:
        plain, traced, outcomes = measure_traced(ops, args.seconds, tracer)
        timing = {"plain_pass_s": plain, "traced_pass_s": traced}
    failed = sum(1 for o in outcomes if not o.ok)
    for o in outcomes:
        if o.error:
            print(f"perfbench: failed: {o.error}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "wall_ref": metric(wall_s / statistics.fmean(refs), "ref"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": metric((len(outcomes) - failed) / len(outcomes), "ratio"),
            "kernel_steps": metric(steps, "count"),
            "settled": metric(settled, "count"),
        }
    else:
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        layers["checker.extract_peak_alloc_mb"] = (
            workloads.extract_peak_alloc_mb(args.seed, args.size, zs)
            if args.workload == "check" else 0.0)
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        metrics = {name: metric(layers[name], unit) for name, unit in units.items()}

    meta = metadata(zs)
    meta.update(workload=args.workload, seed=args.seed, size=args.size, **timing,
                setup_runs_s=setup_s, absent_layers=absent)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, "spans": [asdict(s) for s in tracer.spans]}))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
