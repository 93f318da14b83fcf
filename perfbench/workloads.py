"""The workloads: their inputs, the timed call into zschur per operation,
and the recheck of each answer.

Every operation is one call into the package's public functions.  Its
answer is then rechecked outside the timed region, against the answers
recorded from the seed (answers.json) and with the independent checks in
oracle.py.

solve
    Sequential deterministic solve_exact on six instances, then
    solve_exact with threads=2, not deterministic, on three instances whose
    scan is a single exhausted level.  The search kernel does almost all
    the work; the sequential instances mix exhaustion with ascending levels
    that find a coloring (S_z(5,5) scans 18 of them), and the two
    node-budgeted slices are where a pruning change turns a certified
    bracket into an exact value.  The threaded solves are the only path
    through the frontier split and the thread pool; exhaustion explores
    the whole reduced space, so their node counts repeat exactly despite
    the thread race.  They share this workload rather than having their
    own so that each of the two workloads gets a longer run within the
    benchmark's time limit.
check
    parse_coloring then find_zero_sum_solution on large colorings, k from
    50 to 150 and r in {3, 10, 20}.  Free construction colorings take a
    full reach pass and no witness extraction; the same colorings padded
    with zeros have their least witness at the end, so they take a full
    pass plus extraction; seeded random colorings end early.  The padded
    k=50, r=10 coloring is the n=500 case of the ROADMAP.  No search runs.
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("solve", "check")

#: (name, k, r, palette, max_nodes) per size.
SOLVE_INSTANCES = {
    "full": (
        ("8-4", 8, 4, "full", None),
        ("12-3", 12, 3, "full", None),
        ("5-5", 5, 5, "full", None),
        ("12-4-binary", 12, 4, "binary", None),
        ("12-4-slice", 12, 4, "full", 500_000),
        ("10-5-slice", 10, 5, "full", 500_000),
    ),
    "tiny": (
        ("4-2", 4, 2, "full", None),
        ("6-3", 6, 3, "full", None),
        ("6-3-binary", 6, 3, "binary", None),
        ("8-4-slice", 8, 4, "full", 2_000),
    ),
}

THREADS = 2
THREAD_INSTANCES = {
    "full": (
        ("8-4", 8, 4, "full", None),
        ("12-3", 12, 3, "full", None),
        ("9-3", 9, 3, "full", None),
    ),
    "tiny": (
        ("6-3", 6, 3, "full", None),
        ("9-3", 9, 3, "full", None),
    ),
}

#: (k, r) of the construction colorings; r divides k so the construction exists.
CHECK_GRID = {
    "full": ((51, 3), (50, 10), (60, 20), (102, 3), (100, 10), (150, 3), (150, 10)),
    "tiny": ((51, 3), (50, 10)),
}
PAD = 12  # zeros appended to a free construction: its least witness is then at n0 + 1
RANDOM_COLORINGS = {"full": 24, "tiny": 3}


@dataclass
class Outcome:
    ok: bool
    settled: bool  # an exact value, or a coloring's verdict
    steps: int  # search extension checks, or values fed to the reach pass
    error: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], object]  # the timed call into zschur
    check: Callable[[object], Outcome]  # recheck of its answer, untimed
    probe: Callable[[object], object] | None = None  # extra traced call, untimed


def coloring_text(colors, k: int, r: int) -> str:
    """The package's coloring file format: 'n k r', then the n residues."""
    return f"{len(colors)} {k} {r}\n{' '.join(map(str, colors))}\n"


def certificate_string(colors) -> str:
    return "".join(map(str, colors))


def build(workload: str, seed: int, size: str, answers: dict, zs) -> list[Op]:
    """The operations of one pass; zs is the imported zschur package."""
    if workload == "solve":
        return ([solve_op(inst, answers["solve"][inst[0]], zs, deterministic=True)
                 for inst in SOLVE_INSTANCES[size]]
                + [solve_op(inst, answers["threads"][inst[0]], zs, deterministic=False)
                   for inst in THREAD_INSTANCES[size]])
    if workload == "check":
        return _check_ops(seed, size, answers["check"], zs)
    raise ValueError(f"unknown workload {workload!r}")


def solve_op(inst, rec: dict, zs, deterministic: bool) -> Op:
    name, k, r, palette, max_nodes = inst
    spec = zs.ProblemSpec(k, r, zs.Palette(palette))
    cfg = (zs.SearchConfig(max_nodes=max_nodes, deterministic=True) if deterministic
           else zs.SearchConfig(max_nodes=max_nodes, threads=THREADS))

    def check(res) -> Outcome:
        return check_solve(res, k, r, palette, max_nodes, rec, deterministic)

    name = name if deterministic else f"{name}-threads"
    return Op(name=name, call=lambda: zs.solve_exact(spec, cfg), check=check)


def check_solve(res, k, r, palette, max_nodes, rec, deterministic) -> Outcome:
    """Recheck one solve_exact result against the known value and the oracle."""
    known = rec["known"]
    steps = res.stats.nodes
    status = res.status.value
    if status == "exact":
        if res.value != known:
            return Outcome(False, False, steps, f"value {res.value}, known {known}")
    elif status == "budget-exhausted" and max_nodes is not None:
        if not res.value <= known:
            return Outcome(False, False, steps, f"bracket [{res.value}, inf) misses {known}")
    else:
        return Outcome(False, False, steps, f"status {status}")
    cert = res.certificate
    if cert is None or cert.n != res.value - 1:
        return Outcome(False, False, steps, "no certificate of length value - 1")
    colors = cert.values
    if palette == "binary" and any(c > 1 for c in colors):
        return Outcome(False, False, steps, "binary certificate uses a color above 1")
    if not oracle.is_free(colors, k, r):
        return Outcome(False, False, steps, "certificate has a zero-sum solution")
    recorded = deterministic and (status, res.value) == (rec["status"], rec["value"])
    if recorded and certificate_string(colors) != rec["certificate"]:
        return Outcome(False, False, steps, "certificate differs from the recorded lex-least one")
    return Outcome(True, status == "exact", steps)


def check_inputs(seed: int, size: str, zs) -> list[tuple[str, str, list[int], int, int]]:
    """(kind, name, colors, k, r) for every coloring of one check pass."""
    inputs = []
    for k, r in CHECK_GRID[size]:
        free = list(zs.construct(k, r).values)
        inputs.append(("free", f"free-{k}-{r}", free, k, r))
        inputs.append(("late", f"late-{k}-{r}", free + [0] * PAD, k, r))
    rng = random.Random(seed)
    for i in range(RANDOM_COLORINGS[size]):
        r = rng.choice((3, 10, 20))
        k = r * rng.randint(-(-50 // r), 150 // r)
        # n = kr is above every proven upper bound for r | k, so a witness exists.
        colors = [rng.randrange(r) for _ in range(k * r)]
        inputs.append(("random", f"random-{i}-{k}-{r}", colors, k, r))
    return inputs


def _check_ops(seed: int, size: str, recorded: dict, zs) -> list[Op]:
    ops = []
    for kind, name, colors, k, r in check_inputs(seed, size, zs):
        text = coloring_text(colors, k, r)

        def call(text=text):
            chi, hk = zs.parse_coloring(text)
            spec = zs.ProblemSpec(hk, chi.r)
            return spec, chi, zs.find_zero_sum_solution(chi, spec)

        rec = "random" if kind == "random" else recorded[name]

        def check(res, colors=colors, k=k, r=r, rec=rec):
            return check_witness(res[2], colors, k, r, rec)

        ops.append(Op(name=name, call=call, check=check,
                      probe=lambda res: zs.is_solution_free(res[1], res[0])))
    return ops


def reach_values(target: int, n: int, k: int) -> int:
    """Values 1..T-k+2 that the reach pass feeds before it stops at target
    T, or at n when no target completes a solution (target 0)."""
    return max(0, (target or n) - k + 2)


def check_witness(w, colors, k: int, r: int, rec) -> Outcome:
    """Recheck one find_zero_sum_solution answer.

    rec is the recorded answer ({"target": ..., "parts": [...]}, or None
    for a free coloring), or "random": any valid witness, which must exist.
    The steps given are implied by the answer, not counted: for a correct
    program they are fixed by the inputs.
    """
    n = len(colors)
    steps = reach_values(w.target if w is not None else 0, n, k)
    if w is None:
        if rec is None:
            return Outcome(True, True, steps)
        return Outcome(False, False, steps, "no witness, but one is known")
    if rec is None:
        return Outcome(False, False, steps, "witness on a coloring recorded as free")
    parts = list(w.parts)
    if not oracle.witness_ok(colors, k, r, w.target, parts):
        return Outcome(False, False, steps, "witness fails the arithmetic check")
    if rec != "random" and (w.target, parts) != (rec["target"], rec["parts"]):
        return Outcome(False, False, steps, "witness differs from the recorded lex-least one")
    return Outcome(True, True, steps)


def extract_peak_alloc_mb(seed: int, size: str, zs) -> float:
    """Largest tracemalloc peak of a find above that of a decide on the same
    late-witness coloring: the memory witness extraction adds.

    Only the colorings of the largest k are measured, where extraction's
    memory shows most; tracemalloc slows them about tenfold.
    """
    def peak(fn, *args) -> int:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base

    worst = 0
    tracemalloc.start()
    try:
        top = max(k for k, _ in CHECK_GRID[size])
        for kind, _, colors, k, r in check_inputs(seed, size, zs):
            if kind == "late" and k == top:
                chi, spec = zs.Coloring.of(colors, r), zs.ProblemSpec(k, r)
                decide = peak(zs.is_solution_free, chi, spec)
                worst = max(worst, peak(zs.find_zero_sum_solution, chi, spec) - decide)
    finally:
        tracemalloc.stop()
    return worst / 2**20
