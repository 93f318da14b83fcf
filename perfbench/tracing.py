"""Spans around zschur's layer entry points, for the traced run.

Entry points are resolved by name when tracing starts, and every binding
of the resolved function inside the zschur modules is replaced by a
recording wrapper, so calls made through a module attribute and calls
through a name bound by ``from ... import`` are both seen.  A name that
no longer resolves is reported as an absent layer, not raised: a change
that deletes a module must still be measurable with this benchmark.

A span is (id, parent, op, phase, name, start, end, attrs).  Spans of one
operation share ``op``; a span opened on a worker thread, whose own stack
is empty, takes as parent the innermost open span of the thread that runs
the operation.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from workloads import reach_values

#: span name -> candidate "module:attribute.path" names; the first that resolves is traced.
ENTRY_POINTS = {
    "kernel.search": ("zschur.backend:kernel.search_free_coloring",
                      "zschur._kernel_py:search_free_coloring"),
    "kernel.reach": ("zschur.backend:kernel.first_zero_sum_target",
                     "zschur._kernel_py:first_zero_sum_target"),
    "checker.decide": ("zschur.checker:is_solution_free",),
    "checker.find": ("zschur.checker:find_zero_sum_solution",),
    "solver.solve": ("zschur.solver:solve_exact",),
    "solver.level": ("zschur.solver:find_free_coloring",),
    "solver.certified_start": ("zschur.solver:_certified_start",),
    "solver.split": ("zschur.solver:_enumerate_prefixes",),
    "constructions.construct": ("zschur.constructions:construct",),
    "core.parse": ("zschur.core:parse_coloring",),
}

SETUP = -1  # phase of spans recorded while the inputs are built


def _search_attrs(args, result):
    return {"nodes": result[2], "prunes": result[3]}


def _reach_attrs(args, result):
    # Computed, not counted: each value fed updates k-1 rows of r bitsets
    # of n+1 bits.
    _, n, k, r = args[:4]
    row_updates = reach_values(result, n, k) * (k - 1) * r
    return {"row_updates": row_updates, "word_ops": row_updates * ((n + 64) // 64)}


ATTRS = {
    "kernel.search": _search_attrs,
    "kernel.reach": _reach_attrs,
    "solver.level": lambda args, result: {"found": result.found, "exhausted": result.exhausted},
    "solver.split": lambda args, result: {"prefixes": len(result[0])},
    "core.parse": lambda args, result: {"bytes": len(args[0])},
}


@dataclass
class Span:
    sid: int
    parent: int
    op: int
    phase: int
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def resolve(candidates):
    """The function the first resolvable candidate names, or None."""
    for cand in candidates:
        mod_name, _, path = cand.partition(":")
        try:
            obj = importlib.import_module(mod_name)
            for part in path.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            continue
        return obj
    return None


class Tracer:
    """Records spans in memory; install() patches the entry points, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = SETUP
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        span = Span(sid, parent, self.op, self.phase, name, start, end)
        extract = ATTRS.get(name)
        if extract is not None:
            try:
                span.attrs = extract(args, result)
            except (TypeError, IndexError, AttributeError, ValueError):
                pass  # the entry point's signature changed: keep the timing only
        self.spans.append(span)
        return result

    def run_op(self, fn):
        """Run one operation as a root span; worker-thread spans attach under this thread's stack."""
        self.op += 1
        self._op_stack = self._stack()
        return self.call("op", fn)

    def install(self) -> list[str]:
        """Wrap every resolvable entry point; return the names that did not resolve."""
        absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zschur" or name.startswith("zschur."))]
        for name, candidates in ENTRY_POINTS.items():
            fn = resolve(candidates)
            if fn is None:
                absent.append(name)
                continue
            wrapper = self._wrapper(name, fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        return absent

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of `passes` traced passes.

    Construction spans recorded while the inputs were built count once,
    on top of the per-pass share.
    """
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        if s.phase != SETUP:
            by_name[s.name].append(s)

    def self_s(s: Span) -> float:
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]]
        return s.dur - _union([iv for iv in inside if iv[0] < iv[1]])

    by_sid = {s.sid: s for s in spans}

    def under_op(s: Span) -> bool:
        while s is not None:
            if s.name == "op":
                return True
            s = by_sid.get(s.parent)
        return False

    def total(name, fn=lambda s: s.dur):
        return sum(fn(s) for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    search_s = total("kernel.search", self_s)
    nodes = attr("kernel.search", "nodes")
    prunes = attr("kernel.search", "prunes")
    m["kernel.search.self_s"] = search_s / passes
    m["kernel.search.nodes_per_s"] = ratio(nodes, search_s)
    m["kernel.search.nodes"] = nodes / passes
    m["kernel.search.prunes"] = prunes / passes
    m["kernel.search.prune_ratio"] = ratio(prunes, nodes)

    # Reach passes of the operations only, not of the decide probes beside them.
    reach = [s for s in by_name["kernel.reach"] if under_op(s)]
    m["kernel.reach.calls"] = len(reach) / passes
    m["kernel.reach.self_s"] = sum(self_s(s) for s in reach) / passes
    for key in ("row_updates", "word_ops"):
        m[f"kernel.reach.{key}"] = sum(s.attrs.get(key, 0) for s in reach) / passes

    # Extraction is find minus decide on the same input: operations with both.
    decide_by_op = defaultdict(float)
    for s in by_name["checker.decide"]:
        decide_by_op[s.op] += s.dur
    paired = [s for s in by_name["checker.find"] if s.op in decide_by_op]
    find_s = sum(s.dur for s in paired)
    extract_s = find_s - sum(decide_by_op[s.op] for s in paired)
    m["checker.decide_s"] = total("checker.decide") / passes
    m["checker.extract_s"] = extract_s / passes
    m["checker.extract_share"] = ratio(extract_s, find_s)

    levels = by_name["solver.level"]
    m["solver.levels_found"] = sum(1 for s in levels if s.attrs.get("found")) / passes
    m["solver.levels_exhausted"] = sum(1 for s in levels if s.attrs.get("exhausted")) / passes
    m["solver.certified_start_s"] = total("solver.certified_start") / passes
    m["solver.scan_overhead_s"] = (total("solver.solve", self_s) + total("solver.level", self_s)) / passes

    # The pool runs only in levels that split a frontier; the last split is the one handed over.
    splits = by_name["solver.split"]
    pooled = [s for s in levels if any(c.name == "solver.split" for c in children[s.sid])]
    wall = busy = idle = 0.0
    prefixes = 0
    for level in pooled:
        kids = children[level.sid]
        last = max((c for c in kids if c.name == "solver.split"), key=lambda c: c.end)
        prefixes += last.attrs.get("prefixes", 0)
        searches = [(c.start, c.end) for c in kids if c.name == "kernel.search"]
        wall += level.dur
        busy += sum(e - b for b, e in searches)
        idle += level.dur - _union(searches)
    m["solver.split_s"] = sum(s.dur for s in splits) / passes
    m["solver.split.prefixes"] = prefixes / passes
    m["solver.pool.kernel_busy_s"] = busy / passes
    m["solver.pool.overlap"] = ratio(busy, wall)
    m["solver.pool.idle_s"] = idle / passes

    setup_construct = sum(s.dur for s in spans
                          if s.phase == SETUP and s.name == "constructions.construct")
    m["constructions.construct_s"] = total("constructions.construct") / passes + setup_construct
    m["core.parse_s"] = total("core.parse") / passes
    m["core.parse_bytes"] = attr("core.parse", "bytes") / passes
    return m
