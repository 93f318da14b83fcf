"""Exact computation of small zero-sum Schur numbers.

The search assigns colors to positions 1, 2, ... in order, branching over
residues in ascending order.  Because every part of a solution is at
least 1 and k >= 3, the target of any solution is strictly larger than
each of its parts; a zero-sum solution therefore becomes detectable at
the exact moment its target position receives a color.  Checking each
newly colored position against an incrementally maintained reachability
table is thus a complete conflict test, and any surviving full-length
assignment is solution-free.

The search always runs in the pure kernel, whatever backend is
selected, because the compiled search lacks forward checking: the pure
kernel's table holds every colored value, so after each assignment it
sees which colors each later target may still take, and it cuts the
subtree as soon as some later target has none left (a domain wipe-out).
A later target left with a single color is colored with it at once, and
that is repeated until nothing changes (singleton propagation).  Such
cuts remove only subtrees without a free coloring, so they change node
counts only, never a status or a lex-least certificate.  The frontier
split below grows its prefixes one level at a time with the kernel's
own extension step, so an exhaustion split over a pool checks exactly
the nodes of the sequential search.

Symmetry reduction (applied only when r | k, where it is sound):
position 1 is pinned to color 0 (zero-sum solutions are preserved by
global translation), and the first nonzero color is required to be the
minimum of its orbit under multiplication by the units of Z/rZ (always
solution-preserving; the orbit minimum of c is gcd(c, r)).  The
two-color variant only pins position 1, since swapping the two colors is
negation followed by translation.

:func:`solve_exact` scans n upward: a free coloring of [1..n] restricts
to a free coloring of [1..n-1], so the answer is the first n whose
reduced search space is exhausted with no free coloring.  The scan
starts just above the construction certificate when the checker has
verified it; proven upper bounds are never assumed, so exactness is
independently re-derived.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from time import monotonic

from . import _kernel_py, constructions
from ._kernel_py import BUDGET, EXHAUSTED, FOUND, search_free_coloring
from .checker import is_solution_free
from .core import (
    INF,
    Coloring,
    ExactResult,
    Palette,
    ProblemSpec,
    SearchStats,
    SolveStatus,
)

_MIN_BUDGET_SLICE = 4096  # smallest per-subtree budget under a worker pool


@dataclass(frozen=True)
class SearchConfig:
    """Search limits and execution mode.

    ``max_nodes`` caps the number of extension checks over the whole
    solve (exact in single-threaded runs; a worker pool may overshoot by
    one budget slice per worker).  ``deterministic`` forces sequential
    exploration so the returned certificate is the lexicographically
    least free coloring of the reduced space; the numeric result does not
    depend on the thread count either way.  One exception: when the scan
    started above the construction certificate and proves the value
    exact, but the budget runs out during the lex-least redo at value - 1,
    the result is still EXACT and keeps the construction certificate,
    which is free but neither lex-least nor inside the reduced space.
    """

    max_nodes: int | None = None
    timeout: float | None = None
    threads: int = 1
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")


@dataclass(frozen=True)
class SearchState:
    """A solution-free prefix plus one reachability snapshot per position.

    Reference implementation of the plain conflict test of the search,
    one position at a time; the kernel and the frontier split test each
    position against their full tables instead.  Each snapshot is a pair
    ``(geometry, rows)``: a table in the pure kernel's packed layout (the
    r color classes as bit blocks of sums 0..geometry.sum_cap, see
    :mod:`zschur._kernel_py`) and the geometry that reads it.  The
    snapshots are shared, never mutated: extending copies the top one.
    """

    spec: ProblemSpec
    prefix: tuple[int, ...] = ()
    reach_stack: tuple = ()

    @classmethod
    def initial(cls, spec: ProblemSpec) -> SearchState:
        table = (_kernel_py.geometry(spec.r, 0), _kernel_py.new_table(spec.k))
        return cls(spec=spec, prefix=(), reach_stack=(table,))

    @property
    def depth(self) -> int:
        return len(self.prefix)


def extend_check(state: SearchState, color: int, *,
                 sum_cap: int | None = None) -> SearchState | None:
    """Assign the next position the given color; None on zero-sum conflict.

    A conflict means some k-1 already-colored values (with repetition)
    sum to the new position with colors completing a zero-sum.  The new
    state's top snapshot covers values up to position+2-k, ready for the
    next extension.  ``sum_cap``, when given, must be at least the final
    domain size n; bits above it are dropped from the tables for speed.
    Without it the snapshot keeps every sum its values reach.
    """
    spec = state.spec
    k, r = spec.k, spec.r
    if not 0 <= color < r:
        raise ValueError(f"color {color} outside [0, {r - 1}]")
    pos = state.depth + 1
    geo, rows = state.reach_stack[-1]
    v = pos - k + 2
    if v >= 1:
        new = _kernel_py.geometry(r, (k - 1) * v if sum_cap is None else sum_cap)
        rows = _kernel_py.resize(rows, geo, new)
        geo = new
        _kernel_py.add_value(rows, v, state.prefix[v - 1], geo.keep(v), geo)
    if (k - 1 <= pos <= geo.sum_cap
            and _kernel_py.cell(rows, k - 1, pos, (r - color) % r, geo)):
        return None
    return SearchState(spec=spec, prefix=state.prefix + (color,),
                       reach_stack=state.reach_stack + ((geo, rows),))


@dataclass
class FreeSearchOutcome:
    """Result of one fixed-n search: found / exhausted / out of budget."""

    status: int  # FOUND, EXHAUSTED or BUDGET
    coloring: Coloring | None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def exhausted(self) -> bool:
        return self.status == EXHAUSTED


def _symmetry_filters(spec: ProblemSpec) -> tuple[tuple[int, ...], int, int]:
    """(palette, fix_first, canonical_mask) for the reduced search."""
    palette = spec.palette_residues()
    if not spec.r_divides_k:
        return palette, -1, 0
    if spec.palette is Palette.BINARY:
        return palette, 0, 0
    mask = 0
    for c in range(1, spec.r):
        if math.gcd(c, spec.r) == c:  # c is the minimum of its unit orbit
            mask |= 1 << c
    return palette, 0, mask


def _enumerate_prefixes(spec: ProblemSpec, n: int, frontier: list,
                        palette: tuple[int, ...], fix_first: int,
                        canonical_mask: int) -> tuple[list, SearchStats]:
    """Extend every frontier entry by one position, in branch order.

    An entry is ``(prefix, rows, forced)``, the kernel's propagated state
    of the prefix (:func:`zschur._kernel_py.entry_state`).  A child
    extends its parent's table by one value and is kept when the kernel
    would keep it: its color is not forbidden and propagation wipes out
    no target.  So the pool gets only prefixes the kernel would search.
    Each child counts one node, and a rejected one also a prune, as in
    the kernel.
    """
    geo = _kernel_py.geometry(spec.r, n)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    stats = SearchStats()
    children = []
    for prefix, rows, forced in frontier:
        pos = len(prefix) + 1
        no_nonzero = not any(prefix)
        for c in palette:
            if pos == 1 and fix_first >= 0 and c != fix_first:
                continue
            if (canonical_mask and c != 0 and no_nonzero
                    and not (canonical_mask >> c) & 1):
                continue
            stats.nodes += 1
            child = None
            if not _kernel_py.cell(rows, spec.k - 1, pos, (spec.r - c) % spec.r,
                                   geo):
                child = _kernel_py.extend_state(rows, forced, pos, c, palette,
                                                offsets, geo)
            if child is None:
                stats.prunes += 1
            else:
                children.append((prefix + (c,), *child))
                stats.max_depth = pos
    return children, stats


def find_free_coloring(n: int, spec: ProblemSpec,
                       cfg: SearchConfig | None = None) -> FreeSearchOutcome:
    """Search [1..n] for a solution-free coloring under the given spec.

    FOUND carries the certificate; EXHAUSTED means the symmetry-reduced
    space contains no free coloring, which (the reduction being
    solution-preserving) proves none exists at all; BUDGET means the
    node or time budget ran out first.
    """
    if cfg is None:
        cfg = SearchConfig()
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    start = monotonic()
    deadline = start + cfg.timeout if cfg.timeout is not None else None
    palette, fix_first, canonical_mask = _symmetry_filters(spec)

    parallel = cfg.threads > 1 and not cfg.deterministic and n > spec.k
    if not parallel:
        status, colors, nodes, prunes, max_depth = search_free_coloring(
            n, spec.k, spec.r, palette, (), fix_first, canonical_mask,
            cfg.max_nodes, deadline)
        stats = SearchStats(nodes=nodes, prunes=prunes, max_depth=max_depth,
                            elapsed=monotonic() - start)
        chi = Coloring.of(colors, spec.r) if status == FOUND else None
        return FreeSearchOutcome(status=status, coloring=chi, stats=stats)
    return _find_free_parallel(n, spec, cfg, palette, fix_first,
                               canonical_mask, start, deadline)


def _find_free_parallel(n, spec, cfg, palette, fix_first, canonical_mask,
                        start, deadline) -> FreeSearchOutcome:
    # Frontier split: extend the free prefixes one level at a time until
    # there are enough of them, then let a worker pool exhaust the
    # subtrees. Any-found / all-exhausted merge.
    root = _kernel_py.entry_state(n, spec.k, spec.r, palette, ())
    frontier = [((),) + root] if root is not None else []
    frontier, stats = _enumerate_prefixes(spec, n, frontier, palette,
                                          fix_first, canonical_mask)
    depth = 1
    while depth < min(n - 1, 12) and 0 < len(frontier) < 4 * cfg.threads:
        depth += 1
        frontier, more = _enumerate_prefixes(spec, n, frontier, palette,
                                             fix_first, canonical_mask)
        stats.merge(more)
    stats.max_depth = max(stats.max_depth, depth)
    prefixes = [prefix for prefix, _, _ in frontier]
    if not prefixes:
        stats.elapsed = monotonic() - start
        return FreeSearchOutcome(status=EXHAUSTED, coloring=None, stats=stats)

    remaining = None
    if cfg.max_nodes is not None:
        remaining = max(cfg.max_nodes - stats.nodes, 0)
    certificate: list | None = None
    budget_hit = False

    def run(prefix: tuple[int, ...], slice_nodes: int | None):
        return search_free_coloring(
            n, spec.k, spec.r, palette, prefix, fix_first, canonical_mask,
            slice_nodes, deadline)

    # Futures are harvested in this thread, so stats merging needs no lock.
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        pending = set()
        queue = list(prefixes)
        while queue or pending:
            while queue and len(pending) < cfg.threads:
                slice_nodes = None
                if remaining is not None:
                    if remaining <= 0:
                        budget_hit = True
                        queue.clear()
                        break
                    share = max(len(queue) + len(pending), 1)
                    slice_nodes = max(remaining // share, _MIN_BUDGET_SLICE)
                pending.add(pool.submit(run, queue.pop(0), slice_nodes))
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                status, colors, nodes, prunes, max_depth = fut.result()
                stats.nodes += nodes
                stats.prunes += prunes
                stats.max_depth = max(stats.max_depth, max_depth)
                if remaining is not None:
                    remaining = max(remaining - nodes, 0)
                if status == FOUND and certificate is None:
                    certificate = colors
                if status == BUDGET:
                    budget_hit = True
            if certificate is not None or budget_hit:
                queue.clear()

    stats.elapsed = monotonic() - start
    if certificate is not None:
        return FreeSearchOutcome(status=FOUND,
                                 coloring=Coloring.of(certificate, spec.r),
                                 stats=stats)
    if budget_hit:
        return FreeSearchOutcome(status=BUDGET, coloring=None, stats=stats)
    return FreeSearchOutcome(status=EXHAUSTED, coloring=None, stats=stats)


def _certified_start(spec: ProblemSpec) -> tuple[int, Coloring | None]:
    """Lowest n to examine, with the checker-verified certificate below it.

    Only checker-verified facts seed the scan: the construction coloring
    when it verifies as solution-free, else the trivial floor k-1 (every
    coloring of [1..k-2] is free since no target fits).  The two-color
    variant has no construction, so it always starts at the floor.
    """
    if spec.palette is Palette.FULL:
        cert = constructions.construct(spec.k, spec.r)
        if is_solution_free(cert, spec):
            return cert.n + 1, cert
    return spec.k - 1, None


def solve_exact(spec: ProblemSpec, cfg: SearchConfig | None = None) -> ExactResult:
    """Compute S_z(k, r) (or the two-color variant) by ascending search.

    Infinite immediately when r does not divide k.  Otherwise each n is
    searched for a free coloring: found means the answer exceeds n,
    exhausted means the answer is exactly n (with the previous free
    coloring as certificate).  Budget exhaustion reports the certified
    bracket [value, inf): value = certificate.n + 1.
    """
    if cfg is None:
        cfg = SearchConfig()
    start = monotonic()
    if not spec.r_divides_k:
        return ExactResult(status=SolveStatus.INFINITE, value=INF,
                           certificate=None,
                           stats=SearchStats(elapsed=monotonic() - start))

    total = SearchStats()
    n, certificate = _certified_start(spec)
    cert_from_search = False

    def remaining_cfg() -> SearchConfig:
        left_n = None
        if cfg.max_nodes is not None:
            left_n = max(cfg.max_nodes - total.nodes, 0)
        left_t = None
        if cfg.timeout is not None:
            left_t = max(cfg.timeout - (monotonic() - start), 0.0)
        return SearchConfig(max_nodes=left_n, timeout=left_t,
                            threads=cfg.threads,
                            deterministic=cfg.deterministic)

    while True:
        outcome = find_free_coloring(n, spec, remaining_cfg())
        total.merge(outcome.stats)
        if outcome.found:
            certificate = outcome.coloring
            cert_from_search = True
            n += 1
            continue
        if outcome.exhausted:
            if cfg.deterministic and not cert_from_search and n > 0:
                # The stored certificate is the construction; replace it
                # with the lexicographically least one for the contract.
                redo = find_free_coloring(n - 1, spec, remaining_cfg())
                total.merge(redo.stats)
                if redo.found:
                    certificate = redo.coloring
            total.elapsed = monotonic() - start
            return ExactResult(status=SolveStatus.EXACT, value=n,
                               certificate=certificate, stats=total)
        total.elapsed = monotonic() - start
        floor = certificate.n + 1 if certificate is not None else spec.k - 1
        return ExactResult(status=SolveStatus.BUDGET_EXHAUSTED, value=floor,
                           certificate=certificate, stats=total)
