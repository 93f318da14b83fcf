"""Exact computation of small zero-sum Schur numbers.

The search assigns colors to positions 1, 2, ... in order, branching over
residues in ascending order.  Because every part of a solution is at
least 1 and k >= 3, the target of any solution is strictly larger than
each of its parts; a zero-sum solution therefore becomes detectable at
the exact moment its target position receives a color.  Checking each
newly colored position against an incrementally maintained reachability
table is thus a complete conflict test, and any surviving full-length
assignment is solution-free.

The search is one sequential depth-first pass of the kernel
(:func:`zschur._kernel_py.search_free_coloring`).  Its table holds every
colored value, so after each assignment it sees which colors each later
target may still take, and it cuts the subtree as soon as some later
target has none left (a domain wipe-out).  A later target left with a
single color is colored with it at once, and that is repeated until
nothing changes (singleton propagation).  It also tries colors at
later targets and removes those whose trial wipes out under singleton
propagation (failed-literal probing): at every new node, each color of
each target that the step has just cut down to two colors, and the
first time the search backtracks into a depth, each color left at each
later target that has lost one.  Targets that no sum up to the level
uses are never tried.  Each round of tries picks the targets where
trials fail most: above the last target whose trial removed a color,
the targets with two colors left before the rest, then the targets up
to it.  Removals only grow, and a trial that wipes out still wipes out
after more removals, so the order changes only the number of trials,
never the state a closure ends in.  Such cuts remove only subtrees
without a free coloring, so they change node counts only, never a
status or a lex-least certificate.

Symmetry reduction (applied only when r | k, where it is sound):
position 1 is pinned to color 0 (zero-sum solutions are preserved by
global translation), and the first nonzero color is required to be the
minimum of its orbit under multiplication by the units of Z/rZ (always
solution-preserving; the orbit minimum of c is gcd(c, r)).  In the
two-color variant only the pin acts: its one nonzero color, 1, is an
orbit minimum (swapping the two colors is negation followed by
translation).

:func:`solve_exact` scans n upward: a free coloring of [1..n] restricts
to a free coloring of [1..n-1], so the answer is the first n whose
reduced search space is exhausted with no free coloring.  The scan
starts just above the construction certificate of the palette, once the
checker has found it free (at it, in deterministic mode); a scan whose
deadline passes before that searches nothing.  For the full palette at
odd k = r that certificate is the diagonal coloring of
[1..2k^2-2k-3], Robertson's diagonal bound made a construction, where
the paper's gives only k^2-k-1 positions; at k = 3, 5, ..., 13 the
scan exhausts the level just above it.  The levels are
searched in windows, each one fresh kernel search from the empty
coloring: within a window the search goes on from each level's
lex-least coloring to the next level, since restricting a free coloring
keeps it free and inside the reduced space, so no free coloring of a
higher level starts below it.

A window's tables span the sums up to its last level, which makes each
step dearer the wider it is.  So every window from level n ends at
min(upper, 2n), where upper is the proven upper bound (infinite for
k = r), or at n when the start lies above the bound.  For k > r, 2n
exceeds the bound, so the scan is one window from the certificate to
the bound; for k = r it is one window from the certificate to twice
its length.  The bound only ends the window and is never assumed: the
answer is still the level the search exhausts, and a free coloring
found at the window's end starts the next window, so exactness is
independently re-derived.  Every window gets the solve's one absolute
deadline and the node budget the windows before it left.

Going on from level to level inside a window is what keeps the scans
short.  A scan of one-level windows, each level searched from the empty
coloring, searches again at each level the part of the tree that lies
before the lex-least coloring of the level below: deterministic
S_z(12,6) took 8,808 nodes instead of 3,721 that way, and S_z(10,10)
45,316 instead of 23,858.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import monotonic

from . import constructions
from ._kernel_py import (
    EXHAUSTED,
    FOUND,
    least_target,
    search_free_coloring,
)
from .bounds import theoretical_bounds
from .core import (
    INF,
    Coloring,
    ExactResult,
    Palette,
    ProblemSpec,
    SearchStats,
    SolveStatus,
)


@dataclass(frozen=True)
class SearchConfig:
    """Search limits and certificate mode.

    ``max_nodes`` caps the number of extension checks plus probes over
    the whole solve, exactly, across all its windows (each a fresh
    search); it counts search nodes and probes only, so neither the
    checker's table that verifies the construction certificate nor the
    forced values that singleton propagation adds are charged to it.
    ``timeout`` (seconds, at least 0; ``inf`` allowed) caps the time of
    the whole solve: one absolute deadline, tested before every
    construction color, every value that table takes, every search node,
    every probe and every forced value.  A deadline that passes before
    the checker has found the construction free ends the solve there,
    with no search: BUDGET_EXHAUSTED at k-1 and no certificate.  The
    search is sequential, so :func:`find_free_coloring` always returns
    the lexicographically least free coloring of the reduced space.
    ``deterministic`` makes every EXACT result of :func:`solve_exact`
    carry such a certificate too: the scan starts at the construction
    certificate's n, not above it, so the first level of its first
    window finds the lex-least coloring there.  A budget that runs out
    before that reports BUDGET_EXHAUSTED at certificate.n + 1 with the
    construction certificate, which is free but neither lex-least nor
    inside the reduced space.
    ``threads`` (at least 1) has no effect on the search: the kernel is
    pure Python and holds the GIL, so it runs on one thread whatever the
    count, and values, certificates and node counts never depend on it.
    The field is kept because library callers, such as the benchmark,
    set it; the command line has no flag for it.
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
        if self.timeout is not None and not self.timeout >= 0:  # NaN too
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")


@dataclass
class FreeSearchOutcome:
    """Result of one search: found / exhausted / out of budget.

    ``coloring`` is the lex-least free coloring of the last level that
    has one in the search, or None; a search of one level has it only
    when found.
    """

    status: int  # FOUND, EXHAUSTED or BUDGET
    coloring: Coloring | None
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def exhausted(self) -> bool:
        return self.status == EXHAUSTED


def _symmetry_filters(spec: ProblemSpec) -> tuple[tuple[int, ...], int]:
    """(palette, canonical_mask) for the reduced search.

    The mask is 0 (no reduction) unless r | k; then it has the bit of
    every unit-orbit minimum, so it holds 1 and is nonzero.  The binary
    palette's only nonzero color is 1, which the mask never filters.
    """
    palette = spec.palette_residues()
    if not spec.r_divides_k:
        return palette, 0
    mask = 0
    for c in range(1, spec.r):
        if math.gcd(c, spec.r) == c:  # c is the minimum of its unit orbit
            mask |= 1 << c
    return palette, mask


def find_free_coloring(n: int, spec: ProblemSpec,
                       cfg: SearchConfig | None = None) -> FreeSearchOutcome:
    """Search [1..n] for a solution-free coloring under the given spec.

    FOUND carries the certificate, the lexicographically least free
    coloring of the symmetry-reduced space; EXHAUSTED means that
    space contains no free coloring, which (the reduction being
    solution-preserving) proves none exists at all; BUDGET means the
    node or time budget ran out first.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    cfg = cfg or SearchConfig()
    deadline = monotonic() + cfg.timeout if cfg.timeout is not None else None
    return _search_window(n, n, spec, cfg.max_nodes, deadline)


def _search_window(n: int, n_max: int, spec: ProblemSpec,
                   max_nodes: int | None,
                   deadline: float | None) -> FreeSearchOutcome:
    """The levels n..n_max in one search from scratch, under a node
    budget and an absolute deadline.

    The outcome's coloring is the lex-least one of the last level that
    has one in this window, whatever the status, or None; the window
    stopped one level above it, or at n.
    """
    start = monotonic()
    palette, canonical_mask = _symmetry_filters(spec)
    status, colors, nodes, prunes, max_depth, probes = search_free_coloring(
        n, spec.k, spec.r, palette, canonical_mask, max_nodes, deadline,
        n_max)
    stats = SearchStats(nodes=nodes, prunes=prunes, max_depth=max_depth,
                        probes=probes, elapsed=monotonic() - start)
    chi = Coloring.of(colors, spec.r) if colors is not None else None
    return FreeSearchOutcome(status=status, coloring=chi, stats=stats)


def _certified_start(spec: ProblemSpec,
                     deadline: float | None) -> Coloring | None:
    """The palette's construction coloring, once the checker finds it free.

    The coloring is :func:`~zschur.constructions.diagonal_colors` for
    the full palette at odd k = r (2k^2 - 2k - 3 positions, Robertson's
    diagonal bound), :func:`~zschur.constructions.construction_colors`
    (the paper's) for the other full-palette cases, and
    :func:`~zschur.constructions.binary_construction_colors` for the
    two-color variant.  The check is one
    :func:`~zschur._kernel_py.least_target` table of the values up to
    the coloring's length n at sum cap n, which decides every target at
    once.  None means the deadline passed while the colors were produced
    or checked.  A construction the checker finds a target in is a bug
    of this package, so it raises RuntimeError.
    """
    if spec.palette is Palette.BINARY:
        colors = constructions.binary_construction_colors(spec.k, spec.r)
    elif spec.k == spec.r and spec.k % 2:
        colors = constructions.diagonal_colors(spec.k)
    else:
        colors = constructions.construction_colors(spec.k, spec.r)
    values = []
    for c in colors:
        if deadline is not None and monotonic() > deadline:
            return None
        values.append(c)
    found = least_target(values, len(values), spec.k, spec.r, deadline)
    if found is None:
        return None
    if found[0]:
        raise RuntimeError(
            f"{spec.palette.value} construction for k={spec.k}, r={spec.r} "
            f"has a zero-sum solution with target {found[0]}")
    return Coloring.of(values, spec.r)


def solve_exact(spec: ProblemSpec, cfg: SearchConfig | None = None) -> ExactResult:
    """Compute S_z(k, r) (or the two-color variant) by ascending search.

    Infinite immediately when r does not divide k.  Otherwise each n is
    searched for a free coloring: found means the answer exceeds n,
    exhausted means the answer is exactly n (with the previous free
    coloring as certificate).  The levels are searched in windows, each
    one search from scratch, by one rule: a window from n ends at
    min(upper, 2n) for the proven upper bound upper, or at n when n is
    above it (see the module docstring).  Budget exhaustion reports the
    certified bracket [value, inf): value = certificate.n + 1, where the
    certificate is the last lex-least coloring found, also inside the
    window the budget ran out in, or else the checked construction.  A
    deadline that passes before the construction is checked reports
    [k-1, inf) with no certificate and no search.  A construction the
    checker rejects raises RuntimeError.
    """
    if cfg is None:
        cfg = SearchConfig()
    start = monotonic()
    if not spec.r_divides_k:
        return ExactResult(status=SolveStatus.INFINITE, value=INF,
                           certificate=None,
                           stats=SearchStats(elapsed=monotonic() - start))

    total = SearchStats()
    deadline = start + cfg.timeout if cfg.timeout is not None else None
    certificate = _certified_start(spec, deadline)
    if certificate is None:  # out of time; [1..k-2] has no target
        total.elapsed = monotonic() - start
        return ExactResult(status=SolveStatus.BUDGET_EXHAUSTED,
                           value=spec.k - 1, certificate=None, stats=total)
    # deterministic: re-derive the lex-least certificate first
    n = certificate.n if cfg.deterministic else certificate.n + 1
    upper = theoretical_bounds(spec.k, spec.r, spec.palette).upper
    while True:
        left = (None if cfg.max_nodes is None
                else cfg.max_nodes - total.nodes - total.probes)
        outcome = _search_window(n, max(min(upper, 2 * n), n), spec, left,
                                 deadline)
        total.merge(outcome.stats)
        if outcome.coloring is not None:
            certificate = outcome.coloring
            n = certificate.n + 1
        if not outcome.found:
            break
    total.elapsed = monotonic() - start
    if outcome.exhausted:
        return ExactResult(status=SolveStatus.EXACT, value=n,
                           certificate=certificate, stats=total)
    return ExactResult(status=SolveStatus.BUDGET_EXHAUSTED,
                       value=certificate.n + 1, certificate=certificate,
                       stats=total)
