"""The reachability and search kernel, in pure Python.

The package's only kernel, with two hot entry points:

* :func:`first_zero_sum_target` - one bottom-up pass of the reachability
  table over a fixed coloring, returning the least target that completes
  a zero-sum solution (the checker's decision pass).
* :func:`search_free_coloring` - forward-checking depth-first search for
  a solution-free coloring of [1..n], with singleton propagation and
  failed-literal probing (the solver's search).

Table layout
------------
A table for k rows, r colors and sums 0..sum_cap is a list of k Python
integers, one per row j.  Row j packs the r color classes as bit blocks
of width W = sum_cap + 1: bit c*W + s of ``rows[j]`` says that j values
(repetition allowed, each at most the current value cap) can realize sum
s with color-sum c mod r.  Only this module knows the layout; other
modules build and read tables through :class:`Geometry`,
:func:`exact_table` and :func:`cell`.

Adding one value v with color cv takes one step per row, in increasing j
so that v may be reused any number of times:

    y = rows[j-1] & keep           # per block, the sums s <= sum_cap - v
    rows[j] |= rotate(y, cv) << v  # block c moves to block (c + cv) % r

Masking before the shift keeps every bit inside its block, so the
rotation and the shift together are two shifts of the whole row: the
blocks that stay below block r move up by cv*W + v, the cv blocks that
wrap around move down by (r - cv)*W - v.  The keep mask is computed from
the layout for each added value, as ``(ones << (W - v)) - ones`` where
``ones`` has bit 0 of every block: per block, the W - v low bits.

Only the rows that can still reach the last row are updated.  Each
caller names ``low``, the least value that may still join the table; an
entry of row j has sum at least j and needs k-1-j more parts, each at
least ``low``, so row j is dead once j + (k-1-j)*low > sum_cap, and the
dead rows are the low ones.  The update also stops at the first zero
row: a row receives only from the row below it and rows only grow, so
every row above a zero row is zero.  Both cuts are exact for the last
row, which is all the reach pass and the search read; the extraction
table (:func:`exact_table`) passes low = 1 and stays exact in every row.

The reach pass feeds values in increasing order.  A sum-T solution has
k-1 parts that are each at least 1, so no part exceeds T-k+2; target T
can therefore be tested as soon as values up to T-k+2 are in the table,
and one shared table serves all targets.  Value v updates about
min(k-1, n/v) live rows, so the pass makes about n(1 + ln k) row updates
of r(n+1) bits.

The search keeps a stack of frames, one per colored depth; each frame's
table holds *every* colored value below its position, so the last row
forbids colors at all future targets at once: target t cannot take color
c when bit ((r-c) % r)*W + t of the last row is set.  Each frame also
keeps one removed mask per palette color (bit t: the color is removed at
t), and a color is *left* at t when neither forbids it.  Color c is
rejected at pos when it is not left there, and after an assignment the
subtree is pruned when some target in (pos, n] has no color left (a
domain wipe-out: one AND over the palette's blocks of the last row and
the masks).  These cuts remove only subtrees without a free coloring, so
statuses and the lex-least certificates equal those of a search that
tests each target only when it is colored; node and prune counts are far
lower.

Singleton propagation strengthens the wipe-out test.  A target in
(pos, n] with exactly one color left takes that color in every free
coloring below the node, so it joins the table at once as a value of
that color (:func:`close`); its sums can leave further targets with one
color or none, so this repeats until nothing changes, and a target left
with none prunes the child.  Each frame keeps the mask of targets
already forced, so a child adds only the newly forced ones, and when the
search reaches a forced position its color is the only one left and the
table already holds it.  A forced value t feeds only sums above t, so
when the search reaches position p, bit p of the last row comes from the
values below p alone, all colored by then: the conflict test stays
exact.

Failed-literal probing strengthens it again, once per frame: the first
time the search backtracks into the frame of p.  Every color p tried
before is then refuted at p, or was skipped there by the symmetry filters
or by ``resume``, so each is removed at p, and the frame's table is
closed with probes: each target that has lost a color but kept two or
more is colored in turn with each color it has left, on a copy closed by
singleton propagation, and a color whose copy wipes out is removed (see
:func:`close`).  A probe first computes only the last row that its
color would give, from the few rows that feed it (a sum holds at most
sum_cap // t copies of target t), and tests that row alone: most probes
wipe out there or force nothing, and only a probe whose row forces a
target copies the table and closes the copy.  A child frame gets
singleton propagation only and inherits the removals.  A target forced
by a removal may keep colors the table does not forbid, which is why the
masks join every test: the search must give it its forced color alone.
The cuts again remove only subtrees without a free coloring, and the
branch order is unchanged.
"""

from __future__ import annotations

from time import monotonic

#: Search outcome codes.
EXHAUSTED = 0
FOUND = 1
BUDGET = 3


class _OutOfBudget(Exception):
    """The node budget or the deadline ran out before a node or a probe."""


class Geometry:
    """Bit layout of the tables with r color blocks of sums 0..sum_cap.

    ``width`` is the block width sum_cap + 1, ``size`` the row width
    r * width, ``full`` the row of all ones, ``block`` the ones of one
    block and ``ones`` bit 0 of every block.
    """

    __slots__ = ("r", "sum_cap", "width", "size", "full", "block", "ones")

    def __init__(self, r: int, sum_cap: int) -> None:
        width = sum_cap + 1
        self.r = r
        self.sum_cap = sum_cap
        self.width = width
        self.size = r * width
        self.full = (1 << self.size) - 1
        self.block = (1 << width) - 1
        ones, span = 1, width  # bit 0 of every block in the low span bits
        while span < self.size:
            ones |= ones << span
            span *= 2
        self.ones = ones & self.full


def new_table(k: int) -> list[int]:
    """Empty table: only the 0-values/0-sum/0-color cell is reachable."""
    return [1] + [0] * (k - 1)


def _first_live_row(last: int, low: int, sum_cap: int) -> int:
    """The least row j with j + (last-j)*low <= sum_cap, at most ``last``."""
    excess = last * low - sum_cap  # row j is live iff j*(low-1) >= excess
    return 0 if excess <= 0 or low == 1 else min(-(-excess // (low - 1)), last)


def add_value(rows: list[int], v: int, cv: int, geo: Geometry,
              low: int) -> None:
    """Allow value v (color cv) with unlimited multiplicity.

    Requires 1 <= low <= v <= sum_cap, where ``low`` is the least value
    that may still join the table (v included); ``low`` never falls from
    one call on a table, or on the table it was copied from, to the next.
    The keep mask holds, per block, the sums s <= sum_cap - v: the bits
    that may take one more copy of v without leaving their block.

    The update starts from the first live row j0, the least j with
    j + (k-1-j)*low <= sum_cap, leaving the dead rows below it as they
    are, and stops at the first zero row (see the module docstring).
    The last row is exact; with low == 1 every row is.
    """
    last = len(rows) - 1
    j0 = _first_live_row(last, low, geo.sum_cap)
    keep = (geo.ones << (geo.width - v)) - geo.ones
    up = cv * geo.width + v
    down = geo.size - up  # no block wraps around when cv == 0
    full = geo.full
    prev = rows[j0]
    for j in range(j0 + 1, last + 1):
        if not prev:
            return
        y = prev & keep
        prev = rows[j] | ((y << up) & full) | (y >> down)
        rows[j] = prev


def cell(rows: list[int], j: int, s: int, c: int, geo: Geometry) -> bool:
    """Can j values reach sum s (0 <= s <= sum_cap) with color-sum c mod r?"""
    return bool((rows[j] >> (c * geo.width + s)) & 1)


def exact_table(colors, k: int, v_max: int, geo: Geometry) -> list[int]:
    """Table of the values 1..v_max with every row exact.

    Value v has color ``colors[v - 1]``.  Requires v_max <= sum_cap.  The
    values join in descending order: row j stays zero while j*v > sum_cap,
    so the zero-row stop of :func:`add_value` skips the rows no sum fits
    yet, where ascending order would update all k-1 rows for every value.
    """
    rows = new_table(k)
    for v in range(v_max, 0, -1):
        add_value(rows, v, colors[v - 1], geo, 1)
    return rows


def forbid_offsets(palette, geo: Geometry) -> list[int]:
    """Per palette color c, the offset of block (r - c) % r: the sums that forbid c."""
    return [((geo.r - c) % geo.r) * geo.width for c in palette]


def close(rows: list[int], forced: int, removed: list[int], pos: int,
          palette, offsets: list[int], geo: Geometry,
          charge=None) -> int | None:
    """Close the table over the targets in (pos, sum_cap]: singleton
    propagation, and with ``charge`` failed-literal probing too.

    Color ``palette[i]`` is left at target t unless bit t of the last row
    forbids it (bit ``offsets[i] + t``) or bit t of ``removed[i]`` removes
    it.  A target with one color left takes it in every free coloring
    that extends the table's values, so it joins the table as a value of
    that color (:func:`add_value`, in place) and bit t of ``forced`` marks
    it; that may force further targets, so this repeats until nothing
    changes.

    ``charge`` is None (no probes) or a function called before each
    probe, which counts it or ends the closure by raising.  A probe takes
    a target t that is not forced and has lost at least one color but
    kept two or more (so the binary palette never probes), and one color
    c left at t: it adds t with color c to a copy of the table, removes
    t's other colors in a copy of ``removed`` and closes the copy without
    probes.  A wipe-out there means no free coloring gives t color c, so
    c is removed at t in ``removed`` (in place).  Targets are probed in
    ascending order, each with every color it has left; once the probes
    of a target remove a color, propagation runs again before the next
    probe, and the closure ends when the probes of every such target
    remove nothing.

    Most probes end at the first round of that closure, so a probe runs
    that round first on the last row alone: it computes only the last
    row that adding t would give, without a copy, from the rows that can
    feed it (at most sum_cap // t copies of t fit in a sum, so one row
    step when t > sum_cap / 2).  A wipe-out there fails the probe, and a
    row that forces no target passes it.  Only a probe whose row forces
    a target copies the table and closes the copy.  The verdicts, and so
    the removals and the calls of ``charge``, are those of closing a
    copy for every probe.

    Returns the new forced mask, or None when some target in
    (pos, sum_cap] has no color left (a wipe-out).
    """
    above = geo.block >> (pos + 1) << (pos + 1)
    while True:
        row = rows[-1]
        every = most = above  # every, or all but at most one, color gone
        gone = []  # per color, the targets where it is not left
        for off, mask in zip(offsets, removed):
            f = (row >> off) | mask
            most = (most & f) | every
            every &= f
            gone.append(f)
        if every:
            return None
        new = most & ~forced
        if new:
            forced |= new
            for c, f in zip(palette, gone):
                hit = new & ~f
                while hit:
                    low = hit & -hit
                    hit ^= low
                    add_value(rows, low.bit_length() - 1, c, geo, pos + 1)
            continue
        if charge is None:
            return forced
        some = 0  # at least one color gone
        for f in gone:
            some |= f
        targets = above & some & ~most
        # a probe's first round runs on the last row alone, which the
        # rows from start up give as add_value would.  Its tests skip t:
        # the probe forces t and leaves it c alone, as a sum that uses t
        # has k-1 >= 2 parts and so leaves bit t as it is
        last = len(rows) - 1
        j0 = _first_live_row(last, pos + 1, geo.sum_cap)
        width, size, full = geo.width, geo.size, geo.full
        while targets:
            bit = targets & -targets
            targets ^= bit
            t = bit.bit_length() - 1
            failed = False
            keep = (geo.ones << (width - t)) - geo.ones
            start = max(j0, last - geo.sum_cap // t)
            others = above ^ bit
            for i, (c, f) in enumerate(zip(palette, gone)):
                if f & bit:
                    continue
                charge()
                up = c * width + t
                down = size - up
                trial = rows[start]
                for j in range(start + 1, last + 1):
                    y = trial & keep
                    trial = rows[j] | ((y << up) & full) | (y >> down)
                none = one = others  # no color, or at most one, left
                for off, mask in zip(offsets, removed):
                    g = (trial >> off) | mask
                    one = (one & g) | none
                    none &= g
                if not none and one & ~forced:
                    # the row forces a target: close a copy of the table
                    copy = rows[:]
                    add_value(copy, t, c, geo, pos + 1)
                    cut = [m if j == i else m | bit
                           for j, m in enumerate(removed)]
                    none = close(copy, forced | bit, cut, pos, palette,
                                 offsets, geo) is None
                if none:
                    removed[i] |= bit
                    failed = True
            if failed:
                break  # propagate the removals before the next probe
        else:
            return forced


def extend_state(rows: list[int], forced: int, removed: list[int], pos: int,
                 c: int, palette, offsets: list[int], geo: Geometry):
    """One step of the search: the table after coloring pos with c.

    The caller has checked that c is left at pos.  Returns the closed
    ``(rows, forced)`` of the child (singleton propagation only), or None
    on a wipe-out.  When pos was forced, c is its color and the table
    already holds it.
    """
    if (forced >> pos) & 1:
        return rows, forced
    child = rows[:]
    add_value(child, pos, c, geo, pos)
    forced = close(child, forced, removed, pos, palette, offsets, geo)
    return None if forced is None else (child, forced)


def first_zero_sum_target(values, n: int, k: int, r: int,
                          deadline: float | None = None) -> int | None:
    """Least target T in [k-1, n] completing a zero-sum solution, else 0.

    ``values`` is 0-based: values[i] is the color of i+1.  Each target T
    adds the one value T-k+2 before it is tested.  ``deadline`` is an
    absolute time.monotonic() deadline, or None; when set it is checked
    before every value, and the pass returns None once it has passed.
    """
    if n < k - 1:
        return 0
    geo = Geometry(r, n)
    rows = new_table(k)
    for target in range(k - 1, n + 1):
        if deadline is not None and monotonic() > deadline:
            return None
        v = target - k + 2
        add_value(rows, v, values[v - 1], geo, v)
        if cell(rows, k - 1, target, (r - values[target - 1]) % r, geo):
            return target
    return 0


def search_free_coloring(n, k, r, palette, fix_first, canonical_mask,
                         max_nodes, deadline, resume=None):
    """Forward-checking depth-first search for a solution-free coloring of [1..n].

    Arguments
    ---------
    palette: residues to branch over, ascending (all of 0..r-1, or (0, 1)).
    fix_first: residue forced at position 1, or -1 for no restriction.
    canonical_mask: bitmask of residues allowed as the first nonzero
        color, or 0 for no restriction (unit-orbit symmetry breaking).
    max_nodes: budget of extension checks plus probes, or None.
    deadline: absolute time.monotonic() deadline, or None; when set it is
        checked before every extension check and every probe.
    resume: the lexicographically least free coloring of the reduced
        space of [1..m], m <= n, as a list of residues, or None.  The
        first m positions of every free coloring of [1..n] form a free
        coloring of [1..m] in the reduced space, so none is smaller than
        ``resume``: each depth starts at its color until the first branch
        that leaves it.  Those steps are ordinary extension checks, so
        every count and budget stays exact; status and coloring equal
        those of the search without ``resume``.  The frames it skips are
        never probed, so it is not bound to take fewer nodes, but it took
        no more at any of the 776 scan levels of k <= 12, r <= 6 compared
        (both palettes).  Any other coloring may make EXHAUSTED unsound.

    Returns ``(status, coloring, nodes, prunes, max_depth, probes)``
    where status is FOUND (coloring is a list of n residues), EXHAUSTED
    (the reduced space has no free coloring; coloring is None) or
    BUDGET.  ``nodes`` counts extension checks, ``prunes`` the checks
    rejected by a color not left or a wipe-out after propagation,
    ``probes`` the probes of :func:`close`.

    Branching is by ascending residue, so the first coloring found is the
    lexicographically least one in the reduced space.  The frame of
    position p, pushed on advance and popped on backtrack, is ``[rows,
    forced, removed, seen, i, probed]``: the table of 1..p-1 and the
    forced targets that ``forced`` marks, the removed masks, whether a
    color below p is nonzero, the palette index after p's color (so a
    FOUND coloring is read off the frames), and whether the frame was
    probed.
    """
    if resume is not None and len(resume) > n:
        raise ValueError(f"resume has {len(resume)} positions, n={n}")
    if n == 0:
        return (FOUND, [], 0, 0, 0, 0)
    geo = Geometry(r, n)
    last = k - 1
    # bit offsets[i] + t of the last row forbids color palette[i] at target t
    offsets = forbid_offsets(palette, geo)

    nodes = 0
    prunes = 0
    probes = 0
    max_depth = 0
    choices = len(palette)

    def spend():
        if deadline is not None and monotonic() > deadline:
            raise _OutOfBudget
        if max_nodes is not None and nodes + probes >= max_nodes:
            raise _OutOfBudget

    def charge():
        nonlocal probes
        spend()
        probes += 1

    # start[p]: palette index of the resume color at p.  on_path: every
    # step so far took its resume color; after the first step that did
    # not, every later node of the search lies above the resume path.
    start = [0] + [palette.index(c) for c in resume or ()]
    on_path = len(start) > 1
    frames = [[new_table(k), 0, [0] * choices, False,
               start[1] if on_path else 0, False]]

    try:
        while frames:
            frame = frames[-1]
            rows, forced, removed, seen, i, _ = frame
            pos = len(frames)
            row = rows[last]
            while i < choices:
                c = palette[i]
                i += 1
                if pos == 1 and fix_first >= 0 and c != fix_first:
                    continue
                if (canonical_mask and c != 0 and not seen
                        and not (canonical_mask >> c) & 1):
                    continue
                spend()
                nodes += 1
                if (row >> offsets[i - 1] | removed[i - 1]) >> pos & 1:
                    prunes += 1
                    continue
                if pos > max_depth:
                    max_depth = pos
                frame[4] = i
                if pos == n:
                    return (FOUND, [palette[f[4] - 1] for f in frames], nodes,
                            prunes, max_depth, probes)
                child = extend_state(rows, forced, removed, pos, c, palette,
                                     offsets, geo)
                if child is None:
                    prunes += 1
                    continue
                on_path = on_path and pos + 1 < len(start) and c == resume[pos - 1]
                frames.append([*child, removed, seen or c != 0,
                               start[pos + 1] if on_path else 0, False])
                break
            else:
                frames.pop()
                if not frames or frames[-1][5]:
                    continue
                # first backtrack into the frame of pos - 1: the colors below
                # its next index are refuted or skipped there; remove them
                # and probe.  The table is copied since a forced position
                # shares it with the frame below, the masks since children
                # share them.
                frame = frames[-1]
                frame[5] = True
                rows, forced, removed, _, i, _ = frame
                rows, removed = rows[:], removed[:]
                for j in range(i):
                    removed[j] |= 1 << (pos - 1)
                forced = close(rows, forced, removed, pos - 2, palette,
                               offsets, geo, charge)
                if forced is None:
                    frame[4] = choices  # a wipe-out: pop the frame next
                else:
                    frame[:3] = rows, forced, removed
    except _OutOfBudget:
        return (BUDGET, None, nodes, prunes, max_depth, probes)
    return (EXHAUSTED, None, nodes, prunes, max_depth, probes)
