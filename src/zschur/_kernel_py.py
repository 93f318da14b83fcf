"""The reachability and search kernel, in pure Python.

The package's only kernel, with two hot entry points:

* :func:`least_target` - the freeness decision over a fixed coloring:
  one exact table of the values up to a sum cap, and the least target
  in a range that completes a zero-sum solution, read off its last row.
  The checker decides with it (:func:`zero_sum_table`, which also hands
  the table to the witness greedy), and so does the solver's check of
  its certified start, under a deadline.
* :func:`search_free_coloring` - forward-checking depth-first search for
  a solution-free coloring of [1..n], with singleton propagation and
  failed-literal probing (the solver's search).

Tables
------
A table for k rows, r colors and sums 0..sum_cap is a list of k Python
integers, one per row j: row j says which sums s with color-sum c mod r
j values (repetition allowed, each at most the current value cap) can
realize.  Adding one value v with color cv takes one step per row, in
increasing j so that v may be reused any number of times: every pair
(s, c) of row j-1 with s + v <= sum_cap gives (s + v, (c + cv) % r) in
row j.

An update stops at the first zero row: a row receives only from the row
below it and rows only grow, so every row above a zero row is zero.
The search's updates also skip the rows that can no longer reach the
last row.  Each search caller names ``low``, the least value that may
still join the table; an entry of row j has sum at least j and needs
k-1-j more parts, each at least ``low``, so row j is dead once
j + (k-1-j)*low > sum_cap, and the dead rows are the low ones.  Both
cuts are exact for the last row, which is all the search reads; the
checker's tables (:func:`exact_table`) make the zero-row cut alone and
stay exact in every row.

The search and the checker pack the pairs in two layouts, each for the
way it reads and grows its tables.  Only this module knows them; other
modules build and read the search's tables through :class:`Geometry`,
:func:`add_value` and :func:`cell`, and the checker's through
:class:`CheckerGeometry`, :func:`least_target`, :func:`exact_table` and
:func:`checker_cell`.

Search tables
-------------
Row j packs the r color classes as bit blocks of width W = sum_cap + 1:
bit c*W + s of ``rows[j]`` holds pair (s, c).  The search reads a color
at every target at once: the block of the sums that forbid it, shifted
down to the targets, is one AND per palette color (:func:`_singles`,
:func:`close`), which a layout with the colors of one sum side by side
could not do so cheaply.  :func:`add_value` adds a value as

    y = rows[j-1] & keep           # per block, the sums s <= sum_cap - v
    rows[j] |= rotate(y, cv) << v  # block c moves to block (c + cv) % r

Masking before the shift keeps every bit inside its block, so the
rotation and the shift together are two shifts: the r - cv blocks that
stay below block r move up by cv*W + v, the cv blocks that wrap around
move down by (r - cv)*W - v.  Each shift takes only the blocks that
move its way, split off by two masks computed once per added value:
``stay``, the keep mask cut to the low r - cv blocks, and ``wrap``, the
rest of it, so the step is

    rows[j] | ((rows[j-1] & stay) << up) | ((rows[j-1] & wrap) >> down)

and no shift makes bits past the row that an AND must clear.  A shift of
a wide Python int costs several times an AND or an OR of it, so the
shifts are kept to the bits that move; with cv = 0 no block wraps, and
``wrap`` is empty.  The keep mask is computed from the layout for each
added value, as ``(ones << (W - v)) - ones`` where ``ones`` has bit 0
of every block: per block, the W - v low bits.  The stay and wrap masks
are not kept in :class:`Geometry`: one pair per color would take r*r*W
bits.

The last row feeds no other row: :func:`add_value` uses row j-1 only to
update row j, for j up to k-1.  So a search table's last row also
records the colors removed at its targets (see below), each as the bit
that forbids the color there.  Such a bit reaches no other row and no
later sum; it changes only the tests that read whether a color is left
at a target, and those count a color as gone whether a sum forbids it
or a removal takes it.  :func:`cell` reads a removal in a search table's
last row as a reachable sum.

Checker tables
--------------
Each sum has a group of r bits, one per color, with the high sums in the
low bits: bit (sum_cap - s)*r + c of ``rows[j]`` holds pair (s, c).
:func:`checker_add` adds a value as two right shifts of row j-1: by
v*r - cv for the colors c < r - cv, which stay in their sum's group, and
by v*r - cv + r for the rest, which wrap around to color c + cv - r.
The stay mask of cv (:meth:`CheckerGeometry.stay`) splits them, and the
wrap part is ``prev ^ (prev & stay)``.  A sum pushed past sum_cap falls
off the low end of the int, so no keep mask is needed.  Row 1 takes
each value as the one bit (sum_cap - v)*r + cv, so row 0, whose one
bit is the highest of the row, is never shifted.  A geometry keeps the
stay masks of at most k colors, so a check holds its k rows, at most k
masks and the one row-wide int they are built from; a color past those
has its mask built for each value, in two steps on that int.

The layout pays in the checker's exact table, which takes its values in
descending order: at value v, row j holds only sums of at least j*v.
Those are the low bits of the int, and a Python int stores no leading
zeros, so the rows grow shorter as j grows and the step works on
shorter ints than a row of every block.

One table decides many targets at once.  A sum-T solution has k-1 parts
that are each at least 1, so no part exceeds T-k+2, and a value above
it fits in no sum of T.  So with c the color of T, the last row of the
values 1..cap-k+2 at sum cap ``cap`` holds bit (cap - T)*r + (r - c) % r
exactly when T completes a solution, for every T up to cap
(:func:`least_target`).  Value v updates at most min(k-1, cap/v) rows
before the zero-row stop, so the build makes about cap(1 + ln k) row
updates, on rows that shrink as it goes, and leaves behind the table
the witness is read from.

The search
----------
The search keeps a stack of frames, one per colored depth; each frame's
table holds *every* colored value below its position, so the last row
forbids colors at all future targets at once: target t cannot take color
c when bit ((r-c) % r)*W + t of the last row is set, by a sum or by a
removal.  A color is *left* at t when that bit is clear.  Color c is
rejected at pos when it is not left there, and after an assignment the
subtree is pruned when some target in (pos, n] has no color left (a
domain wipe-out: one AND over the palette's blocks of the last row).
These cuts remove only subtrees without a free coloring, so statuses and
the lex-least certificates equal those of a search that tests each
target only when it is colored; node and prune counts are far lower.

Singleton propagation strengthens the wipe-out test.  A target in
(pos, n] with exactly one color left takes that color in every free
coloring below the node, so it joins the table at once as a value of
that color (:func:`close`); its sums can leave further targets with one
color or none, so this repeats until nothing changes, and a target left
with none prunes the child.  Each frame keeps the mask of targets
already forced, so a child adds only the newly forced ones.  When the
search reaches a forced position, its color is the only one left there,
and the step adds it again, which changes no row (see
:func:`add_value`).  A forced value t feeds only sums above t, so
when the search reaches position p, the sums that set bit p of the last
row use values below p alone, all colored by then: the conflict test
stays exact, and a bit there that no sum sets is a removal.

Failed-literal probing strengthens it again.  A probe colors a target
that has lost a color but kept two or more with one color it has left,
on a copy closed by singleton propagation, and a color whose copy wipes
out is removed (see :func:`close`).  Only the targets up to n - k + 2
are probed: a sum that uses target t has k - 2 other parts of at least 1
each, so no sum up to n uses a larger target, and its probes always
pass.  Probes run at two moments:

* at every new node: the extension step closes the child's table with
  probes of the targets whose colors the step changed, against the
  parent's last row, and that it left exactly two colors.  Probing every
  changed target, or every two-color one, cuts more nodes but costs more
  probes than it saves;
* once per frame and level, the first time the search backtracks into
  the frame of p at a level.  Every color p tried before is then refuted
  at p (at the current level or a lower one, which refutes it at every
  higher level too), or was skipped there by the symmetry filters, so
  each is removed at p, and the frame's table is closed with probes of
  every target.

Each probing round picks its targets where closures fail first (the
fail-first principle of constraint search): among the targets above the
last one whose probes removed a color (all of them, until a probe
removes one), the lowest that keeps exactly two colors, else the lowest
one; once none lies above, it wraps to the lowest targets, two-color
first.  A removal ends the round, propagation runs, and the next round
goes on above the target that failed, so the closure ends after one
round in which no probe removes a color.  The order cannot change where
a closure ends: removals only grow, and a probe that wipes out still
wipes out after more removals, so a closure has one end whatever the
order, a wipe-out or one fixpoint of forced mask, table and colors left.
Nodes, prunes, values and certificates do not depend on it; only the
probe count does, and with it the point where a node budget runs out.

Every removal is set in the last row of the frame's own table: every
extension step copies its parent's table, so no two frames share one,
and a child inherits the removals with the table it copies.  A probe
first computes only the last row that its color would give, from the few
rows that feed it (a sum up to n holds at most n // t copies of target
t), and tests that row alone: most probes wipe out there or force
nothing, and only a probe whose row forces a target copies the table and
closes the copy.  A target forced by a removal keeps no other color,
since the removal stays in the last row: the search gives it its forced
color alone.  The cuts again remove only subtrees without a free
coloring, and the branch order is unchanged.

One search covers a window of levels n..n_max, the solver's ascending
scan, and starts from the empty coloring like every search.  Its tables
span the sums up to n_max, and each closure reads the targets up to the
current level n only.  When the search colors position n below n_max,
that coloring is the lex-least free one of [1..n]: it is kept, and the
search goes on at level n + 1 with its ordinary extension step from
there, which closes the child's table over the new target n + 1 as over
every other, also when position n was forced.  A free coloring of
[1..n+1] restricts to one of [1..n], so no free coloring of the new
level is smaller, and every fact a frame holds (a forced target, a
removed color) holds for it too; the frames stay.  Each frame records
the level it was probed at, so a frame probed below the current level
is probed again at its next backtrack, over the new targets too.  The
cap is the window's last level because the dead-row cut of
:func:`add_value` is relative to the cap: a row dead at cap n may be
live at n + 1, so a table built at cap n is not exact one level up.  A
wider cap makes every row step dearer, so the solver ends each window
at twice its first level, or at the proven upper bound when that is
lower.
"""

from __future__ import annotations

from time import monotonic

#: Search outcome codes.
EXHAUSTED = 0
FOUND = 1
BUDGET = 3


class _OutOfBudget(Exception):
    """The node budget or the deadline ran out before a node or a probe,
    or the deadline before a forced value."""


def _comb(period: int, size: int) -> int:
    """Bit 0 of every ``period``-bit group of a ``size``-bit row."""
    ones, span = 1, period  # bit 0 of every group in the low span bits
    while span < size:
        ones |= ones << span
        span *= 2
    return ones & ((1 << size) - 1)


class Geometry:
    """Bit layout of the search's tables: r color blocks of sums 0..sum_cap.

    ``width`` is the block width sum_cap + 1, ``size`` the row width
    r * width, ``full`` the row of all ones and ``ones`` bit 0 of every
    block.
    """

    __slots__ = ("r", "sum_cap", "width", "size", "full", "ones")

    def __init__(self, r: int, sum_cap: int) -> None:
        width = sum_cap + 1
        self.r = r
        self.sum_cap = sum_cap
        self.width = width
        self.size = r * width
        self.full = (1 << self.size) - 1
        self.ones = _comb(width, self.size)


def new_table(k: int) -> list[int]:
    """Empty search table: only the 0-values/0-sum/0-color cell is set."""
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

    Adding a value the table already holds changes no row: after each
    call, every live row holds the step of each value added so far from
    the row below it, since the steps of two values commute.
    """
    last = len(rows) - 1
    j0 = _first_live_row(last, low, geo.sum_cap)
    keep = (geo.ones << (geo.width - v)) - geo.ones
    prev = rows[j0]
    stay = keep & (geo.full >> (cv * geo.width))  # blocks below r - cv
    wrap = keep ^ stay
    up = cv * geo.width + v
    down = geo.size - up
    for j in range(j0 + 1, last + 1):
        if not prev:
            return
        prev = rows[j] | ((prev & stay) << up) | ((prev & wrap) >> down)
        rows[j] = prev


def cell(rows: list[int], j: int, s: int, c: int, geo: Geometry) -> bool:
    """Can j values reach sum s (0 <= s <= sum_cap) with color-sum c mod r?"""
    return bool((rows[j] >> (c * geo.width + s)) & 1)


class CheckerGeometry:
    """Bit layout of the checker's tables: k rows, r colors, sums 0..sum_cap.

    Bit (sum_cap - s)*r + c of row j says that j values can realize sum
    s with color-sum c mod r; ``size`` is the row width r * (sum_cap + 1).
    The stay mask of a color (:meth:`stay`) is built on first use and
    kept for at most k colors, so the masks never hold more bits than the
    table's k rows; they are built from one more row-wide int, bit 0 of
    every sum's group.
    """

    __slots__ = ("r", "sum_cap", "size", "_kept", "_stay", "_ones")

    def __init__(self, r: int, sum_cap: int, k: int) -> None:
        self.r = r
        self.sum_cap = sum_cap
        self.size = r * (sum_cap + 1)
        self._kept = k
        self._stay = {}
        self._ones = _comb(r, self.size)

    def stay(self, cv: int) -> int:
        """The bits of colors c < r - cv in every sum's group: those that
        a value of color cv moves without wrapping around."""
        mask = self._stay.get(cv)
        if mask is None:
            ones = self._ones
            mask = (ones << (self.r - cv)) - ones
            if len(self._stay) < self._kept:
                self._stay[cv] = mask
        return mask


def checker_table(k: int, geo: CheckerGeometry) -> list[int]:
    """Empty checker table: only the 0-values/0-sum/0-color cell is set."""
    return [1 << (geo.sum_cap * geo.r)] + [0] * (k - 1)


def checker_add(rows: list[int], v: int, cv: int,
                 geo: CheckerGeometry) -> None:
    """:func:`add_value` for a checker table: allow value v (color cv)
    with unlimited multiplicity.

    Requires 1 <= v <= sum_cap.  Every row stays exact; the update stops
    at the first zero row.  Row 1 takes v as one bit, so row 0 is never
    shifted.  A higher row takes row j-1 shifted right by v*r - cv, the
    colors that stay (:meth:`CheckerGeometry.stay`), and by
    v*r - cv + r, the colors that wrap; a sum past sum_cap falls off the
    low end.
    """
    r = geo.r
    rows[1] |= 1 << ((geo.sum_cap - v) * r + cv)
    prev = rows[1]
    stay = geo.stay(cv)
    shift = v * r - cv
    wrap = shift + r
    for j in range(2, len(rows)):
        if not prev:
            return
        kept = prev & stay
        prev = rows[j] | (kept >> shift) | ((prev ^ kept) >> wrap)
        rows[j] = prev


def checker_cell(rows: list[int], j: int, s: int, c: int,
                 geo: CheckerGeometry) -> bool:
    """:func:`cell` of a checker table."""
    return bool((rows[j] >> ((geo.sum_cap - s) * geo.r + c)) & 1)


def exact_table(colors, k: int, v_max: int, geo: CheckerGeometry,
                deadline: float | None = None) -> list[int] | None:
    """Checker table of the values 1..v_max with every row exact, or None
    once ``deadline`` has passed.

    Value v has color ``colors[v - 1]``.  Requires v_max <= sum_cap.  The
    values join in descending order: row j stays zero while j*v > sum_cap,
    so the zero-row stop of :func:`checker_add` skips the rows no sum fits
    yet, where ascending order would update all k-1 rows for every value;
    and row j holds only sums of at least j*v, the low bits, so the rows
    grow shorter as the build goes on.  ``deadline`` is an absolute
    time.monotonic() deadline, or None; when set it is tested before
    every value.
    """
    rows = checker_table(k, geo)
    for v in range(v_max, 0, -1):
        if deadline is not None and monotonic() > deadline:
            return None
        checker_add(rows, v, colors[v - 1], geo)
    return rows


def forbid_offsets(palette, geo: Geometry) -> list[int]:
    """Per palette color c, the offset of block (r - c) % r: the sums that forbid c."""
    return [((geo.r - c) % geo.r) * geo.width for c in palette]


def _singles(row: int, above: int, forced: int,
             offsets: list[int]) -> int | None:
    """The targets in ``above`` that ``row`` leaves exactly one color and
    ``forced`` does not mark, or None when it leaves some target none.

    Color i is left at target t unless bit ``offsets[i] + t`` of the row
    is set (forbidden by a sum, or removed).
    """
    every = most = above  # every, or all but at most one, color gone
    for off in offsets:
        f = row >> off
        most = (most & f) | every
        every &= f
    return None if every else most & ~forced


def close(rows: list[int], forced: int, pos: int, n: int, palette,
          offsets: list[int], geo: Geometry, charge=None,
          since: int | None = None,
          deadline: float | None = None) -> int | None:
    """Close the table over the targets in (pos, n]: singleton
    propagation, and with ``charge`` failed-literal probing too.

    ``n`` is the level searched, at most sum_cap; bits of the last row
    above n are never read.

    Color ``palette[i]`` is left at target t unless bit ``offsets[i] + t``
    of the last row is set: a sum forbids it, or a probe or a backtrack
    removed it.  A target with one color left takes it in every free
    coloring that extends the table's values, so it joins the table as a
    value of that color (:func:`add_value`, in place) and bit t of
    ``forced`` marks it; that may force further targets, so this repeats
    until nothing changes.  ``deadline`` is an absolute time.monotonic()
    deadline, or None; when set it is tested before each forced value is
    added, in the closures of the probes' copies too, and a deadline that
    has passed raises :class:`_OutOfBudget`.

    ``charge`` is None (no probes) or a function called before each
    probe, which counts it or ends the closure by raising.  A probe takes
    a target t <= n - k + 2 that is not forced and has lost at least one
    color but kept two or more (so the binary palette never probes), and
    one color c left at t: it adds t with color c to a copy of the table,
    sets the bits of t's other colors in the copy's last row, and closes
    the copy without probes.  A wipe-out there means no free coloring
    gives t color c, so c is removed at t: its bit is set in the last row
    (in place).  A target above n - k + 2 is in no sum up to n, so its
    probes would pass.  Each target is probed with every color it has
    left; once the probes of a target remove a color, propagation runs
    again before the next probe, and the closure ends after a round in
    which the probes of every such target remove nothing.  A round takes
    first the targets above the last one whose probes removed a color
    (every target before the first removal), the two-color ones before
    the rest, each ascending, and then wraps to the targets up to that
    one in the same way.  Removals only grow, and a probe that fails
    still fails after more removals, so the closure ends in the same
    state in any order (see the module docstring); the order moves only
    the number of probes.

    The two-color targets come from one more level of the recurrence of
    :func:`_singles`: after propagation every target not forced keeps two
    or more colors, so all but at most two gone means exactly two left.
    ``since`` is None, or the last row of the table that ``rows`` was
    copied from (the closure of a child).  With it, a round probes only
    the targets whose bits differ from ``since`` in some palette block
    and that keep exactly two colors.

    Most probes end at the first round of that closure, so a probe runs
    that round first on the last row alone: it computes only the last
    row that adding t would give, without a copy, from the rows that can
    feed it (at most n // t copies of t fit in a sum up to n, so one row
    step when t > n / 2), and sets t's cut bits in it.  That row, with t
    counted as forced, gets the test of a propagation round: a wipe-out
    fails the probe, and a row that forces no target passes it.  Only a
    probe whose row forces a target copies the table and closes the
    copy.  The verdicts, and so the removals and the calls of
    ``charge``, are those of closing a copy for every probe.

    Returns the new forced mask, or None when some target in (pos, n]
    has no color left (a wipe-out).
    """
    above = (1 << (n + 1)) - (1 << (pos + 1))
    fence = 1  # the targets up to the last failed one: none yet
    while True:
        row = rows[-1]
        new = _singles(row, above, forced, offsets)
        if new is None:
            return None
        if new:
            forced |= new
            for c, off in zip(palette, offsets):
                hit = new & ~(row >> off)
                while hit:
                    low = hit & -hit
                    hit ^= low
                    if deadline is not None and monotonic() > deadline:
                        raise _OutOfBudget
                    add_value(rows, low.bit_length() - 1, c, geo, pos + 1)
            continue
        if charge is None:
            return forced
        # spread << t has the bits of every color at t; some marks the
        # targets that have lost at least one color, and the recurrence
        # of _singles, one level deeper, those that have lost all but at
        # most two (most2); diff marks the bits that differ from since's
        spread = some = changed = 0
        diff = 0 if since is None else row ^ since
        every = most1 = most2 = above
        for off in offsets:
            f = row >> off
            spread |= 1 << off
            some |= f
            changed |= diff >> off
            most2 = (most2 & f) | most1
            most1 = (most1 & f) | every
            every &= f
        # nothing is left to force, so each target not forced keeps two
        # or more colors, and most2 marks those that keep exactly two.  A
        # sum that uses target t has k - 2 other parts of at least 1
        # each, so no sum up to n uses a target above n - k + 2, and its
        # probes would pass
        targets = (above & some & ~forced
                   & ((1 << max(n - len(rows) + 3, 0)) - 1))
        two = targets & most2
        if since is not None:
            # only the targets whose colors differ from since's and that
            # keep exactly two
            targets = two = two & changed
        # the order: above the last failed target, the two-color targets
        # and then the rest, each ascending; then from the lowest target
        # up to the failed one, in the same way
        upper = targets & ~fence
        lower = targets & fence
        # a probe's first round runs on the last row alone, which the
        # rows from start up give as add_value would in the sums up to n,
        # the only ones it reads.  Adding t leaves bit t as it is, as a
        # sum that uses t has k-1 >= 2 parts, so with the cut bits t
        # keeps c alone, and counted as forced it is not forced again
        last = len(rows) - 1
        j0 = _first_live_row(last, pos + 1, n)
        width, size, full = geo.width, geo.size, geo.full
        failed = False
        for group in (upper & two, upper & ~two, lower & two, lower & ~two):
            while group and not failed:
                bit = group & -group
                group ^= bit
                t = bit.bit_length() - 1
                keep = (geo.ones << (width - t)) - geo.ones
                start = max(j0, last - n // t)
                for c, off in zip(palette, offsets):
                    if (row >> (off + t)) & 1:
                        continue
                    charge()
                    up = c * width + t
                    down = size - up
                    trial = rows[start]
                    for j in range(start + 1, last + 1):
                        y = trial & keep
                        trial = rows[j] | ((y << up) & full) | (y >> down)
                    cut = (spread ^ (1 << off)) << t  # t's other colors
                    new = _singles(trial | cut, above, forced | bit, offsets)
                    if new:  # the row forces a target: close a copy
                        copy = rows[:]
                        add_value(copy, t, c, geo, pos + 1)
                        copy[-1] |= cut
                        new = close(copy, forced | bit, pos, n, palette,
                                    offsets, geo, deadline=deadline)
                    if new is None:
                        rows[-1] |= bit << off
                        failed = True
            if failed:
                break
        else:
            return forced
        # propagate the removals, and go on above t
        fence = (bit << 1) - 1


def extend_state(rows: list[int], forced: int, pos: int, n: int, c: int,
                 palette, offsets: list[int], geo: Geometry, charge=None,
                 deadline: float | None = None):
    """One step of the search at level n: the table after coloring pos
    with c, closed over the targets in (pos, n].

    The caller has checked that c is left at pos.  Returns the closed
    ``(rows, forced)`` of the child, or None on a wipe-out.  Without
    ``charge`` the closure is singleton propagation only; with it, the
    child's table is also closed with the probes of :func:`close` against
    the last row of ``rows``: the targets the step changed that keep two
    colors.  The child's table is always a new copy, so it inherits the
    colors removed in the last row of ``rows`` and leaves ``rows`` as it
    is.  ``deadline`` is that of :func:`close`.
    """
    child = rows[:]
    add_value(child, pos, c, geo, pos)
    forced = close(child, forced, pos, n, palette, offsets, geo, charge,
                   rows[-1], deadline)
    return None if forced is None else (child, forced)


def _least_target(row: int, values, lo: int, hi: int,
                  geo: CheckerGeometry) -> int:
    """Least target T in (lo, hi] whose last-row bit
    (sum_cap - T)*r + (r - c) % r is set, c = values[T - 1], else 0.
    ``row`` is an exact last row of a checker table with sum_cap >= hi.

    The row is read as bytes once, so each target costs a byte lookup
    instead of a shift of the whole row.
    """
    r, cap = geo.r, geo.sum_cap
    bits = row.to_bytes((geo.size + 7) // 8, "little")
    for t in range(lo + 1, hi + 1):
        i = (cap - t) * r + (r - values[t - 1]) % r
        if (bits[i >> 3] >> (i & 7)) & 1:
            return t
    return 0


def least_target(values, lo: int, cap: int, k: int, r: int,
                 deadline: float | None = None):
    """The freeness decision: ``(T, rows, geo)`` for the least target T in
    (lo, cap] completing a zero-sum solution, ``(0, None, None)`` when
    there is none, or None once ``deadline`` has passed.

    ``values`` is 0-based: values[i] is the color of i+1.  ``rows`` is
    the :func:`exact_table` of the values 1..cap-k+2 at sum cap ``cap``,
    built under ``deadline`` (an absolute time.monotonic() deadline, or
    None).  Its last row decides every target up to cap at once (see the
    module docstring), read by :func:`_least_target`, and every row
    answers the :func:`checker_cell` queries of the witness greedy, which
    ask for part of a sum-T solution, as the table of 1..T-k+2 would.  No
    target lies below k-1, so no table is built when cap <= max(lo, k-2),
    however large k is.
    """
    if cap <= max(lo, k - 2):
        return 0, None, None
    geo = CheckerGeometry(r, cap, k)
    rows = exact_table(values, k, cap - k + 2, geo, deadline)
    if rows is None:
        return None
    target = _least_target(rows[-1], values, lo, cap, geo)
    return (target, rows, geo) if target else (0, None, None)


def zero_sum_table(values, n: int, k: int, r: int):
    """The checker's decision: ``(T, rows, geo)`` for the least target T in
    [k-1, n] completing a zero-sum solution, or ``(0, None, None)`` when
    there is none, from :func:`least_target` in at most two tables:

    1. over the targets up to early = min(n, k+15), at sum cap early;
    2. when that misses, over the targets in (early, n], at sum cap n.

    The cap k+15 is a fixed rule.  Without structure in the coloring, the
    multisets of k-1 parts summing to a little above k-1 already give
    every color sum, so the least target lies just above k-1 (105 for a
    seeded random coloring with n = 2000, k = 100, r = 20), and the first
    table settles it with 17 values in rows of r(k+16) bits, not r(n+1).
    The colorings that certify the bounds have n near kr and no target,
    and for them that table is a small waste.  A coloring whose least
    target lies in (k+15, n] pays for the table at n, as a free coloring
    of its length does.
    """
    early = min(n, k + 15)
    found = least_target(values, k - 2, early, k, r)
    return found if found[0] else least_target(values, early, n, k, r)


def search_free_coloring(n, k, r, palette, canonical_mask, max_nodes,
                         deadline, n_max=None):
    """Forward-checking depth-first search for solution-free colorings of
    [1..n], [1..n+1], ..., [1..n_max] in one pass.

    Arguments
    ---------
    palette: residues to branch over, ascending (all of 0..r-1, or (0, 1)).
    canonical_mask: bitmask of residues allowed as the first nonzero
        color (unit-orbit symmetry breaking); when nonzero, position 1
        also takes color 0 alone.  0 searches the unreduced space.
    max_nodes: budget of extension checks plus probes, or None; the
        forced values that propagation adds are not charged.
    deadline: absolute time.monotonic() deadline, or None; when set it is
        checked before every extension check, every probe and every
        forced value that propagation adds.
    n_max: the last level of the window, at least n; None for n alone.

    The search starts from the empty coloring and runs at level n until
    it colors position n: that is the lex-least free coloring of [1..n].
    Below n_max it keeps it and goes on at level n + 1 with its ordinary
    extension step, keeping its frames (see the module docstring).  Every
    table spans the sums up to n_max, since the dead-row cut of
    :func:`add_value` is relative to the sum cap: a table built at cap n
    is not exact at n + 1.

    Returns ``(status, coloring, nodes, prunes, max_depth, probes)``.
    status is FOUND (a free coloring of [1..n_max] exists), EXHAUSTED
    (the reduced space of some level has no free coloring) or BUDGET.
    ``coloring`` is the lex-least free coloring of the last level that
    has one in this call, a list of residues, or None when no level has
    one: FOUND gives that of n_max, and otherwise the search stopped at
    the level just above the coloring, or at n when it is None.  So with
    n_max = n, only FOUND carries a coloring.  ``nodes`` counts extension
    checks, ``prunes`` the checks rejected by a color not left or a
    wipe-out after propagation, ``probes`` the probes of :func:`close`.

    Branching is by ascending residue, so the first coloring found at
    each level is the lexicographically least one in the reduced space.
    The frame of position p, pushed on advance and popped on backtrack,
    is ``[rows, forced, seen, i, probed]``: the table of 1..p-1 and the
    forced targets that ``forced`` marks, with the colors removed at
    later targets in its last row; whether a color below p is nonzero;
    the palette index after p's color (so a coloring is read off the
    frames); and the level the frame was last probed at, 0 for none.  A
    frame's table is closed with the probes of a child when it is pushed
    (:func:`extend_state` with ``charge``), and a backtrack into a frame
    probes it again, over every target, unless it was probed so at the
    current level.  Every frame owns its table, so probing a frame closes
    that table in place.
    """
    if n_max is None:
        n_max = n
    if n_max < n:
        raise ValueError(f"n_max={n_max} is below n={n}")
    if n_max == 0:
        return (FOUND, [], 0, 0, 0, 0)
    found = None  # the lex-least coloring of the last level that has one
    if n == 0:
        found, n = [], 1
    geo = Geometry(r, n_max)
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

    frames = [[new_table(k), 0, False, 0, 0]]

    try:
        while frames:
            frame = frames[-1]
            rows, forced, seen, i, _ = frame
            pos = len(frames)
            row = rows[last]
            while i < choices:
                c = palette[i]
                i += 1
                if canonical_mask and c and (
                        pos == 1 or not (seen or (canonical_mask >> c) & 1)):
                    continue
                spend()
                nodes += 1
                if (row >> (offsets[i - 1] + pos)) & 1:
                    prunes += 1
                    continue
                if pos > max_depth:
                    max_depth = pos
                frame[3] = i
                if pos == n:
                    found = [palette[f[3] - 1] for f in frames]
                    if n == n_max:
                        return (FOUND, found, nodes, prunes, max_depth,
                                probes)
                    n += 1  # go on one level up from this coloring
                child = extend_state(rows, forced, pos, n, c, palette,
                                     offsets, geo, charge, deadline)
                if child is None:
                    prunes += 1
                    continue
                frames.append([*child, seen or c != 0, 0, 0])
                break
            else:
                frames.pop()
                if not frames or frames[-1][4] == n:
                    continue
                # first backtrack at this level into the frame of pos - 1:
                # the colors below its next index are refuted or skipped
                # there; remove them in the last row and probe, in the
                # frame's own table
                frame = frames[-1]
                frame[4] = n
                rows, forced, _, i, _ = frame
                for off in offsets[:i]:
                    rows[-1] |= 1 << (off + pos - 1)
                forced = close(rows, forced, pos - 2, n, palette, offsets,
                               geo, charge, deadline=deadline)
                if forced is None:
                    frame[3] = choices  # a wipe-out: pop the frame next
                else:
                    frame[1] = forced
    except _OutOfBudget:
        return (BUDGET, found, nodes, prunes, max_depth, probes)
    return (EXHAUSTED, found, nodes, prunes, max_depth, probes)
