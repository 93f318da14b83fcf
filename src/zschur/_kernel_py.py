"""Pure-Python reachability and search kernels.

Reference implementation of the two hot entry points, mirrored by the
compiled extension ``zschur._kernel``:

* :func:`first_zero_sum_target` - one bottom-up pass of the reachability
  table over a fixed coloring, returning the least target that completes
  a zero-sum solution.
* :func:`search_free_coloring` - forward-checking depth-first search for
  a solution-free coloring of [1..n] (the compiled extension still runs
  the older search that only tests each newly colored position).

The table is a list ``rows[j][c]`` of Python integers used as bitsets:
bit s of ``rows[j][c]`` says that j values (repetition allowed, each at
most the current value cap) can realize sum s with color-sum c mod r.
Adding one value v with color cv is, per (j, c), a single shift-and-OR

    rows[j][c] |= rows[j-1][(c - cv) % r] << v

taken in increasing j so that v may be reused any number of times.  Sums
never need to exceed n, so every row is masked to n+1 bits.

Values are fed in increasing order.  A sum-T solution has k-1 parts that
are each at least 1, so no part exceeds T-k+2; target T can therefore be
tested as soon as values up to T-k+2 are in the table, and one shared
table serves all targets in one O(k n^2 r) bit-op pass.

The search keeps one table snapshot per depth holding *every* colored
value 1..pos, so the last row forbids colors at all future targets at
once: target t cannot take color c when bit t of rows[k-1][-c] is set.
Color c is rejected at pos by that bit, and after an assignment the
subtree is pruned when some target in (pos, n] has every palette color
forbidden (a domain wipe-out: one AND over the palette's rows).  Both
cuts remove only subtrees without a free coloring, so statuses and the
lex-least certificates equal those of a search that tests each target
only when it is colored; node and prune counts are far lower.  Once
2*pos > n, value pos fits at most once in any sum up to n, so the
child's last row is old_last | old_row_k-2 << pos and the wipe-out is
tested on it before the full table is copied.
"""

from __future__ import annotations

from time import monotonic

BACKEND = "pure"

#: Search outcome codes shared with the compiled kernel.
EXHAUSTED = 0
FOUND = 1
BUDGET = 3

_DEADLINE_STRIDE = 1024  # nodes between wall-clock checks


def new_table(k: int, r: int) -> list[list[int]]:
    """Empty table: only the 0-values/0-sum/0-color cell is reachable."""
    rows = [[0] * r for _ in range(k)]
    rows[0][0] = 1
    return rows


def copy_table(rows: list[list[int]]) -> list[list[int]]:
    return [row[:] for row in rows]


def add_value(rows: list[list[int]], v: int, cv: int, k: int, r: int,
              mask: int) -> None:
    """Allow value v (color cv) with unlimited multiplicity."""
    for j in range(1, k):
        prev = rows[j - 1]
        row = rows[j]
        for c in range(r):
            row[c] |= (prev[(c - cv) % r] << v) & mask


def target_hit(rows: list[list[int]], target: int, c_target: int, k: int,
               r: int) -> bool:
    """Does some (k-1)-selection of table values complete target to zero-sum?"""
    return bool((rows[k - 1][(r - c_target) % r] >> target) & 1)


def first_zero_sum_target(values, n: int, k: int, r: int) -> int:
    """Least target T in [k-1, n] completing a zero-sum solution, else 0.

    ``values`` is 0-based: values[i] is the color of i+1.
    """
    if n < k - 1:
        return 0
    mask = (1 << (n + 1)) - 1
    rows = new_table(k, r)
    v = 0
    for target in range(k - 1, n + 1):
        cap = target - k + 2
        while v < cap:
            v += 1
            add_value(rows, v, values[v - 1], k, r, mask)
        if (rows[k - 1][(r - values[target - 1]) % r] >> target) & 1:
            return target
    return 0


def search_free_coloring(n, k, r, palette, prefix, fix_first, canonical_mask,
                         max_nodes, deadline):
    """Forward-checking depth-first search for a solution-free coloring of [1..n].

    Arguments
    ---------
    palette: residues to branch over, ascending (all of 0..r-1, or (0, 1)).
    prefix: colors already fixed for positions 1..len(prefix); the caller
        guarantees the prefix itself is solution-free.
    fix_first: residue forced at position 1, or -1 for no restriction.
    canonical_mask: bitmask of residues allowed as the first nonzero
        color, or 0 for no restriction (unit-orbit symmetry breaking).
    max_nodes: extension-check budget, or None.
    deadline: absolute time.monotonic() deadline, or None; checked before
        the first extension check and then every 1024 of them.

    Returns ``(status, coloring, nodes, prunes, max_depth)`` where status
    is FOUND (coloring is a list of n residues), EXHAUSTED (no free
    coloring extends the prefix; coloring is None) or BUDGET.  ``nodes``
    counts extension checks, ``prunes`` the checks rejected by a target
    hit or a wipe-out.  A prefix that is already wiped out returns
    EXHAUSTED with 0 nodes.

    Branching is by ascending residue, so the first coloring found is the
    lexicographically least one in the reduced space.
    """
    d = len(prefix)
    if d >= n:
        return (FOUND, list(prefix[:n]), 0, 0, d)
    colors = [0] * (n + 2)
    for i, c in enumerate(prefix):
        colors[i + 1] = c

    mask = (1 << (n + 1)) - 1
    last = k - 1
    # bit t of rows[k-1][forbid[i]] forbids color palette[i] at target t
    forbid = [(r - c) % r for c in palette]

    def wiped_out(forbidden, pos: int) -> bool:
        """Does some target in (pos, n] have its whole palette forbidden?

        ``forbidden`` holds, per palette color, the last-row entry
        ``rows[k-1][i]`` (i in ``forbid``) of the table to test.
        """
        acc = mask
        for x in forbidden:
            acc &= x
        return acc >> (pos + 1) != 0

    base = new_table(k, r)
    for v in range(1, d + 1):
        add_value(base, v, colors[v], k, r, mask)
    if wiped_out([base[last][i] for i in forbid], d):
        return (EXHAUSTED, None, 0, 0, d)

    fnz0 = 0
    for i in range(1, d + 1):
        if colors[i] != 0:
            fnz0 = i
            break

    # tables[p] holds every colored value 1..p
    tables: list = [None] * (n + 1)
    cidx = [0] * (n + 2)
    fnz = [0] * (n + 2)
    tables[d] = base
    fnz[d] = fnz0

    nodes = 0
    prunes = 0
    max_depth = d
    width = len(palette)

    pos = d + 1
    cidx[pos] = 0
    while True:
        advanced = False
        rows = tables[pos - 1]
        row = rows[last]
        below = rows[last - 1]
        single = 2 * pos > n  # two copies of pos overshoot n
        while cidx[pos] < width:
            c = palette[cidx[pos]]
            cidx[pos] += 1
            if pos == 1 and fix_first >= 0 and c != fix_first:
                continue
            if (canonical_mask and c != 0 and fnz[pos - 1] == 0
                    and not (canonical_mask >> c) & 1):
                continue
            if (deadline is not None and nodes % _DEADLINE_STRIDE == 0
                    and monotonic() > deadline):
                return (BUDGET, None, nodes, prunes, max_depth)
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return (BUDGET, None, nodes - 1, prunes, max_depth)
            if (row[(r - c) % r] >> pos) & 1:
                prunes += 1
                continue
            if pos > max_depth:
                max_depth = pos
            if pos == n:
                colors[pos] = c
                return (FOUND, colors[1:n + 1], nodes, prunes, max_depth)
            # Once 2*pos > n the child's last row is row | below << pos:
            # test it before paying for the full table.
            if single and wiped_out(
                    [row[i] | below[(i - c) % r] << pos for i in forbid], pos):
                prunes += 1
                continue
            t = copy_table(rows)
            add_value(t, pos, c, k, r, mask)
            if not single and wiped_out([t[last][i] for i in forbid], pos):
                prunes += 1
                continue
            tables[pos] = t
            colors[pos] = c
            fnz[pos] = fnz[pos - 1] or (pos if c else 0)
            pos += 1
            cidx[pos] = 0
            advanced = True
            break
        if advanced:
            continue
        pos -= 1
        if pos <= d:
            return (EXHAUSTED, None, nodes, prunes, max_depth)
