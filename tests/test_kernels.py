"""The kernel against references that share no code with it.

The freeness decision is checked against a naive set-of-(sum, color-sum)
dynamic program, the search against plain depth-first enumerations of
colorings in ascending order, and the tables against their definition.
"""

import random
import sys
import tracemalloc
from itertools import count, product
from time import monotonic

import pytest

from zschur import (
    Palette,
    ProblemSpec,
    SearchConfig,
    _kernel_py,
    find_free_coloring,
)
from zschur.solver import _symmetry_filters


def naive_first_target(values, n, k, r):
    """Least target in [1..n] completing a zero-sum solution, else 0.

    Builds the set of (sum, color-sum mod r) pairs reachable by k-1
    values from [1..n], repetition allowed, sums capped at n.
    """
    reach = {(0, 0)}
    for _ in range(k - 1):
        reach = {(s + v, (c + values[v - 1]) % r)
                 for s, c in reach for v in range(1, n - s + 1)}
    return next((t for t in range(1, n + 1)
                 if (t, -values[t - 1] % r) in reach), 0)


def brute_force_search(n, k, r, palette, fix_first, canonical_mask,
                       prefix=()):
    """(status, coloring) the kernel's search must return.

    Enumerates the colorings of [1..n] that start with ``prefix`` in
    ascending order, applying the filters (fix_first at position 1, the
    canonical mask on the first nonzero color), and returns the first
    free one.  A partial coloring is abandoned as soon as it has a
    solution, since no completion of it is then free.
    """
    def first_free(colors):
        if naive_first_target(colors, len(colors), k, r):
            return None
        if len(colors) == n:
            return colors
        for c in palette:
            if not colors and fix_first >= 0 and c != fix_first:
                continue
            if (canonical_mask and c and not any(colors)
                    and not (canonical_mask >> c) & 1):
                continue
            found = first_free(colors + [c])
            if found is not None:
                return found
        return None

    found = first_free(list(prefix))
    if found is None:
        return (_kernel_py.EXHAUSTED, None)
    return (_kernel_py.FOUND, found)


def test_status_codes_match():
    assert (_kernel_py.EXHAUSTED, _kernel_py.FOUND, _kernel_py.BUDGET) == (0, 1, 3)


def test_first_target_random_agreement():
    rng = random.Random(2024)
    # k up to 14 with n up to 40 leaves most rows dead for the later values
    for _ in range(300):
        k = rng.randint(3, 14)
        r = rng.randint(2, 6)
        n = rng.randint(0, 40)
        values = tuple(rng.randrange(r) for _ in range(n))
        want = naive_first_target(values, n, k, r)
        got = _kernel_py.least_target(values, k - 2, n, k, r)[0]
        assert got == want, (values, n, k, r)
        got = _kernel_py.zero_sum_table(values, n, k, r)[0]
        assert got == want, (values, n, k, r)


def naive_last_rows(values, k, r, n):
    """Per v = 1..n, the (sum, color-sum mod r) pairs of k-1 values from
    [1..v], repetition allowed, with sums at most n.

    One set per count of values; adding v lets every count-j pair take
    one more copy of v, in increasing j so that v may repeat."""
    reach = [{(0, 0)}] + [set() for _ in range(k - 1)]
    for v in range(1, n + 1):
        for j in range(1, k):
            reach[j] |= {(s + v, (c + values[v - 1]) % r)
                         for s, c in reach[j - 1] if s + v <= n}
        yield set(reach[k - 1])


def test_reach_pass_last_row_with_dead_rows():
    # add_value with a rising low, as the search's is: every value from
    # 1 to n with low = v.  Past v = n/(k-1) the low rows are dead and
    # skipped, and rows stop at the first zero row, yet the last row must
    # be exact
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(3, 16)
        r = rng.randint(2, 5)
        n = rng.randint(k - 1, 70)
        base = rng.randrange(r)  # near-constant: a few values recolored
        values = [base] * n
        for i in rng.sample(range(n), rng.randint(0, 3)):
            values[i] = rng.randrange(r)
        geo = _kernel_py.Geometry(r, n)
        rows = _kernel_py.new_table(k)
        for v, want in enumerate(naive_last_rows(values, k, r, n), 1):
            _kernel_py.add_value(rows, v, values[v - 1], geo, v)
            got = {(s, c) for s in range(n + 1) for c in range(r)
                   if _kernel_py.cell(rows, k - 1, s, c, geo)}
            assert got == want, (values, k, r, v)


def test_first_target_wide_sums():
    # rows of several machine words.  Random colorings stop early; for
    # k=10, r=3 the all-ones coloring has no zero-sum solution (r does not
    # divide k), so every target up to n is read, and coloring n with 0
    # instead puts the least target at exactly n
    rng = random.Random(77)
    for n in (63, 64, 65, 127, 130, 200):
        ones = (1,) * n
        late = ones[:-1] + (0,)
        for values, r in ((tuple(rng.randrange(5) for _ in range(n)), 5),
                          (ones, 3), (late, 3)):
            want = naive_first_target(values, n, 10, r)
            got = _kernel_py.least_target(values, 8, n, 10, r)[0]
            assert got == want, (n, r)
            assert _kernel_py.zero_sum_table(values, n, 10, r)[0] == want, n
        assert naive_first_target(ones, n, 10, 3) == 0, n
        assert naive_first_target(late, n, 10, 3) == n, n


def test_least_target_matches_the_reference():
    # least_target reads every target off the last row of one table of
    # 1..n-k+2 at sum cap n, by bytes; read from the first target, k-1,
    # it must give the reference's least target, and zero_sum_table
    # (a table at cap k+15, then one at cap n) the same.  Near-constant
    # colorings put many least targets past k+15; n up to 200 gives rows
    # of many bytes
    rng = random.Random(404)
    late = 0
    for _ in range(400):
        k = rng.randint(3, 12)
        r = rng.randint(2, 7)
        n = rng.choice((rng.randint(0, 40), rng.randint(60, 200)))
        base = rng.randrange(r)
        values = [base] * n
        for i in rng.sample(range(n), min(n, rng.randint(0, 4))):
            values[i] = rng.randrange(r)
        want = naive_first_target(values, n, k, r)
        got = _kernel_py.least_target(values, k - 2, n, k, r)[0]
        assert got == want, (values, k, r)
        target, rows, geo = _kernel_py.zero_sum_table(values, n, k, r)
        assert target == want, (values, k, r)
        late += want > k + 15
    assert late >= 40, late


def test_search_identical_results():
    # a nonzero mask pins position 1 to color 0 in the kernel; the mask
    # of every nonzero color pins it and filters nothing else
    cases = []
    for r, palette in ((2, (0, 1)), (3, (0, 1, 2)), (4, (0, 1, 2, 3))):
        k = 2 * r if r > 2 else 4
        for n in range(0, 9):
            cases.append((n, k, r, palette, (1 << r) - 2))
            cases.append((n, k, r, palette, 0))
    # canonical-orbit mask for r=4: residues 1 and 2
    cases.append((8, 8, 4, (0, 1, 2, 3), 0b110))
    cases.append((10, 4, 4, (0, 1), 0b1110))  # binary palette inside Z/4Z
    # canonical-orbit mask for r=3: residue 1; n=15 is S_z(6,3), exhausted
    for n in (8, 10, 15):
        cases.append((n, 6, 3, (0, 1, 2), 0b10))
    for n, k, r, palette, mask in cases:
        got = _kernel_py.search_free_coloring(n, k, r, palette, mask, None,
                                              None)
        want = brute_force_search(n, k, r, palette, 0 if mask else -1, mask)
        assert got[:2] == want, (n, k, r, palette, mask)


def naive_lex_least_search(n, k, r, palette, fix_first, canonical_mask):
    """The lex-least free coloring of [1..n] under the filters, or None.

    Depth first in ascending order, like :func:`brute_force_search`, but
    each prefix keeps the sets of (sum, color-sum mod r) pairs that j of
    its values reach, j < k, so that coloring the next value v tests only
    whether v completes a solution: a solution's target exceeds its
    parts.  No forward checking, propagation or probing.
    """
    def first_free(colors, reach):
        if len(colors) == n:
            return colors
        v = len(colors) + 1
        for c in palette:
            if v == 1 and fix_first >= 0 and c != fix_first:
                continue
            if (canonical_mask and c and not any(colors)
                    and not (canonical_mask >> c) & 1):
                continue
            if (v, -c % r) in reach[k - 1]:
                continue
            grown = [reach[0]]
            for j in range(1, k):  # in increasing j: v may repeat
                grown.append(reach[j] | {(s + v, (cs + c) % r)
                                         for s, cs in grown[j - 1]
                                         if s + v <= n})
            found = first_free(colors + [c], grown)
            if found is not None:
                return found
        return None

    return first_free([], [{(0, 0)}] + [set() for _ in range(k - 1)])


def test_search_matches_naive_lex_least_search():
    # seeded random searches, k in 3..8, r in 2..5, both palettes, with
    # and without the symmetry filters, n from k-2 up to min(kr, 24):
    # probing removes only colors no free coloring takes, so status and
    # lex-least coloring equal those of the naive search
    rng = random.Random(12)
    probed = 0
    for _ in range(200):
        k = rng.randint(3, 8)
        r = rng.randint(2, 5)
        palette = rng.choice((Palette.FULL, Palette.BINARY))
        residues, mask = _symmetry_filters(ProblemSpec(k, r, palette))
        if rng.random() < 0.25:
            mask = 0
        n = rng.randint(k - 2, min(k * r, 24))
        got = _kernel_py.search_free_coloring(n, k, r, residues, mask, None,
                                              None)
        want = naive_lex_least_search(n, k, r, residues,
                                      0 if mask else -1, mask)
        status = _kernel_py.EXHAUSTED if want is None else _kernel_py.FOUND
        assert got[:2] == (status, want), (n, k, r, residues, mask)
        probed += got[5] > 0
    assert probed >= 10  # enough of the searches probe


def test_search_budget_agreement():
    args = (15, 6, 3, (0, 1, 2), 0b10)
    unbudgeted = _kernel_py.search_free_coloring(*args, None, None)
    assert unbudgeted[5] > 0  # the search probes
    for budget in (0, 1, 7, 20, 50, 1000):
        got = _kernel_py.search_free_coloring(*args, budget, None)
        assert got[2] + got[5] <= budget  # nodes and probes share it
        if got[0] != _kernel_py.BUDGET:
            assert got[:2] == unbudgeted[:2], budget


#: k in 3..8 and r in 2..5 with r | k (else the scan never ends), and
#: both palettes.
SCAN_CASES = [(k, r, palette) for k in range(3, 9) for r in range(2, 6)
              if k % r == 0 for palette in (Palette.FULL, Palette.BINARY)]


@pytest.mark.parametrize("k,r,palette", SCAN_CASES,
                         ids=lambda case: str(getattr(case, "value", case)))
def test_resumed_search_matches_scratch(k, r, palette):
    # one search over the levels n0..n1 (a window of 1, 2, 4 or 8 levels,
    # or up to 2 * n0 as the solver's scan has it), which starts from the
    # empty coloring and resumes each level above n0 from the lex-least
    # coloring of the level below, against the search from scratch at
    # each level: FOUND with the coloring of n1, or EXHAUSTED at the
    # first exhausted level with the coloring of the level below (None
    # when that is below n0).  A one-level window is the search of its
    # level.  A budget is spent exactly: one that covers the window's
    # steps gives its result, and a smaller one stops after exactly that
    # many steps with the lex-least coloring of a level of the window,
    # or None
    residues, mask = _symmetry_filters(ProblemSpec(k, r, palette))
    args = (k, r, residues, mask)
    scratch = [_kernel_py.search_free_coloring(0, *args, None, None)]
    while scratch[-1][0] == _kernel_py.FOUND:
        scratch.append(_kernel_py.search_free_coloring(len(scratch), *args,
                                                       None, None))
    exhausted = len(scratch) - 1
    for n0 in range(1, exhausted + 1):
        for n1 in sorted({n0, n0 + 1, n0 + 3, n0 + 7, 2 * n0}):
            if n1 < exhausted:
                want = (_kernel_py.FOUND, scratch[n1][1])
            else:
                want = (_kernel_py.EXHAUSTED, scratch[exhausted - 1][1]
                        if exhausted > n0 else None)
            got = _kernel_py.search_free_coloring(n0, *args, None, None, n1)
            assert got[:2] == want, (n0, n1)
            if n1 == n0:
                assert got == scratch[n0], n0
            steps = got[2] + got[5]
            for budget in (0, 1, 7, 50, steps - 1, steps):
                cut = _kernel_py.search_free_coloring(n0, *args, budget,
                                                      None, n1)
                if budget >= steps:
                    assert cut == got, (n0, n1, budget)
                    continue
                assert cut[0] == _kernel_py.BUDGET, (n0, n1, budget)
                assert cut[2] + cut[5] == budget, (n0, n1, budget)
                if cut[1] is not None:
                    assert n0 <= len(cut[1]) < n1, (n0, n1, budget)
                    assert cut[1] == scratch[len(cut[1])][1]


def test_search_expired_deadline():
    status, coloring, nodes, _, _, probes = _kernel_py.search_free_coloring(
        15, 6, 3, (0, 1, 2), 0b10, None, monotonic() - 10.0)
    assert status == _kernel_py.BUDGET
    assert coloring is None
    assert nodes == probes == 0  # the deadline is tested before every node


def test_deadline_is_tested_before_every_node_and_probe(monkeypatch):
    # a clock that ticks once per reading: a deadline of m - 0.5 lets
    # exactly m readings pass, one before each node and each probe, and
    # one before each forced value that close adds.  The clock counts the
    # readings made in close apart from the others
    for m in (1, 10, 100, 1000):
        ticks = count()
        propagation = 0

        def clock():
            nonlocal propagation
            tick = next(ticks)
            if tick < m and sys._getframe(1).f_code.co_name == "close":
                propagation += 1
            return tick

        monkeypatch.setattr(_kernel_py, "monotonic", clock)
        status, _, nodes, _, _, probes = _kernel_py.search_free_coloring(
            68, 12, 6, tuple(range(6)), 0b1110, None, m - 0.5)
        assert status == _kernel_py.BUDGET
        assert nodes + probes + propagation == m, m
    assert probes > 0 and propagation > 0


@pytest.mark.parametrize("n, k, r, palette", (
    (68, 12, 6, Palette.FULL), (41, 12, 4, Palette.BINARY),
    (89, 10, 10, Palette.BINARY)))
def test_add_value_steps_between_two_clock_readings(monkeypatch, n, k, r,
                                                    palette):
    # the deadline bounds propagation too: between two readings of the
    # clock the search makes at most one add_value step, the node's or
    # the probe's own value, or one forced value of a closure.  The
    # two-color searches never probe, so only propagation reads the
    # clock between their nodes
    steps = most = readings = 0
    add_value = _kernel_py.add_value

    def clock():
        nonlocal steps, readings
        steps = 0
        readings += 1
        return 0.0

    def counted(*args):
        nonlocal steps, most
        steps += 1
        most = max(most, steps)
        add_value(*args)

    residues, mask = _symmetry_filters(ProblemSpec(k, r, palette))
    monkeypatch.setattr(_kernel_py, "monotonic", clock)
    monkeypatch.setattr(_kernel_py, "add_value", counted)
    status, _, nodes, _, _, probes = _kernel_py.search_free_coloring(
        n, k, r, residues, mask, None, 1.0)
    assert status == _kernel_py.EXHAUSTED
    assert most == 1
    assert readings > nodes + probes  # propagation read the clock too


def test_probe_forced_target_takes_its_forced_color():
    # the lex-least certificate of S_z(12,4) at n=42; a search that lets
    # a target forced by probing take another color it has left returns
    # a lex-less coloring that is not free
    outcome = find_free_coloring(42, ProblemSpec(12, 4))
    assert outcome.found
    assert ("".join(map(str, outcome.coloring.values))
            == "012301230120022002200220022002203210321032")
    assert outcome.stats.probes > 0


def test_least_target_expired_deadline():
    ones = (1,) * 200  # free for k=10, r=3: the table takes every value
    free = (0, None, None)
    assert _kernel_py.least_target(ones, 0, 200, 10, 3, None) == free
    assert _kernel_py.least_target(ones, 0, 200, 10, 3,
                                   monotonic() - 10.0) is None
    assert _kernel_py.least_target(ones, 0, 200, 10, 3,
                                   monotonic() + 60.0) == free
    # with no target in range no table is built, and the deadline is
    # never read
    assert _kernel_py.least_target(ones, 200, 200, 10, 3,
                                   monotonic() - 10.0) == free


def extend_all(colors, n, k, r, palette, cap=None):
    """The search's ``(rows, forced)`` at level n after coloring 1, 2, ...
    with colors, one :func:`extend_state` step each from the empty table
    of sum cap ``cap`` (n by default) with nothing removed; None once a
    step wipes out."""
    geo = _kernel_py.Geometry(r, n if cap is None else cap)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    state = (_kernel_py.new_table(k), 0)
    for pos, c in enumerate(colors, 1):
        state = _kernel_py.extend_state(*state, pos, n, c, palette, offsets,
                                        geo)
        if state is None:
            return None
    return state


def naive_last_row(items, k, r, n):
    """The (sum, color-sum mod r) pairs of k-1 of the (value, color)
    items, repetition allowed, with sums at most n."""
    reach = {(0, 0)}
    for _ in range(k - 1):
        reach = {(s + v, (c + cv) % r)
                 for s, c in reach for v, cv in items if s + v <= n}
    return reach


@pytest.mark.parametrize("k, r, n", ((4, 4, 17), (4, 2, 11), (6, 3, 16),
                                     (5, 5, 24), (8, 4, 28), (9, 3, 30)))
def test_search_tables_match_their_values(k, r, n):
    # the search's states depth first, each position taking every color
    # its target bit does not forbid.  The last row must hold exactly the
    # sums of k-1 of the table's values: 1..pos as colored, and every
    # forced target with the one palette color the row leaves it
    palette = tuple(range(r))
    geo = _kernel_py.Geometry(r, n)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    checked = 0

    def allowed(rows, t):
        return [c for c, off in zip(palette, offsets)
                if not (rows[-1] >> (off + t)) & 1]

    def visit(rows, forced, items):
        nonlocal checked
        pos = len(items)
        targets = [(t, allowed(rows, t)) for t in range(pos + 1, n + 1)
                   if (forced >> t) & 1]
        assert all(len(left) == 1 for _, left in targets)
        want = naive_last_row(items + [(t, left[0]) for t, left in targets],
                              k, r, n)
        got = {(s, c) for s in range(n + 1) for c in range(r)
               if _kernel_py.cell(rows, k - 1, s, c, geo)}
        assert got == want, (items, targets)
        checked += 1
        if pos == n:
            return
        for c in allowed(rows, pos + 1):
            if checked >= 600:
                return
            state = _kernel_py.extend_state(rows, forced, pos + 1, n, c,
                                            palette, offsets, geo)
            if state is not None:
                visit(*state, items + [(pos + 1, c)])

    visit(_kernel_py.new_table(k), 0, [])


def test_extend_state_wipes_out_prefix():
    # (0, 0, 1) is free (no target up to 3 has k-1 = 5 parts), but some
    # target up to 15 has all three colors forbidden by it, so the step
    # that colors 3 prunes the child
    assert extend_all((0, 0), 15, 6, 3, (0, 1, 2)) is not None
    assert extend_all((0, 0, 1), 15, 6, 3, (0, 1, 2)) is None


def test_extend_state_propagation_refutes_prefix():
    # (0, 0) forbids color 0 at 3 and 4, so both are forced to 1; then
    # 1+1+3 forbids 1 and 1+2+2 forbids 0 at 5.  Only propagating the
    # forced targets sees that, and the step that colors 2 does it
    assert extend_all((0,), 5, 4, 2, (0, 1)) is not None
    assert extend_all((0, 0), 5, 4, 2, (0, 1)) is None
    # indeed no coloring of [1..5] starting 0, 0 is free
    assert all(naive_first_target((0, 0, a, b, c), 5, 4, 2)
               for a in (0, 1) for b in (0, 1) for c in (0, 1))


def test_extend_state_copies_and_closes_at_a_forced_position():
    # k=4, r=2: 1 and 2 colored 0 forbid color 0 at 3 = 1+1+1, so the
    # table of [1..2] at level 3 (sum cap 4) forces 3 to color 1.  The
    # step that colors 3 still returns a new table, the input closed
    # over (3, n], and leaves the input as it is; one level up it closes
    # the new target 4, where 1+1+2 forbids color 0
    palette = (0, 1)
    geo = _kernel_py.Geometry(2, 4)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    rows, forced = extend_all((0, 0), 3, 4, 2, palette, cap=4)
    assert forced == 1 << 3
    before = rows[:]
    for n in (3, 4):
        child, child_forced = _kernel_py.extend_state(
            rows, forced, 3, n, 1, palette, offsets, geo)
        assert child is not rows and rows == before, n
        want = rows[:]
        assert _kernel_py.close(want, forced, 3, n, palette, offsets,
                                geo) == child_forced, n
        assert child == want, n
    assert child_forced == forced | 1 << 4


def test_adding_a_held_value_again_changes_no_row():
    # extend_state adds a forced position again like any other; the
    # table already holds it, so no row may change.  Every value a table
    # holds at or above its last low is added again with its color and
    # every low from there up to the value: in the search's tables, whose
    # last low is pos, or pos + 1 once the step forces a target.  The
    # checker's exact tables take no low: each value is added again once
    def unchanged(rows, held, low0, geo):
        for v, cv in held:
            for low in range(low0, v + 1):
                again = rows[:]
                _kernel_py.add_value(again, v, cv, geo, low)
                assert again == rows, (v, cv, low)
        return len(held)

    readded = forced_readded = 0
    for k, r, n, cap in ((4, 4, 17, 17), (6, 3, 16, 19), (5, 5, 24, 24),
                         (8, 4, 28, 31), (4, 2, 11, 11)):
        palette = tuple(range(r))
        geo = _kernel_py.Geometry(r, cap)
        offsets = _kernel_py.forbid_offsets(palette, geo)
        colors_seen = set()
        states = [(_kernel_py.new_table(k), 0, 0)]
        for _ in range(300):
            if not states:
                break
            rows, forced, pos = states.pop()
            if pos == n:
                continue
            for c, off in zip(palette, offsets):
                if (rows[-1] >> (off + pos + 1)) & 1:
                    continue
                state = _kernel_py.extend_state(rows, forced, pos + 1, n, c,
                                                palette, offsets, geo)
                if state is None:
                    continue
                child, child_forced = state
                held = [(t, next(d for d, o in zip(palette, offsets)
                                 if not (child[-1] >> (o + t)) & 1))
                        for t in range(pos + 2, n + 1)
                        if (child_forced >> t) & 1]
                if child_forced == forced:
                    held.append((pos + 1, c))
                    low0 = pos + 1
                else:
                    low0 = pos + 2
                readded += unchanged(child, held, low0, geo)
                forced_readded += len(held) - (child_forced == forced)
                colors_seen.update(cv for _, cv in held)
                states.append((child, child_forced, pos + 1))
        assert colors_seen == set(palette), (k, r)

    rng = random.Random(21)
    for _ in range(60):
        k, r = rng.randint(3, 8), rng.randint(2, 6)
        n = rng.randint(k, 40)
        geo = _kernel_py.CheckerGeometry(r, n, k)
        values = [rng.randrange(r) for _ in range(n)]
        v_max = rng.randint(1, n)
        rows = _kernel_py.exact_table(values, k, v_max, geo)
        for v in range(1, v_max + 1):
            again = rows[:]
            _kernel_py.checker_add(again, v, values[v - 1], geo)
            assert again == rows, (values, k, v)
        readded += v_max
    assert readded > 1000 and forced_readded > 100, (readded, forced_readded)


def test_probing_refutes_prefix():
    # S_z(4,4) = 13, so [1..12] has free colorings, but none starts
    # 0, 0, 2.  Singleton propagation does not see it; probing does, and
    # removes only colors that no free completion takes
    n, k, r, palette = 12, 4, 4, (0, 1, 2, 3)
    assert brute_force_search(n, k, r, palette, -1, 0)[0] == _kernel_py.FOUND
    assert brute_force_search(n, k, r, palette, -1, 0,
                              (0, 0, 2))[0] == _kernel_py.EXHAUSTED
    rows, forced = extend_all((0, 0, 2), n, k, r, palette)
    geo = _kernel_py.Geometry(r, n)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    assert _kernel_py.close(rows[:], forced, 3, n, palette, offsets,
                            geo) == forced  # nothing new to force
    probes = []
    assert _kernel_py.close(rows, forced, 3, n, palette, offsets, geo,
                            lambda: probes.append(1)) is None
    assert len(probes) == 2


def test_probe_removals_are_sound():
    # each color the closure with probes takes from a target of a free
    # prefix, by propagation or by a probe's removal, is taken there by
    # no free completion of the prefix
    n, k, r = 12, 4, 4
    palette = (0, 1, 2, 3)
    geo = _kernel_py.Geometry(r, n)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    removals = 0
    for prefix in product(palette, repeat=3):
        state = extend_all(prefix, n, k, r, palette)
        if state is None:
            continue
        rows, forced = state
        before = {t: colors_left(rows, t, palette, geo)
                  for t in range(4, n + 1)}
        if _kernel_py.close(rows, forced, 3, n, palette, offsets, geo,
                            lambda: None) is None:
            continue
        taken = {(t, c) for found in free_completions(prefix, n, k, r,
                                                      palette)
                 for t, c in enumerate(found, 1)}
        for t, left in before.items():
            for c in set(left) - set(colors_left(rows, t, palette, geo)):
                removals += 1
                assert (t, c) not in taken, (prefix, t, c)
    assert removals > 0


def test_child_probe_removals_are_sound():
    # each color the step with probes takes from a target of a free
    # prefix, by propagation or by a probe's removal, is taken there by
    # no free completion of the prefix, and a step it wipes out has none.
    # The step without probes is the copy, add and close of propagation
    n, k, r = 12, 4, 4
    palette = (0, 1, 2, 3)
    geo = _kernel_py.Geometry(r, n)
    offsets = _kernel_py.forbid_offsets(palette, geo)
    removals = wiped = 0
    prefixes = (p for m in (3, 4, 5) for p in product(palette, repeat=m))
    for prefix in prefixes:
        state = extend_all(prefix[:-1], n, k, r, palette)
        if state is None:
            continue
        rows, forced = state
        pos, c = len(prefix), prefix[-1]
        if c not in colors_left(rows, pos, palette, geo):
            continue
        plain = _kernel_py.extend_state(rows, forced, pos, n, c, palette,
                                        offsets, geo)
        want = rows[:]
        _kernel_py.add_value(want, pos, c, geo, pos)
        closed = _kernel_py.close(want, forced, pos, n, palette, offsets,
                                  geo)
        assert plain == (None if closed is None else (want, closed)), prefix
        if plain is None:
            continue
        probed = _kernel_py.extend_state(rows, forced, pos, n, c, palette,
                                         offsets, geo, lambda: None)
        free = free_completions(prefix, n, k, r, palette)
        if probed is None:
            assert not free, prefix
            wiped += 1
            continue
        taken = {(t, d) for found in free for t, d in enumerate(found, 1)}
        for t in range(pos + 1, n + 1):
            gone = (set(colors_left(plain[0], t, palette, geo))
                    - set(colors_left(probed[0], t, palette, geo)))
            for d in gone:
                removals += 1
                assert (t, d) not in taken, (prefix, t, d)
    assert removals > 0 and wiped > 0, (removals, wiped)


def free_completions(prefix, n, k, r, palette):
    """Every free coloring of [1..n] that starts with prefix."""
    def extend(colors):
        if naive_first_target(colors, len(colors), k, r):
            return
        if len(colors) == n:
            yield tuple(colors)
            return
        for c in palette:
            yield from extend(colors + [c])

    return list(extend(list(prefix)))


def colors_left(rows, t, palette, geo):
    """The palette colors that the last row leaves target t: those whose
    cell (t, -c mod r) is clear, as a removal sets it."""
    r = geo.r
    return [c for c in palette
            if not _kernel_py.cell(rows, len(rows) - 1, t, (r - c) % r, geo)]


def remove(rows, t, c, geo):
    """Remove color c at target t: set the cell that forbids it in the
    last row."""
    rows[-1] |= 1 << ((geo.r - c) % geo.r * geo.width + t)


def sweep_order(targets, left, after):
    """The probe order of :func:`_kernel_py.close`: the targets above
    ``after``, the last target whose probes removed a color (0 before
    any), then the rest; in each part those with two colors left first,
    each ascending.  ``left`` maps a target to its colors left."""
    return sorted(targets, key=lambda t: (t <= after, len(left[t]) != 2, t))


def ascending_order(targets, left, after):
    """The order of a closure that restarts from its lowest target after
    every removal."""
    return sorted(targets)


def reference_close(rows, forced, pos, n, palette, offsets, geo, charge,
                    seen, top=None, order=sweep_order):
    """:func:`_kernel_py.close` with probes, every probe on a copy.

    Propagation is the kernel's closure without probes.  Each round
    probes its targets in ``order``, and a target whose probes remove a
    color ends the round.  Each probe adds its target to a copy of the
    table, removes the target's other colors in the copy's last row and
    closes the copy; a probe that wipes out removes its color in the
    last row of ``rows``.  The targets probed are those up to ``top``, by
    default n - k + 2, the last that a sum up to n can use.  ``seen``
    collects ``(twice, fallback)`` per probe: twice when two copies of
    the target fit a sum up to n, fallback when the copy's last row
    leaves every target a color and forces some target besides the
    probed one."""
    if top is None:
        top = n - len(rows) + 2
    after = 0
    while True:
        forced = _kernel_py.close(rows, forced, pos, n, palette, offsets,
                                  geo)
        if forced is None:
            return None
        left = {t: colors_left(rows, t, palette, geo)
                for t in range(pos + 1, min(n, top) + 1)}
        targets = [t for t, colors in left.items() if not (forced >> t) & 1
                   and 2 <= len(colors) < len(palette)]
        failed = False
        for t in order(targets, left, after):
            for c in left[t]:
                charge()
                copy = rows[:]
                _kernel_py.add_value(copy, t, c, geo, pos + 1)
                for other in palette:
                    if other != c:
                        remove(copy, t, other, geo)
                counts = [len(colors_left(copy, u, palette, geo))
                          for u in range(pos + 1, n + 1)
                          if u != t and not (forced >> u) & 1]
                seen.append((2 * t <= n,
                             0 not in counts and 1 in counts))
                if _kernel_py.close(copy, forced | 1 << t, pos, n, palette,
                                    offsets, geo) is None:
                    remove(rows, t, c, geo)
                    failed = True
            if failed:
                after = t
                break
        if not failed:
            return forced


def probe_frames():
    """Frames from seeded random prefixes at level n, with some colors
    removed at the next position as a backtrack removes them: yields
    ``(rows, forced, m, n, palette, offsets, geo)`` with m the prefix's
    length.  Half the tables are wider than the level, as in a window of
    levels."""
    rng = random.Random(14)
    caps = random.Random(15)
    for _ in range(150):
        k = rng.randint(3, 8)
        r = rng.randint(3, 6)
        n = rng.randint(k + 2, min(k * r, 40))
        palette = tuple(range(r))
        m = rng.randint(1, n // 2)
        cap = n if caps.random() < 0.5 else caps.randint(n + 1, 2 * n)
        state = extend_all([rng.randrange(r) for _ in range(m)], n, k, r,
                           palette, cap)
        if state is None:
            continue
        rows, forced = state
        geo = _kernel_py.Geometry(r, cap)
        offsets = _kernel_py.forbid_offsets(palette, geo)
        for c in rng.sample(palette, rng.randint(0, r - 1)):
            remove(rows, m + 1, c, geo)
        yield rows, forced, m, n, palette, offsets, geo


def closed_with_probes(close, rows, forced, m, n, palette, offsets, geo,
                       *extra):
    """``(forced, rows, colors left per target, probes)`` after closing a
    copy of the frame's table with probes by ``close``."""
    rows, probes = rows[:], []
    got = close(rows, forced, m, n, palette, offsets, geo,
                lambda: probes.append(1), *extra)
    left = None if got is None else [colors_left(rows, t, palette, geo)
                                     for t in range(m + 1, n + 1)]
    return got, rows, left, len(probes)


def test_last_row_probe_matches_probe_on_a_copy():
    # the closure with probes must end with the forced mask, the table,
    # the colors left at every target and the probe count of the
    # reference that closes a copy for every probe
    seen = []
    cases = wide = 0
    for frame in probe_frames():
        got = closed_with_probes(_kernel_py.close, *frame)
        want = closed_with_probes(reference_close, *frame, seen)
        rows, _, m, n, _, _, geo = frame
        assert got == want, (len(rows), geo.r, n, m, geo.sum_cap)
        cases += 1
        wide += geo.sum_cap > n
    assert cases >= 50 and wide >= 20
    assert any(twice for twice, _ in seen)
    assert any(fallback for _, fallback in seen)


def test_probe_order_changes_only_the_probe_count():
    # removals only grow, and a probe that wipes out still does after
    # more removals, so a closure ends in one state whatever order it
    # probes in: the kernel's sweep and a closure that restarts from the
    # lowest target after every removal agree on the wipe-out, and
    # without one on the forced mask, the table and the colors left
    wiped = differ = 0
    for frame in probe_frames():
        *got, got_probes = closed_with_probes(_kernel_py.close, *frame)
        *want, want_probes = closed_with_probes(reference_close, *frame, [],
                                                None, ascending_order)
        if got[0] is None:  # each order stops at its first wipe-out
            assert want[0] is None, frame[2:4]
            wiped += 1
        else:
            assert got == want, frame[2:4]
        differ += got_probes != want_probes
    assert wiped >= 10 and differ >= 5, (wiped, differ)


def test_probes_above_the_last_summand_change_nothing():
    # no sum up to n uses a target above n - k + 2, so the closure that
    # probes only the targets up to there must end as the reference that
    # probes every target: the same forced mask, table and colors left,
    # with no more probes, and fewer on some frames
    fewer = 0
    for frame in probe_frames():
        *got, got_probes = closed_with_probes(_kernel_py.close, *frame)
        n = frame[3]
        *want, want_probes = closed_with_probes(reference_close, *frame, [],
                                                n)
        assert got == want, frame[2:4]
        assert got_probes <= want_probes, frame[2:4]
        fewer += got_probes < want_probes
    assert fewer >= 20


def test_probe_removals_stay_in_the_last_row():
    # frames from seeded random prefixes, some colors removed at the next
    # position as a backtrack removes them, closed with probes.  Below
    # the last row the table must be the frame's table with only the
    # newly forced targets added, each with the one color it has left, so
    # a removal in a row that feeds another row fails here.  The last row
    # is the last row of that table plus the colors removed by probes:
    # bits in the palette's blocks at the targets of the level
    rng = random.Random(17)
    frames = removals = 0
    for _ in range(300):
        k = rng.randint(3, 8)
        r = rng.randint(3, 6)
        n = rng.randint(k + 2, min(k * r, 40))
        palette = tuple(range(r))
        m = rng.randint(1, n // 2)
        state = extend_all([rng.randrange(r) for _ in range(m)], n, k, r,
                           palette)
        if state is None:
            continue
        rows, forced = state
        geo = _kernel_py.Geometry(r, n)
        offsets = _kernel_py.forbid_offsets(palette, geo)
        for c in rng.sample(palette, rng.randint(0, r - 1)):
            remove(rows, m + 1, c, geo)
        closed = rows[:]
        got = _kernel_py.close(closed, forced, m, n, palette, offsets, geo,
                               lambda: None)
        if got is None:
            continue
        want = rows[:]
        for t in range(m + 1, n + 1):
            if (got & ~forced) >> t & 1:
                left = colors_left(closed, t, palette, geo)
                assert len(left) == 1, (k, r, n, m, t)
                _kernel_py.add_value(want, t, left[0], geo, m + 1)
        assert closed[:-1] == want[:-1], (k, r, n, m)
        extra = closed[-1] & ~want[-1]
        assert closed[-1] == want[-1] | extra, (k, r, n, m)
        targets = (1 << (n + 1)) - (1 << (m + 1))
        blocks = 0
        for c in palette:
            blocks |= targets << ((r - c) % r * geo.width)
        assert not extra & ~blocks, (k, r, n, m)
        frames += 1
        removals += bin(extra).count("1")
    assert frames >= 100 and removals >= 50

@pytest.mark.parametrize("r", (2, 3, 5))
@pytest.mark.parametrize("sum_cap", (1, 2, 63, 64, 65, 130))
def test_add_value_matches_definition(r, sum_cap):
    # from the empty table, j copies of v reach sum j*v with color-sum
    # j*c, and nothing else: row j is that one bit, or 0 past sum_cap
    geo = _kernel_py.Geometry(r, sum_cap)
    for v in range(1, sum_cap + 1):
        for c in range(r):
            rows = _kernel_py.new_table(6)
            _kernel_py.add_value(rows, v, c, geo, 1)
            expected = [1 << ((j * c) % r * geo.width + j * v)
                        if j * v <= sum_cap else 0 for j in range(6)]
            assert rows == expected, (v, c)


def reference_step(rows, v, cv, geo):
    """add_value with low = 1, block by block: in each row j >= 1, every
    sum s <= sum_cap - v of block c of row j-1 (the row as this step left
    it) sets sum s + v of block (c + cv) % r."""
    w, r = geo.width, geo.r
    keep = (1 << (w - v)) - 1
    out = rows[:]
    for j in range(1, len(out)):
        for c in range(r):
            block = (out[j - 1] >> (c * w)) & keep
            out[j] |= block << ((c + cv) % r * w + v)
    return out


def test_add_value_matches_reference_step_wide_rows():
    # r = 20 blocks of 1,031 sums: rows of about 20,600 bits, every cv,
    # random rows, values at both ends of the range
    rng = random.Random(20)
    geo = _kernel_py.Geometry(20, 1030)
    for cv in range(20):
        for v in (1, 2, 64, rng.randint(3, 1029), 1029, 1030):
            rows = [rng.getrandbits(geo.size) for _ in range(4)]
            want = reference_step(rows, v, cv, geo)
            _kernel_py.add_value(rows, v, cv, geo, 1)
            assert rows == want, (cv, v)


def checker_pairs(row, geo):
    """The (sum, color-sum) pairs of a checker-table row, by the layout's
    definition: bit (sum_cap - s)*r + c holds pair (s, c)."""
    r, cap = geo.r, geo.sum_cap
    bits = bin(row)[:1:-1]  # bit i at index i
    pairs = set()
    i = bits.find("1")
    while i >= 0:
        pairs.add((cap - i // r, i % r))
        i = bits.find("1", i + 1)
    return pairs


def reference_sets_step(sets, v, cv, r, cap):
    """checker_add on a set per row: in increasing j, every
    pair (s, c) of row j-1 (as this step left it) with s + v <= cap gives
    (s + v, (c + cv) % r) in row j."""
    for j in range(1, len(sets)):
        sets[j] |= {(s + v, (c + cv) % r) for s, c in sets[j - 1]
                    if s + v <= cap}


@pytest.mark.parametrize("r", (5, 20))
def test_checker_add_matches_set_reference(r):
    # sum cap 1030: rows of about r*1,031 bits.  Every color once, so
    # both the stay and the wrap shift run, and a run of color 0, which
    # wraps nothing; sums past the cap fall off the low end
    rng = random.Random(r)
    cap, k = 1030, 5
    geo = _kernel_py.CheckerGeometry(r, cap, k)
    empty = _kernel_py.checker_table(k, geo)

    def sparse_row():  # about one bit in eight
        return (rng.getrandbits(geo.size) & rng.getrandbits(geo.size)
                & rng.getrandbits(geo.size))

    # one step on random rows above the empty table's row 0
    for cv in range(r):
        for v in (1, rng.randint(2, cap - 1), cap):
            rows = empty[:1] + [sparse_row() for _ in range(k - 1)]
            sets = [checker_pairs(row, geo) for row in rows]
            reference_sets_step(sets, v, cv, r, cap)
            _kernel_py.checker_add(rows, v, cv, geo)
            assert [checker_pairs(row, geo) for row in rows] == sets, (cv, v)

    # a whole build from the empty table, in the descending order of
    # exact_table: every row is exact after every value
    perm = rng.sample(range(r), r)
    colors = perm[:r // 2] + [0] * 5 + perm[r // 2:]
    values = sorted({1, 2, 3, cap}
                    | set(rng.sample(range(4, cap), len(colors) - 4)))
    rows = empty[:]
    sets = [{(0, 0)}] + [set() for _ in range(k - 1)]
    for v, cv in reversed(list(zip(values, colors))):
        _kernel_py.checker_add(rows, v, cv, geo)
        reference_sets_step(sets, v, cv, r, cap)
        assert [checker_pairs(row, geo) for row in rows] == sets, (v, cv)
    assert sets[-1]  # the last row is not trivially empty


def test_short_search_stays_small():
    # the search's memory follows the frames it pushes, not the whole
    # layout or n: ten nodes need little at n=3000 with 30 colors, and
    # at n=200000
    for n, k, r in ((3000, 60, 30), (200000, 30, 3)):
        tracemalloc.start()
        try:
            outcome = find_free_coloring(n, ProblemSpec(k, r),
                                         SearchConfig(max_nodes=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.stats.nodes <= 10
        assert peak < 4 * 2**20, (n, peak)


def prefix_table(values, k, geo):
    """Checker table holding values 1..m, value v with color values[v - 1].

    The order in which values join a table does not change it, so this
    is the exact table of [1..m]."""
    return _kernel_py.exact_table(values, k, len(values), geo)


class TestPrefixTable:
    """``checker_cell(prefix_table(values, k, geo), j, s, c, geo)``: can j
    of the values, repetition allowed, sum to s with color-sum c mod r?"""

    def test_row_zero_and_one_invariants(self):
        values = (1, 0, 2, 2, 1, 0)
        geo = _kernel_py.CheckerGeometry(3, len(values), 4)
        rows = prefix_table(values[:5], 4, geo)
        assert _kernel_py.checker_cell(rows, 0, 0, 0, geo)
        for s in range(geo.sum_cap + 1):
            for c in range(3):
                if (s, c) != (0, 0):
                    assert not _kernel_py.checker_cell(rows, 0, s, c, geo)
                expected = 1 <= s <= 5 and values[s - 1] == c
                assert _kernel_py.checker_cell(rows, 1, s, c, geo) == expected

    def test_monotone_in_value_cap(self):
        values = (1, 0, 2, 2, 1, 0, 1)
        geo = _kernel_py.CheckerGeometry(3, len(values), 4)
        previous = None
        for v_max in range(len(values) + 1):
            rows = prefix_table(values[:v_max], 4, geo)
            if previous is not None:
                for j in range(4):
                    for s in range(geo.sum_cap + 1):
                        for c in range(3):
                            if _kernel_py.checker_cell(previous, j, s, c, geo):
                                assert _kernel_py.checker_cell(rows, j, s, c,
                                                               geo)
            previous = rows

    def test_cells_count_multiplicity(self):
        # two copies of value 1 reach sum 2 with doubled color
        geo = _kernel_py.CheckerGeometry(3, 2, 3)
        rows = prefix_table((1,), 3, geo)
        assert _kernel_py.checker_cell(rows, 2, 2, 2, geo)
        assert not _kernel_py.checker_cell(rows, 2, 2, 0, geo)
