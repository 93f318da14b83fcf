"""Deciding whether a coloring admits a zero-sum solution.

:func:`find_zero_sum_solution` is the production path, and
:func:`is_solution_free` makes the same decision without the witness.
The decision, :func:`_zero_sum_table`, reads the least target off the
last row of at most two exact tables of sums and color residues, each
built in one backward pass (:func:`zschur._kernel_py.least_target`);
its docstring states the rule that picks their sum caps.  The
lexicographic witness is read by a greedy off the table that found the
target; no table is built for it.  The returned witness is the least
one by (target, sorted parts).

The checker's tables have their own layout, apart from the search's
(see the :mod:`zschur._kernel_py` docstring): each sum has a group of r
bits, one per color, and the high sums sit in the low bits.  The exact
table takes its values in descending order, so its rows hold only the
high sums, the low bits, and grow shorter as the build goes on.  A
check holds the k rows of its one table and the stay masks of at most
k colors, each a row wide (:class:`zschur._kernel_py.CheckerGeometry`).

:func:`brute_force_oracle` answers the same question by enumerating every
nondecreasing (k-1)-tuple directly.  It shares no code with the table
pass and exists so the two can be tested against each other; keep it
dumb.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import _kernel_py
from .core import (
    Coloring,
    ProblemSpec,
    Witness,
    require_same_modulus,
    validate_witness,
)


def _residues(chi: Coloring, k: int, r: int) -> int:
    """The number of residues the tables need: r, or fewer for small colors.

    A solution's k colors are each at most c_max, the largest color chi
    uses, so their sum lies in [0, k*c_max].  When k*c_max < r that sum
    is 0 mod r exactly when it is 0, which is exactly when it is 0 mod
    k*c_max + 1.  Tables over min(r, k*c_max + 1) residues therefore have
    the same solutions, and the same least witness, as tables over r,
    with rows that do not grow with a huge r the colors never use.
    """
    return min(r, k * max(chi.values, default=0) + 1)


def _zero_sum_table(chi: Coloring, spec: ProblemSpec):
    """The one decision of both checks: ``(T, rows, geo)`` for the least
    target T in [k-1, n] completing a zero-sum solution, or
    ``(0, None, None)`` when there is none, from at most two
    :func:`_kernel_py.least_target` tables over :func:`_residues` colors:

    1. one at sum cap early = min(n, k+15), deciding the targets up to
       early;
    2. when that misses and n > early, one at sum cap n, deciding every
       target up to n.  It reads again the at most 17 targets the first
       table cleared, at a byte lookup each; both tables are exact, so
       they agree there.

    The cap k+15 is a fixed rule.  Without structure in the coloring, the
    multisets of k-1 parts summing to a little above k-1 already give
    every color sum, so the least target lies just above k-1 (105 for a
    seeded random coloring with n = 2000, k = 100, r = 20), and the first
    table settles it with 17 values in rows of r(k+16) bits, not r(n+1).
    The colorings that certify the bounds have n near kr and no target,
    and for them that table is a small waste.  A coloring whose least
    target lies in (k+15, n] pays for the table at n, as a free coloring
    of its length does.  ``rows`` is the table that found the target.
    """
    require_same_modulus(chi, spec)
    n, k = chi.n, spec.k
    r = _residues(chi, k, spec.r)
    early = min(n, k + 15)
    found = _kernel_py.least_target(chi.values, early, k, r)
    if found[0] or early == n:
        return found
    return _kernel_py.least_target(chi.values, n, k, r)


def _lex_least_parts(chi: Coloring, k: int, target: int, rows: list[int],
                     geo: _kernel_py.CheckerGeometry) -> tuple[int, ...]:
    """Lexicographically least nondecreasing parts realizing the target.

    Greedy smallest-first choice, with feasibility of each remainder read
    off the table that decided the target (:func:`_zero_sum_table`):
    every row exact, of the values 1..V for some V >= v_max =
    target-k+2, at a sum cap of at least target.  A value above v_max
    fits in no sum of k-1 parts up to target, so the table answers as
    that of 1..v_max would.  After the lex-least prefix p_1..p_{t-1},
    the first v >= p_{t-1} whose remainder some completion M reaches is
    p_t, and M holds no value u < v: were u < p_{t-1}, the sorted
    solution would be lex-less than one extending the prefix, which is
    the least solution's; were u in [p_{t-1}, v), the least of M and v
    would have passed first.  So the table of all values answers as a
    table of [v..v_max] would.  The last part is the remaining sum
    itself.  The table has ``geo.r`` colors per sum, :func:`_residues` of
    them, which may be fewer than r.
    """
    r = geo.r
    v_max = target - k + 2
    colors = chi.values

    failed = f"reachability table promised target {target} but extraction failed"
    parts = []
    s = target
    c = (r - colors[target - 1]) % r
    lo = 1
    for j in range(k - 1, 1, -1):  # j parts left: v, then j-1 more >= v
        for v in range(lo, s // j + 1):
            c_rest = (c - colors[v - 1]) % r
            if _kernel_py.checker_cell(rows, j - 1, s - v, c_rest, geo):
                break
        else:
            raise RuntimeError(failed)
        parts.append(v)
        s -= v
        c = c_rest
        lo = v
    if not (lo <= s <= v_max and (c - colors[s - 1]) % r == 0):
        raise RuntimeError(failed)
    parts.append(s)
    return tuple(parts)


def find_zero_sum_solution(chi: Coloring, spec: ProblemSpec) -> Witness | None:
    """Least zero-sum witness of chi by (target, sorted parts), or None.

    A witness is k-1 values in [1..n] (repetition allowed) summing to a
    target in [1..n], with the k colors summing to 0 mod r.  Existence and
    the smallest target are decided by :func:`_zero_sum_table`, the
    decision :func:`is_solution_free` makes too; the lexicographically
    least nondecreasing parts tuple for that target is then read off the
    table that decision built.
    """
    target, rows, geo = _zero_sum_table(chi, spec)
    if target == 0:
        return None
    parts = _lex_least_parts(chi, spec.k, target, rows, geo)
    witness = Witness(parts=parts, target=target)
    if not validate_witness(witness, chi, spec):
        raise RuntimeError(
            f"extracted witness {parts} for target {target} failed validation")
    return witness


def is_solution_free(chi: Coloring, spec: ProblemSpec) -> bool:
    """True iff no zero-sum solution exists over [1..chi.n].

    The decision of :func:`find_zero_sum_solution`, without the greedy
    that reads the witness's parts.
    """
    return _zero_sum_table(chi, spec)[0] == 0


def brute_force_oracle(chi: Coloring, spec: ProblemSpec) -> Witness | None:
    """Exhaustive reference check; intended for small n and k.

    Enumerates every nondecreasing (k-1)-tuple over [1..n] and keeps the
    least zero-sum witness by (target, parts).  Independent of the table
    pass by construction.
    """
    require_same_modulus(chi, spec)
    n, k, r = chi.n, spec.k, spec.r
    best: tuple[int, tuple[int, ...]] | None = None
    for parts in combinations_with_replacement(range(1, n + 1), k - 1):
        target = sum(parts)
        if target > n:
            continue
        total = sum(chi.color(p) for p in parts) + chi.color(target)
        if total % r == 0:
            key = (target, parts)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return Witness(parts=best[1], target=best[0])
