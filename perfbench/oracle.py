"""Rechecks of zschur's answers that share no code with zschur.

A coloring here is a plain sequence of residues: colors[i] is the color
of i + 1.  The checks are deliberately naive, so that a bug in zschur's
bit-packed tables cannot hide in both places at once.
"""

from __future__ import annotations

#: Largest n the set DP is run on; its cost grows as k * n^2 * r.
NAIVE_MAX_N = 45


def is_free(colors, k: int, r: int) -> bool:
    """True iff no x_1 + ... + x_{k-1} = x_k in [1..n] has colors summing to 0 mod r.

    Set DP over (sum, color sum) pairs of j parts, repetition allowed.
    """
    n = len(colors)
    if n > NAIVE_MAX_N:
        raise ValueError(f"naive freeness check limited to n <= {NAIVE_MAX_N}, got {n}")
    reach = {(0, 0)}
    for _ in range(k - 1):
        reach = {(s + v, (c + colors[v - 1]) % r)
                 for s, c in reach for v in range(1, n - s + 1)}
    return not any((t, -colors[t - 1] % r) in reach for t in range(1, n + 1))


def witness_ok(colors, k: int, r: int, target: int, parts) -> bool:
    """Arithmetic check of one witness: k-1 parts in range, their sum, the zero sum."""
    n = len(colors)
    if len(parts) != k - 1 or not 1 <= target <= n:
        return False
    if any(not 1 <= p <= n for p in parts) or sum(parts) != target:
        return False
    return (sum(colors[p - 1] for p in parts) + colors[target - 1]) % r == 0
