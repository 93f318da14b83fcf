"""Explicit solution-free colorings certifying the lower bounds.

For odd r, a coloring of [1..kr-r-1] exists with no zero-sum solution,
proving S_z(k, r) >= kr - r; for even r the same holds on [1..kr-r-2],
proving S_z(k, r) >= kr - r - 1.  Both colorings are defined positionwise
by residue constraints indexed by a level a = 1..r (how many blocks of
length k-1 the position spans):

odd r, step-two families
    m <= a(k-1)  =>  color(m) in {m, m+2, ..., m+2(a-1)}   (permitted)
    m >= a(k-1)  =>  color(m) not in {-m, -m-2, ..., -m-2(a-1)}  (forbidden)

even r, step-one families for a <= r-2, plus one extra pair
    m <= a(k-1)          =>  color(m) in {m, m+1, ..., m+(a-1)}
    m >= a(k-1)          =>  color(m) not in {-m, -m-1, ..., -m-(a-1)}
    m <= (r-1)(k-1) - 1  =>  color(m) in {m, ..., m+(r-2)}
    m >= (r-1)(k-1)      =>  color(m) not in {-m, ..., -m-(r-2)}

All sets are taken mod r.  Both the permitted and the forbidden family
grow with the level, so only the binding levels matter: the smallest
applicable level A = ceil(m/(k-1)) for permitted, the largest applicable
level B = floor(m/(k-1)) for forbidden.  That nesting gives O(1) set
construction per position and is unit-tested directly.

The two families can only conflict at the tie positions m = a(k-1),
where both sets have a elements.  There they coincide exactly when
a*k = 1 mod r (odd case) or a*(2k-1) = 1 mod r (even case, a <= r-2);
neither has a solution when r divides k, so the construction always
succeeds for multiples, and freeness itself never uses divisibility.
For other k the system may be infeasible (k = r+1 always is), in which
case construction raises ConstructionContradictionError rather than
picking a forbidden color.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import Coloring, ConstructionContradictionError, check_parameters


@dataclass(frozen=True)
class AllowedSet:
    """Residue constraints at one position: permitted, forbidden, pick.

    ``chosen`` is the minimum residue of permitted minus forbidden; the
    constructions only need some allowed color, and taking the minimum
    makes every output reproducible.
    """

    permitted: frozenset[int]
    forbidden: frozenset[int]
    chosen: int


def _choose(permitted: frozenset[int], forbidden: frozenset[int],
            m: int, k: int, r: int) -> AllowedSet:
    allowed = permitted - forbidden
    if not allowed:
        raise ConstructionContradictionError(
            f"no allowed color at m={m} (k={k}, r={r}): "
            f"permitted {sorted(permitted)} all forbidden {sorted(forbidden)}")
    return AllowedSet(permitted=permitted, forbidden=forbidden,
                      chosen=min(allowed))


def allowed_set_odd(m: int, k: int, r: int) -> AllowedSet:
    """Allowed colors at position m for the odd-r construction.

    Binding levels: A = ceil(m/(k-1)) for the permitted family,
    B = floor(m/(k-1)) for the forbidden family (empty when B = 0).
    Callers are expected to pass odd r; even r is not rejected up front
    but surfaces as ConstructionContradictionError at the first position
    whose allowed set collapses.
    """
    check_parameters(k, r)
    if not 1 <= m <= k * r - r - 1:
        raise ValueError(f"m={m} outside [1, {k * r - r - 1}]")
    a_perm = -(-m // (k - 1))
    b_forb = m // (k - 1)
    permitted = frozenset((m + 2 * i) % r for i in range(a_perm))
    forbidden = frozenset((-m - 2 * i) % r for i in range(b_forb))
    return _choose(permitted, forbidden, m, k, r)


def allowed_set_even(m: int, k: int, r: int) -> AllowedSet:
    """Allowed colors at position m for the even-r construction.

    The step-one families only run up to level r-2; past them the extra
    pair takes over: a width-(r-1) permitted set while
    m <= (r-1)(k-1) - 1, no permitted constraint at all (full palette)
    beyond, and the width-(r-1) forbidden set once m >= (r-1)(k-1).
    For r = 2 the step-one families are empty and only the extra pair
    applies.
    """
    check_parameters(k, r)
    if not 1 <= m <= k * r - r - 2:
        raise ValueError(f"m={m} outside [1, {k * r - r - 2}]")
    a_perm = -(-m // (k - 1))
    b_forb = m // (k - 1)
    cutoff = (r - 1) * (k - 1)

    if a_perm <= r - 2:
        permitted = frozenset((m + i) % r for i in range(a_perm))
    elif m <= cutoff - 1:
        permitted = frozenset((m + i) % r for i in range(r - 1))
    else:
        permitted = frozenset(range(r))

    if m >= cutoff:
        forbidden = frozenset((-m - i) % r for i in range(r - 1))
    else:
        forbidden = frozenset((-m - i) % r for i in range(min(b_forb, r - 2)))
    return _choose(permitted, forbidden, m, k, r)


def construction_colors(k: int, r: int) -> Iterator[int]:
    """The colors of 1..kr-r-1 (odd r) or 1..kr-r-2 (even r), one at a time.

    A caller with a deadline can stop between positions.  Callers pass
    k and r that :func:`~zschur.core.check_parameters` accepted.
    """
    allowed = allowed_set_odd if r % 2 else allowed_set_even
    n = k * r - r - 2 + r % 2
    return (allowed(m, k, r).chosen for m in range(1, n + 1))


def construct_odd(k: int, r: int) -> Coloring:
    """The solution-free coloring of [1..kr-r-1] for odd r >= 3."""
    check_parameters(k, r)
    if r % 2 == 0:
        raise ValueError(f"odd construction needs odd r >= 3, got r={r}")
    return Coloring.of(construction_colors(k, r), r)


def construct_even(k: int, r: int) -> Coloring:
    """The solution-free coloring of [1..kr-r-2] for even r >= 2."""
    check_parameters(k, r)
    if r % 2 == 1:
        raise ValueError(f"even construction needs even r >= 2, got r={r}")
    return Coloring.of(construction_colors(k, r), r)


def construct(k: int, r: int) -> Coloring:
    """Parity dispatch: the certified coloring for any k >= 3 and r >= 2."""
    return construct_odd(k, r) if r % 2 else construct_even(k, r)
