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

The two-color variant (colors 0 and 1 only) has a simpler certificate:
color 0 on [1..k-2] and 1 on [k-1..rk-2r].  It is free, which proves
the variant's S_z(k, r) >= rk - 2r + 1, its exact value for k > r.  The
color sum of a solution is the number of its entries colored 1, so a
zero-sum solution has none or at least r.  None is impossible: the
target, a sum of k-1 parts, is at least k-1, so it is colored 1.  r or
more needs k >= r, and at most one of those entries is the target, so
at least r-1 parts are at least k-1 and the other k-r parts at least 1;
the target is then at least (r-1)(k-1) + k-r = rk - 2r + 1, outside the
domain.

For odd k = r there is a longer certificate, the diagonal coloring of
[1..N], N = 2k^2 - 2k - 3: odd m get color 0, even m get color 1 when
m <= 2k - 4 or m >= 2k^2 - 4k + 2, and color k - 1 in between.  It is
free, which proves Robertson's S_z(k, k) >= 2(k^2 - k - 1) for odd k.
Read the colors as the integers 0, +1 and -1 (k - 1 = -1 mod k).  The
color sum S of a solution's k entries then lies in [-k, k], so a
zero-sum solution has S in {-k, 0, k}.  Only even entries are nonzero.
The target is a sum of k - 1 parts, an even count, so it is even
exactly when an even number of parts are even (then the odd parts are
even in number too).  So the count of even entries is always odd, S is
odd, and S != 0.
  S = k needs all k entries even and colored +1.  The target is then at
  least 2(k - 1) = 2k - 2, so it lies in the high block.  A part in the
  high block, with k - 2 more parts of at least 2, would push the
  target to at least 2k^2 - 2k - 2 > N, so every part is at most
  2k - 4, and the target at most (k - 1)(2k - 4) = 2k^2 - 6k + 4, below
  the high block.
  S = -k puts every entry in the middle block, so the target is at
  least (k - 1)(2k - 2) = 2k^2 - 4k + 2, above that block.
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


def _odd_families(m: int, k: int, r: int) -> tuple[set[int], set[int]]:
    """The permitted and forbidden residues at m, odd-r construction."""
    a_perm = -(-m // (k - 1))
    b_forb = m // (k - 1)
    return ({(m + 2 * i) % r for i in range(a_perm)},
            {(-m - 2 * i) % r for i in range(b_forb)})


def _even_families(m: int, k: int, r: int) -> tuple[set[int], set[int]]:
    """The permitted and forbidden residues at m, even-r construction."""
    a_perm = -(-m // (k - 1))
    b_forb = m // (k - 1)
    cutoff = (r - 1) * (k - 1)

    if a_perm <= r - 2:
        permitted = {(m + i) % r for i in range(a_perm)}
    elif m <= cutoff - 1:
        permitted = {(m + i) % r for i in range(r - 1)}
    else:
        permitted = set(range(r))

    if m >= cutoff:
        forbidden = {(-m - i) % r for i in range(r - 1)}
    else:
        forbidden = {(-m - i) % r for i in range(min(b_forb, r - 2))}
    return permitted, forbidden


def _choose(permitted: set[int], forbidden: set[int],
            m: int, k: int, r: int) -> int:
    allowed = permitted - forbidden
    if not allowed:
        raise ConstructionContradictionError(
            f"no allowed color at m={m} (k={k}, r={r}): "
            f"permitted {sorted(permitted)} all forbidden {sorted(forbidden)}")
    return min(allowed)


def _allowed_set(families, m: int, k: int, r: int) -> AllowedSet:
    permitted, forbidden = families(m, k, r)
    return AllowedSet(permitted=frozenset(permitted),
                      forbidden=frozenset(forbidden),
                      chosen=_choose(permitted, forbidden, m, k, r))


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
    return _allowed_set(_odd_families, m, k, r)


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
    return _allowed_set(_even_families, m, k, r)


def construction_colors(k: int, r: int) -> Iterator[int]:
    """The colors of 1..kr-r-1 (odd r) or 1..kr-r-2 (even r), one at a time.

    Each is the ``chosen`` color of :func:`allowed_set_odd` or
    :func:`allowed_set_even`, from the same residue families but with
    no per-position AllowedSet.  A caller with a deadline can stop
    between positions.
    """
    check_parameters(k, r)
    families = _odd_families if r % 2 else _even_families
    n = k * r - r - 2 + r % 2
    return (_choose(*families(m, k, r), m, k, r) for m in range(1, n + 1))


def diagonal_colors(k: int) -> Iterator[int]:
    """The diagonal coloring of 1..2k^2-2k-3 for odd k = r, one color at a
    time: 0 at odd m; at even m, 1 on [1..2k-4] and [2k^2-4k+2..], and
    k-1 in between.

    It is free (see the module docstring), so it certifies the lower
    bound 2(k^2 - k - 1).
    """
    check_parameters(k, k)
    if k % 2 == 0:
        raise ValueError(f"diagonal construction needs odd k, got k={k}")
    low, high = 2 * k - 4, 2 * k * k - 4 * k + 2
    return (0 if m % 2 else 1 if m <= low or m >= high else k - 1
            for m in range(1, 2 * k * k - 2 * k - 2))


def binary_construction_colors(k: int, r: int) -> Iterator[int]:
    """The two-color coloring of 1..rk-2r, one color at a time: 0 on
    [1..k-2], 1 on [k-1..rk-2r].

    It is free (see the module docstring), so it certifies the two-color
    lower bound rk - 2r + 1.
    """
    check_parameters(k, r)
    return (0 if m <= k - 2 else 1 for m in range(1, r * k - 2 * r + 1))


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
