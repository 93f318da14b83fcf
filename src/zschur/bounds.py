"""The table of proven bounds and exact values for S_z(k, r).

Every entry records the numeric bound together with the name of the
result it comes from.  Applicability is encoded conservatively: an entry
fires only when the stated hypotheses (parity or primality of r,
divisibility, k > r) hold exactly, with no extrapolation.  Note that for
r | k and k > r, k >= 2r is automatic, so each upper bound's size
hypothesis is always met.

Known results, writing b = S_z(k, r):

* r does not divide k: b is infinite (the all-ones coloring has no
  zero-sum solution of length k).
* lower bounds from the explicit constructions: b >= kr - r for odd r,
  b >= kr - r - 1 for even r.
* r = 2, 2 | k: b = 2k - 3 exactly (Robertson).
* r an odd prime, r | k, k > r: b <= kr - r, matching the odd lower
  bound, so b = kr - r.
* r = 4, 4 | k, k > 4: b <= 4k - 5, matching the even lower bound.
* composite r >= 6, r | k, k > r: b <= kr - sum(p_i - 1) - 1 over the
  prime factorization r = p_0 * ... * p_{t-1} with multiplicity.
* k = r odd: b >= 2(k^2 - k - 1), Robertson's diagonal bound, from the
  diagonal coloring of constructions.diagonal_colors, which that
  module's docstring proves free; the solver checks it and starts its
  odd k = r scans from it.
* two-color variant, r | k, k > r: exactly rk - 2r + 1
  (Robertson, Roy, Sarkar).
* two-color variant, k = r: b >= rk - 2r + 1 = r^2 - 2r + 1, from the
  coloring of constructions.binary_construction_colors, whose freeness
  proof in that module's docstring holds at k = r too; no upper bound
  is known there.

Everything else is left at the trivial floor k - 1 (no solution fits in
[1..k-2]) and an infinite ceiling.
"""

from __future__ import annotations

from .core import (INF, BoundEntry, BoundsReport, ExtendedInt, Palette,
                   check_parameters)


def factorize(r: int) -> tuple[int, ...]:
    """The primes of r with multiplicity, ascending.

    Trial division up to sqrt(r), at most 0.2 s for r <= 10**12.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if r > 10**12:
        raise ValueError(f"r={r} is too large to factorize (at most 10**12)")
    factors = []
    rest = r
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            factors.append(p)
            rest //= p
        p += 1
    if rest > 1:
        factors.append(rest)
    return tuple(factors)


def is_prime(r: int) -> bool:
    return r >= 2 and len(factorize(r)) == 1


def _full_palette_entries(k: int, r: int) -> list[BoundEntry]:
    entries: list[BoundEntry] = []
    if r % 2:
        entries.append(BoundEntry("lower", k * r - r, "odd-r-construction"))
    else:
        entries.append(BoundEntry("lower", k * r - r - 1, "even-r-construction"))
    if r == 3:
        entries.append(BoundEntry("lower", 3 * k - 3, "robertson-three-color-lower"))
    if r == 4:
        entries.append(BoundEntry("lower", 4 * k - 5, "robertson-four-color-lower"))

    if k == r:
        if k % 2:
            entries.append(BoundEntry(
                "lower", 2 * (k * k - k - 1), "odd-diagonal-construction"))
        return entries

    # k > r and r | k, hence k >= 2r: every upper bound below applies.
    # Every other r is an odd prime or composite, told apart by its one
    # factorization.
    if r == 2:
        entries.append(BoundEntry("upper", 2 * k - 3, "robertson-two-color-exact"))
    elif r == 4:
        entries.append(BoundEntry("upper", 4 * k - 5, "four-color-upper"))
    else:
        factors = factorize(r)
        if len(factors) == 1:
            entries.append(BoundEntry("upper", k * r - r, "odd-prime-upper"))
        else:
            deficit = sum(p - 1 for p in factors)
            entries.append(BoundEntry(
                "upper", k * r - deficit - 1, "composite-prime-factor-upper"))
    return entries


def theoretical_bounds(k: int, r: int,
                       variant: Palette = Palette.FULL) -> BoundsReport:
    """Assemble every applicable entry for (k, r) and summarize.

    The summary lower bound is the max over lower/exact entries (with the
    trivial floor k-1), the upper bound the min over upper/exact entries
    (infinite when none applies); exactness means the two coincide.
    """
    check_parameters(k, r)

    entries: list[BoundEntry]
    if k % r != 0:
        entries = [BoundEntry("exact", INF, "divisibility-obstruction")]
    elif variant is Palette.BINARY:
        if k > r:
            entries = [BoundEntry("exact", r * k - 2 * r + 1,
                                  "robertson-roy-sarkar-two-color-palette")]
        else:
            entries = [BoundEntry("lower", r * k - 2 * r + 1,
                                  "two-color-construction")]
    else:
        entries = _full_palette_entries(k, r)

    lower: ExtendedInt = k - 1
    upper: ExtendedInt = INF
    for e in entries:
        if e.kind in ("lower", "exact"):
            lower = max(lower, e.value)
        if e.kind in ("upper", "exact"):
            upper = min(upper, e.value)
    return BoundsReport(lower=lower, upper=upper, exact=lower == upper,
                        entries=tuple(entries))
