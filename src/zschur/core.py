"""Domain types and residue arithmetic for zero-sum Schur problems.

The zero-sum generalized Schur number S_z(k, r) is the least N such that
every r-coloring of {1..N} contains a solution of

    x_1 + x_2 + ... + x_{k-1} = x_k

whose k colors sum to 0 mod r.  The two-color variant restricts the
coloring to the residues {0, 1} inside Z/rZ.

Colors are stored as residues 0..r-1 throughout.  The zero-sum condition
only depends on residue classes, and the residue form makes the two
solution-preserving symmetries (global translation when r | k, and
multiplication by a unit of Z/rZ) direct index arithmetic.  All file I/O
uses the 0..r-1 convention as well.

All types here are immutable value objects, safe to hash and share,
except :class:`SearchStats`, whose counters a solve merges level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

#: Extended-integer infinity. Bounds and exact values are ``int`` when
#: finite and this (float) infinity otherwise; no integer sentinel is used.
INF = math.inf

ExtendedInt = int | float


class ModulusMismatchError(ValueError):
    """A coloring and a problem spec disagree on the modulus r."""


class ColoringFormatError(ValueError):
    """A coloring file or string does not follow the text format."""


class ConstructionContradictionError(RuntimeError):
    """Permitted minus forbidden residues came up empty.

    The lower-bound constructions guarantee a nonempty allowed set for
    every in-range position, so hitting this means the preconditions were
    violated (e.g. wrong parity of r) or there is a bug.
    """


class Palette(Enum):
    """Which residues a coloring may use: all of 0..r-1, or just {0, 1}."""

    FULL = "full"
    BINARY = "binary"

    def residues(self, r: int) -> tuple[int, ...]:
        if self is Palette.BINARY:
            return (0, 1)
        return tuple(range(r))


def check_parameters(k: int, r: int) -> None:
    """S_z(k, r) is defined for k >= 3 terms and r >= 2 colors only."""
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of one zero-sum Schur problem.

    k is the number of terms in the equation (k-1 summands plus the
    target), r the modulus and color count.  ``palette`` selects between
    S_z (FULL) and the two-color variant (BINARY).
    """

    k: int
    r: int
    palette: Palette = Palette.FULL

    def __post_init__(self) -> None:
        check_parameters(self.k, self.r)

    @property
    def r_divides_k(self) -> bool:
        return self.k % self.r == 0

    def palette_residues(self) -> tuple[int, ...]:
        return self.palette.residues(self.r)


@dataclass(frozen=True)
class Coloring:
    """An assignment of residues mod r to the integers 1..n.

    ``values[i]`` is the color of i+1; prefer :meth:`color` for 1-based
    access matching the mathematical indexing.
    """

    n: int
    r: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.n:
            raise ValueError(
                f"expected {self.n} values, got {len(self.values)}")
        values = self.values
        if values and not 0 <= min(values) <= max(values) < self.r:
            bad = next(v for v in values if not 0 <= v < self.r)
            raise ValueError(f"color {bad} outside [0, {self.r - 1}]")

    @classmethod
    def of(cls, values, r: int) -> Coloring:
        values = tuple(values)
        return cls(n=len(values), r=r, values=values)

    @classmethod
    def constant(cls, n: int, r: int, color: int) -> Coloring:
        return cls(n=n, r=r, values=(color,) * n)

    def color(self, m: int) -> int:
        """Color of the integer m, 1 <= m <= n."""
        if not 1 <= m <= self.n:
            raise IndexError(f"{m} outside coloring domain [1, {self.n}]")
        return self.values[m - 1]

    def translated(self, c: int) -> Coloring:
        """Add c mod r to every color (a zero-sum symmetry when r | k)."""
        return Coloring(self.n, self.r, tuple((v + c) % self.r for v in self.values))

    def scaled(self, u: int) -> Coloring:
        """Multiply every color by u mod r (a symmetry whenever gcd(u, r) = 1)."""
        return Coloring(self.n, self.r, tuple((v * u) % self.r for v in self.values))

    def restricted(self, m: int) -> Coloring:
        """The restriction of the coloring to 1..m."""
        if not 0 <= m <= self.n:
            raise ValueError(f"cannot restrict domain [1, {self.n}] to [1, {m}]")
        return Coloring(m, self.r, self.values[:m])


@dataclass(frozen=True)
class Witness:
    """A candidate solution: parts x_1..x_{k-1} and target x_k.

    Parts are kept as a sorted (nondecreasing) tuple so that equal
    multisets compare equal and outputs are reproducible.  Construction
    does not check the Schur equation or the zero-sum condition; that is
    :func:`validate_witness`'s job.
    """

    parts: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))
        if any(p < 1 for p in self.parts):
            raise ValueError("witness parts must be positive")
        if self.target < 1:
            raise ValueError("witness target must be positive")


class SolveStatus(Enum):
    EXACT = "exact"
    BUDGET_EXHAUSTED = "budget-exhausted"
    INFINITE = "infinite"


@dataclass
class SearchStats:
    """Counters from one search run.

    ``nodes`` counts incremental extension checks, ``prunes`` the checks
    that were rejected: the new position completes a zero-sum solution
    or has lost the color to a probe, or (forward checking) some later
    target is left with no palette color, also after each later target
    left with one color has taken it (singleton propagation).
    ``probes`` counts the failed-literal probes, each a trial color at a
    later target closed under singleton propagation.  ``max_depth`` is
    the deepest position colored without a conflict, ``elapsed`` wall
    time in seconds.
    """

    nodes: int = 0
    prunes: int = 0
    max_depth: int = 0
    probes: int = 0
    elapsed: float = 0.0

    def merge(self, other: SearchStats) -> None:
        self.nodes += other.nodes
        self.prunes += other.prunes
        self.max_depth = max(self.max_depth, other.max_depth)
        self.probes += other.probes
        self.elapsed += other.elapsed


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact solve.

    * EXACT: ``value`` is S_z (or the two-color variant) and
      ``certificate`` is a solution-free coloring of [1..value-1].
    * INFINITE: ``value`` is INF; happens exactly when r does not divide k.
    * BUDGET_EXHAUSTED: the true value lies in [value, INF); ``value`` is
      ``certificate.n + 1`` for the last free coloring the solve holds,
      or k - 1 with no certificate when the time ran out before the
      construction was checked.
    """

    status: SolveStatus
    value: ExtendedInt
    certificate: Coloring | None = None
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class BoundEntry:
    """One theorem-backed bound: kind is 'lower', 'upper' or 'exact'."""

    kind: str
    value: ExtendedInt
    source: str


@dataclass(frozen=True)
class BoundsReport:
    """Aggregated lower/upper bounds with per-entry provenance."""

    lower: ExtendedInt
    upper: ExtendedInt
    exact: bool
    entries: tuple[BoundEntry, ...]


def require_same_modulus(chi: Coloring, spec: ProblemSpec) -> None:
    if chi.r != spec.r:
        raise ModulusMismatchError(
            f"coloring has modulus {chi.r} but problem spec has r={spec.r}")


def validate_witness(witness: Witness, chi: Coloring, spec: ProblemSpec) -> bool:
    """True iff the witness is a genuine zero-sum solution under chi.

    Checks the three witness conditions: the parts sum to the target,
    every element lies in [1, chi.n], and the k colors sum to 0 mod r.
    Out-of-range elements make the witness invalid (False), not an error.
    """
    require_same_modulus(chi, spec)
    if len(witness.parts) != spec.k - 1:
        return False
    if sum(witness.parts) != witness.target:
        return False
    if not 1 <= witness.target <= chi.n:
        return False
    if any(not 1 <= p <= chi.n for p in witness.parts):
        return False
    total = sum(chi.color(p) for p in witness.parts) + chi.color(witness.target)
    return total % spec.r == 0


def format_value(v: ExtendedInt) -> str:
    """Render an extended integer: base-10 digits, or 'inf'."""
    return "inf" if v == INF else str(int(v))


# ---------------------------------------------------------------------------
# Text formats.
#
# Coloring file:   line 1 is "n k r"; line 2 holds the n residues of 1..n,
# space-separated.  Lines starting with '#' are comments.  The header k is
# the equation length the coloring was built or solved for; the coloring
# itself only depends on n and r.
#
# Witness line:    "WITNESS target= T parts= p1 p2 ... p(k-1)", parts
# nondecreasing.
# ---------------------------------------------------------------------------


def format_coloring(chi: Coloring, k: int) -> str:
    header = f"{chi.n} {k} {chi.r}"
    body = " ".join(str(v) for v in chi.values)
    return f"{header}\n{body}\n" if chi.n else f"{header}\n"


def parse_coloring(text: str) -> tuple[Coloring, int]:
    """Parse the coloring text format; returns (coloring, header k).

    A bad k or r fails :func:`check_parameters` (the rule of
    :class:`ProblemSpec`); a bad n, color count or color fails
    :class:`Coloring`.  Their ValueError, like a non-integer token, is
    raised as :class:`ColoringFormatError`, so ``zschur check`` exits 2.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ColoringFormatError("empty coloring file")
    header = lines[0].split()
    if len(header) != 3:
        raise ColoringFormatError(
            f"header must be 'n k r', got {lines[0]!r}")
    try:
        n, k, r = (int(tok) for tok in header)
        check_parameters(k, r)
        values = tuple(map(int, " ".join(lines[1:]).split()))
        chi = Coloring(n=n, r=r, values=values)
    except ValueError as exc:
        raise ColoringFormatError(str(exc)) from exc
    return chi, k


def write_coloring(chi: Coloring, k: int, path: str | Path) -> None:
    Path(path).write_text(format_coloring(chi, k))


def read_coloring(path: str | Path) -> tuple[Coloring, int]:
    return parse_coloring(Path(path).read_text())


def format_witness(witness: Witness) -> str:
    parts = " ".join(str(p) for p in witness.parts)
    return f"WITNESS target= {witness.target} parts= {parts}"
