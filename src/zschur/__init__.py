"""Zero-sum generalized Schur numbers.

S_z(k, r) is the least N such that every r-coloring of {1..N} admits a
solution of x_1 + ... + x_{k-1} = x_k whose colors sum to 0 mod r.  This
package computes theorem-backed bounds for S_z(k, r) and its two-color
variant, builds the extremal colorings certifying the lower bounds,
decides whether a given coloring admits a zero-sum solution, and derives
small exact values by symmetry-reduced exhaustive search with
machine-checkable certificates.
"""

from .bounds import factorize, is_prime, theoretical_bounds
from .checker import (
    brute_force_oracle,
    find_zero_sum_solution,
    is_solution_free,
)
from .constructions import construct
from .core import (
    INF,
    BoundEntry,
    BoundsReport,
    Coloring,
    ColoringFormatError,
    ConstructionContradictionError,
    ExactResult,
    ModulusMismatchError,
    Palette,
    ProblemSpec,
    SearchStats,
    SolveStatus,
    Witness,
    format_coloring,
    format_value,
    format_witness,
    parse_coloring,
    read_coloring,
    validate_witness,
    write_coloring,
)
from .solver import (
    FreeSearchOutcome,
    SearchConfig,
    find_free_coloring,
    solve_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BoundEntry",
    "BoundsReport",
    "Coloring",
    "ColoringFormatError",
    "ConstructionContradictionError",
    "ExactResult",
    "FreeSearchOutcome",
    "INF",
    "ModulusMismatchError",
    "Palette",
    "ProblemSpec",
    "SearchConfig",
    "SearchStats",
    "SolveStatus",
    "Witness",
    "brute_force_oracle",
    "construct",
    "factorize",
    "find_free_coloring",
    "find_zero_sum_solution",
    "format_coloring",
    "format_value",
    "format_witness",
    "is_prime",
    "is_solution_free",
    "parse_coloring",
    "read_coloring",
    "solve_exact",
    "theoretical_bounds",
    "validate_witness",
    "write_coloring",
    "__version__",
]
