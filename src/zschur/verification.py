"""Replayable verification checks behind ``zschur verify``.

``CHECKS`` is the one list of acceptance checks.  Each row names a
callable that takes no arguments and re-derives one published fact from
scratch (exact value, certificate, equivalence, invariance or bound);
``run_check`` turns it into a pass/fail line with timing.  ``zschur
verify`` runs every row in order, and ``tests/test_acceptance.py`` runs
each row as one test.  The exact values S_z(6,3)=15, two-color
S_z(8,4)=25 and S_z(8,4)=27 are searched with no node budget: each
search settles in a few hundred nodes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from time import monotonic
from typing import Callable, Iterable

from . import bounds as bounds_mod
from . import constructions
from .checker import brute_force_oracle, find_zero_sum_solution, is_solution_free
from .core import INF, Coloring, Palette, ProblemSpec, validate_witness
from .solver import SolveStatus, solve_exact

ODD_GRID = tuple((k, r) for r in (3, 5, 7, 9) for k in (2 * r, 3 * r))
EVEN_GRID = tuple((k, r) for r in (2, 4, 6, 8) for k in (2 * r, 3 * r))
#: Wall-clock limit of every exact solve row, in seconds.
SOLVE_LIMIT_S = 1.0


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    elapsed: float = 0.0

    @property
    def label(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def line(self) -> str:
        return f"{self.label} {self.name} {self.detail} elapsed={self.elapsed:.2f}s"


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def run_check(name: str, fn: Callable[[], str]) -> CheckResult:
    start = monotonic()
    try:
        detail = fn()
    except CheckFailure as exc:
        return CheckResult(name, False, str(exc), monotonic() - start)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        return CheckResult(name, False, f"error: {exc!r}", monotonic() - start)
    return CheckResult(name, True, detail, monotonic() - start)


def _timed_solve(k: int, r: int, palette: Palette, expected: int) -> str:
    spec = ProblemSpec(k=k, r=r, palette=palette)
    start = monotonic()
    result = solve_exact(spec)
    took = monotonic() - start
    _require(result.status is SolveStatus.EXACT,
             f"expected exact result, got {result.status.value}")
    _require(result.value == expected,
             f"value {result.value} != expected {expected}")
    cert = result.certificate
    _require(cert is not None and cert.n == expected - 1,
             "missing or wrong-length certificate")
    _require(is_solution_free(cert, spec), "certificate is not solution-free")
    _require(took < SOLVE_LIMIT_S, f"took {took:.2f}s, limit {SOLVE_LIMIT_S}s")
    return (f"value={result.value} nodes={result.stats.nodes} "
            f"probes={result.stats.probes}")


# --- criterion 2: construction certificates --------------------------------

def _check_construction_grid(grid, build, n_of) -> str:
    worst = 0.0
    for k, r in grid:
        start = monotonic()
        chi = build(k, r)
        _require(chi.n == n_of(k, r), f"({k},{r}): wrong domain size {chi.n}")
        spec = ProblemSpec(k=k, r=r)
        _require(is_solution_free(chi, spec),
                 f"({k},{r}): construction admits a zero-sum solution")
        took = monotonic() - start
        worst = max(worst, took)
        _require(took < 2.0, f"({k},{r}): check took {took:.2f}s, limit 2s")
    return f"cases={len(grid)} worst_case={worst:.2f}s"


def check_constructions_odd() -> str:
    return _check_construction_grid(
        ODD_GRID, constructions.construct_odd, lambda k, r: k * r - r - 1)


def check_constructions_even() -> str:
    return _check_construction_grid(
        EVEN_GRID, constructions.construct_even, lambda k, r: k * r - r - 2)


# --- criterion 3: property conformance -------------------------------------

def odd_property_violations(chi: Coloring, k: int, r: int) -> list[str]:
    """Exhaustively check the step-two permitted/forbidden families."""
    out = []
    for m in range(1, chi.n + 1):
        col = chi.color(m)
        for a in range(1, r + 1):
            edge = a * (k - 1)
            permitted = {(m + 2 * i) % r for i in range(a)}
            forbidden = {(-m - 2 * i) % r for i in range(a)}
            if m <= edge and col not in permitted:
                out.append(f"m={m} a={a}: color {col} not permitted")
            if m >= edge and col in forbidden:
                out.append(f"m={m} a={a}: color {col} forbidden")
            if m == edge and a < r and permitted == forbidden:
                out.append(f"m={m} a={a}: boundary sets equal")
    return out


def even_property_violations(chi: Coloring, k: int, r: int) -> list[str]:
    """Exhaustively check the step-one families plus the extra wide pair."""
    out = []
    cutoff = (r - 1) * (k - 1)
    for m in range(1, chi.n + 1):
        col = chi.color(m)
        for a in range(1, r - 1):
            edge = a * (k - 1)
            permitted = {(m + i) % r for i in range(a)}
            forbidden = {(-m - i) % r for i in range(a)}
            if m <= edge and col not in permitted:
                out.append(f"m={m} a={a}: color {col} not permitted")
            if m >= edge and col in forbidden:
                out.append(f"m={m} a={a}: color {col} forbidden")
            if m == edge and permitted == forbidden:
                out.append(f"m={m} a={a}: boundary sets equal")
        wide_perm = {(m + i) % r for i in range(r - 1)}
        wide_forb = {(-m - i) % r for i in range(r - 1)}
        if m <= cutoff - 1 and col not in wide_perm:
            out.append(f"m={m}: color {col} not in wide permitted set")
        if m >= cutoff and col in wide_forb:
            out.append(f"m={m}: color {col} in wide forbidden set")
    return out


def check_construction_properties() -> str:
    checked = 0
    for k, r in ODD_GRID:
        bad = odd_property_violations(constructions.construct_odd(k, r), k, r)
        _require(not bad, f"odd ({k},{r}): {bad[:3]}")
        checked += 1
    for k, r in EVEN_GRID:
        bad = even_property_violations(constructions.construct_even(k, r), k, r)
        _require(not bad, f"even ({k},{r}): {bad[:3]}")
        checked += 1
    return f"colorings={checked} violations=0"


# --- criterion 4: oracle equivalence ----------------------------------------

def random_coloring(rng: random.Random, n: int, r: int) -> Coloring:
    return Coloring(n=n, r=r, values=tuple(rng.randrange(r) for _ in range(n)))


def check_oracle_equivalence() -> str:
    trials = 1000
    rng = random.Random(20180713)
    agree = 0
    for _ in range(trials):
        k = rng.choice((3, 4, 5))
        r = rng.choice((2, 3, 4))
        n = rng.randint(0, 12)
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, n, r)
        fast = find_zero_sum_solution(chi, spec)
        slow = brute_force_oracle(chi, spec)
        _require((fast is None) == (slow is None),
                 f"existence disagrees on n={n} k={k} r={r} values={chi.values}")
        if fast is not None:
            _require(fast == slow,
                     f"witness disagrees on n={n} k={k} r={r}: {fast} vs {slow}")
            _require(validate_witness(fast, chi, spec), "invalid witness returned")
        agree += 1
    return f"agreement={agree}/{trials}"


# --- criterion 5: invariance suite ------------------------------------------

def check_translation_invariance() -> str:
    trials = 200
    rng = random.Random(424242)
    for _ in range(trials):
        r = rng.choice((2, 3, 4))
        k = r * rng.randint(1, 3)
        if k < 3:
            k = 2 * r
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(0, 11), r)
        shift = rng.randrange(r)
        _require(is_solution_free(chi, spec)
                 == is_solution_free(chi.translated(shift), spec),
                 f"translation by {shift} changed freeness: {chi.values}")
    return f"trials={trials} violations=0"


def check_unit_invariance() -> str:
    trials = 200
    rng = random.Random(515151)
    for _ in range(trials):
        k = rng.randint(3, 6)
        r = rng.choice((2, 3, 4, 5, 6))
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(0, 11), r)
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        u = rng.choice(units)
        _require(is_solution_free(chi, spec)
                 == is_solution_free(chi.scaled(u), spec),
                 f"unit {u} changed freeness: r={r} {chi.values}")
    return f"trials={trials} violations=0"


def check_restriction_monotonicity() -> str:
    certificates: list[tuple[Coloring, ProblemSpec]] = []
    for k, r in ((4, 2), (6, 2)):
        spec = ProblemSpec(k=k, r=r)
        result = solve_exact(spec)
        _require(result.status is SolveStatus.EXACT and result.certificate is not None,
                 f"no solver certificate for ({k},{r})")
        certificates.append((result.certificate, spec))
    for k, r in ((6, 3), (8, 4), (10, 5)):
        certificates.append((constructions.construct(k, r), ProblemSpec(k=k, r=r)))
    checked = 0
    for chi, spec in certificates:
        _require(is_solution_free(chi, spec), "certificate not free")
        for m in range(chi.n, -1, -1):
            _require(is_solution_free(chi.restricted(m), spec),
                     f"restriction to {m} not free for k={spec.k} r={spec.r}")
            checked += 1
    return f"certificates={len(certificates)} restrictions={checked} violations=0"


# --- criterion 6: bounds table ----------------------------------------------

def check_bounds_table() -> str:
    rep = bounds_mod.theoretical_bounds(10, 5)
    _require(rep.lower == rep.upper == 45 and rep.exact, f"(10,5): {rep}")
    rep = bounds_mod.theoretical_bounds(12, 6)
    _require(rep.lower == 65 and rep.upper == 68 and not rep.exact,
             f"(12,6): {rep}")
    rep = bounds_mod.theoretical_bounds(5, 3)
    _require(rep.lower == INF and rep.upper == INF and rep.exact, f"(5,3): {rep}")
    rep = bounds_mod.theoretical_bounds(8, 4, Palette.BINARY)
    _require(rep.lower == rep.upper == 25 and rep.exact, f"(8,4,binary): {rep}")

    rng = random.Random(97)
    for _ in range(10_000):
        xs = [rng.randint(2, 50) for _ in range(rng.randint(1, 8))]
        prod = 1
        for x in xs:
            prod *= x
        _require(sum(x - 1 for x in xs) <= prod,
                 f"product lemma violated on {xs}")
    return "tables=4 product_lemma_trials=10000"


# --- criterion 7: checker performance ----------------------------------------

def check_checker_performance() -> str:
    spec = ProblemSpec(k=50, r=10)
    # Worst case: a construction prefix is free, so the pass cannot stop
    # before position 489 and feeds nearly every value of [1..500].
    prefix = constructions.construct_even(50, 10)
    chi = Coloring(n=500, r=10, values=prefix.values + (0,) * (500 - prefix.n))
    start = monotonic()
    witness = find_zero_sum_solution(chi, spec)
    slow_path = monotonic() - start
    _require(witness is not None, "expected a witness past the free prefix")
    _require(witness.target > prefix.n,
             f"witness target {witness.target} inside the free prefix")
    _require(validate_witness(witness, chi, spec), "invalid witness")
    _require(slow_path < 2.0, f"worst case took {slow_path:.2f}s, limit 2s")

    rng = random.Random(3)
    chi = random_coloring(rng, 500, 10)
    start = monotonic()
    witness = find_zero_sum_solution(chi, spec)
    fast_path = monotonic() - start
    _require(witness is None or validate_witness(witness, chi, spec),
             "invalid witness")
    _require(fast_path < 2.0, f"random case took {fast_path:.2f}s, limit 2s")
    return f"worst_case={slow_path:.2f}s random_case={fast_path:.2f}s"


# --- criterion 8: the four-color case -----------------------------------------

def check_four_color_certificate() -> str:
    start = monotonic()
    chi = constructions.construct_even(8, 4)
    spec = ProblemSpec(k=8, r=4)
    _require(chi.n == 26, f"expected domain 26, got {chi.n}")
    _require(is_solution_free(chi, spec), "construction admits a solution")
    took = monotonic() - start
    _require(took < 1.0, f"took {took:.2f}s, limit 1s")
    return "free_coloring_n=26"


# Solve rows: (k, r, palette, expected exact value).
CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    # criterion 1: exact small values, zero tolerance
    ("solve-4-2", partial(_timed_solve, 4, 2, Palette.FULL, 5)),
    ("solve-6-2", partial(_timed_solve, 6, 2, Palette.FULL, 9)),
    ("solve-6-3", partial(_timed_solve, 6, 3, Palette.FULL, 15)),
    ("solve-8-4-binary", partial(_timed_solve, 8, 4, Palette.BINARY, 25)),
    # criterion 2: construction certificates, each case < 2 s
    ("constructions-odd", check_constructions_odd),
    ("constructions-even", check_constructions_even),
    # criterion 3: permitted/forbidden property conformance
    ("construction-properties", check_construction_properties),
    # criterion 4: oracle equivalence on 1000 random colorings
    ("oracle-equivalence", check_oracle_equivalence),
    # criterion 5: invariance suite
    ("translation-invariance", check_translation_invariance),
    ("unit-invariance", check_unit_invariance),
    ("restriction-monotonicity", check_restriction_monotonicity),
    # criterion 6: bounds table and the product lemma
    ("bounds-table", check_bounds_table),
    # criterion 7: checker performance at n=500, k=50, r=10
    ("checker-performance", check_checker_performance),
    # criterion 8: S_z(8,4) = 27, free coloring of [1..26] and exhaustion
    ("four-color-certificate", check_four_color_certificate),
    ("solve-8-4", partial(_timed_solve, 8, 4, Palette.FULL, 27)),
)


def run_suite() -> list[CheckResult]:
    return [run_check(name, fn) for name, fn in CHECKS]


def suite_exit_code(results: Iterable[CheckResult]) -> int:
    return 1 if any(not r.ok for r in results) else 0
