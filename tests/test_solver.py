import tracemalloc
from dataclasses import replace
from itertools import product
from time import monotonic

import pytest

from zschur import (
    INF,
    Coloring,
    Palette,
    ProblemSpec,
    SearchConfig,
    SolveStatus,
    brute_force_oracle,
    find_free_coloring,
    is_solution_free,
    solve_exact,
    theoretical_bounds,
)
from zschur import _kernel_py, solver
from zschur.solver import _certified_start, _symmetry_filters


#: (k, r, palette, lex-least certificate, nodes, prunes, max_depth,
#: probes) of deterministic solves.
CERTIFIED_TREES = [
    (8, 4, Palette.FULL, "01230120022002200220321032", 79, 44, 26, 89),
    (12, 3, Palette.FULL, "01201201201101101101102102102102", 70, 30, 32,
     98),
    (5, 5, Palette.FULL, "0101010404040404040404040404040101010",
     187, 127, 37, 371),
    (12, 4, Palette.BINARY, "0000000000111111111111111111111111111111",
     70, 31, 40, 0),
    (12, 4, Palette.FULL, "012301230120022002200220022002203210321032",
     127, 68, 42, 148),
    (12, 6, Palette.FULL,
     "0123450123420150120150110140110140110410110410210510210510543210543",
     3721, 2319, 67, 35176),
]


#: S_z(k, r) with the full and the binary palette, for 3 <= k <= 12 and
#: 2 <= r <= 6 with r | k.
SWEEP_VALUES = {
    (3, 3): (10, 5), (4, 2): (5, 5), (4, 4): (13, 11), (5, 5): (38, 19),
    (6, 2): (9, 9), (6, 3): (15, 13), (6, 6): (32, 29), (8, 2): (13, 13),
    (8, 4): (27, 25), (9, 3): (24, 22), (10, 2): (17, 17), (10, 5): (45, 41),
    (12, 2): (21, 21), (12, 3): (33, 31), (12, 4): (43, 41), (12, 6): (68, 61),
}

def conflicts(prefix, color, k, r, n):
    """Does coloring position len(prefix)+1 with color complete a zero-sum
    solution?  The conflict bit, read off the prefix's checker table (the
    exact table of [1..len(prefix)])."""
    geo = _kernel_py.CheckerGeometry(r, n, k)
    rows = _kernel_py.exact_table(prefix, k, len(prefix), geo)
    return _kernel_py.checker_cell(rows, k - 1, len(prefix) + 1,
                                   (r - color) % r, geo)


class TestExtendCheck:
    """The conflict test of the search when a prefix grows by one position."""

    def test_first_position_never_conflicts(self):
        for color in range(3):
            assert not conflicts((), color, 4, 3, 9)

    def test_monochromatic_conflict_at_first_target(self):
        # all-zero prefix of length k-2, extending with 0 completes 1+...+1 = k-1
        for k, r in ((4, 2), (6, 3), (8, 4)):
            prefix = (0,) * (k - 2)
            assert conflicts(prefix, 0, k, r, k - 1)
            assert not conflicts(prefix, 1, k, r, k - 1)

    def test_known_free_extension(self):
        assert not conflicts((1, 0, 0), 1, 4, 2, 4)
        assert is_solution_free(Coloring.of((1, 0, 0, 1), 2), ProblemSpec(4, 2))

    def test_agrees_with_checker_on_prefix_freeness(self):
        # extending a free prefix conflicts exactly when the extended
        # coloring stops being free (new targets are always the last position)
        import random
        rng = random.Random(8)
        for _ in range(100):
            k = rng.choice((3, 4, 5))
            r = rng.choice((2, 3))
            spec = ProblemSpec(k=k, r=r)
            colors = []
            for pos in range(1, 10):
                c = rng.randrange(r)
                free = is_solution_free(Coloring.of(colors + [c], r), spec)
                assert conflicts(colors, c, k, r, 9) == (not free)
                if not free:
                    break
                colors.append(c)


class TestSymmetryFilters:
    def test_full_palette_with_divisibility(self):
        palette, mask = _symmetry_filters(ProblemSpec(k=8, r=4))
        assert palette == (0, 1, 2, 3)
        # a nonzero mask also pins position 1 to color 0; the canonical
        # first nonzero colors are the divisors: 1 and 2
        assert mask == (1 << 1) | (1 << 2)

    def test_no_reduction_without_divisibility(self):
        palette, mask = _symmetry_filters(ProblemSpec(k=5, r=3))
        assert palette == (0, 1, 2)
        assert mask == 0

    def test_binary_pins_first_color_only(self):
        spec = ProblemSpec(k=8, r=4, palette=Palette.BINARY)
        palette, mask = _symmetry_filters(spec)
        assert palette == (0, 1)
        # nonzero, so position 1 is pinned; it holds 1, the only nonzero
        # color, so the orbit filter never acts
        assert mask == (1 << 1) | (1 << 2)


class TestFindFreeColoring:
    def test_trivial_domain_returns_all_zero(self):
        spec = ProblemSpec(k=6, r=3)
        outcome = find_free_coloring(4, spec)  # n = k - 2
        assert outcome.found
        assert outcome.coloring.values == (0, 0, 0, 0)

    def test_finds_certificate_at_construction_size(self):
        spec = ProblemSpec(k=6, r=3)
        outcome = find_free_coloring(14, spec)
        assert outcome.found
        assert is_solution_free(outcome.coloring, spec)
        assert brute_force_oracle(outcome.coloring, spec) is None

    def test_exhausts_at_exact_value(self):
        spec = ProblemSpec(k=6, r=3)
        outcome = find_free_coloring(15, spec)
        assert outcome.exhausted
        assert outcome.stats.nodes > 0

    def test_deterministic_certificate_is_lex_least(self):
        # reduced space reference: enumerate colorings with color(1)=0 and
        # canonical first nonzero residue, check freeness with the oracle
        spec = ProblemSpec(k=4, r=2)
        n = 4
        free = []
        for values in product(range(2), repeat=n):
            if values[0] != 0:
                continue
            chi = Coloring.of(values, 2)
            if brute_force_oracle(chi, spec) is None:
                free.append(values)
        expected = min(free)
        outcome = find_free_coloring(n, spec, SearchConfig(deterministic=True))
        assert outcome.coloring.values == expected

    def test_budget_exhaustion(self):
        # exhausting S_z(12,4) at n=43 takes 62 nodes and 109 probes
        spec = ProblemSpec(k=12, r=4)
        outcome = find_free_coloring(43, spec, SearchConfig(max_nodes=50))
        assert outcome.status == 3
        assert outcome.stats.nodes + outcome.stats.probes <= 50

    def test_budget_covers_probes(self):
        # exhausting S_z(12,6) at n=68 takes 3,463 nodes and 35,590
        # probes; the budget caps the two together
        spec = ProblemSpec(k=12, r=6)
        outcome = find_free_coloring(68, spec, SearchConfig(max_nodes=1000))
        assert outcome.status == 3
        assert outcome.stats.probes > 0
        assert outcome.stats.nodes + outcome.stats.probes <= 1000

    def test_exhausts_12_6_at_68(self):
        outcome = find_free_coloring(68, ProblemSpec(k=12, r=6))
        assert outcome.exhausted
        assert (outcome.stats.nodes, outcome.stats.probes) == (3463, 35590)

    def test_timeout_already_expired(self):
        spec = ProblemSpec(k=6, r=3)
        outcome = find_free_coloring(15, spec, SearchConfig(timeout=0.0))
        assert outcome.status == 3

    def test_unreduced_search_without_divisibility(self):
        # r does not divide k: all-zero fails (every color sum is 0) but
        # free colorings exist, e.g. all ones
        spec = ProblemSpec(k=5, r=3)
        outcome = find_free_coloring(8, spec)
        assert outcome.found
        assert is_solution_free(outcome.coloring, spec)


def exists_free_unreduced(n, spec):
    residues = spec.palette_residues()
    return any(
        is_solution_free(Coloring.of(values, spec.r), spec)
        for values in product(residues, repeat=n)
    )


@pytest.mark.parametrize("r,palette", [
    (2, Palette.FULL), (3, Palette.FULL), (4, Palette.FULL),
    (4, Palette.BINARY),
])
def test_symmetry_reduction_soundness(r, palette):
    # reduced-search existence must match unreduced enumeration exactly
    k = 2 * r if r > 2 else 4
    spec = ProblemSpec(k=k, r=r, palette=palette)
    for n in range(0, 9):
        outcome = find_free_coloring(n, spec)
        assert outcome.found == exists_free_unreduced(n, spec), (r, n)


def test_pruning_never_changes_outcome():
    # leaf-only reference: same reduced branching, but freeness is only
    # checked on complete colorings instead of at every extension; its
    # first free coloring in product order is the lex-least one, which
    # the sequential search must return
    cases = ((4, 2, Palette.FULL), (6, 3, Palette.FULL), (4, 4, Palette.FULL),
             (8, 4, Palette.BINARY))
    for (k, r, palette), n in product(cases, range(0, 9)):
        spec = ProblemSpec(k=k, r=r, palette=palette)
        residues, mask = _symmetry_filters(spec)
        first = None
        for values in product(residues, repeat=n):
            if n and mask and values[0] != 0:
                continue
            if mask:
                nonzero = next((v for v in values if v), 0)
                if nonzero and not (mask >> nonzero) & 1:
                    continue
            if is_solution_free(Coloring.of(values, spec.r), spec):
                first = values
                break
        outcome = find_free_coloring(n, spec)
        got = outcome.coloring.values if outcome.found else None
        assert got == first, (k, r, palette, n)


@pytest.fixture
def windows(monkeypatch):
    """The (n, n_max) of every window solve_exact searches, in order."""
    calls = []
    search = solver._search_window

    def spy(n, n_max, *args):
        calls.append((n, n_max))
        return search(n, n_max, *args)

    monkeypatch.setattr(solver, "_search_window", spy)
    return calls


class TestSolveExact:
    def test_two_color_values(self):
        result = solve_exact(ProblemSpec(k=4, r=2))
        assert result.status is SolveStatus.EXACT and result.value == 5
        assert result.certificate.n == 4
        assert is_solution_free(result.certificate, ProblemSpec(k=4, r=2))
        # small certificates also pass the independent oracle
        assert brute_force_oracle(result.certificate, ProblemSpec(k=4, r=2)) is None
        result = solve_exact(ProblemSpec(k=6, r=2))
        assert result.value == 9
        assert brute_force_oracle(result.certificate, ProblemSpec(k=6, r=2)) is None

    def test_three_color_value(self):
        result = solve_exact(ProblemSpec(k=6, r=3))
        assert result.status is SolveStatus.EXACT and result.value == 15
        assert result.certificate.n == 14

    def test_binary_variant_value(self):
        result = solve_exact(ProblemSpec(k=8, r=4, palette=Palette.BINARY))
        assert result.status is SolveStatus.EXACT and result.value == 25
        spec = ProblemSpec(k=8, r=4, palette=Palette.BINARY)
        assert is_solution_free(result.certificate, spec)
        assert set(result.certificate.values) <= {0, 1}

    def test_infinite_when_r_does_not_divide_k(self):
        result = solve_exact(ProblemSpec(k=5, r=3))
        assert result.status is SolveStatus.INFINITE
        assert result.value == INF
        assert result.certificate is None

    def test_budget_exhaustion_brackets_truth(self):
        result = solve_exact(ProblemSpec(k=12, r=6),
                             SearchConfig(max_nodes=5000))
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.stats.nodes + result.stats.probes <= 5000
        # the unbudgeted scan settles S_z(12,6) = 68; the certified
        # bracket must contain it
        assert result.value <= 68
        assert result.certificate is not None
        assert result.value == result.certificate.n + 1
        assert is_solution_free(result.certificate, ProblemSpec(k=12, r=6))

    def test_certificates_restrict_free(self):
        for k, r, palette in ((4, 2, Palette.FULL), (6, 3, Palette.FULL),
                              (8, 4, Palette.BINARY)):
            spec = ProblemSpec(k=k, r=r, palette=palette)
            cert = solve_exact(spec).certificate
            for m in range(cert.n, -1, -1):
                assert is_solution_free(cert.restricted(m), spec)

    def test_deterministic_certificate(self):
        # deterministic mode re-derives the lexicographically least
        # certificate even when the scan started above the construction
        spec = ProblemSpec(k=4, r=2)
        result = solve_exact(spec, SearchConfig(deterministic=True))
        free = [values for values in product(range(2), repeat=4)
                if values[0] == 0
                and brute_force_oracle(Coloring.of(values, 2), spec) is None]
        assert result.certificate.values == min(free)

    @pytest.mark.parametrize(
        "k,r,palette,certificate,nodes,prunes,depth,probes", CERTIFIED_TREES,
        ids=["-".join(map(str, case[:4])) for case in CERTIFIED_TREES])
    def test_deterministic_certificates_unchanged(self, k, r, palette,
                                                  certificate, nodes, prunes,
                                                  depth, probes):
        # lex-least certificates recorded from the search without
        # forward checking; pruning dead subtrees must not change them.
        # The node, prune, depth and probe counts pin the trees of the
        # scan, with forward checking, singleton propagation, probing
        # and the levels searched in one window from the construction,
        # each window a search from scratch: up to the proven upper bound
        # for k > r (S_z(12,6) is the long one, 64..68), and up to twice
        # the construction's n for k = r (S_z(5,5): 37..74, from the
        # diagonal coloring, which is the lex-least one), with a forced
        # position that ends a level closed over the new target and every
        # frame probed again at a higher level: a change of table layout
        # must leave them as they are.
        spec = ProblemSpec(k=k, r=r, palette=palette)
        result = solve_exact(spec, SearchConfig(deterministic=True))
        assert result.status is SolveStatus.EXACT
        assert result.value == len(certificate) + 1
        assert "".join(map(str, result.certificate.values)) == certificate
        stats = result.stats
        assert (stats.nodes, stats.prunes, stats.max_depth,
                stats.probes) == (nodes, prunes, depth, probes)

    def test_sweep_values_and_total_counts(self):
        # the 64 solves of SWEEP_VALUES, both palettes, deterministic and
        # not: each value is pinned, and the summed counts pin the trees
        # of every scan, so a change that alters pruning anywhere in them
        # shows here, not only in the kernel benchmark
        totals = [0, 0, 0]
        for (k, r), values in SWEEP_VALUES.items():
            for palette, value in zip((Palette.FULL, Palette.BINARY), values):
                spec = ProblemSpec(k=k, r=r, palette=palette)
                for deterministic in (False, True):
                    result = solve_exact(spec, SearchConfig(
                        deterministic=deterministic))
                    assert result.status is SolveStatus.EXACT
                    assert result.value == value, (k, r, palette)
                    assert result.certificate.n == value - 1
                    assert is_solution_free(result.certificate, spec)
                    stats = result.stats
                    totals[0] += stats.nodes
                    totals[1] += stats.prunes
                    totals[2] += stats.probes
        assert totals == [12_711, 7_996, 82_005]

    def test_k_above_r_scans_in_one_window(self, windows):
        # k > r has a finite proven upper bound, so the scan is one window
        # from its checked start (the construction's n, or one above it)
        # up to the bound, where it exhausts
        for (k, r), values in SWEEP_VALUES.items():
            if k == r:
                continue
            for palette, value in zip((Palette.FULL, Palette.BINARY),
                                      values):
                spec = ProblemSpec(k=k, r=r, palette=palette)
                start = _certified_start(spec, None).n + 1
                upper = theoretical_bounds(k, r, palette).upper
                for deterministic, first in ((False, start),
                                             (True, start - 1)):
                    windows.clear()
                    result = solve_exact(spec, SearchConfig(
                        deterministic=deterministic))
                    assert result.value == value
                    assert windows == [(first, upper)], (
                        k, r, palette, deterministic)

    def test_k_equal_r_scans_in_one_window(self, windows):
        # k = r has no finite proven upper bound, so the window from the
        # scan's start n ends at 2n, and every value of SWEEP_VALUES lies
        # within it: one search, both palettes, deterministic or not
        for (k, r), values in SWEEP_VALUES.items():
            if k != r:
                continue
            for palette, value in zip((Palette.FULL, Palette.BINARY),
                                      values):
                spec = ProblemSpec(k=k, r=r, palette=palette)
                start = _certified_start(spec, None).n + 1
                for deterministic, first in ((False, start),
                                             (True, start - 1)):
                    windows.clear()
                    result = solve_exact(spec, SearchConfig(
                        deterministic=deterministic))
                    assert result.value == value
                    assert windows == [(first, 2 * first)], (
                        k, r, palette, deterministic)

    @pytest.mark.parametrize("k,value", ((8, 27), (12, 43)))
    def test_second_window_above_a_low_bound(self, monkeypatch, windows,
                                             k, value):
        # with a proven bound taken 3 below the value, the deterministic
        # scan's first window is the construction's n = value - 1 alone
        # (a start above the bound still gets a window); it finds the
        # lex-least coloring there, so a second window searches the
        # value's level from scratch and exhausts it.  Value and
        # certificate equal those of the solve with the true bound, and a
        # budget that runs out in the second window is spent exactly and
        # keeps the first window's certificate
        spec = ProblemSpec(k=k, r=4)
        cfg = SearchConfig(deterministic=True)
        want = solve_exact(spec, cfg)
        bounds = solver.theoretical_bounds

        def low(*args):
            return replace(bounds(*args), upper=value - 3)

        monkeypatch.setattr(solver, "theoretical_bounds", low)
        windows.clear()
        result = solve_exact(spec, cfg)
        assert windows == [(value - 1, value - 1), (value, value)]
        assert result.status is SolveStatus.EXACT
        assert (result.value, result.certificate) == (want.value,
                                                      want.certificate)
        first = find_free_coloring(value - 1, spec).stats
        budget = first.nodes + first.probes + 100
        result = solve_exact(spec, SearchConfig(max_nodes=budget,
                                                deterministic=True))
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.stats.nodes + result.stats.probes == budget
        assert (result.value, result.certificate) == (value,
                                                      want.certificate)

    def test_budget_cut_before_lex_least_keeps_construction(self):
        # the deterministic scan first searches n=44, the construction's
        # n, for the lex-least certificate; that takes 121 nodes and 56
        # probes, so a budget of 100 runs out there and the free
        # construction stays
        spec = ProblemSpec(k=10, r=5)
        result = solve_exact(spec, SearchConfig(max_nodes=100,
                                                deterministic=True))
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.value == 45
        assert result.certificate.n == 44
        assert is_solution_free(result.certificate, spec)
        # n=45 is exhausted in 38 nodes and 47 probes, within the budget
        outcome = find_free_coloring(45, spec, SearchConfig(max_nodes=100))
        assert outcome.exhausted
        assert (outcome.stats.nodes, outcome.stats.probes) == (38, 47)

    @pytest.mark.parametrize("budget,found", ((2200, 30), (3000, 31)))
    def test_budget_runs_out_in_a_later_window(self, budget, found):
        # the deterministic S_z(6,6) scan searches one window from the
        # construction's n = 28, and exhausts 32 after 6,536 steps.  A
        # budget of 2,200 runs out after it found the lex-least coloring
        # of 30, and one of 3,000 after it found that of 31: the
        # certificate is the last level found inside the window, and the
        # budget is spent exactly
        spec = ProblemSpec(k=6, r=6)
        result = solve_exact(spec, SearchConfig(max_nodes=budget,
                                                deterministic=True))
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.stats.nodes + result.stats.probes == budget
        certificate = result.certificate
        assert certificate.n == found
        assert result.value == found + 1 <= 32
        assert is_solution_free(certificate, spec)
        assert find_free_coloring(certificate.n, spec).coloring == certificate

    def test_expired_timeout_across_windows(self, windows):
        # an expired timeout stops the construction check, so the solve
        # reports the floor k-1 = 4 and searches no window
        for deterministic in (False, True):
            result = solve_exact(ProblemSpec(k=5, r=5),
                                 SearchConfig(timeout=0,
                                              deterministic=deterministic))
            assert result.status is SolveStatus.BUDGET_EXHAUSTED
            assert (result.value, result.certificate) == (4, None)
            assert result.stats.nodes + result.stats.probes == 0
        assert windows == []

    def test_budgeted_redo_finds_the_lex_least_certificate(self):
        # the lex-least search at n=44 takes 121 nodes and 56 probes, so
        # a 500k budget derives the lex-least certificate
        spec = ProblemSpec(k=10, r=5)
        result = solve_exact(spec, SearchConfig(max_nodes=500_000,
                                                deterministic=True))
        assert result.status is SolveStatus.EXACT
        assert result.value == 45
        assert ("".join(map(str, result.certificate.values))
                == "01234012310123101221012210132101321043210432")
        assert is_solution_free(result.certificate, spec)

    @pytest.mark.parametrize("k,r,n", [(8, 4, 27), (12, 3, 33), (9, 3, 24),
                                       (6, 6, 32), (10, 5, 45)])
    def test_threaded_exhaustion_spends_the_sequential_nodes(self, k, r, n):
        # threads has no effect on the search: a threaded exhaustion
        # checks each node of the sequential tree exactly once
        spec = ProblemSpec(k=k, r=r)
        seq = find_free_coloring(n, spec)
        par = find_free_coloring(n, spec, SearchConfig(threads=2))
        assert seq.exhausted and par.exhausted
        assert ((par.stats.nodes, par.stats.prunes, par.stats.probes)
                == (seq.stats.nodes, seq.stats.prunes, seq.stats.probes))

    def test_budget_is_exact_under_threads(self):
        # S_z(12,4) now settles in 171 steps (nodes plus probes), so the
        # budgets run out on S_z(12,6) instead
        spec = ProblemSpec(k=12, r=6)
        outcome = find_free_coloring(68, spec, SearchConfig(max_nodes=50,
                                                            threads=2))
        assert outcome.status == 3
        assert outcome.stats.nodes + outcome.stats.probes <= 50
        result = solve_exact(spec, SearchConfig(max_nodes=5000, threads=2))
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        assert result.stats.nodes + result.stats.probes == 5000

    def test_thread_count_does_not_change_value(self):
        for threads in (1, 2, 4):
            result = solve_exact(ProblemSpec(k=6, r=3),
                                 SearchConfig(threads=threads))
            assert result.value == 15, threads
            result = solve_exact(ProblemSpec(k=6, r=2),
                                 SearchConfig(threads=threads))
            assert result.value == 9, threads

    def test_small_known_values_match_bounds_table(self):
        from zschur import theoretical_bounds
        for k, r in ((4, 2), (6, 2), (8, 2), (6, 3), (9, 3)):
            report = theoretical_bounds(k, r)
            assert report.exact
            assert solve_exact(ProblemSpec(k=k, r=r)).value == report.lower

    def test_zero_budget(self):
        result = solve_exact(ProblemSpec(k=6, r=3), SearchConfig(max_nodes=0))
        assert result.status is SolveStatus.BUDGET_EXHAUSTED
        # the construction still certifies the bracket low end
        assert result.value == 15

    def test_timeout_covers_the_certified_start(self, windows):
        # checking the k=130, r=65 construction takes seconds, and building
        # the k=600, r=300, k=r=10,000 and k=r=10,001 (diagonal) ones
        # takes longer; an expired timeout stops each before its check,
        # and the solve reports the floor k-1 without searching.  A window
        # from the floor to 2k-2 would build r(2k-1)-bit masks before its
        # first deadline test: 130 MiB at k=r=10,000
        for k, r, palette in ((130, 65, Palette.FULL),
                              (600, 300, Palette.FULL),
                              (600, 300, Palette.BINARY),
                              (10_000, 10_000, Palette.FULL),
                              (10_000, 10_000, Palette.BINARY),
                              (10_001, 10_001, Palette.FULL)):
            windows.clear()
            tracemalloc.start()
            start = monotonic()
            try:
                result = solve_exact(ProblemSpec(k=k, r=r, palette=palette),
                                     SearchConfig(timeout=0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert monotonic() - start < 1.0
            assert result.status is SolveStatus.BUDGET_EXHAUSTED
            assert result.value == k - 1
            assert result.certificate is None
            assert result.stats.nodes == 0
            assert windows == []
            assert peak < 2 * 2**20, (k, r, palette)

    @pytest.mark.parametrize("palette", tuple(Palette))
    def test_certified_start_has_the_construction_length(self, palette):
        # the paper proves the constructions for k > r only, and no verify
        # row checks a full-palette k = r one, so check that the checker
        # finds each free: k = r up to 30, and k in {2r, 3r, 4r}.  The
        # full palette starts odd k = r at the diagonal coloring
        cases = [(k, k) for k in range(3, 31)]
        cases += [(m * r, r) for r in range(2, 11) for m in (2, 3, 4)]
        for k, r in cases:
            if palette is Palette.BINARY:
                length = r * k - 2 * r
            elif k == r and k % 2:
                length = 2 * k * k - 2 * k - 3
            else:
                length = k * r - r - 2 + r % 2
            start = _certified_start(ProblemSpec(k=k, r=r, palette=palette),
                                     None)
            assert start is not None and start.n == length, (k, r)

    @pytest.mark.parametrize("palette", tuple(Palette))
    def test_construction_with_a_solution_is_a_bug(self, monkeypatch,
                                                   windows, palette):
        # a construction the checker rejects raises, with no search: the
        # all-0 coloring of [1..14] has the target k-1 = 5 (1+1+1+1+1)
        def all_zero(k, r):
            return iter([0] * 14)

        monkeypatch.setattr(solver.constructions, "construction_colors",
                            all_zero)
        monkeypatch.setattr(solver.constructions,
                            "binary_construction_colors", all_zero)
        with pytest.raises(RuntimeError, match=r"k=6, r=3 .*target 5$"):
            solve_exact(ProblemSpec(k=6, r=3, palette=palette))
        assert windows == []

    def test_stats_accumulate(self):
        # the deterministic scan's first level, at the construction's
        # n=14, finds the lex-least certificate and colors every position
        result = solve_exact(ProblemSpec(k=6, r=3),
                             SearchConfig(deterministic=True))
        assert result.stats.nodes > 0
        assert result.stats.prunes > 0
        assert result.stats.max_depth == 14
        assert result.stats.elapsed >= 0.0


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(threads=0)
    with pytest.raises(ValueError):
        SearchConfig(max_nodes=-1)
    for timeout in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            SearchConfig(timeout=timeout)
    for timeout in (0.0, float("inf")):
        assert SearchConfig(timeout=timeout).timeout == timeout
