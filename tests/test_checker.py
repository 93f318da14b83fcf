import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from zschur import _kernel_py, checker
from zschur import (
    Coloring,
    ModulusMismatchError,
    ProblemSpec,
    Witness,
    brute_force_oracle,
    construct,
    find_zero_sum_solution,
    is_solution_free,
    validate_witness,
)
from zschur.core import parse_coloring
from zschur.verification import random_coloring


def test_monochromatic_witness():
    # constant color 1 on [1..k-1] with r | k: the all-ones solution is zero-sum
    spec = ProblemSpec(k=4, r=2)
    chi = Coloring.constant(3, 2, 1)
    assert find_zero_sum_solution(chi, spec) == Witness(parts=(1, 1, 1), target=3)


def test_domain_too_small_is_free():
    # no target fits in [1..k-2]
    spec = ProblemSpec(k=5, r=2)
    for values in ([0, 0, 0], [1, 1, 1], [1, 0, 1]):
        chi = Coloring.of(values, 2)
        assert find_zero_sum_solution(chi, spec) is None
        assert is_solution_free(chi, spec)


def test_known_free_coloring():
    # hand-enumerated: tuples {1,1,1}->3 and {1,1,2}->4 both have odd color sums
    spec = ProblemSpec(k=4, r=2)
    chi = Coloring.of([1, 0, 0, 1], 2)
    assert find_zero_sum_solution(chi, spec) is None


def test_construction_is_free_per_checker_and_oracle():
    spec = ProblemSpec(k=6, r=3)
    chi = construct(6, 3)
    assert is_solution_free(chi, spec)
    assert brute_force_oracle(chi, spec) is None


def test_modulus_mismatch():
    spec = ProblemSpec(k=4, r=2)
    chi = Coloring.constant(5, 3, 1)
    with pytest.raises(ModulusMismatchError):
        find_zero_sum_solution(chi, spec)
    with pytest.raises(ModulusMismatchError):
        brute_force_oracle(chi, spec)


def test_oracle_equivalence_and_lexicographic_witness():
    # r up to 6 and n up to 20 put targets on the last sum of a packed
    # block (sum n, block (r-c) % r) for every residue; each coloring with
    # a witness is also checked cut at its least target, where that
    # target is exactly n
    rng = random.Random(1234)
    existence_checked = 0
    witnesses_checked = 0
    for _ in range(300):
        k = rng.choice((3, 4, 5))
        r = rng.randint(2, 6)
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(0, 20), r)
        fast = find_zero_sum_solution(chi, spec)
        slow = brute_force_oracle(chi, spec)
        assert (fast is None) == (slow is None), (chi.values, k, r)
        existence_checked += 1
        if fast is not None:
            assert fast == slow, (chi.values, k, r, fast, slow)
            assert validate_witness(fast, chi, spec)
            witnesses_checked += 1
            cut = chi.restricted(fast.target)
            assert find_zero_sum_solution(cut, spec) == fast
            assert brute_force_oracle(cut, spec) == fast
    # S_z(6, 3) = 15: the free construction of [1..14] plus any color has
    # its least target at exactly n = 15
    spec = ProblemSpec(k=6, r=3)
    for c in range(3):
        chi = Coloring.of(construct(6, 3).values + (c,), 3)
        fast = find_zero_sum_solution(chi, spec)
        assert fast is not None and fast.target == chi.n == 15
        assert fast == brute_force_oracle(chi, spec)
    assert existence_checked == 300
    assert witnesses_checked > 100  # sanity: the sample was not degenerate


def test_is_solution_free_matches_finder():
    rng = random.Random(99)
    for _ in range(100):
        k = rng.choice((3, 4))
        r = rng.choice((2, 3))
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(0, 10), r)
        assert is_solution_free(chi, spec) == (find_zero_sum_solution(chi, spec) is None)


def test_freeness_invariances():
    rng = random.Random(57)
    for _ in range(60):
        r = rng.choice((2, 3, 4))
        k = 2 * r
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(0, 11), r)
        free = is_solution_free(chi, spec)
        for shift in range(r):
            assert is_solution_free(chi.translated(shift), spec) == free
        import math
        for u in (u for u in range(1, r) if math.gcd(u, r) == 1):
            assert is_solution_free(chi.scaled(u), spec) == free


def test_restriction_monotonicity_on_random_free_colorings():
    rng = random.Random(31)
    found = 0
    while found < 20:
        r = rng.choice((2, 3))
        k = 2 * r
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(4, 10), r)
        if not is_solution_free(chi, spec):
            continue
        found += 1
        for m in range(chi.n - 1, -1, -1):
            assert is_solution_free(chi.restricted(m), spec)


def test_witness_against_table_semantics():
    # every returned witness only uses parts allowed by the target cap
    rng = random.Random(4)
    for _ in range(200):
        k = rng.choice((3, 4, 5))
        r = rng.choice((2, 3, 4))
        spec = ProblemSpec(k=k, r=r)
        chi = random_coloring(rng, rng.randint(k - 1, 12), r)
        w = find_zero_sum_solution(chi, spec)
        if w is None:
            continue
        assert all(p <= w.target - k + 2 for p in w.parts)
        assert len(w.parts) == k - 1


def test_invalid_extracted_witness_raises(monkeypatch):
    # a witness that fails validation is an internal error, raised even
    # under python -O: the parts (1, 1, 2) do not sum to the target 3
    spec = ProblemSpec(k=4, r=2)
    chi = Coloring.constant(5, 2, 0)
    assert find_zero_sum_solution(chi, spec) == Witness(parts=(1, 1, 1), target=3)
    monkeypatch.setattr(checker, "_lex_least_parts", lambda *args: (1, 1, 2))
    with pytest.raises(RuntimeError, match="failed validation"):
        find_zero_sum_solution(chi, spec)


@pytest.mark.parametrize("row", [0, -1])
def test_extraction_from_a_wrong_table_raises(monkeypatch, row):
    # a table whose last row decides the target but whose lower rows
    # contradict it ends extraction with an error: an empty row passes no
    # first part, and a full one passes part 1, after which the last
    # part, 3, has the wrong color
    spec = ProblemSpec(k=3, r=3)
    chi = Coloring.of((0, 1, 0, 1), 3)
    assert find_zero_sum_solution(chi, spec) == Witness(parts=(2, 2), target=4)
    exact_table = _kernel_py.exact_table

    def wrong_table(colors, k, v_max, geo, deadline=None):
        rows = exact_table(colors, k, v_max, geo, deadline)
        return rows[:1] + [row] * (k - 2) + rows[-1:]

    monkeypatch.setattr(_kernel_py, "exact_table", wrong_table)
    with pytest.raises(RuntimeError, match="extraction failed"):
        find_zero_sum_solution(chi, spec)


def test_exact_table_matches_definition():
    # extraction reads every row of the one table: cell (j, s, c) says j
    # values from [1..v_max] sum to s with color-sum c
    rng = random.Random(55)
    for _ in range(40):
        k = rng.randint(3, 6)
        r = rng.randint(2, 5)
        v_max = rng.randint(1, 10)
        sum_cap = v_max + rng.randint(0, 12)
        colors = [rng.randrange(r) for _ in range(v_max)]
        geo = _kernel_py.CheckerGeometry(r, sum_cap, k)
        rows = _kernel_py.exact_table(colors, k, v_max, geo)
        for j in range(k):
            want = set()
            for parts in combinations_with_replacement(range(1, v_max + 1), j):
                if sum(parts) <= sum_cap:
                    want.add((sum(parts), sum(colors[p - 1] for p in parts) % r))
            got = {(s, c) for s in range(sum_cap + 1) for c in range(r)
                   if _kernel_py.checker_cell(rows, j, s, c, geo)}
            assert got == want, (colors, k, r, sum_cap, j)


def reference_witness(values, k, r):
    """Least witness (target, parts) by a greedy over naive suffix sets.

    ``suffix[lo][j]`` is the set of (sum, color-sum mod r) of j values
    from [lo..n], repetition allowed, sums capped at n: the completions
    allowed once a part equal to lo is chosen.  Shares no code with the
    kernel.
    """
    n = len(values)
    suffix = [None] * (n + 2)
    suffix[n + 1] = [{(0, 0)}] + [set() for _ in range(k - 1)]
    for lo in range(n, 0, -1):
        cells = [{(0, 0)}]
        for j in range(1, k):
            cells.append(suffix[lo + 1][j]
                         | {(s + lo, (c + values[lo - 1]) % r)
                            for s, c in cells[j - 1] if s + lo <= n})
        suffix[lo] = cells
    target = next((t for t in range(1, n + 1)
                   if (t, -values[t - 1] % r) in suffix[1][k - 1]), 0)
    if not target:
        return None
    parts = []
    s, c, lo = target, -values[target - 1] % r, 1
    for j in range(k - 1, 0, -1):
        v = next(v for v in range(lo, s + 1)
                 if (s - v, (c - values[v - 1]) % r) in suffix[v][j - 1])
        parts.append(v)
        s, c, lo = s - v, (c - values[v - 1]) % r, v
    return target, tuple(parts)


def test_witness_matches_reference_greedy():
    # the greedy reads one table of all values 1..v_max instead of a table
    # of [v..v_max] per candidate v; witnesses with three or more distinct
    # parts are those where a completion could use values in [p_{t-1}, v)
    rng = random.Random(2018)
    witnesses = spread = oracle_checked = 0
    for _ in range(400):
        k = rng.randint(3, 12)
        r = rng.randint(2, 7)
        n = rng.randint(0, 60)
        if rng.random() < 0.5:
            base = rng.randrange(r)
            values = tuple(base if rng.random() < 0.9 else rng.randrange(r)
                           for _ in range(n))
        else:
            values = tuple(rng.randrange(r) for _ in range(n))
        spec = ProblemSpec(k=k, r=r)
        chi = Coloring.of(values, r)
        fast = find_zero_sum_solution(chi, spec)
        want = reference_witness(values, k, r)
        got = None if fast is None else (fast.target, fast.parts)
        assert got == want, (values, k, r)
        if want is not None:
            witnesses += 1
            spread += len(set(want[1])) >= 3
        if n <= 22 and k <= 6:
            assert fast == brute_force_oracle(chi, spec), (values, k, r)
            oracle_checked += 1
    assert witnesses > 250 and spread >= 15 and oracle_checked >= 40, (
        witnesses, spread, oracle_checked)


def phase_case(target, n, k):
    """Where the least target of a coloring lies against the phases."""
    early = k + 15
    if n < k - 1:
        return "n < k-1"
    if target == 0:
        return "free, second table" if n > early else "free, n <= k+15"
    if target == early or target == early + 1:
        return f"target k+{target - k}"
    if target < early:
        return "target below k+15"
    return "target at n" if target == n else "target in (k+16, n)"


def test_both_phases_match_the_reference():
    # the table at cap min(n, k+15) decides the targets up to its cap,
    # the table at cap n the later ones; both must give the reference
    # witness, k+15 and k+16 being the last target of one and the first
    # of the other.  Each coloring whose witness is at k+15 or later is
    # also cut at its target, which is then n.  Where n > k+15, the
    # coloring with k+15 or k+16 recolored is checked too: a new color
    # that is forbidden there puts the least target at the boundary
    rng = random.Random(2020)
    cases = Counter()
    for _ in range(2500):
        k = rng.randint(3, 6)
        r = rng.randint(2, 6)
        n = rng.randint(0, 40)
        base = rng.randrange(r)
        p = rng.choice((0.02, 0.05, 0.1, 0.3))
        values = tuple(base if rng.random() > p else rng.randrange(r)
                       for _ in range(n))
        spec = ProblemSpec(k=k, r=r)
        colorings = [Coloring.of(values, r)]
        if n > k + 15:
            b = rng.randint(k + 15, min(n, k + 16))
            recolored = values[:b - 1] + (rng.randrange(r),) + values[b:]
            colorings.append(Coloring.of(recolored, r))
        while colorings:
            chi = colorings.pop()
            want = reference_witness(chi.values, k, r)
            target, rows, geo = checker._zero_sum_table(chi, spec)
            fast = find_zero_sum_solution(chi, spec)
            assert (None if fast is None else (fast.target, fast.parts)) == want, (
                chi.values, k, r)
            assert target == (0 if want is None else want[0])
            assert is_solution_free(chi, spec) == (want is None)
            if chi.n <= 22 and k <= 5:
                assert fast == brute_force_oracle(chi, spec), (chi.values, k, r)
            if target:
                # a hit up to k+15 reads the first table, at cap
                # min(n, k+15), a later one the second, at cap n
                early = min(chi.n, k + 15)
                assert geo.sum_cap == (early if target <= early else chi.n)
                if k + 15 <= target < chi.n:
                    colorings.append(chi.restricted(target))
            else:
                assert rows is None and geo is None
            cases[phase_case(target, chi.n, k)] += 1
    assert len(cases) == 8 and min(cases.values()) >= 20, cases


@pytest.mark.parametrize("k, r", [(32, 2), (32, 4), (36, 3), (35, 5),
                                  (40, 4)])
def test_witness_between_the_first_cap_and_2k(k, r):
    # a construction prefix of 1.5k positions, free on its own, and a
    # seeded random tail to n = kr: the least target lies in (k+15, 2k],
    # above the first table's cap, so the table at cap n decides it and
    # gives the parts.  brute_force_oracle cannot run here: the range is
    # empty below k = 16, and 15 parts over [1..kr] are too many tuples
    rng = random.Random(k * r)
    prefix = construct(k, r).values[:3 * k // 2]
    values = prefix + tuple(rng.randrange(r)
                            for _ in range(k * r - len(prefix)))
    chi = Coloring.of(values, r)
    spec = ProblemSpec(k=k, r=r)
    want = reference_witness(values, k, r)
    assert k + 15 < want[0] <= 2 * k, want
    fast = find_zero_sum_solution(chi, spec)
    assert (fast.target, fast.parts) == want
    assert not is_solution_free(chi, spec)
    assert checker._zero_sum_table(chi, spec)[2].sum_cap == chi.n


def test_exact_phase_over_reduced_residues():
    # colors 0 and 1 under r = 100: k colors sum to 0 mod r only when all
    # are 0, so the tables have k + 1 residues, not 100.  Zeros at a and
    # (k-1)a among ones put a solution at (k-1)a, past 2k for a >= 4
    rng = random.Random(8)
    late = free = 0
    for _ in range(200):
        k = rng.randint(3, 5)
        n = rng.randint(2 * k + 1, 26)
        zeros = set(rng.sample(range(1, n + 1), rng.randint(0, 3)))
        a = rng.randint(4, 8)
        if rng.random() < 0.5 and (k - 1) * a <= n:
            zeros |= {a, (k - 1) * a}
        values = tuple(0 if v in zeros else 1 for v in range(1, n + 1))
        chi = Coloring.of(values, 100)
        spec = ProblemSpec(k=k, r=100)
        assert checker._residues(chi, k, 100) == k + 1
        fast = find_zero_sum_solution(chi, spec)
        want = reference_witness(values, k, 100)
        assert (None if fast is None else (fast.target, fast.parts)) == want, (
            values, k)
        if k == 3:
            assert fast == brute_force_oracle(chi, spec), values
        assert is_solution_free(chi, spec) == (fast is None)
        late += fast is not None and fast.target > 2 * k
        free += fast is None
    assert late >= 30 and free >= 30, (late, free)


def test_witness_past_a_large_construction():
    # the k=100, r=20 construction is free on [1..1978]; one more value
    # colored 0 puts the least witness at 1979, the full table size
    spec = ProblemSpec(k=100, r=20)
    chi = construct(100, 20)
    assert is_solution_free(chi, spec)
    padded = Coloring.of(chi.values + (0,), 20)
    witness = find_zero_sum_solution(padded, spec)
    assert witness.target == chi.n + 1
    assert validate_witness(witness, padded, spec)
    # the decision builds one table of k rows, which extraction reads:
    # not one table per value, nor a second table for the witness
    tracemalloc.start()
    try:
        target, rows, geo = checker._zero_sum_table(padded, spec)
        parts = checker._lex_least_parts(padded, 100, target, rows, geo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (target, parts) == (witness.target, witness.parts)
    assert geo.sum_cap == padded.n  # the exact phase's table
    assert peak < 4 * 2**20, peak


def test_huge_header_modulus_with_small_colors_stays_small():
    # colors 0..2 with k=3 sum to at most 6, so the tables need 7
    # residues, not the header's 10**7
    chi, k = parse_coloring("3 3 10000000\n0 1 2\n")
    tracemalloc.start()
    try:
        witness = find_zero_sum_solution(chi, ProblemSpec(k, chi.r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak < 2**20, peak


def test_huge_header_k_with_a_short_coloring_stays_small():
    # no target fits in [1..n] when n < k-1, so least_target returns
    # before it builds a table of k rows: 10**6 rows would take 8 MB
    chi, k = parse_coloring("3 1000000 2\n0 1 0\n")
    tracemalloc.start()
    try:
        witness = find_zero_sum_solution(chi, ProblemSpec(k, chi.r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak < 2**20, peak


def test_small_colors_under_a_large_modulus_match_the_oracle():
    # r around k*c_max, where the residues the tables need change from r
    # to k*c_max + 1, and r far above it, where only colors summing to
    # exactly 0 make a solution
    rng = random.Random(71)
    witnesses = free = 0
    for _ in range(300):
        k = rng.randint(3, 5)
        c_max = rng.randint(0, 3)
        r = max(2, rng.choice((k * c_max + rng.randint(-2, 3),
                               10 ** rng.randint(2, 9))))
        n = rng.randint(0, 16)
        chi = Coloring.of([rng.randint(0, min(c_max, r - 1))
                           for _ in range(n)], r)
        spec = ProblemSpec(k, r)
        fast = find_zero_sum_solution(chi, spec)
        assert fast == brute_force_oracle(chi, spec), (chi.values, k, r)
        assert is_solution_free(chi, spec) == (fast is None)
        witnesses += fast is not None
        free += fast is None
    assert witnesses >= 50 and free >= 50


def test_many_colors_keep_at_most_k_masks():
    # value v colored v - 1 under r = 400: x1 + x2 = x3 needs
    # 2*x3 = 3 (mod 400), which has no solution, so the coloring is free
    # and the exact phase adds 399 values of 399 colors.  It keeps the
    # stay masks of k = 3 colors: one per color would hold 400 masks of
    # about 20 KB each
    chi = Coloring.of([v - 1 for v in range(1, 401)], 400)
    spec = ProblemSpec(k=3, r=400)
    tracemalloc.start()
    try:
        witness = find_zero_sum_solution(chi, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == brute_force_oracle(chi, spec) is None
    assert peak < 2**20, peak
