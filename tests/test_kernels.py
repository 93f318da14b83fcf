"""Backend equivalence.

The reachability pass must match bit for bit.  The pure search prunes by
forward checking while the frozen compiled search does not, so searches
are compared on status and coloring; node and prune counts differ.
"""

import random
from time import monotonic

import pytest

from zschur import _kernel_py
from zschur.backend import available_backends

BACKENDS = available_backends()


def backends():
    return sorted(BACKENDS)


@pytest.fixture(params=backends())
def kernel(request):
    return BACKENDS[request.param]


def test_both_backends_expected():
    assert "pure" in BACKENDS
    if "compiled" not in BACKENDS:
        pytest.skip("compiled kernel not built; pure fallback active")


def test_status_codes_match(kernel):
    assert (kernel.EXHAUSTED, kernel.FOUND, kernel.BUDGET) == (0, 1, 3)


def test_first_target_random_agreement(kernel):
    rng = random.Random(2024)
    for _ in range(300):
        k = rng.randint(3, 7)
        r = rng.randint(2, 6)
        n = rng.randint(0, 40)
        values = tuple(rng.randrange(r) for _ in range(n))
        got = kernel.first_zero_sum_target(values, n, k, r)
        want = _kernel_py.first_zero_sum_target(values, n, k, r)
        assert got == want, (values, n, k, r)


def test_first_target_wide_sums(kernel):
    # n past one machine word exercises the multi-word shift path
    rng = random.Random(77)
    for n in (63, 64, 65, 127, 130, 200):
        values = tuple(rng.randrange(5) for _ in range(n))
        got = kernel.first_zero_sum_target(values, n, 10, 5)
        want = _kernel_py.first_zero_sum_target(values, n, 10, 5)
        assert got == want, n


def test_search_identical_results(kernel):
    cases = []
    for r, palette in ((2, (0, 1)), (3, (0, 1, 2)), (4, (0, 1, 2, 3))):
        k = 2 * r if r > 2 else 4
        for n in range(0, 9):
            cases.append((n, k, r, palette, 0, 0))
            cases.append((n, k, r, palette, -1, 0))
    # canonical-orbit mask for r=4: residues 1 and 2
    cases.append((8, 8, 4, (0, 1, 2, 3), 0, 0b110))
    cases.append((10, 4, 4, (0, 1), 0, 0))  # binary palette inside Z/4Z
    for n, k, r, palette, fix_first, mask in cases:
        got = kernel.search_free_coloring(n, k, r, palette, (), fix_first,
                                          mask, None, None)
        want = _kernel_py.search_free_coloring(n, k, r, palette, (), fix_first,
                                               mask, None, None)
        assert got[:2] == want[:2], (n, k, r, palette, fix_first, mask)


def test_search_with_prefix(kernel):
    # prefixes as produced by the frontier splitter
    for prefix in ((), (0,), (0, 0), (0, 1), (0, 0, 1), (0, 2, 1)):
        got = kernel.search_free_coloring(10, 6, 3, (0, 1, 2), prefix, 0,
                                          0b10, None, None)
        want = _kernel_py.search_free_coloring(10, 6, 3, (0, 1, 2), prefix, 0,
                                               0b10, None, None)
        assert got[:2] == want[:2], prefix


def test_search_budget_agreement(kernel):
    args = (15, 6, 3, (0, 1, 2), (), 0, 0b10)
    unbudgeted = _kernel_py.search_free_coloring(*args, None, None)
    for budget in (0, 1, 7, 50, 1000):
        got = kernel.search_free_coloring(*args, budget, None)
        assert got[2] <= budget  # node count respects the budget
        if got[0] != kernel.BUDGET:
            assert got[:2] == unbudgeted[:2], budget


def test_search_expired_deadline(kernel):
    status, coloring, nodes, prunes, depth = kernel.search_free_coloring(
        15, 6, 3, (0, 1, 2), (), 0, 0b10, None, monotonic() - 10.0)
    assert status == kernel.BUDGET
    assert coloring is None
    assert nodes <= 1024  # at most one deadline stride


def test_compiled_speedup_on_search():
    if "compiled" not in BACKENDS:
        pytest.skip("compiled kernel not built")
    compiled = BACKENDS["compiled"]
    args = (27, 8, 4, (0, 1, 2, 3), (), 0, 0b110, 2_000_000, None)
    t0 = monotonic()
    fast = compiled.search_free_coloring(*args)
    fast_t = monotonic() - t0
    t0 = monotonic()
    slow = _kernel_py.search_free_coloring(*args)
    slow_t = monotonic() - t0
    assert fast[:2] == slow[:2]
    # not asserted as a hard ratio; just require the extension not be slower
    assert fast_t <= slow_t


def test_wiped_out_prefix_returns_at_entry():
    # (0, 0, 1) is free, but some target up to 15 has all three colors
    # forbidden by it, so the search stops before its first node
    got = _kernel_py.search_free_coloring(15, 6, 3, (0, 1, 2), (0, 0, 1), 0,
                                          0b10, None, None)
    assert got == (_kernel_py.EXHAUSTED, None, 0, 0, 3)


def test_propagation_refutes_prefix_at_entry():
    # (0, 0) forbids color 0 at 3 and 4, so both are forced to 1; then
    # 1+1+3 forbids 1 and 1+2+2 forbids 0 at 5.  Only propagating the
    # forced targets sees that, and the entry test does it before any node
    args = (5, 4, 2, (0, 1), (0, 0))
    assert _kernel_py.entry_state(*args) is None
    got = _kernel_py.search_free_coloring(*args, 0, 0, None, None)
    assert got == (_kernel_py.EXHAUSTED, None, 0, 0, 2)
