import math
import random

import pytest

from zschur import (INF, Palette, ProblemSpec, factorize, is_prime,
                    solve_exact, theoretical_bounds)
from zschur import bounds as bounds_mod


def test_factorize_examples():
    assert factorize(6) == (2, 3)
    assert factorize(8) == (2, 2, 2)
    assert factorize(7) == (7,)
    assert factorize(12) == (2, 2, 3)
    assert factorize(999_999_999_989) == (999_999_999_989,)
    # past 10**12 trial division could run for minutes: r is refused
    for r in (1, 10**12 + 1, 1_000_000_000_000_000_003):
        with pytest.raises(ValueError):
            factorize(r)


def test_prime_factors_invariants():
    for r in range(2, 200):
        factors = factorize(r)
        assert math.prod(factors) == r
        assert all(is_prime(p) for p in factors)
        assert factors == tuple(sorted(factors))
        # the factor deficit never exceeds r - 1
        assert sum(p - 1 for p in factors) <= r - 1


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(2, 25):
        assert is_prime(n) == (n in primes)


def test_k_above_r_factorizes_r_once(monkeypatch):
    # an odd composite r: one trial division tells it from a prime and
    # gives the deficit of its upper bound.  At the semiprime
    # 999979 * 999983 each division takes about 0.1 s
    calls = []

    def counted(r):
        calls.append(r)
        return factorize(r)

    monkeypatch.setattr(bounds_mod, "factorize", counted)
    for r in (9, 15, 999_979 * 999_983):
        calls.clear()
        rep = theoretical_bounds(2 * r, r)
        assert calls == [r], r
        deficit = sum(p - 1 for p in factorize(r))
        assert rep.upper == 2 * r * r - deficit - 1, r
    # r = 2 and r = 4 need no factorization; an r past 10**12 is refused
    for r in (2, 4):
        calls.clear()
        theoretical_bounds(2 * r, r)
        assert calls == [], r
    with pytest.raises(ValueError):
        theoretical_bounds(2 * (10**12 + 1), 10**12 + 1)


def test_odd_prime_exact():
    rep = theoretical_bounds(10, 5)
    assert (rep.lower, rep.upper, rep.exact) == (45, 45, True)
    for r in (3, 5, 7, 11):
        for k in (2 * r, 3 * r):
            rep = theoretical_bounds(k, r)
            assert rep.exact and rep.lower == k * r - r, (k, r, rep)


def test_composite_bracket():
    rep = theoretical_bounds(12, 6)
    assert (rep.lower, rep.upper, rep.exact) == (65, 68, False)
    sources = {e.source for e in rep.entries}
    assert "even-r-construction" in sources
    assert "composite-prime-factor-upper" in sources


def test_infinite_when_r_does_not_divide_k():
    for k, r in ((5, 3), (7, 2), (9, 4), (3, 7)):
        rep = theoretical_bounds(k, r)
        assert rep.lower == INF and rep.upper == INF and rep.exact
        rep = theoretical_bounds(k, r, Palette.BINARY)
        assert rep.lower == INF and rep.upper == INF and rep.exact


def test_two_color_variant_exact():
    rep = theoretical_bounds(8, 4, Palette.BINARY)
    assert (rep.lower, rep.upper, rep.exact) == (25, 25, True)
    assert rep.entries[0].source == "robertson-roy-sarkar-two-color-palette"
    rep = theoretical_bounds(12, 6, Palette.BINARY)
    assert (rep.lower, rep.upper, rep.exact) == (6 * 12 - 12 + 1, 61, True)


def test_two_color_diagonal_has_the_construction_floor():
    # binary_construction_colors(k, k) is free on r^2 - 2r positions, so
    # k = r gets the construction's lower bound and no upper bound; the
    # deterministic solve settles k = 3..8 at or above it
    rep = theoretical_bounds(4, 4, Palette.BINARY)
    assert [(e.kind, e.value, e.source) for e in rep.entries] == [
        ("lower", 9, "two-color-construction")]
    assert rep.lower == 9 and rep.upper == INF and not rep.exact
    for k in range(3, 9):
        spec = ProblemSpec(k, k, Palette.BINARY)
        lower = theoretical_bounds(k, k, Palette.BINARY).lower
        assert lower == k * k - 2 * k + 1
        assert solve_exact(spec).value >= lower, k


def test_robertson_two_colors():
    for k in (4, 6, 8, 20):
        rep = theoretical_bounds(k, 2)
        assert rep.exact and rep.lower == 2 * k - 3, (k, rep)


def test_four_colors_exact():
    for k in (8, 12, 16):
        rep = theoretical_bounds(k, 4)
        assert rep.exact and rep.lower == 4 * k - 5, (k, rep)


def test_diagonal_odd_reports_cited_bound():
    rep = theoretical_bounds(5, 5)
    assert rep.lower == 2 * (25 - 5 - 1)
    assert rep.upper == INF and not rep.exact
    assert any(e.source == "odd-diagonal-construction"
               for e in rep.entries)
    # even diagonal has only the construction bound
    rep = theoretical_bounds(4, 4)
    assert rep.lower == 4 * 4 - 4 - 1 and rep.upper == INF


def test_grid_lower_at_most_upper():
    for k in range(3, 61):
        for r in range(2, 13):
            for variant in (Palette.FULL, Palette.BINARY):
                rep = theoretical_bounds(k, r, variant)
                assert rep.lower <= rep.upper, (k, r, variant, rep)
                assert rep.exact == (rep.lower == rep.upper)


def test_composite_upper_stays_inside_generic_bracket():
    for r in (6, 8, 9, 10, 12):
        for k in (2 * r, 3 * r, 5 * r):
            rep = theoretical_bounds(k, r)
            upper = [e for e in rep.entries
                     if e.source == "composite-prime-factor-upper"]
            assert len(upper) == 1
            assert k * r - r <= upper[0].value <= k * r - 1, (k, r, upper)


def test_product_lemma_property():
    rng = random.Random(123)
    for _ in range(2000):
        xs = [rng.randint(2, 60) for _ in range(rng.randint(1, 7))]
        prod = 1
        for x in xs:
            prod *= x
        assert sum(x - 1 for x in xs) <= prod


def test_invalid_parameters():
    with pytest.raises(ValueError):
        theoretical_bounds(2, 2)
    with pytest.raises(ValueError):
        theoretical_bounds(4, 1)
