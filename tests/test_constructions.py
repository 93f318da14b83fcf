import pytest

from zschur import (
    AllowedSet,
    Coloring,
    ConstructionContradictionError,
    ProblemSpec,
    allowed_set_even,
    allowed_set_odd,
    brute_force_oracle,
    construct,
    construct_even,
    construct_odd,
    is_solution_free,
)
from zschur.constructions import binary_construction_colors, diagonal_colors
from zschur.verification import (
    BINARY_GRID,
    EVEN_GRID,
    ODD_GRID,
    even_property_violations,
    odd_property_violations,
)

# Derived by direct evaluation of the binding permitted/forbidden families
# for k=6, r=3 (positions 1..14); freeness is re-checked below.
GOLDEN_ODD_6_3 = (1, 2, 0, 1, 2, 2, 0, 2, 2, 1, 0, 2, 1, 0)


class TestAllowedSetOdd:
    def test_first_position_singleton(self):
        got = allowed_set_odd(1, 6, 3)
        assert got == AllowedSet(permitted=frozenset({1}),
                                 forbidden=frozenset(), chosen=1)

    def test_boundary_position(self):
        # m = k-1: both binding levels are 1
        got = allowed_set_odd(5, 6, 3)
        assert got.permitted == {2}
        assert got.forbidden == {1}
        assert got.chosen == 2

    def test_past_boundary(self):
        got = allowed_set_odd(6, 6, 3)
        assert got.permitted == {0, 2}
        assert got.forbidden == {0}
        assert got.chosen == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            allowed_set_odd(0, 6, 3)
        with pytest.raises(ValueError):
            allowed_set_odd(15, 6, 3)  # domain is [1..14]

    def test_contradiction_on_even_modulus(self):
        # with r=2 the permitted and forbidden singletons collide at m=k-1
        with pytest.raises(ConstructionContradictionError):
            allowed_set_odd(2, 3, 2)


class TestAllowedSetEven:
    def test_first_position_singleton(self):
        got = allowed_set_even(1, 8, 4)
        assert got.permitted == {1}
        assert got.forbidden == frozenset()
        assert got.chosen == 1

    def test_two_colors_uses_wide_pair_only(self):
        got = allowed_set_even(2, 4, 2)
        assert got.permitted == {0}
        assert got.forbidden == frozenset()
        assert got.chosen == 0

    def test_full_palette_past_cutoff(self):
        got = allowed_set_even(3, 4, 2)
        assert got.permitted == {0, 1}
        assert got.forbidden == {1}
        assert got.chosen == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            allowed_set_even(0, 8, 4)
        with pytest.raises(ValueError):
            allowed_set_even(27, 8, 4)  # domain is [1..26]


def test_binding_levels_are_nested():
    # permitted and forbidden families both grow with the level, so the
    # smallest (resp. largest) applicable level is binding
    for k, r, step in ((5, 3, 2), (5, 5, 2), (6, 4, 1), (6, 6, 1)):
        for m in range(1, k * r - r - 1):
            sets = []
            for a in range(1, r + 1):
                sets.append({(m + step * i) % r for i in range(a)})
            for small, big in zip(sets, sets[1:]):
                assert small <= big
            sets = []
            for a in range(1, r + 1):
                sets.append({(-m - step * i) % r for i in range(a)})
            for small, big in zip(sets, sets[1:]):
                assert small <= big


def test_construct_odd_6_3_golden():
    chi = construct_odd(6, 3)
    assert chi.n == 14
    assert chi.values == GOLDEN_ODD_6_3
    assert chi.color(1) == 1 and chi.color(5) == 2 and chi.color(6) == 2
    spec = ProblemSpec(k=6, r=3)
    assert is_solution_free(chi, spec)
    assert brute_force_oracle(chi, spec) is None


def test_construct_even_4_2_golden():
    chi = construct_even(4, 2)
    assert chi.values == (1, 0, 0, 1)
    assert is_solution_free(chi, ProblemSpec(k=4, r=2))


def test_construct_even_8_4():
    chi = construct_even(8, 4)
    assert chi.n == 26
    assert is_solution_free(chi, ProblemSpec(k=8, r=4))


def test_construct_domain_sizes():
    assert construct_odd(10, 5).n == 44
    assert construct_even(8, 4).n == 26
    assert construct(6, 3).n == 14
    assert construct(4, 2).n == 4


def test_parity_preconditions():
    with pytest.raises(ValueError):
        construct_odd(6, 4)
    with pytest.raises(ValueError):
        construct_even(8, 3)


@pytest.mark.parametrize("build,k,r,message", [
    (construct_even, 2, 2, "k must be >= 3, got 2"),  # once the empty coloring
    (construct_odd, 1, 3, "k must be >= 3, got 1"),  # once "n must be >= 0"
    (construct, 1, 2, "k must be >= 3, got 1"),
    (construct, 6, 1, "r must be >= 2, got 1"),
])
def test_parameters_checked_before_building(build, k, r, message):
    with pytest.raises(ValueError, match=message):
        build(k, r)


@pytest.mark.parametrize("k,r", ODD_GRID)
def test_odd_grid_free(k, r):
    chi = construct_odd(k, r)
    assert chi.n == k * r - r - 1
    assert is_solution_free(chi, ProblemSpec(k=k, r=r))


@pytest.mark.parametrize("k,r", EVEN_GRID)
def test_even_grid_free(k, r):
    chi = construct_even(k, r)
    assert chi.n == k * r - r - 2
    assert is_solution_free(chi, ProblemSpec(k=k, r=r))


@pytest.mark.parametrize("r", (3, 5, 7, 9))
def test_odd_construction_collapses_at_k_congruent_one(r):
    # For k = r + 1 the property system is infeasible: k = 1 mod r makes
    # the permitted and forbidden singletons at m = k-1 both {k-1 mod r}.
    # (The boundary non-emptiness argument silently translates m = a(k-1)
    # to -a, which needs r | k.)
    with pytest.raises(ConstructionContradictionError):
        construct_odd(r + 1, r)


@pytest.mark.parametrize("k,r", ((6, 9), (12, 9), (15, 9)))
def test_odd_construction_free_without_divisibility(k, r):
    # no r | k hypothesis is needed for freeness itself: whenever the
    # allowed sets stay nonempty (here gcd(k, r) = 3), the result is free
    chi = construct_odd(k, r)
    assert chi.n == k * r - r - 1
    assert is_solution_free(chi, ProblemSpec(k=k, r=r))


@pytest.mark.parametrize("k,r", ODD_GRID)
def test_odd_property_conformance(k, r):
    assert odd_property_violations(construct_odd(k, r), k, r) == []


@pytest.mark.parametrize("k,r", EVEN_GRID)
def test_even_property_conformance(k, r):
    assert even_property_violations(construct_even(k, r), k, r) == []


def test_boundary_sets_never_equal():
    # odd: equality at m = a(k-1) would force 0 = 2 mod r
    for k, r in ODD_GRID:
        for a in range(1, r):
            m = a * (k - 1)
            permitted = {(m + 2 * i) % r for i in range(a)}
            forbidden = {(-m - 2 * i) % r for i in range(a)}
            assert permitted != forbidden, (k, r, a)
    # even: equality at m = a(k-1), a <= r-2, would force a = -1 mod r
    for k, r in EVEN_GRID:
        for a in range(1, r - 1):
            m = a * (k - 1)
            permitted = {(m + i) % r for i in range(a)}
            forbidden = {(-m - i) % r for i in range(a)}
            assert permitted != forbidden, (k, r, a)


def test_every_position_respects_its_allowed_set():
    for k, r in ((6, 3), (10, 5)):
        chi = construct_odd(k, r)
        for m in range(1, chi.n + 1):
            allowed = allowed_set_odd(m, k, r)
            assert chi.color(m) == allowed.chosen
            assert chi.color(m) in allowed.permitted - allowed.forbidden
    for k, r in ((4, 2), (8, 4)):
        chi = construct_even(k, r)
        for m in range(1, chi.n + 1):
            allowed = allowed_set_even(m, k, r)
            assert chi.color(m) == allowed.chosen
            assert chi.color(m) in allowed.permitted - allowed.forbidden


def binary_construction(k, r):
    return Coloring.of(binary_construction_colors(k, r), r)


def test_binary_construction_layout():
    # 0 on [1..k-2], 1 on [k-1..rk-2r]: rk - 2r positions
    for k, r in BINARY_GRID:
        chi = binary_construction(k, r)
        assert chi.n == r * k - 2 * r
        assert chi.values == (0,) * (k - 2) + (1,) * (chi.n - k + 2)


#: Every (k, r) with k <= 8 and rk - 2r <= 16; for k < r a solution has
#: fewer than r entries, so none is zero-sum.
BINARY_SMALL = tuple((k, r) for r in range(2, 17) for k in range(3, 9)
                     if r * k - 2 * r <= 16)


@pytest.mark.parametrize("k,r", BINARY_SMALL)
def test_binary_construction_free_by_oracle(k, r):
    chi = binary_construction(k, r)
    assert brute_force_oracle(chi, ProblemSpec(k=k, r=r)) is None


@pytest.mark.parametrize("k,r", BINARY_GRID + ((40, 10), (30, 30), (31, 30)))
def test_binary_grid_free(k, r):
    assert is_solution_free(binary_construction(k, r), ProblemSpec(k=k, r=r))


def test_binary_construction_checks_parameters():
    with pytest.raises(ValueError, match="k must be >= 3, got 2"):
        binary_construction_colors(2, 2)
    with pytest.raises(ValueError, match="r must be >= 2, got 1"):
        binary_construction_colors(6, 1)


def test_diagonal_coloring_free_by_oracle():
    # the odd k = r certificate of the solver's start: free at k = 3 and
    # 5, and at k = 3 every color of one more position completes a
    # solution, so S_z(3,3) = 10 = 2(k^2 - k - 1)
    for k in (3, 5):
        chi = Coloring.of(diagonal_colors(k), k)
        assert chi.n == 2 * k * k - 2 * k - 3
        assert brute_force_oracle(chi, ProblemSpec(k=k, r=k)) is None
    chi = Coloring.of(diagonal_colors(3), 3)
    for c in range(3):
        longer = Coloring.of(chi.values + (c,), 3)
        witness = brute_force_oracle(longer, ProblemSpec(k=3, r=3))
        assert witness is not None and witness.target == 10, c
    with pytest.raises(ValueError, match="odd k, got k=4"):
        diagonal_colors(4)
    with pytest.raises(ValueError, match="k must be >= 3, got 1"):
        diagonal_colors(1)
