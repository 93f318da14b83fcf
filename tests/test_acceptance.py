"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
``zschur verify`` replay).  Exact values carry zero tolerance; runtime
limits are the stated wall-clock budgets.  The four-color case is the
extended item: S_z(8,4)=27 is settled by search with no node budget.
"""

from zschur import verification as V


def report(result):
    print(result.line())
    assert result.ok, f"{result.name}: {result.detail}"
    return result


def run(name, fn):
    return report(V.run_check(name, fn))


# criterion 1: exact small values, zero tolerance, stated runtime budgets

def test_criterion1_solve_4_2():
    run("criterion1 solve(4,2,full)=5 <1s", V.check_solve_4_2)


def test_criterion1_solve_6_2():
    run("criterion1 solve(6,2,full)=9 <1s", V.check_solve_6_2)


def test_criterion1_solve_6_3():
    run("criterion1 solve(6,3,full)=15 <5min", V.check_solve_6_3)


def test_criterion1_solve_8_4_binary():
    run("criterion1 solve(8,4,binary)=25 <10min", V.check_solve_8_4_binary)


# criterion 2: construction certificates, each check < 2 s

def test_criterion2_odd_constructions():
    run("criterion2 odd constructions free", V.check_constructions_odd)


def test_criterion2_even_constructions():
    run("criterion2 even constructions free", V.check_constructions_even)


# criterion 3: permitted/forbidden property conformance, zero violations

def test_criterion3_property_conformance():
    run("criterion3 property conformance", V.check_construction_properties)


# criterion 4: oracle equivalence on 1000 random colorings

def test_criterion4_oracle_equivalence():
    run("criterion4 oracle equivalence 1000/1000",
        lambda: V.check_oracle_equivalence(trials=1000))


# criterion 5: invariance suite, zero violations

def test_criterion5_translation_invariance():
    run("criterion5 translation invariance 200",
        lambda: V.check_translation_invariance(trials=200))


def test_criterion5_unit_invariance():
    run("criterion5 unit invariance 200",
        lambda: V.check_unit_invariance(trials=200))


def test_criterion5_restriction_monotonicity():
    run("criterion5 restriction monotonicity",
        V.check_restriction_monotonicity)


# criterion 6: bounds table values and the product lemma

def test_criterion6_bounds_table():
    run("criterion6 bounds table", V.check_bounds_table)


# criterion 7: checker performance at n=500, k=50, r=10

def test_criterion7_checker_performance():
    run("criterion7 checker n=500 k=50 r=10 <2s", V.check_checker_performance)


# criterion 8 (extended): S_z(8,4) = 27

def test_criterion8_certificate_half():
    run("criterion8 free coloring of [1..26] (mandatory)",
        V.check_four_color_certificate)


def test_criterion8_exhaustion_half():
    result = run("criterion8 solve(8,4,full)=27 <10min", V.check_solve_8_4)
    assert result.detail.startswith("value=27 ")
