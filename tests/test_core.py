import random
import re

import pytest

from zschur import (
    INF,
    Coloring,
    ColoringFormatError,
    ModulusMismatchError,
    Palette,
    ProblemSpec,
    Witness,
    construct,
    format_coloring,
    format_value,
    format_witness,
    parse_coloring,
    theoretical_bounds,
    validate_witness,
)
from zschur.cli import main


def test_problem_spec_validation():
    spec = ProblemSpec(k=4, r=2)
    assert spec.r_divides_k
    assert spec.palette_residues() == (0, 1)
    assert ProblemSpec(k=6, r=4).palette_residues() == (0, 1, 2, 3)
    assert ProblemSpec(k=6, r=4, palette=Palette.BINARY).palette_residues() == (0, 1)
    assert not ProblemSpec(k=5, r=3).r_divides_k
    with pytest.raises(ValueError):
        ProblemSpec(k=2, r=2)
    with pytest.raises(ValueError):
        ProblemSpec(k=3, r=1)


def test_coloring_validation_and_access():
    chi = Coloring.of([1, 0, 2], 3)
    assert chi.n == 3
    assert chi.color(1) == 1 and chi.color(3) == 2
    with pytest.raises(IndexError):
        chi.color(0)
    with pytest.raises(IndexError):
        chi.color(4)
    with pytest.raises(ValueError):
        Coloring(n=2, r=3, values=(0,))
    with pytest.raises(ValueError):
        Coloring.of([3], 3)
    with pytest.raises(ValueError):
        Coloring.of([-1], 3)
    assert Coloring.constant(4, 2, 1).values == (1, 1, 1, 1)
    assert Coloring.of([], 5).n == 0


def test_coloring_symmetry_helpers():
    chi = Coloring.of([1, 0, 2], 3)
    assert chi.translated(2).values == (0, 2, 1)
    assert chi.scaled(2).values == (2, 0, 1)
    assert chi.restricted(2).values == (1, 0)
    assert chi.restricted(0).n == 0
    with pytest.raises(ValueError):
        chi.restricted(4)


def test_witness_canonical_multiset():
    assert Witness(parts=(3, 1, 2), target=6).parts == (1, 2, 3)
    assert Witness(parts=(3, 1, 2), target=6) == Witness(parts=(2, 3, 1), target=6)
    with pytest.raises(ValueError):
        Witness(parts=(0, 1), target=1)
    with pytest.raises(ValueError):
        Witness(parts=(1, 1), target=0)


def test_validate_witness_examples():
    spec = ProblemSpec(k=4, r=2)
    chi = Coloring.constant(3, 2, 1)
    assert validate_witness(Witness(parts=(1, 1, 1), target=3), chi, spec)
    # sum mismatch
    assert not validate_witness(Witness(parts=(1, 1, 1), target=4),
                                Coloring.constant(4, 2, 1), spec)
    # color sum 1+1+0+1 = 3, odd
    chi2 = Coloring.of([1, 0, 0, 1], 2)
    assert not validate_witness(Witness(parts=(1, 1, 2), target=4), chi2, spec)


def test_validate_witness_range_and_arity():
    spec = ProblemSpec(k=4, r=2)
    chi = Coloring.constant(3, 2, 1)
    # target beyond the domain is invalid, not an error
    assert not validate_witness(Witness(parts=(1, 1, 2), target=4), chi, spec)
    assert not validate_witness(Witness(parts=(1, 1), target=2), chi, spec)
    with pytest.raises(ModulusMismatchError):
        validate_witness(Witness(parts=(1, 1, 1), target=3),
                         Coloring.constant(3, 3, 1), spec)


def test_validate_witness_symmetries():
    # translation by c (r | k) and scaling by a unit preserve validity
    rng = random.Random(7)
    for _ in range(200):
        r = rng.choice((2, 3, 4, 6))
        k = r * rng.randint(1, 2) if r >= 3 else 4
        if k < 3:
            k = 2 * r
        spec = ProblemSpec(k=k, r=r)
        n = rng.randint(k, 14)
        chi = Coloring.of([rng.randrange(r) for _ in range(n)], r)
        parts = sorted(rng.randint(1, max(1, n // 2)) for _ in range(k - 1))
        target = sum(parts)
        if target > n:
            continue
        w = Witness(parts=tuple(parts), target=target)
        base = validate_witness(w, chi, spec)
        shift = rng.randrange(r)
        assert validate_witness(w, chi.translated(shift), spec) == base
        units = [u for u in range(1, r) if __import__("math").gcd(u, r) == 1]
        u = rng.choice(units)
        assert validate_witness(w, chi.scaled(u), spec) == base


def test_format_value():
    assert format_value(45) == "45"
    assert format_value(INF) == "inf"


def test_coloring_text_roundtrip():
    chi = Coloring.of([1, 2, 0, 1, 2, 2, 0], 3)
    text = format_coloring(chi, 6)
    back, k = parse_coloring(text)
    assert back == chi and k == 6
    # comments and blank lines are ignored; values may wrap lines
    wrapped = "# a comment\n\n7 6 3\n1 2 0 1\n# mid comment\n2 2 0\n"
    back, k = parse_coloring(wrapped)
    assert back == chi and k == 6
    empty = parse_coloring("0 4 2\n")
    assert empty[0].n == 0


PARSE_ERRORS = [
    ("", "empty coloring file"),
    ("# only comments\n", "empty coloring file"),
    ("1 2\n0\n", "header must be 'n k r', got '1 2'"),
    ("not ints here\n0\n", "invalid literal for int() with base 10: 'not'"),
    ("2 4 2\n0\n", "expected 2 values, got 1"),
    ("1 4 2\n0 1\n", "expected 1 values, got 2"),
    ("1 4 2\n2\n", "color 2 outside [0, 1]"),
    ("1 4 2\nx\n", "invalid literal for int() with base 10: 'x'"),
    ("1 2 2\n0\n", "k must be >= 3, got 2"),
    ("1 4 1\n0\n", "r must be >= 2, got 1"),
    ("-1 4 2\n", "n must be >= 0, got -1"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS,
                         ids=[text for text, _ in PARSE_ERRORS])
def test_coloring_parse_errors(text, message, tmp_path, capsys):
    with pytest.raises(ColoringFormatError, match=f"^{re.escape(message)}$"):
        parse_coloring(text)
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("k,r,message", [
    (2, 3, "k must be >= 3, got 2"),
    (6, 1, "r must be >= 2, got 1"),
])
@pytest.mark.parametrize("build,error", [
    (ProblemSpec, ValueError),
    (theoretical_bounds, ValueError),
    (construct, ValueError),
    (lambda k, r: parse_coloring(f"1 {k} {r}\n0\n"), ColoringFormatError),
], ids=["ProblemSpec", "theoretical_bounds", "construct", "parse_coloring"])
def test_one_rule_for_k_and_r(build, error, k, r, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(k, r)


def test_format_witness_line():
    w = Witness(parts=(2, 1, 1), target=4)
    assert format_witness(w) == "WITNESS target= 4 parts= 1 1 2"
