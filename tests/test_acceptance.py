"""Acceptance gate: one test per row of ``verification.CHECKS``.

Each test prints the same PASS/FAIL line as ``zschur verify`` (visible
with ``pytest -s``).  Exact values carry zero tolerance; runtime limits
are the stated wall-clock budgets.
"""

import pytest

from zschur import verification as V


@pytest.mark.parametrize("name, fn", V.CHECKS, ids=[name for name, _ in V.CHECKS])
def test_check(name, fn):
    result = V.run_check(name, fn)
    print(result.line())
    assert result.ok, f"{name}: {result.detail}"


def test_run_check_reports_a_failed_requirement():
    # a requirement that does not hold ends the check with a FAIL line
    # that carries its message
    def failing():
        V._require(False, "value 14 != expected 15")
        return "value=15"

    result = V.run_check("failing", failing)
    assert not result.ok
    assert result.detail == "value 14 != expected 15"
    assert result.line().startswith("FAIL failing value 14 != expected 15 ")


def test_run_check_reports_a_crash():
    # any other exception is a failed check too, named in its detail
    def crashing():
        raise KeyError("missing")

    result = V.run_check("crashing", crashing)
    assert not result.ok
    assert result.detail == "error: KeyError('missing')"
