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
