"""Acceptance gate: the seven end-to-end criteria, one pass/fail line each.

The checks themselves are the rows of `icewall.checks.CHECKS`, which
`icewall verify` runs too.  Each criterion prints a single summary line
directly to the real stdout so it stays visible under pytest's capture.
"""

import sys

import pytest

from icewall.checks import CRITERIA, run

REPORT_LINES: list = []


@pytest.mark.parametrize("criterion", range(1, len(CRITERIA) + 1))
def test_criterion(criterion):
    rows = run(criterion)
    ok = bool(rows) and all(r["pass"] for r in rows)
    detail = "; ".join(f"{r['check']}: {r['deviation']:.2e}" for r in rows)
    line = (f"CRITERION {criterion} {CRITERIA[criterion - 1]}: "
            f"{'PASS' if ok else 'FAIL'} ({detail})")
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
