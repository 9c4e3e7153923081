"""Acceptance suite: every criterion at its stated size and tolerance.

One pass/fail line per criterion is printed as the suite runs.  Criterion 10
is the long pole (several minutes of sequential Monte Carlo).
"""

import time

import pytest

from watermelon.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize(
    "crit_id,name",
    [(cid, name) for cid, name, _, _ in CRITERIA],
    ids=[f"{cid:02d}_{name}" for cid, name, _, _ in CRITERIA],
)
def test_criterion(crit_id, name, capfd):
    result = run_criterion(crit_id)
    with capfd.disabled():
        print(result.line(), flush=True)
    assert result.passed, result.detail


def test_budget_breach_reports_cpu_and_load(monkeypatch):
    from watermelon import acceptance

    def idle():
        time.sleep(0.2)
        return True, "ok"

    monkeypatch.setattr(acceptance, "CRITERIA", [(99, "idle", 0.05, idle)])
    result = run_criterion(99)
    assert not result.passed
    # sleeping takes wall time but (almost) no CPU time
    assert result.cpu_seconds < result.seconds
    assert "cpu" in result.detail and "load" in result.detail
    assert len(result.load_avg) == 3
