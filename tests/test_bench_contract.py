"""What the benchmark in perfbench/ needs from the package, checked in Tier-1.

The benchmark's own self-tests (python3 -m pytest perfbench) sit outside the
default test paths.  These two checks read perfbench/ and change nothing
there: every attribute its tracer patches must exist on its owner, and the
smoke exact-oracles job must run with every check passing.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench(monkeypatch_module):
    monkeypatch_module.syspath_prepend(str(BENCH_DIR))
    monkeypatch_module.setattr(sys, "dont_write_bytecode", True)
    import spans
    import workloads

    return spans, workloads


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_every_traced_attribute_exists(bench):
    spans, _ = bench
    missing = [
        f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
        for t in spans.TARGETS
        if t.attr not in vars(t.owner)
    ]
    assert not missing


def test_smoke_exact_oracles_job_passes(bench, tmp_path):
    _, workloads = bench
    checks = workloads.Checks()
    for job in workloads.BY_NAME["exact_oracles"].make(1, tmp_path, True):
        job.reset()
        job.run()
        job.check(checks)
    assert checks.attempted > 0
    assert checks.correct and checks.failed == 0, checks.hard_failures + checks.verdict_failures
