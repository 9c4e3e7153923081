"""What the benchmark in perfbench/ needs from the package, checked in Tier-1.

The benchmark's own self-tests (python3 -m pytest perfbench) sit outside the
default test paths.  These checks read perfbench/ and change nothing there:
every attribute its tracer patches must exist on its owner, the smoke
exact-oracles job must run with every check passing, the full-size one must
give the pinned exact values, and the smoke CLI commands job, which passes
every flag the benchmark uses, must run with every hard check passing.  Both
smoke jobs also run under the benchmark's tracer, so a call shape that breaks
one of its counters fails here rather than in a traced benchmark run.
"""

import hashlib
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


# sha256 over repr((kind, str(want), str(got))) of every result of the
# full-size exact-oracles job at seed 1, as the Fraction routes gave them;
# float values are left out, as their last bits depend on libm and LAPACK
EXACT_ORACLES_SEED1 = "19b51d97cd7512b456f958f1723779205e82a320aae1d6ce3f0c26a88bdb8356"


def test_full_exact_oracles_job_values_are_pinned(bench, tmp_path):
    _, workloads = bench
    (job,) = workloads.BY_NAME["exact_oracles"].make(1, tmp_path, False)
    job.reset()
    job.run()
    h = hashlib.sha256()
    for kind, what, want, got, *flt in job.results:
        h.update(repr((kind, str(want), str(got))).encode())
    assert len(job.results) == 276
    assert h.hexdigest() == EXACT_ORACLES_SEED1


def test_smoke_cli_commands_job_is_correct(bench, tmp_path, monkeypatch):
    _, workloads = bench
    # the jobs pass relative --out-dir paths under the output root, as in run.py
    monkeypatch.setenv("WATERMELON_OUTPUT_ROOT", str(tmp_path))
    checks = workloads.Checks()
    for job in workloads.BY_NAME["cli_commands"].make(1, tmp_path, True):
        job.reset()
        job.run()
        job.check(checks)
    assert checks.attempted > 0
    # failed verdicts are the program's statistical assertions, not faults of
    # the run: the smoke overlap job's two N give moments_bounded_in_N null,
    # which counts as a failed verdict, not a hard failure
    assert checks.correct, checks.hard_failures


@pytest.mark.parametrize("workload", ["cli_commands", "exact_oracles"])
def test_smoke_jobs_pass_traced(bench, tmp_path, monkeypatch, workload):
    spans, workloads = bench
    monkeypatch.setenv("WATERMELON_OUTPUT_ROOT", str(tmp_path))
    checks = workloads.Checks()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for job in workloads.BY_NAME[workload].make(1, tmp_path, True):
            job.reset()
            tracer.run_job(job.run)
            job.check(checks)
    finally:
        tracer.restore()
    assert checks.attempted > 0
    assert checks.correct, checks.hard_failures
    counted = {key for job in tracer.counts for key in job}
    want = ("walk_ensembles.BridgeStepper.step.path_steps", "grsk.log_tau_lgv.cells",
            "rng.hash_mix.sites") if workload == "cli_commands" else (
            "walk_ensembles.enumerate_trajectories.trajectories", "kernels.discrete_psi_prob.calls")
    assert set(want) <= counted
