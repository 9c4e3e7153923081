"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import spans  # noqa: E402  (needs the program on the path)

DEFINITION = run.load_definition()
NAMES = [w["name"] for w in DEFINITION["workloads"]]


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]; r2 [10, 12]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_tracer_spans_counts_and_restore():
    owner = types.SimpleNamespace()

    def inner(x):
        time.sleep(0.01)
        return [x]

    def outer(x):
        time.sleep(0.01)
        return owner.inner(x) + owner.inner(x)

    owner.inner, owner.outer = inner, outer
    tracer = spans.Tracer()
    tracer.install([
        spans.Target(owner, "inner", "inner", lambda a, k, r: {"items": len(r)}),
        spans.Target(owner, "outer", "outer"),
    ])
    try:
        tracer.run_job(lambda: owner.outer(1))
    finally:
        tracer.restore()
    assert owner.inner is inner and owner.outer is outer
    assert tracer.counts == [{"outer.calls": 1, "inner.calls": 2, "inner.items": 2}]
    own = tracer.self_seconds()
    assert own["inner"] >= 0.02 and own["outer"] >= 0.01
    assert sum(own.values()) == pytest.approx(tracer.job_seconds()[0], rel=1e-9)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_restores_originals_and_repeats_counts(workload):
    originals = [vars(t.owner)[t.attr] for t in spans.TARGETS]
    first = run.measure(workload, seed=3, seconds=0.0, trace=True, smoke=True)
    assert [vars(t.owner)[t.attr] for t in spans.TARGETS] == originals
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(spans.TARGETS, originals))
    second = run.measure(workload, seed=3, seconds=0.0, trace=True, smoke=True)
    assert first["correct"] and second["correct"]
    assert first["digests"] == second["digests"]
    counts = {m["name"] for m in DEFINITION["per_layer"] if m["unit"] in ("count", "bytes")}
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    # every span the tracer records is a listed layer, so self times add up
    listed = {m["name"] for m in DEFINITION["per_layer"]}
    assert {f"{s}.self_s" for s in first["self_seconds_per_job"]} <= listed
    assert sum(first["self_seconds_per_job"].values()) == pytest.approx(
        first["metrics"]["trace.run_s"]["value"], rel=1e-9
    )


def test_untraced_run_replays_the_traced_digest():
    traced = run.measure("cli_commands", seed=5, seconds=0.0, trace=True, smoke=True)
    plain = run.measure("cli_commands", seed=5, seconds=0.0, trace=False, smoke=True)
    assert plain["digests"] == traced["digests"]
    assert set(plain["metrics"]) == {m["name"] for m in DEFINITION["end_to_end"]}


def test_check_tally_does_not_depend_on_how_many_jobs_run():
    one = run.measure("exact_oracles", seed=4, seconds=0.0, trace=False, smoke=True)
    more = run.measure("exact_oracles", seed=4, seconds=1.0, trace=False, smoke=True)
    assert more["jobs"] > one["jobs"]
    assert (more["attempted"], more["failed"]) == (one["attempted"], one["failed"])


def test_smoke_mode_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--smoke", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = set(proc.stdout.splitlines())
    for workload in NAMES:
        for m in DEFINITION["end_to_end"] + DEFINITION["per_layer"]:
            assert any(
                line.startswith(f"{workload}: {m['name']} = ") and line.endswith(f" {m['unit']}")
                for line in lines
            ), (workload, m["name"])
        assert any(line.startswith(f"{workload}: check_fail_frac = ") for line in lines)
        assert any(line.startswith(f"{workload}: tracing overhead = ") for line in lines)


def test_definition_matches_the_contract_shape():
    assert set(DEFINITION) == {"command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"}
    setup = [m for m in DEFINITION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in DEFINITION["end_to_end"])
    import workloads

    assert NAMES == [w.name for w in workloads.WORKLOADS]


def test_fails_without_the_program():
    # a checkout holding only BENCHMARK.json and the benchmark's own files
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for f in run.BENCH_DIR.glob("*.py"):
            (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
        (bare / "BENCHMARK.json").write_text(json.dumps(DEFINITION))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
