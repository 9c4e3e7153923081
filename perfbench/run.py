#!/usr/bin/env python3
"""Benchmark of the watermelon toolkit, end to end and per module.

All workloads, each untraced and then traced, in fresh processes:

    python3 perfbench/run.py [--seed 1] [--seconds 50] [--smoke]

One workload in this process (the form `BENCHMARK.json` names):

    python3 perfbench/run.py --workload cli_commands --seed 1 --seconds 50 --trace 0

A run repeats one batch job with the same seed-drawn inputs for `--seconds`
seconds, checks every job's outputs and prints each metric with its unit.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
`BENCHMARK.json` with `--trace 0`, its per-layer metrics with `--trace 1`.
Run records (and the spans of traced runs) go to `perfbench/results/`.
"""

from __future__ import annotations

import os

# numpy links a multi-threaded BLAS; pin it before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 3


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Put this checkout's sources first on the path; never an installed copy."""
    if not (SRC / "watermelon" / "__init__.py").is_file():
        sys.exit(f"error: no watermelon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import watermelon

    if Path(watermelon.__file__).resolve().parent != SRC / "watermelon":
        sys.exit(f"error: imported watermelon from {watermelon.__file__}, not {SRC}")


def setup(workload: str, seed: int, smoke: bool):
    """Everything before the first timed call: imports and input generation."""
    import workloads

    out_root = Path(tempfile.mkdtemp(prefix=".out-", dir=BENCH_DIR))
    os.environ["WATERMELON_OUTPUT_ROOT"] = str(out_root)
    return workloads.BY_NAME[workload].make(seed, out_root, smoke), out_root


def _self_command(*args: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def measure_setup(workload: str, seed: int, smoke: bool, probes: int) -> float:
    """Median seconds from process start to the first timed call, over fresh processes."""
    times = []
    for _ in range(probes):
        cmd = _self_command("--setup-probe", "--workload", workload, "--seed", str(seed))
        t0 = time.time()
        proc = subprocess.run(cmd + ["--smoke"] * smoke, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - t0)
    return statistics.median(times)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def layer_metric(name: str, self_s: dict, counts: dict, run_s: float) -> float:
    """A per-layer metric, per job, from its name.

    `<span>.self_s` is self time; `<span>.ns_per_<unit>` and
    `<span>.ms_per_<unit>` divide it by the count `<span>.<unit>s`; any
    other name is a count.  `trace.run_s` is the traced job time.
    """
    if name == "trace.run_s":
        return run_s
    span, field = name.rsplit(".", 1)
    if field == "self_s":
        return self_s.get(span, 0.0)
    for prefix, scale in (("ns_per_", 1e9), ("ms_per_", 1e3)):
        if field.startswith(prefix):
            n = counts.get(f"{span}.{field[len(prefix):]}s", 0)
            return scale * self_s.get(span, 0.0) / n if n else 0.0
    return counts.get(name, 0)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One run of one workload; returns the run record."""
    definition = load_definition()
    setup_s = None if trace else measure_setup(workload, seed, smoke, 1 if smoke else SETUP_PROBES)
    parts, out_root = setup(workload, seed, smoke)
    from workloads import BY_NAME, Checks

    checks = Checks()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    P = len(parts)
    times = [[] for _ in parts]  # seconds of each run of each part
    digests = [set() for _ in parts]
    counts = [[] for _ in parts]
    runs = 0
    try:
        begin = time.perf_counter()
        # the parts take turns, one whole round at least
        while runs < P or time.perf_counter() - begin < seconds:
            k = runs % P
            part = parts[k]
            part.reset()
            t0 = time.perf_counter()
            if tracer:
                tracer.run_job(part.run)
            else:
                part.run()
            times[k].append(time.perf_counter() - t0)
            # a part has the same inputs every time: its first outputs are
            # checked, and each later run must replay their digest and counts,
            # so the tally does not depend on how many runs fit in the time
            checks.prefix = f"{part.name}: "
            digest, extra = part.check(checks if runs < P else Checks())
            checks.prefix = ""
            digests[k].add(digest)
            counts[k].append({**(tracer.counts[-1] if tracer else {}), **extra})
            runs += 1
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(out_root, ignore_errors=True)
    checks.hard(all(len(d) == 1 for d in digests), "same-seed output digest")
    checks.hard(all(c == cs[0] for cs in counts for c in cs), "per-run counts repeat")
    job_counts: dict[str, int] = {}
    for cs in counts:
        for key, n in cs[0].items():
            job_counts[key] = job_counts.get(key, 0) + n

    # one job is one round of the parts.  Each part's mean, not its median:
    # the shared machine switches between speed states lasting seconds, and
    # a median jumps between them from run to run
    run_s = sum(statistics.fmean(t) for t in times)
    self_s = {}
    if trace:
        roots = tracer.job_seconds()  # in the order the parts ran
        run_s = sum(statistics.fmean(roots[k::P]) for k in range(P))
        for k in range(P):
            part_self = tracer.self_seconds(range(k, runs, P))
            for name, v in part_self.items():
                self_s[name] = self_s.get(name, 0.0) + v / len(times[k])
        metrics = {
            m["name"]: (layer_metric(m["name"], self_s, job_counts, run_s), m["unit"])
            for m in definition["per_layer"]
        }
    else:
        values = {
            "run_s": run_s,
            "work_per_s": sum(part.units for part in parts) / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in definition["end_to_end"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(),
        "jobs": runs / P,
        "part_seconds": {part.name: t for part, t in zip(parts, times)},
        "work_units_per_job": sum(part.units for part in parts),
        "work_unit": BY_NAME[workload].unit,
        "digests": [sorted(d) for d in digests],
        "counts_per_job": job_counts,
        "self_seconds_per_job": self_s,
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "hard_failures": sorted(set(checks.hard_failures)),
        "verdict_failures": sorted(set(checks.verdict_failures)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.save(RESULTS / f"{stem}-spans.npz")
    return record


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"{w}: {record['jobs']:.4g} jobs of {record['work_units_per_job']} {record['work_unit']}")
    for name, t in record["part_seconds"].items():
        q1, q2, q3 = statistics.quantiles(t, n=4) if len(t) > 1 else t * 3
        print(f"{w}: {name}: {len(t)} runs; s mean {statistics.fmean(t):.4f} "
              f"median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f}")
    frac = record["failed"] / record["attempted"]
    print(f"{w}: check_fail_frac = {frac:.6f} ratio "
          f"({record['failed']} of {record['attempted']} checks failed)")
    for what in record["hard_failures"] + record["verdict_failures"]:
        print(f"{w}: failed check: {what}")
    for name, m in record["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{w}: {name} = {value} {m['unit']}")
    if record["trace"]:
        total = sum(record["self_seconds_per_job"].values())
        print(f"{w}: self times of layers + bench sum to {total:.6f} s per job; "
              f"traced run_s {record['metrics']['trace.run_s']['value']:.6f} s")


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    summary = {}
    ok = True
    for w in load_definition()["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            cmd = _self_command("--workload", name, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(trace))
            proc = subprocess.run(cmd + ["--smoke"] * smoke, capture_output=True, text=True,
                                  timeout=3 * seconds + 600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name}: trace {trace} run exited {proc.returncode}")
                ok = False
                break
            print("\n".join(proc.stdout.splitlines()[:-1]))
            runs[trace] = json.loads(proc.stdout.splitlines()[-1])
        if len(runs) == 2:
            overhead = runs[1]["metrics"]["trace.run_s"]["value"] - runs[0]["metrics"]["run_s"]["value"]
            print(f"{name}: tracing overhead = {overhead:.6g} s per job (traced minus untraced run_s)")
            ok &= runs[0]["correct"] and runs[1]["correct"]
        summary[name] = runs
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, in subprocesses)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    if args.seconds is None:
        args.seconds = float(definition["run_seconds"])
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.setup_probe:
        _, out_root = setup(args.workload, args.seed, args.smoke)
        ready = time.time()
        shutil.rmtree(out_root, ignore_errors=True)
        print(json.dumps({"ready": ready}))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.smoke)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_record(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
