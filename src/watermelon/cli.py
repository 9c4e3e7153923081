"""Command-line front end: experiments, configuration, and every file written.

Commands: sample | kernels | polymer | grsk | overlap | verify.  The table
:data:`COMMANDS` names the config fields each command reads and :data:`FLAGS`
each field's flag; the subparsers, the config-file keys a command accepts
and the values each key takes (a JSON config file supplies defaults; flags
override them), the seed rule (a command that reads `seed` requires an
explicit --seed: no silent entropy) and the manifest's config all come
from it.  This is the only module that writes files: each command returns
its files and assertions, and :func:`run_command` writes them, then a
manifest with the config, seeds, versions, wall-clock, per-assertion
outcomes and the list of files.  Exact paths reproduce bit-for-bit from
the manifest.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from . import acceptance
from . import chaos_polymer as cp
from . import grsk
from . import kernels as kr
from . import overlap as ov
from . import walk_ensembles as we
from .errors import WatermelonError
from .rng import SeedRecord

ENV_OUTPUT_ROOT = "WATERMELON_OUTPUT_ROOT"


@dataclass
class ExperimentConfig:
    command: str
    t_star: float = 1.0
    z_star: float = 0.0
    d: int = 2
    n_star: int | None = None
    x_star: int = 0
    N_list: list[int] = field(default_factory=lambda: [50, 100, 200, 400])
    beta: float = 0.5
    distribution: str = "rademacher"
    replicas: int = 200
    inner_paths: int = 64
    seed: int | None = None
    count: int = 1
    enumerate_all: bool = False
    k_max: int = 3
    t_grid: list[float] | None = None  # default: [0.1, 0.25, 0.5, 1.0] * t_star
    window: list[float] | None = None  # default: [0.0, t_star]
    criteria: list[int] | None = None
    out_dir: str = "out"
    workers: int = 0  # 0: use available parallelism
    step_budget: int = 24

    def __post_init__(self):
        # resolved here so that the manifest records the values used
        if self.t_grid is None:
            self.t_grid = [t * self.t_star for t in (0.1, 0.25, 0.5, 1.0)]
        if self.window is None:
            self.window = [0.0, float(self.t_star)]

    def resolved_out_dir(self) -> Path:
        root = os.environ.get(ENV_OUTPUT_ROOT)
        return Path(root) / self.out_dir if root else Path(self.out_dir)

    def rng(self, offset: int = 0) -> SeedRecord:
        if self.seed is None:
            raise WatermelonError("--seed is required for Monte Carlo commands")
        return SeedRecord(self.seed, offset)


# argparse options of each config field but `command`; the flag is the
# field name with dashes (`n_star` -> --n-star, `N_list` -> --N-list)
FLAGS = {
    "out_dir": {},
    "seed": {"type": int},
    "d": {"type": int},
    "n_star": {"type": int},
    "x_star": {"type": int},
    "count": {"type": int},
    "enumerate_all": {"action": "store_true", "default": None},
    "step_budget": {"type": int},
    "t_star": {"type": float},
    "z_star": {"type": float},
    "beta": {"type": float},
    "N_list": {"type": int, "nargs": "+"},
    "replicas": {"type": int},
    "inner_paths": {"type": int},
    "distribution": {"choices": cp.DISTRIBUTIONS},
    "k_max": {"type": int},
    "t_grid": {"type": float, "nargs": "+"},
    "window": {"type": float, "nargs": 2},
    "workers": {"type": int},
    "criteria": {"type": int, "nargs": "+", "help": "criterion ids to run (default: all)"},
}


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _check_file_value(key: str, value) -> None:
    """WatermelonError unless a config file's `value` for `key` is one its
    flag could give: the flag's type (an int, or for a float flag an int or
    a float; a bool is neither, and a flag without a type takes a string),
    a list of the length its `nargs` asks for, one of its choices, a bool
    for a switch, or None where the field's default is None."""
    opts = FLAGS[key]
    if value is None:
        ok = _DEFAULTS[key] is None
    elif opts.get("action") == "store_true":
        ok = type(value) is bool
    else:
        nargs = opts.get("nargs")
        items = [value] if nargs is None else value
        kind = opts.get("type", str)
        allowed = (int, float) if kind is float else (kind,)
        ok = (
            isinstance(items, list)
            and (nargs is None or (len(items) >= 1 if nargs == "+" else len(items) == nargs))
            and all(type(v) in allowed and v in opts.get("choices", [v]) for v in items)
        )
    if not ok:
        flag = "--" + key.replace("_", "-")
        raise WatermelonError(f"config value {value!r} for {key} is not a valid {flag}")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    reads = {"command", "out_dir", *COMMANDS[args.command][2]}
    payload: dict = {}
    if args.config:
        payload.update(json.loads(Path(args.config).read_text()))
    if payload.setdefault("command", args.command) != args.command:
        raise WatermelonError(f"config is for the {payload['command']} command")
    unknown = sorted(set(payload) - reads)
    if unknown:
        raise WatermelonError(f"the {args.command} command reads no config keys {unknown}")
    for key, value in payload.items():
        if key != "command":
            _check_file_value(key, value)
    payload.update((k, v) for k, v in vars(args).items() if k in reads and v is not None)
    cfg = ExperimentConfig(**payload)
    if "seed" in reads and not cfg.enumerate_all and cfg.seed is None:
        raise WatermelonError(f"--seed is mandatory for the {cfg.command} command")
    return cfg


def git_revision(path: Path) -> str | None:
    """Commit checked out in the git work tree that holds `path`, or None.

    Reads the files under `.git` (a worktree's `.git` file names its git
    dir with `gitdir:`) and follows HEAD to a loose or packed ref; starts no
    process.
    """
    for top in (path, *path.parents):
        dot = top / ".git"
        if dot.is_dir():
            gitdir = dot
        elif dot.is_file():
            text = dot.read_text().strip()
            if not text.startswith("gitdir:"):
                return None
            gitdir = top / text[len("gitdir:"):].strip()
        else:
            continue
        head = (gitdir / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head or None  # detached HEAD holds the commit itself
        ref = head[len("ref:"):].strip()
        # a linked worktree keeps its branch refs in the common git dir
        common = gitdir / "commondir"
        dirs = [gitdir] + ([gitdir / common.read_text().strip()] if common.is_file() else [])
        for d in dirs:
            if (d / ref).is_file():
                return (d / ref).read_text().strip()
        for d in dirs:
            if (d / "packed-refs").is_file():
                for line in (d / "packed-refs").read_text().splitlines():
                    sha, _, name = line.partition(" ")
                    if name == ref:
                        return sha
        return None  # a branch with no commit yet
    return None


@functools.cache
def _source_revision() -> str | None:
    """Revision of this package's checkout, read once per process."""
    try:
        return git_revision(Path(__file__).resolve().parent)
    except OSError:  # an unreadable git dir: record no revision
        return None


@dataclass
class Outcome:
    """What a command computed, before anything reaches the disk.

    `files` maps each output file name to a JSON payload (a dict) or to a
    CSV header and its rows; `assertions` and `criteria` go to the manifest.
    """

    files: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    criteria: dict = field(default_factory=dict)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2))


def run_command(cfg: ExperimentConfig) -> int:
    """Run one command, write its files and manifest, and return its exit code.

    The command computes everything before the output directory is made, so
    a command that raises leaves no file or directory behind.  The exit code
    is 0 iff every boolean assertion holds, else 1; numeric assertions are
    reported, not judged.
    """
    command, _, reads = COMMANDS[cfg.command]
    started = time.time()
    outcome = command(cfg)
    out = cfg.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    for name, data in outcome.files.items():
        if isinstance(data, dict):
            _write_json(out / name, data)
        else:
            header, rows = data
            with open(out / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
    _write_json(out / "manifest.json", {
        "config": {k: v for k, v in vars(cfg).items() if k in ("command", "out_dir", *reads)},
        "package_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": _source_revision(),
        "wall_clock_seconds": time.time() - started,
        "assertions": outcome.assertions,
        "criteria": outcome.criteria,
        "outputs": [str(out / name) for name in outcome.files],
    })
    flags = [v for v in outcome.assertions.values() if isinstance(v, bool)]
    print(f"{sum(flags)}/{len(flags)} assertions hold; "
          f"{len(outcome.files)} files and the manifest written to {out}")
    return 0 if all(flags) else 1


def cmd_sample(cfg: ExperimentConfig) -> Outcome:
    if cfg.n_star is None:
        raise WatermelonError("sample needs --n-star")
    spec = we.BridgeSpec(cfg.d, cfg.n_star, cfg.x_star)
    outcome = Outcome()
    if cfg.enumerate_all:
        trajs = we.enumerate_trajectories(spec, budget=cfg.step_budget)
        outcome.assertions["enumeration_count"] = len(trajs)
        seeds = [None] * len(trajs)
    else:
        if cfg.count < 1:
            raise WatermelonError(f"--count must be >= 1, got {cfg.count}")
        seeds = [cfg.rng(i) for i in range(cfg.count)]
        trajs = np.stack([we.sample_bridges_lockstep(spec, 1, r)[0] for r in seeds])
    we.check_trajectories(spec, trajs)
    header = ["step"] + [f"walker_{i + 1}" for i in range(spec.d)]
    spec_dict = {"d": spec.d, "n_star": spec.n_star, "x_star": spec.x_star}
    for i, (traj, rng) in enumerate(zip(trajs, seeds)):
        rows = [[n, *row] for n, row in enumerate(traj.tolist())]
        outcome.files[f"trajectory_{i:05d}.csv"] = (header, rows)
        outcome.files[f"trajectory_{i:05d}.json"] = {
            "spec": spec_dict, "seed_record": rng.as_dict() if rng else None}
    outcome.assertions["all_valid"] = True
    return outcome


def cmd_kernels(cfg: ExperimentConfig) -> Outcome:
    end = kr.ContinuumEndpoint(cfg.t_star, cfg.z_star)
    grid = kr.convergence_grid(end, 0.1, 0.1, 2.0)
    summary, rows = kr.kernel_convergence_study(end, cfg.d, grid, cfg.N_list)
    # duplicate-point rule demonstration
    p = kr.SpaceTimePoint(cfg.t_star / 2, 0.0)
    psi_dup = kr.rescaled_psi_k(cfg.N_list[0], end, cfg.d, kr.CorrelationQuery((p, p)))
    header = ["N", "pair_id", "t", "z", "t_prime", "z_prime", "K_N", "K", "abs_err"]
    return Outcome(
        files={
            "kernel_convergence.csv": (header, rows),
            "kernel_convergence_summary.json": summary,
        },
        assertions={
            "sup_error_decreasing": summary["decreasing"],
            "fitted_slope": summary["slope"],
            "duplicate_query_is_zero": psi_dup == 0.0,
        },
    )


def cmd_polymer(cfg: ExperimentConfig) -> Outcome:
    end = kr.ContinuumEndpoint(cfg.t_star, cfg.z_star)
    report, draws = cp.intermediate_disorder_run(
        end,
        cfg.d,
        cfg.beta,
        cfg.N_list,
        cfg.replicas,
        cfg.rng(),
        distribution=cfg.distribution,
        inner_paths=cfg.inner_paths,
    )
    rows = [[N, i, v] for N, vs in zip(cfg.N_list, draws) for i, v in enumerate(vs.tolist())]
    outcome = Outcome(files={
        "polymer_report.json": report,
        "polymer_draws.csv": (["N", "replica", "centered_Z_interior_sites"], rows),
    })
    for lv in report["levels"]:
        mean, se = lv["centered_mean_interior_sites"], lv["centered_se_interior_sites"]
        pull = abs(mean - 1.0) / se if se else 0.0
        outcome.assertions[f"mean_within_3se_N{lv['N']}"] = bool(pull <= 3.0)
        outcome.assertions[f"sigma_ratio_N{lv['N']}"] = lv["sigma_ratio"]
    return outcome


def cmd_grsk(cfg: ExperimentConfig) -> Outcome:
    # oracle cross-checks at desk scale
    lgv_ok = grsk.lgv_mismatch(cfg.rng().generator(), 5, 6) is None
    count = we.macmahon_count(2, cfg.d)
    mm_ok = abs(grsk.tau_lgv(np.ones((cfg.d + 2, cfg.d + 2)), cfg.d) - count) < 1e-9 * count
    report, _ = grsk.rescaled_tau_run(cfg.beta, cfg.N_list, cfg.replicas, cfg.rng(1), d=cfg.d)
    return Outcome(
        files={"grsk_report.json": report},
        assertions={
            "lgv_equals_enumeration": lgv_ok,
            "all_ones_count_matches": bool(mm_ok),
        },
    )


def cmd_overlap(cfg: ExperimentConfig) -> Outcome:
    end = kr.ContinuumEndpoint(cfg.t_star, cfg.z_star)
    # a bad window fails before any sampling (the moment diagnostics check
    # their times first thing); the bound check runs at the smallest N
    if not cfg.N_list:
        raise WatermelonError("N_list is empty")
    ov.lattice_window(end, cfg.d, min(cfg.N_list), cfg.window)
    summary, rows = ov.overlap_moment_diagnostics(
        end, cfg.d, cfg.N_list, cfg.t_grid, cfg.k_max, cfg.replicas, cfg.rng()
    )
    bound = ov.overlap_l2_bound_check(
        end,
        cfg.d,
        min(cfg.N_list),
        (cfg.window[0], cfg.window[1]),
        min(cfg.k_max, 2),
        cfg.rng(1),
        replicas=cfg.replicas,
    )
    header = ["N", "t", "k", "moment_over_k_factorial", "se"]
    return Outcome(
        files={
            "overlap_moments.csv": (header, rows),
            "overlap_summary.json": {**summary, "l2_bound": bound},
        },
        assertions={
            "moments_bounded_in_N": summary["bounded_in_N"],
            "moments_decay_to_zero": summary["decays_to_zero_as_t_to_0"],
            "l2_bound_holds": bound["holds"],
        },
    )


def resolve_workers(requested: int, jobs: int) -> int:
    """Worker processes for `jobs` tasks; 0 means one per available CPU."""
    if requested < 0:
        raise WatermelonError(f"--workers must be >= 0, got {requested}")
    if requested == 0:
        requested = len(os.sched_getaffinity(0))
    return max(1, min(requested, jobs))


def _criterion_results(ids: list[int], workers: int) -> Iterator[acceptance.CheckResult]:
    """Results of the criteria `ids` in that order, each as soon as it is in."""
    if workers == 1:
        yield from map(acceptance.run_criterion, ids)
        return
    # criteria are independent and internally seeded, so the outcome is
    # identical regardless of scheduling; only wall clock changes.  Spawned
    # workers import afresh instead of forking a process that may hold BLAS
    # threads.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        yield from pool.map(acceptance.run_criterion, ids)


def cmd_verify(cfg: ExperimentConfig) -> Outcome:
    known = [cid for cid, _, _, _ in acceptance.CRITERIA]
    unknown = set(cfg.criteria or ()) - set(known)
    if unknown:
        raise WatermelonError(f"no criteria {sorted(unknown)}")
    # suite order, each id once, whether run serially or in a pool
    ids = [cid for cid in known if cid in (cfg.criteria or known)]
    outcome = Outcome()
    for res in _criterion_results(ids, resolve_workers(cfg.workers, len(ids))):
        print(res.line(), flush=True)
        key = f"criterion_{res.crit_id:02d}_{res.name}"
        outcome.assertions[key] = res.passed
        outcome.criteria[key] = {
            "seconds": res.seconds,
            "cpu_seconds": res.cpu_seconds,
            "load_avg": res.load_avg,
            "limit_seconds": res.limit_seconds,
            "detail": res.detail,
        }
    return outcome


# each command: its function, its help line and the config fields it reads
# besides `command` and `out_dir`, in the order of its flags
COMMANDS = {
    "sample": (cmd_sample, "sample or enumerate bridge trajectories",
               ("seed", "d", "n_star", "x_star", "count", "enumerate_all", "step_budget")),
    "kernels": (cmd_kernels, "lattice-to-continuum kernel convergence study",
                ("d", "t_star", "z_star", "N_list")),
    "polymer": (cmd_polymer, "intermediate-disorder partition run",
                ("seed", "d", "t_star", "z_star", "beta", "N_list", "replicas", "inner_paths",
                 "distribution")),
    "grsk": (cmd_grsk, "path-sum determinant checks and scaling run",
             ("seed", "d", "beta", "N_list", "replicas")),
    "overlap": (cmd_overlap, "overlap-time moments and bound checks",
                ("seed", "d", "t_star", "z_star", "N_list", "replicas", "k_max", "t_grid",
                 "window")),
    "verify": (cmd_verify, "run the acceptance suite", ("workers", "criteria")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="watermelon",
        description="Non-intersecting walk bridges, determinantal kernels, "
        "polymer partition functions, RSK path sums, overlap statistics.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, fields_read) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key in ("out_dir", *fields_read):
            p.add_argument("--" + key.replace("_", "-"), **FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(build_config(args))
    except WatermelonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
