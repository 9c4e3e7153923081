"""Spans and counts around calls into the watermelon modules.

The tracer patches module and class attributes where callers look them up
(for example `chaos_polymer.hash_mix`, which `chaos_polymer` imported from
`rng`), records one span per call in memory and restores every attribute
afterwards.  Nothing in `src/` changes.  A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from watermelon import chaos_polymer as cp
from watermelon import cli
from watermelon import grsk
from watermelon import kernels as kr
from watermelon import overlap as ov
from watermelon import rng
from watermelon import walk_ensembles as we

from workloads import lgv_cells

JOB_SPAN = "bench"  # the root span of each job: the benchmark's own time


@dataclass(frozen=True)
class Target:
    owner: object  # module or class whose attribute is patched
    attr: str
    name: str | Callable[[tuple], str]  # span name, or a function of the call's args
    counter: Callable[[tuple, dict, object], dict] | None = None


_SMC_SIGNATURE = inspect.signature(cp.smc_partition_estimates)


def _smc_blocks(args, kwargs, result):
    bound = _SMC_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"blocks": math.ceil(bound.arguments["spec"].n_star / bound.arguments["block"])}


def _entry_name(args) -> str:
    return "kernels.DiscreteKernelTable.entry." + ("exact" if args[0].exact else "float")


def _hash_sites(args, kwargs, result):
    return {"sites": result.size}


def _lockstep(owner):
    return Target(owner, "sample_bridges_lockstep", "walk_ensembles.sample_bridges_lockstep")


def _trajectories(owner):
    return Target(owner, "enumerate_trajectories", "walk_ensembles.enumerate_trajectories",
                  lambda a, k, r: {"trajectories": len(r)})


# every public call the workloads make into a module, patched at each place a
# caller looks it up
TARGETS = [
    Target(cli, "main", "cli.main"),
    Target(we.BridgeStepper, "step", "walk_ensembles.BridgeStepper.step",
           lambda a, k, r: {"path_steps": len(a[1])}),
    _lockstep(we), _lockstep(cp), _lockstep(ov),
    _trajectories(we), _trajectories(cp),
    Target(we, "km_weight", "walk_ensembles.km_weight"),
    Target(ov, "km_weight", "walk_ensembles.km_weight"),
    Target(rng, "hash_mix", "rng.hash_mix", _hash_sites),
    Target(cp, "hash_mix", "rng.hash_mix", _hash_sites),
    Target(cp, "intermediate_disorder_run", "chaos_polymer.intermediate_disorder_run"),
    Target(cp, "smc_partition_estimates", "chaos_polymer.smc_partition_estimates", _smc_blocks),
    Target(cp, "partition_product_exact", "chaos_polymer.partition_product_exact"),
    Target(cp, "chaos_expansion_exact", "chaos_polymer.chaos_expansion_exact"),
    Target(kr.DiscreteKernelTable, "entry", _entry_name),
    Target(kr, "discrete_psi_prob", "kernels.discrete_psi_prob"),
    Target(kr, "hahn_exact", "special_polys.hahn_exact"),
    Target(kr, "hahn", "special_polys.hahn"),
    Target(ov, "overlap_moment_diagnostics", "overlap.overlap_moment_diagnostics"),
    Target(ov, "overlap_l2_bound_check", "overlap.overlap_l2_bound_check"),
    Target(ov.ExactBridgeLaw, "__init__", "overlap.ExactBridgeLaw.init"),
    Target(ov.ExactBridgeLaw, "site_prob", "overlap.ExactBridgeLaw.site_prob"),
    Target(ov.ExactBridgeLaw, "pair_site_table", "overlap.ExactBridgeLaw.pair_site_table"),
    Target(grsk, "rescaled_tau_run", "grsk.rescaled_tau_run"),
    Target(grsk, "log_tau_lgv", "grsk.log_tau_lgv",
           lambda a, k, r: {"cells": lgv_cells(*a[0].shape, a[1])}),
    Target(grsk, "tau_lgv", "grsk.tau_lgv"),
    Target(grsk, "tau_enumerate", "grsk.tau_enumerate"),
]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    return dur - child


class Tracer:
    """In-memory span store (name, start, end, parent, job) plus per-job counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(len(self.counts) - 1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        job = self.counts[-1]
        job[key] = job.get(key, 0) + n

    def run_job(self, fn: Callable[[], None]) -> None:
        """Run one job under a root span; its counts start from zero."""
        self.counts.append({})
        idx = self._open(JOB_SPAN)
        try:
            fn()
        finally:
            self._close(idx)

    def _wrap(self, target: Target, original):
        name, counter = target.name, target.counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = self._open(label)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            self.count(label + ".calls", 1)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.count(f"{label}.{key}", n)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            original = vars(t.owner)[t.attr]
            self._patched.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self, jobs=None) -> dict[str, float]:
        """Total self time per span name, over the given jobs (default: all)."""
        own = self_times(
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
        )
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        if jobs is not None:
            keep = np.isin(np.frombuffer(self.job, dtype=np.int32), list(jobs))
            own, name_id = own[keep], name_id[keep]
        per_name = np.bincount(name_id, weights=own, minlength=len(self.names))
        return dict(zip(self.names, per_name.tolist()))

    def job_seconds(self) -> list[float]:
        root = np.frombuffer(self.parent, dtype=np.int64) < 0
        return (np.frombuffer(self.end)[root] - np.frombuffer(self.start)[root]).tolist()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
