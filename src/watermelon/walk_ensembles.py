"""Exact laws, samplers, and enumeration oracles for non-intersecting walks.

The state space is the period-2 Weyl chamber: strictly increasing integer
vectors whose coordinates all share one parity.  Every determinant in the
toolkit goes through one of two helpers here: :func:`exact_det` (the oracle,
exact rationals) and :func:`signed_logdet` (row-scaled doubles, for large
instances).  Every exact path sum over the chamber goes through one sweep,
:func:`chamber_path_sums`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DomainError,
    EmptyBridge,
    ParityError,
    UnreachableState,
)
from .rng import SeedRecord

# exact determinants are mandatory at or below this size; see km_weight
EXACT_THRESHOLD = 64

_NEG_DET_TOL = 1e-13


@dataclass(frozen=True)
class WeylConfig:
    """Ordered configuration of d walkers with pairwise-even gaps."""

    positions: tuple[int, ...]

    def __post_init__(self):
        pos = self.positions
        if len(pos) == 0:
            raise DomainError("empty configuration")
        for a, b in zip(pos, pos[1:]):
            if b <= a:
                raise DomainError(f"positions must be strictly increasing: {pos}")
        p0 = pos[0] % 2
        if any(p % 2 != p0 for p in pos):
            raise ParityError(f"pairwise differences must be even: {pos}")

    @property
    def d(self) -> int:
        return len(self.positions)


def delta_config(d: int, x: int) -> WeylConfig:
    """Densely packed configuration (x, x+2, ..., x+2(d-1))."""
    return WeylConfig(tuple(x + 2 * i for i in range(d)))


@dataclass(frozen=True)
class BridgeSpec:
    """Endpoint data for d walkers bridged from delta(0) to delta(x_star)."""

    d: int
    n_star: int
    x_star: int

    def __post_init__(self):
        if self.d < 1 or self.n_star < 1:
            raise DomainError("need d >= 1 and n_star >= 1")
        if (self.n_star + self.x_star) % 2 != 0:
            raise ParityError("n_star + x_star must be even")

    @property
    def start(self) -> WeylConfig:
        return delta_config(self.d, 0)

    @property
    def end(self) -> WeylConfig:
        return delta_config(self.d, self.x_star)


@dataclass(frozen=True)
class PathEnsembleSample:
    """One realized trajectory of d non-intersecting bridge walkers."""

    spec: BridgeSpec
    trajectory: np.ndarray  # (n_star + 1, d) integers
    seed_record: SeedRecord | None = None

    def validate(self) -> None:
        traj = self.trajectory
        spec = self.spec
        if traj.shape != (spec.n_star + 1, spec.d):
            raise DomainError("trajectory shape does not match spec")
        if tuple(traj[0]) != spec.start.positions:
            raise DomainError("trajectory does not start at delta(0)")
        if tuple(traj[-1]) != spec.end.positions:
            raise DomainError("trajectory does not end at delta(x_star)")
        steps = np.diff(traj, axis=0)
        if not np.all(np.abs(steps) == 1):
            raise DomainError("walkers must move by +-1 each step")
        if not np.all(np.diff(traj, axis=1) >= 2):
            raise DomainError("walkers must stay strictly ordered")

    def config(self, n: int) -> WeylConfig:
        return WeylConfig(tuple(int(v) for v in self.trajectory[n]))


def vandermonde(positions: Sequence[int]) -> int:
    """Product of pairwise gaps; the harmonic function behind the conditioning."""
    h = 1
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            h *= positions[j] - positions[i]
    return h


def exact_det(mat) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions.

    Each row is scaled to integers by the lcm of its denominators, the
    integer matrix goes through Bareiss fraction-free elimination, and the
    row scales are divided back out.
    """
    a = []
    scale = 1
    for row in mat:
        m = math.lcm(*(v.denominator for v in row))
        a.append([v.numerator * (m // v.denominator) for v in row])
        scale *= m
    n = len(a)
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], scale)


def signed_logdet(logm: np.ndarray) -> tuple[float, float]:
    """(sign, log|det|) of the matrix whose entries are exp(logm).

    Each row is rescaled by its maximum before the determinant, so entries
    far outside the double range are fine.  A row that is all -inf (a zero
    row) gives (0.0, -inf).
    """
    row_max = logm.max(axis=1)
    if np.any(row_max == -np.inf):
        return 0.0, -math.inf
    sign, logdet = np.linalg.slogdet(np.exp(logm - row_max[:, None]))
    return float(sign), float(row_max.sum() + logdet)


def _binom(n: int, k) -> int:
    """Binomial with the convention: zero unless k is an integer in [0, n]."""
    if k != int(k):
        return 0
    k = int(k)
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def log_binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def km_weight(n: int, frm: WeylConfig, to: WeylConfig, mode: str = "auto"):
    """Non-intersection probability q_n between two configurations.

    Determinant of single-walk binomial transition probabilities.  Modes:
    ``exact`` (Fraction), ``float`` (row-scaled doubles), ``auto`` (exact when
    d*n <= EXACT_THRESHOLD, float otherwise).  Out-of-reach targets return 0.
    """
    if mode not in ("auto", "exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    if n < 0:
        raise DomainError("need n >= 0")
    if frm.d != to.d:
        raise DomainError("configuration sizes differ")
    d = frm.d
    if n == 0:
        same = frm.positions == to.positions
        return Fraction(1 if same else 0) if mode != "float" else float(same)
    if (frm.positions[0] + to.positions[0] + n) % 2 != 0:
        return Fraction(0) if mode != "float" else 0.0
    if mode == "auto":
        mode = "exact" if d * n <= EXACT_THRESHOLD else "float"
    if mode == "exact":
        mat = [
            [_binom(n, Fraction(n + xi - yj, 2)) for yj in to.positions]
            for xi in frm.positions
        ]
        q = exact_det(mat) / 2 ** (n * d)
        if q < 0:
            raise DomainError(f"negative exact determinant {q}; invalid configurations")
        return q
    logm = np.array(
        [
            [log_binom(n, (n + xi - yj) // 2) if (n + xi - yj) % 2 == 0 else -math.inf
             for yj in to.positions]
            for xi in frm.positions
        ]
    )
    sign, logdet = signed_logdet(logm)
    if sign < 0:
        # roundoff around a singular matrix leaves a tiny row-scaled determinant
        if logdet - logm.max(axis=1).sum() < math.log(_NEG_DET_TOL):
            return 0.0
        raise DomainError(f"negative determinant (log|det| = {logdet}) beyond roundoff")
    return sign * math.exp(logdet - n * d * math.log(2.0))


def bridge_transition(
    spec: BridgeSpec,
    n: int,
    x: WeylConfig,
    n_prime: int,
    x_prime: WeylConfig,
    mode: str = "auto",
):
    """Conditional law of the bridge: P(X(n') = x' | X(n) = x)."""
    if not 0 <= n < n_prime <= spec.n_star:
        raise DomainError("need 0 <= n < n' <= n_star")
    denom = km_weight(spec.n_star - n, x, spec.end, mode)
    if denom == 0:
        raise UnreachableState(f"bridge cannot occupy {x.positions} at time {n}")
    num = km_weight(n_prime - n, x, x_prime, mode) * km_weight(
        spec.n_star - n_prime, x_prime, spec.end, mode
    )
    return num / denom


def _step_candidates(x: WeylConfig) -> Iterator[WeylConfig]:
    """All one-step moves that stay strictly ordered (at most 2^d of them)."""
    d = x.d
    pos = x.positions
    for mask in range(1 << d):
        new = tuple(pos[i] + (1 if mask >> i & 1 else -1) for i in range(d))
        if all(b > a for a, b in zip(new, new[1:])):
            yield WeylConfig(new)


def chamber_path_sums(
    start: WeylConfig,
    steps: int,
    end: WeylConfig | None = None,
    site_weight: Callable | None = None,
) -> list[dict[tuple[int, ...], object]]:
    """Sums over non-intersecting paths from `start`, one dict per time 0..steps.

    Entry n maps the positions of each configuration x to the sum, over the
    n-step chamber paths start -> x, of the product of site_weight(m, y_i)
    over every walker i at every time 1 <= m <= min(n, steps - 1); without
    `site_weight` it is the path count.  With `end`, only configurations
    that can still reach `end` in the remaining steps are kept, and a
    DomainError is raised when no path arrives.  The sweep only adds and
    multiplies, so ints count exactly and Fractions and floats pass through.
    """
    signs = [tuple(s) for s in _step_signs(start.d).tolist()]
    layers = [{start.positions: 1}]
    for n in range(1, steps + 1):
        rem = steps - n
        nxt: dict[tuple[int, ...], object] = {}
        for pos, w in layers[-1].items():
            for s in signs:
                y = tuple(p + q for p, q in zip(pos, s))
                if any(b - a < 2 for a, b in zip(y, y[1:])):
                    continue
                if end is not None and any(
                    abs(p - t) > rem for p, t in zip(y, end.positions)
                ):
                    continue
                nxt[y] = nxt.get(y, 0) + w
        if site_weight is not None and n < steps:
            for y, w in nxt.items():
                for x in y:
                    w = w * site_weight(n, x)
                nxt[y] = w
        layers.append(nxt)
    if end is not None and not layers[-1]:
        raise DomainError(
            f"no non-intersecting path from {start.positions} to {end.positions} "
            f"in {steps} steps"
        )
    return layers


def one_step_bridge_law(spec: BridgeSpec, n: int, x: WeylConfig, mode: str = "auto"):
    """List of (successor, probability) pairs for the bridge at time n."""
    out = []
    for y in _step_candidates(x):
        p = bridge_transition(spec, n, x, n + 1, y, mode)
        if p != 0:
            out.append((y, p))
    return out


def sample_bridge(spec: BridgeSpec, rng: SeedRecord, mode: str = "auto") -> PathEnsembleSample:
    """Draw one trajectory from the uniform bridge measure, sequentially.

    Deterministic given the seed record.  Raises EmptyBridge when no
    trajectory connects the endpoints.
    """
    if km_weight(spec.n_star, spec.start, spec.end) == 0:
        raise EmptyBridge(f"no trajectory for {spec}")
    gen = rng.generator()
    traj = np.empty((spec.n_star + 1, spec.d), dtype=np.int64)
    x = spec.start
    traj[0] = x.positions
    for n in range(spec.n_star):
        law = one_step_bridge_law(spec, n, x, mode)
        probs = np.array([float(p) for _, p in law])
        probs /= probs.sum()
        idx = int(gen.choice(len(law), p=probs))
        x = law[idx][0]
        traj[n + 1] = x.positions
    return PathEnsembleSample(spec=spec, trajectory=traj, seed_record=rng)


def _step_signs(d: int) -> np.ndarray:
    """The 2^d one-step displacement vectors; row `mask` moves walker i up
    exactly when bit i of `mask` is set (the order of :func:`_step_candidates`)."""
    return np.array([[(m >> i) & 1 for i in range(d)] for m in range(1 << d)]) * 2 - 1


class BridgeStepper:
    """Vectorized one-step mover for batches of bridge walkers.

    A candidate move y is weighted by the non-intersection probability
    q_m(y, delta(x*)) of the m = n_star - n - 1 remaining steps.  By the
    h-transform structure of the bridge (Koenig, O'Connell and Roch, EJP
    2002; the product form of :func:`radon_nikodym`) it factorises as

        q_m(y, delta(x*)) = C(m, d, x*) * V(y) * prod_i binom(m+d-1, (m+y_i-x*)/2)

    with V the Vandermonde.  The constant C does not depend on y, so it
    cancels in the Gumbel-max draw that picks each path's move, and the
    log-weight is sum_{i<j} log(y_j - y_i) plus log-binomials read from a
    shared log-factorial table: no determinant is evaluated.
    """

    def __init__(self, spec: BridgeSpec):
        self.spec = spec
        d, n_star = spec.d, spec.n_star
        self.lg = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, n_star + 2 * d + 2))))
        )
        self.signs = _step_signs(d)

    def _logb(self, n: int, k: np.ndarray) -> np.ndarray:
        ok = (k >= 0) & (k <= n)
        kc = np.clip(k, 0, n if n >= 0 else 0)
        val = self.lg[n] - self.lg[kc] - self.lg[n - kc]
        return np.where(ok, val, -np.inf)

    def log_weights(self, paths: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate moves of each row of `paths` at time n, and their log-weights.

        Returns `cand` of shape (P, 2^d, d) and `logw` of shape (P, 2^d):
        log V(y) + sum_i log binom(m+d-1, (m+y_i-x*)/2), which is log q_m up
        to a constant per call, and -inf for moves that leave the chamber or
        cannot reach the endpoint.
        """
        spec = self.spec
        d, m = spec.d, spec.n_star - n - 1
        cand = paths[:, None, :] + self.signs[None, :, :]
        # walker i's binomial takes one of two values per row: k for the move
        # down to x_i - 1, k + 1 for the move up
        twice_k = m - 1 + paths - spec.x_star
        even = twice_k % 2 == 0
        down = np.where(even, self._logb(m + d - 1, twice_k // 2), -np.inf)
        up = np.where(even, self._logb(m + d - 1, twice_k // 2 + 1), -np.inf)
        logw = np.zeros(cand.shape[:2])
        valid = np.ones(cand.shape[:2], dtype=bool)
        for i in range(d):
            logw += np.where(self.signs[:, i] > 0, up[:, i, None], down[:, i, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(d):
                for j in range(i + 1, d):
                    gap = cand[:, :, j] - cand[:, :, i]
                    if j == i + 1:
                        valid &= gap >= 2
                    logw += np.log(gap)
        return cand, np.where(valid, logw, -np.inf)

    def step(self, paths: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
        """Advance every row of `paths` from time n to n + 1.

        The last step (n = n_star - 1) is forced, since the endpoint is the
        only candidate of finite weight, and draws nothing from `gen`; every
        other step draws one uniform per candidate.  Raises UnreachableState
        when some row has no move that can still reach the endpoint.
        """
        cand, logw = self.log_weights(paths, n)
        rows = np.arange(len(paths))
        if n == self.spec.n_star - 1:
            choice = np.argmax(logw, axis=1)
        else:
            gumb = -np.log(-np.log(gen.random(logw.shape)))
            choice = np.argmax(logw + gumb, axis=1)
        stuck = logw[rows, choice] == -np.inf
        if stuck.any():
            bad = int(np.argmax(stuck))
            raise UnreachableState(
                f"bridge cannot reach {self.spec.end.positions} from "
                f"{tuple(int(v) for v in paths[bad])} at time {n}"
            )
        return cand[rows, choice]


def sample_bridges_lockstep(
    spec: BridgeSpec, count: int, rng: SeedRecord
) -> np.ndarray:
    """Vectorized sampler: `count` independent bridge trajectories at once.

    Returns an int array of shape (count, n_star + 1, d).  Same sequential
    one-step law as :func:`sample_bridge`; distributional agreement with the
    scalar sampler is covered by tests.
    """
    if km_weight(spec.n_star, spec.start, spec.end) == 0:
        raise EmptyBridge(f"no trajectory for {spec}")
    gen = rng.generator()
    stepper = BridgeStepper(spec)
    paths = np.tile(np.array(spec.start.positions), (count, 1))
    out = np.empty((count, spec.n_star + 1, spec.d), dtype=np.int64)
    out[:, 0] = paths
    for n in range(spec.n_star):
        paths = stepper.step(paths, n, gen)
        out[:, n + 1] = paths
    return out


def enumerate_bridges(spec: BridgeSpec, budget: int = 24) -> list[PathEnsembleSample]:
    """Exhaustive, duplicate-free list of all valid trajectories."""
    return [
        PathEnsembleSample(spec=spec, trajectory=traj)
        for traj in enumerate_trajectories(spec, budget)
    ]


def enumerate_trajectories(spec: BridgeSpec, budget: int = 24) -> np.ndarray:
    """All bridge trajectories as one array of shape (count, n_star+1, d).

    Depth-first over simultaneous walker moves with reachability pruning.
    """
    if spec.d * spec.n_star > budget:
        raise BudgetExceeded(
            f"d*n_star = {spec.d * spec.n_star} exceeds budget {budget}"
        )
    d, n_star = spec.d, spec.n_star
    targets = spec.end.positions
    signs = [
        tuple((1 if m >> i & 1 else -1) for i in range(d)) for m in range(1 << d)
    ]
    found: list[list[tuple[int, ...]]] = []
    prefix: list[tuple[int, ...]] = [spec.start.positions]

    def reachable(pos: tuple[int, ...], remaining: int) -> bool:
        return all(abs(p - t) <= remaining for p, t in zip(pos, targets))

    def walk(pos: tuple[int, ...], n: int) -> None:
        if n == n_star:
            if pos == targets:
                found.append(prefix.copy())
            return
        rem = n_star - n - 1
        for s in signs:
            new = tuple(p + q for p, q in zip(pos, s))
            ok = True
            for i in range(d - 1):
                if new[i + 1] - new[i] < 2:
                    ok = False
                    break
            if not ok or not reachable(new, rem):
                continue
            prefix.append(new)
            walk(new, n + 1)
            prefix.pop()

    if reachable(spec.start.positions, n_star):
        walk(spec.start.positions, 0)
    if not found:
        return np.empty((0, n_star + 1, d), dtype=np.int64)
    return np.array(found, dtype=np.int64)


def macmahon_count(N: int, d: int) -> int:
    """Exact number of d-walker bridges of length 2N returning to the start."""
    if N < 1 or d < 1:
        raise DomainError("need N >= 1 and d >= 1")
    total = Fraction(1)
    for i in range(d):
        total *= Fraction(math.comb(2 * N + 2 * i, N + i), math.comb(2 * N + 2 * i, i))
    if total.denominator != 1:
        raise AssertionError("product formula must be an integer")
    return int(total)


def rising(x, m: int):
    """Rising factorial (x)_m = x (x+1) ... (x+m-1).

    Supports m = -1 through the reflection (x)_{-1} = 1/(x-1), which is the
    convention that makes the degree-0 kernel weight reduce correctly.
    """
    if m == -1:
        return Fraction(1, x - 1)
    out = Fraction(1)
    for i in range(m):
        out *= x + i
    return out


def radon_nikodym(spec: BridgeSpec, n: int, x: WeylConfig) -> Fraction:
    """Density of the bridge law against the free conditioned-walk law at (n, x).

    Closed product form; equals the ratio computed by
    :func:`radon_nikodym_ratio` (tested, exact rationals).  Zero when the
    bridge cannot pass through x.
    """
    d, n_star, x_star = spec.d, spec.n_star, spec.x_star
    if not 0 <= n <= n_star:
        raise DomainError("time outside bridge window")
    if x.d != d:
        raise DomainError("configuration size mismatch")
    if (x.positions[0] + n) % 2 != 0:
        raise ParityError(f"config {x.positions} unreachable at time {n}")
    out = Fraction(1)
    for i in range(1, d + 1):
        xi = x.positions[i - 1]
        b1 = _binom(n_star - n + d - 1, Fraction(n_star - n + xi - x_star, 2))
        b2 = _binom(n_star + d - 1, Fraction(n_star + x_star, 2) + i - 1)
        out *= (
            Fraction(2**n)
            * Fraction(b1)
            / Fraction(b2)
            * rising(n_star + d - i + 1, i - 1)
            / rising(n_star - n + d - i + 1, i - 1)
        )
    return out


def radon_nikodym_ratio(spec: BridgeSpec, n: int, x: WeylConfig) -> Fraction:
    """Oracle for :func:`radon_nikodym`: direct ratio of the two laws."""
    num = km_weight(spec.n_star - n, x, spec.end, "exact") * vandermonde(
        spec.start.positions
    )
    den = km_weight(spec.n_star, spec.start, spec.end, "exact") * vandermonde(
        x.positions
    )
    if den == 0:
        raise EmptyBridge(f"no trajectory for {spec}")
    return Fraction(num, 1) / den


def free_step_law(x: WeylConfig) -> list[tuple[WeylConfig, Fraction]]:
    """One-step law of the free non-intersecting walk (harmonic reweighting)."""
    h = vandermonde(x.positions)
    out = []
    for y in _step_candidates(x):
        w = Fraction(vandermonde(y.positions), h * 2**x.d)
        if w != 0:
            out.append((y, w))
    return out


def conditional_drift(x: WeylConfig, k: int) -> Fraction:
    """Exact conditional mean displacement of walker k under the free walk law."""
    if not 1 <= k <= x.d:
        raise DomainError("walker index out of range")
    drift = Fraction(0)
    for y, w in free_step_law(x):
        drift += (y.positions[k - 1] - x.positions[k - 1]) * w
    return drift


def drift_bound(x: WeylConfig, k: int) -> Fraction:
    """The proven ceiling 2^d * sum_{i != k} 1/|x_k - x_i|."""
    xs = x.positions
    s = sum(Fraction(1, abs(xs[k - 1] - xs[i])) for i in range(x.d) if i != k - 1)
    return Fraction(2**x.d) * s


def drift_asymptote(x: WeylConfig, k: int) -> Fraction:
    """Leading interaction term sum_{i != k} 1/(x_k - x_i)."""
    xs = x.positions
    return sum(
        (Fraction(1, xs[k - 1] - xs[i]) for i in range(x.d) if i != k - 1),
        Fraction(0),
    )


def free_step_weights(configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Free-walk one-step law for a batch of configurations, shape (count, d).

    Returns the 2^d candidate moves of each row, shape (count, 2^d, d), and
    their probabilities V(y) / sum V, shape (count, 2^d); moves that leave
    the chamber get probability zero.
    """
    d = configs.shape[1]
    cand = configs[:, None, :] + _step_signs(d)[None, :, :]
    h = np.ones(cand.shape[:2], dtype=np.float64)
    for i in range(d):
        for j in range(i + 1, d):
            h *= cand[:, :, j] - cand[:, :, i]
    h = np.maximum(h, 0.0)  # collisions weight zero
    return cand, h / h.sum(axis=1, keepdims=True)


def sample_free_walks_lockstep(
    x0: WeylConfig, steps: int, count: int, rng: SeedRecord
) -> np.ndarray:
    """Vectorized free-walk sampler, shape (count, steps+1, d)."""
    gen = rng.generator()
    paths = np.tile(np.array(x0.positions), (count, 1))
    out = np.empty((count, steps + 1, x0.d), dtype=np.int64)
    out[:, 0] = paths
    for n in range(steps):
        cand, w = free_step_weights(paths)
        u = gen.random((count, 1))
        choice = (np.cumsum(w, axis=1) < u).sum(axis=1)
        paths = cand[np.arange(count), choice]
        out[:, n + 1] = paths
    return out


# --- serialization -----------------------------------------------------------

def sample_to_csv(sample: PathEnsembleSample, path: str | Path) -> None:
    """Flat CSV: step, walker_1 ... walker_d."""
    d = sample.spec.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"walker_{i + 1}" for i in range(d)])
        for n, row in enumerate(sample.trajectory):
            writer.writerow([n] + [int(v) for v in row])


def sample_envelope(sample: PathEnsembleSample) -> dict:
    """JSON envelope carrying spec and seed record."""
    return {
        "spec": {
            "d": sample.spec.d,
            "n_star": sample.spec.n_star,
            "x_star": sample.spec.x_star,
        },
        "seed_record": sample.seed_record.as_dict() if sample.seed_record else None,
    }


def sample_from_csv(csv_path: str | Path, envelope: dict) -> PathEnsembleSample:
    spec = BridgeSpec(**envelope["spec"])
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.append([int(v) for v in row[1:]])
    rec = envelope.get("seed_record")
    return PathEnsembleSample(
        spec=spec,
        trajectory=np.array(rows, dtype=np.int64),
        seed_record=SeedRecord(**rec) if rec else None,
    )
