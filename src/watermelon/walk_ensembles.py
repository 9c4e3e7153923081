"""Exact laws, samplers, and enumeration oracles for non-intersecting walks.

The state space is the period-2 Weyl chamber: strictly increasing integer
vectors whose coordinates all share one parity.  Two determinant helpers
live here: :func:`exact_det` (the oracle, exact rationals, behind every
exact law) and :func:`signed_logdet` (row-scaled doubles, for the large
positive-entry LGV matrices of `grsk`).  The float kernel determinants of
`kernels` (`continuum_psi_k`, float `discrete_psi_prob`) have O(1) gauged
entries and call ``np.linalg.det`` directly.  Exact path sums over the
chamber go through one sweep, :func:`chamber_path_sums`, with one
exception: the pair-site transfer of `overlap.ExactBridgeLaw` moves one
marked layer per site from time n1 and keeps only configurations in the
backward layers, which this sweep cannot prune by.  Without that pruning
the same sums run several times slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def km_weight(n: int, frm: WeylConfig, to: WeylConfig, mode: str = "exact") -> Fraction:
    """Non-intersection probability q_n between two configurations.

    Exact determinant of single-walk binomial transition probabilities, a
    Fraction; out-of-reach targets return 0.  The only legal `mode` is
    ``"exact"``: the argument stays because callers (the benchmark harness
    among them) pass it positionally.  Any other value raises DomainError.
    """
    if mode != "exact":
        raise DomainError(f"unknown mode {mode!r}; km_weight is exact only")
    if n < 0:
        raise DomainError("need n >= 0")
    if frm.d != to.d:
        raise DomainError("configuration sizes differ")
    if n == 0:
        return Fraction(int(frm.positions == to.positions))
    if (frm.positions[0] + to.positions[0] + n) % 2 != 0:
        return Fraction(0)
    mat = [
        [_binom(n, Fraction(n + xi - yj, 2)) for yj in to.positions]
        for xi in frm.positions
    ]
    q = exact_det(mat) / 2 ** (n * frm.d)
    if q < 0:
        raise DomainError(f"negative exact determinant {q}; invalid configurations")
    return q


def bridge_transition(
    spec: BridgeSpec, n: int, x: WeylConfig, n_prime: int, x_prime: WeylConfig
) -> Fraction:
    """Conditional law of the bridge: P(X(n') = x' | X(n) = x), exactly."""
    if not 0 <= n < n_prime <= spec.n_star:
        raise DomainError("need 0 <= n < n' <= n_star")
    denom = km_weight(spec.n_star - n, x, spec.end)
    if denom == 0:
        raise UnreachableState(f"bridge cannot occupy {x.positions} at time {n}")
    num = km_weight(n_prime - n, x, x_prime) * km_weight(
        spec.n_star - n_prime, x_prime, spec.end
    )
    return num / denom


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


def one_step_bridge_law(spec: BridgeSpec, n: int, x: WeylConfig):
    """List of (successor, exact probability) pairs for the bridge at time n."""
    out = []
    for s in _step_signs(x.d).tolist():
        pos = tuple(p + q for p, q in zip(x.positions, s))
        if any(b - a < 2 for a, b in zip(pos, pos[1:])):
            continue  # two walkers meet
        y = WeylConfig(pos)
        p = bridge_transition(spec, n, x, n + 1, y)
        if p != 0:
            out.append((y, p))
    return out


def _step_signs(d: int) -> np.ndarray:
    """The 2^d one-step displacement vectors; row `mask` moves walker i up
    exactly when bit i of `mask` is set."""
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
    log-weight is sum_{i<j} log(y_j - y_i) plus log-binomials.  Both terms
    are table lookups: a per-step table of each walker's down and up
    log-binomial indexed by its position, and one table of log(gap) over
    the integer gaps.  No determinant is evaluated.
    """

    def __init__(self, spec: BridgeSpec):
        self.spec = spec
        d, n_star = spec.d, spec.n_star
        self.lg = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, n_star + 2 * d + 2))))
        )
        self.signs = _step_signs(d)
        # log(y_j - y_i) at index gap0 + y_j - y_i, for every candidate gap of
        # two walkers inside the widest log-binomial table (step 0); -inf
        # below the least gap, 2
        gap0 = 2 * (n_star + d)
        self._log_gap = np.full(2 * gap0 + 1, -np.inf)
        self._log_gap[gap0 + 2 :] = np.log(np.arange(2, gap0 + 1))
        # per pair i < j: gap0 + the change of y_j - y_i under each move, laid
        # out over the move axes (bit d-1, ..., bit 0) of the log-weights
        bits = (self.signs + 1) // 2
        self._gap_shift = [
            (i, j, (gap0 + 2 * (bits[:, j] - bits[:, i])).reshape((2,) * d + (1,)))
            for i in range(d)
            for j in range(i + 1, d)
        ]

    def _binomials(self, n: int) -> tuple[int, np.ndarray]:
        """Log-binomial table of step n and the position of its column 0.

        Row 0 (row 1) holds log binom(m+d-1, k) of a walker that moves down
        (up) from that position, -inf where the move cannot reach delta(x*);
        every position outside the table is unreachable as well.
        """
        spec = self.spec
        if not 0 <= n < spec.n_star:
            raise DomainError(f"step {n} outside 0..{spec.n_star - 1}")
        m = spec.n_star - n - 1
        top = m + spec.d - 1
        k = np.arange(top + 1)
        logb = self.lg[top] - self.lg[k] - self.lg[top - k]
        table = np.full((2, 2 * top + 3), -np.inf)
        table[0, 2::2] = logb
        table[1, :-2:2] = logb
        return spec.x_star - m - 1, table

    def _unreachable(self, stuck: np.ndarray, paths: np.ndarray, n: int):
        bad = int(np.argmax(stuck))
        raise UnreachableState(
            f"bridge cannot reach {self.spec.end.positions} from "
            f"{tuple(int(v) for v in paths[bad])} at time {n}"
        )

    def _move_log_weights(self, paths: np.ndarray, n: int) -> np.ndarray:
        """Log-weights of the 2^d moves of each row of `paths` at time n.

        Shape (2^d, P), move-major; row c is the move by row c of `signs`.
        The value is log V(y) + sum_i log binom(m+d-1, (m+y_i-x*)/2), which
        is log q_m up to a constant per call, and -inf for moves that leave
        the chamber or cannot reach the endpoint.
        """
        d = self.spec.d
        lo, table = self._binomials(n)
        idx = paths.T - lo
        if idx.min() < 0 or idx.max() >= table.shape[1]:
            self._unreachable(((idx < 0) | (idx >= table.shape[1])).any(axis=0), paths, n)
        # summation order of the bit-identical contract: walker terms for
        # i = 0..d-1, then log gaps for i < j
        logw = 0.0
        for i in range(d):
            term = table.take(idx[i], axis=1)
            logw = logw + term.reshape((1,) * (d - 1 - i) + (2,) + (1,) * i + (-1,))
        logw = np.broadcast_to(logw, (2,) * d + (len(paths),))
        for i, j, shift in self._gap_shift:
            logw = logw + self._log_gap.take(paths[:, j] - paths[:, i] + shift)
        return logw.reshape(1 << d, len(paths))

    def step(self, paths: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
        """Advance every row of `paths` from time n to n + 1.

        The last step (n = n_star - 1) is forced, since the endpoint is the
        only candidate of finite weight, and draws nothing from `gen`; every
        other step draws one uniform per candidate.  Raises UnreachableState
        when some row has no move that can still reach the endpoint.
        """
        logw = self._move_log_weights(paths, n)
        if n == self.spec.n_star - 1:
            score = logw
        else:
            # Gumbel-max: logw - log(-log u), computed in place on the draw
            u = gen.random((len(paths), len(logw)))
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
            score = np.subtract(logw, u.T, order="C")
        # first maximum over the moves, as np.argmax would pick it
        choice = np.zeros(len(paths), dtype=np.intp)
        best = score[0].copy()
        for c in range(1, len(score)):
            np.copyto(choice, c, where=score[c] > best)
            np.maximum(best, score[c], out=best)
        # best is -inf exactly when the chosen move has weight -inf, unless a
        # draw u = 0 sent a finite move to -inf: decide on logw itself
        if best.min() == -np.inf:
            stuck = logw[choice, np.arange(len(paths))] == -np.inf
            if stuck.any():
                self._unreachable(stuck, paths, n)
        return paths + self.signs.take(choice, axis=0)


def walk_bridges_lockstep(
    spec: BridgeSpec, count: int, rng: SeedRecord
) -> Iterator[np.ndarray]:
    """`count` independent bridge trajectories, one time at a time.

    Yields the int64 positions of shape (count, d) at times 0..n_star, a
    fresh array each time.  Each step draws from the exact one-step law of
    the bridge (:func:`one_step_bridge_law`) through :class:`BridgeStepper`.
    Raises EmptyBridge on the call itself, not on the first ``next``, when
    no trajectory connects the endpoints: since all walkers may take the
    same steps, that happens exactly when |x*| > n_star.
    """
    if abs(spec.x_star) > spec.n_star:
        raise EmptyBridge(f"no trajectory for {spec}")
    return _bridge_steps(BridgeStepper(spec), count, rng.generator())


def _bridge_steps(
    stepper: BridgeStepper, count: int, gen: np.random.Generator
) -> Iterator[np.ndarray]:
    paths = np.tile(np.array(stepper.spec.start.positions, dtype=np.int64), (count, 1))
    yield paths
    for n in range(stepper.spec.n_star):
        paths = stepper.step(paths, n, gen)
        yield paths


def sample_bridges_lockstep(
    spec: BridgeSpec, count: int, rng: SeedRecord
) -> np.ndarray:
    """Vectorized sampler: the trajectories of :func:`walk_bridges_lockstep`
    as one int64 array of shape (count, n_star + 1, d)."""
    walk = walk_bridges_lockstep(spec, count, rng)
    out = np.empty((count, spec.n_star + 1, spec.d), dtype=np.int64)
    for n, paths in enumerate(walk):
        out[:, n] = paths
    return out


def sample_bridge(spec: BridgeSpec, rng: SeedRecord) -> PathEnsembleSample:
    """Draw one trajectory: the one-row case of :func:`sample_bridges_lockstep`."""
    traj = sample_bridges_lockstep(spec, 1, rng)[0]
    return PathEnsembleSample(spec=spec, trajectory=traj, seed_record=rng)


def enumerate_bridges(spec: BridgeSpec, budget: int = 24) -> list[PathEnsembleSample]:
    """Exhaustive, duplicate-free list of all valid trajectories."""
    return [
        PathEnsembleSample(spec=spec, trajectory=traj)
        for traj in enumerate_trajectories(spec, budget)
    ]


def enumerate_trajectories(spec: BridgeSpec, budget: int = 24) -> np.ndarray:
    """All bridge trajectories as one array of shape (count, n_star+1, d).

    Level by level: each partial trajectory tries the 2^d rows of
    :func:`_step_signs` (bit i of a row's index moves walker i up), keeping
    moves with every neighbour gap >= 2 and every walker within reach of
    delta(x*).  Survivors are gathered parent-major, so the rows come out in
    lexicographic order of their per-step sign indices.
    """
    if spec.d * spec.n_star > budget:
        raise BudgetExceeded(
            f"d*n_star = {spec.d * spec.n_star} exceeds budget {budget}"
        )
    d, n_star = spec.d, spec.n_star
    # positions and the target stay within n_star + |x*| of 0 .. 2(d-1)
    small = np.int16 if 2 * (d + n_star) + abs(spec.x_star) < 2**15 else np.int64
    signs = _step_signs(d).astype(small)
    target = np.array(spec.end.positions, dtype=small)
    levels = [np.array([spec.start.positions], dtype=small)]
    parents = []
    for n in range(n_star):
        cand = levels[-1][:, None, :] + signs
        keep = np.all(np.diff(cand, axis=2) >= 2, axis=2)
        keep &= np.all(np.abs(cand - target) <= n_star - n - 1, axis=2)
        parent, move = np.nonzero(keep)
        levels.append(cand[parent, move])
        parents.append(parent)
    out = np.empty((len(levels[-1]), n_star + 1, d), dtype=np.int64)
    rows = np.arange(len(out))
    for n in range(n_star, 0, -1):
        out[:, n] = levels[n][rows]
        rows = parents[n - 1][rows]
    out[:, 0] = spec.start.positions
    return out


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
    num = km_weight(spec.n_star - n, x, spec.end) * vandermonde(
        spec.start.positions
    )
    den = km_weight(spec.n_star, spec.start, spec.end) * vandermonde(
        x.positions
    )
    if den == 0:
        raise EmptyBridge(f"no trajectory for {spec}")
    return Fraction(num, 1) / den


def free_step_law(x: WeylConfig) -> list[tuple[WeylConfig, Fraction]]:
    """One-step law of the free non-intersecting walk (harmonic reweighting)."""
    h = vandermonde(x.positions)
    out = []
    for s in _step_signs(x.d).tolist():
        y = tuple(p + q for p, q in zip(x.positions, s))
        # a move leaves the chamber exactly when two walkers meet, where V = 0
        w = Fraction(vandermonde(y), h * 2**x.d)
        if w != 0:
            out.append((WeylConfig(y), w))
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


# --- serialization (the CLI writes it) ---------------------------------------

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

