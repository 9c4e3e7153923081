"""Exact laws, samplers, and enumeration oracles for non-intersecting walks.

The state space is the period-2 Weyl chamber: strictly increasing integer
vectors whose coordinates all share one parity.  Two determinant helpers
live here: :func:`int_det` (Bareiss over ints, behind every exact law: each
builds an integer matrix, takes one determinant and divides once by its
common denominator) and :func:`signed_logdet` (row-scaled doubles, for the
large positive-entry LGV matrices of `grsk`).  The float
kernel determinants of `kernels` (`continuum_psi_k`, float
`discrete_psi_prob` from three sites on) have O(1) gauged entries and call
``np.linalg.det`` directly.  Exact path counts over the chamber go through
one sweep, :func:`chamber_sweep`, whose moves come from one table per d;
the successor lists it records carry the pair-site transfer of
`overlap.ExactBridgeLaw`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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
    """Endpoint data for d walkers bridged from delta(0) to delta(x_star).

    Every spec has a trajectory: |x_star| > n_star, the one case without
    (all walkers may take the same steps), raises EmptyBridge.
    """

    d: int
    n_star: int
    x_star: int

    def __post_init__(self):
        if self.d < 1 or self.n_star < 1:
            raise DomainError("need d >= 1 and n_star >= 1")
        if (self.n_star + self.x_star) % 2 != 0:
            raise ParityError("n_star + x_star must be even")
        if abs(self.x_star) > self.n_star:
            raise EmptyBridge(f"no trajectory for {self}")

    @property
    def start(self) -> WeylConfig:
        return delta_config(self.d, 0)

    @property
    def end(self) -> WeylConfig:
        return delta_config(self.d, self.x_star)


def check_trajectories(spec: BridgeSpec, trajs: np.ndarray) -> None:
    """Raise DomainError unless every row of the (count, n_star + 1, d) stack
    `trajs` is a bridge trajectory of `spec`: from delta(0) to delta(x_star)
    in +-1 steps, with every neighbour gap at least 2."""
    if trajs.shape[1:] != (spec.n_star + 1, spec.d):
        raise DomainError("trajectory shape does not match spec")
    if np.any(trajs[:, 0] != spec.start.positions):
        raise DomainError("trajectory does not start at delta(0)")
    if np.any(trajs[:, -1] != spec.end.positions):
        raise DomainError("trajectory does not end at delta(x_star)")
    if not np.all(np.abs(np.diff(trajs, axis=1)) == 1):
        raise DomainError("walkers must move by +-1 each step")
    if not np.all(np.diff(trajs, axis=2) >= 2):
        raise DomainError("walkers must stay strictly ordered")


def vandermonde(positions: Sequence[int]) -> int:
    """Product of pairwise gaps; the harmonic function behind the conditioning."""
    h = 1
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            h *= positions[j] - positions[i]
    return h


def int_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination; `a` is overwritten."""
    n = len(a)
    if n == 0:
        return 1
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
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signed_logdet(logm: np.ndarray):
    """(sign, log|det|) of the matrix whose entries are exp(logm).

    Each row is rescaled by its maximum before the determinant, so entries
    far outside the double range are fine.  A row that is all -inf (a zero
    row) gives (0.0, -inf).  A stack (..., k, k) gives arrays of shape (...),
    each matrix the same bits as on its own.
    """
    row_max = logm.max(axis=-1)
    row_max[row_max == -np.inf] = 0.0  # a zero row stays zero, and slogdet says so
    sign, logdet = np.linalg.slogdet(np.exp(logm - row_max[..., None]))
    return sign, row_max.sum(axis=-1) + logdet


def _binom(n: int, k: int) -> int:
    """Binomial with the convention: zero unless k is in [0, n]."""
    return math.comb(n, k) if 0 <= k <= n else 0


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
    # every n + xi - yj is even: all positions of a configuration share a parity
    mat = [[_binom(n, (n + xi - yj) // 2) for yj in to.positions] for xi in frm.positions]
    q = Fraction(int_det(mat), 2 ** (n * frm.d))
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


@functools.cache
def _legal_moves(d: int, key: tuple[bool, ...]) -> tuple[tuple[int, ...], ...]:
    """The move table of d walkers: the one-step displacements allowed by
    `key` = (up allowed per walker, down allowed per walker, tight per
    neighbour pair).  Walker i moves up only where up[i], down only where
    down[i], and no tight pair (gap 2) moves towards each other, the only
    move that breaks the order.  Memoized: at most 2^(3d-1) keys."""
    up, down, tight = key[:d], key[d:2 * d], key[2 * d:]
    return tuple(
        s for s in map(tuple, _step_signs(d).tolist())
        if all(up[i] if q > 0 else down[i] for i, q in enumerate(s))
        and not any(t and s[i] > s[i + 1] for i, t in enumerate(tight))
    )


def chamber_sweep(start: WeylConfig, steps: int, end: WeylConfig | None = None):
    """(configs, counts, succ): per time 0..steps the configurations, their
    counts of non-intersecting paths from `start`, and (times before
    `steps`) for each configuration the indices of its successors at the
    next time.

    With `end`, only configurations that can still reach `end` in the
    remaining steps are kept.  A negative `steps`, an `end` with another
    walker count, and an `end` that no path reaches raise DomainError before
    the sweep: a path exists exactly when each walker is within reach of its
    end with matching parity (the walkers' lower envelopes
    max(a_i - m, b_i - (steps - m)) never collide).  The moves of a
    configuration come from the move table :func:`_legal_moves`, keyed by
    which walkers may move up and down without leaving reach of `end` and
    which neighbour pairs are tight.
    """
    if steps < 0:
        raise DomainError("need n >= 0")
    if end is not None:
        if end.d != start.d:
            raise DomainError("configuration sizes differ")
        pairs = zip(start.positions, end.positions)
        if (start.positions[0] + end.positions[0] + steps) % 2 or any(
            abs(a - b) > steps for a, b in pairs
        ):
            raise DomainError(
                f"no non-intersecting path from {start.positions} to {end.positions} "
                f"in {steps} steps"
            )
    d = start.d
    twos = (2,) * (d - 1)
    configs, counts, succ = [[start.positions]], [[1]], []
    lo, hi = (-math.inf,) * d, (math.inf,) * d
    for n in range(1, steps + 1):
        if end is not None:
            # the previous layer is within reach with one more step left,
            # so a walker may move up unless at hi and down unless at lo
            rem = steps - n
            lo = tuple(t - rem for t in end.positions)
            hi = tuple(t + rem for t in end.positions)
        index: dict[tuple[int, ...], int] = {}
        nxt: list[int] = []
        layer_succ = []
        for pos, w in zip(configs[-1], counts[-1]):
            key = (*map(operator.lt, pos, hi), *map(operator.gt, pos, lo),
                   *map(operator.eq, map(operator.sub, pos[1:], pos), twos))
            js = []
            for s in _legal_moves(d, key):
                y = tuple(map(operator.add, pos, s))
                j = index.get(y)
                if j is None:
                    j = index[y] = len(nxt)
                    nxt.append(w)
                else:
                    nxt[j] += w
                js.append(j)
            layer_succ.append(js)
        configs.append(list(index))
        counts.append(nxt)
        succ.append(layer_succ)
    return configs, counts, succ


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
        # below the least gap, 2.  A wider gap, clipped to the last entry,
        # belongs to a walker outside the table, whose weight is -inf anyway
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
        (up) from that position, -inf where the move cannot reach delta(x*).
        The first and last columns are -inf guards, so a lookup clipped to
        the table gives every position outside it weight -inf as well.
        """
        spec = self.spec
        if not 0 <= n < spec.n_star:
            raise DomainError(f"step {n} outside 0..{spec.n_star - 1}")
        m = spec.n_star - n - 1
        top = m + spec.d - 1
        k = np.arange(top + 1)
        logb = self.lg[top] - self.lg[k] - self.lg[top - k]
        table = np.full((2, 2 * top + 5), -np.inf)
        table[0, 3:-1:2] = logb
        table[1, 1:-3:2] = logb
        return spec.x_star - m - 2, table

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
        # summation order of the bit-identical contract: walker terms for
        # i = 0..d-1, then log gaps for i < j
        logw = 0.0
        for i in range(d):
            term = table.take(idx[i], axis=1, mode="clip")
            logw = logw + term.reshape((1,) * (d - 1 - i) + (2,) + (1,) * i + (-1,))
        for i, j, shift in self._gap_shift:
            logw = logw + self._log_gap.take(paths[:, j] - paths[:, i] + shift, mode="clip")
        return logw.reshape(1 << d, len(paths))

    def _batch_log_weights(self, paths: np.ndarray, n: int) -> np.ndarray:
        """:meth:`_move_log_weights` of every row of `paths`, shape (2^d, P).

        A row's weights depend only on its configuration.  The batch's
        configurations lie in the box of per-walker ranges [lo_i, hi_i], on
        a grid of step 2, since a walker's rows share one parity.  When that
        box has far fewer cells than the batch has rows, the weights are
        evaluated once per cell and each row gathers the column of its cell
        key sum_i ((x_i - lo_i) >> 1) * stride_i; otherwise they are
        evaluated on the rows.  Each column is the same sums in the same
        order either way, so the two give the same bits.
        """
        # fast path, not a rule: a box has at least one cell, so the test
        # below would send these rows to the row route too, after the cost of
        # building the box on every step of `watermelon sample` (one row)
        if len(paths) <= 4:
            return self._move_log_weights(paths, n)
        d = self.spec.d
        # walkers as rows: numpy reduces and broadcasts slowly over the short
        # walker axis of a (P, d) array
        cols = paths.T.copy()
        lo, hi = cols.min(axis=1), cols.max(axis=1)
        # the box of a row far outside would overflow an int64 product, not
        # a product of Python ints
        widths = (((hi - lo) >> 1) + 1).tolist()
        cells = math.prod(widths)
        if 4 * cells >= len(paths):
            return self._move_log_weights(paths, n)
        cols -= lo[:, None]
        if np.bitwise_or.reduce(cols, axis=None) & 1:  # a walker mixes parities
            return self._move_log_weights(paths, n)
        cols >>= 1
        key, stride = cols[0], 1
        for i in range(1, d):
            stride *= widths[i - 1]
            key += cols[i] * stride
        # cell key -> configuration, walker 0 fastest
        grid = lo[:, None] + 2 * np.indices(widths[::-1]).reshape(d, cells)[::-1]
        # gather rows of a (cells, 2^d) copy: the result is the (2^d, P)
        # weights, transposed
        per_cell = np.ascontiguousarray(self._move_log_weights(grid.T, n).T)
        return per_cell.take(key, axis=0).T

    def step(self, paths: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
        """Advance every row of `paths` from time n to n + 1.

        The last step (n = n_star - 1) is forced, since the endpoint is the
        only candidate of finite weight, and draws nothing from `gen`; every
        other step draws one uniform per candidate.  Raises UnreachableState
        when some row has no move that can still reach the endpoint.
        """
        logw = self._batch_log_weights(paths, n)
        if n == self.spec.n_star - 1:
            score = logw
        else:
            # Gumbel-max: logw - log(-log u), computed in place on the draw
            u = gen.random((len(paths), len(logw)))
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
            score = np.subtract(logw, u.T, order="C")
        # first maximum over the moves, as np.argmax would pick it: move c
        # takes over where it is strictly above the best so far, and since c
        # exceeds every earlier choice, that is a running maximum of
        # c * (score[c] > best), which is much faster than a masked copy
        code = np.min_scalar_type(len(score) - 1)
        choice = np.zeros(len(paths), dtype=code)
        best = score[0].copy()
        above = np.empty(len(paths), dtype=bool)
        for c in range(1, len(score)):
            np.greater(score[c], best, out=above)
            np.maximum(choice, np.multiply(above, c, dtype=code), out=choice)
            np.maximum(best, score[c], out=best)
        # best is -inf exactly when the chosen move has weight -inf, unless a
        # draw u = 0 sent a finite move to -inf: decide on logw itself
        if best.min() == -np.inf:
            stuck = logw[choice, np.arange(len(paths))] == -np.inf
            if stuck.any():
                row = paths[int(np.argmax(stuck))]
                raise UnreachableState(
                    f"bridge cannot reach {self.spec.end.positions} from "
                    f"{tuple(int(v) for v in row)} at time {n}"
                )
        return paths + self.signs.take(choice, axis=0)


def walk_bridges_lockstep(
    spec: BridgeSpec, count: int, rng: SeedRecord
) -> Iterator[np.ndarray]:
    """`count` independent bridge trajectories, one time at a time.

    Yields the int64 positions of shape (count, d) at times 0..n_star, a
    fresh array each time.  Each step draws from the exact one-step law of
    the bridge (:func:`one_step_bridge_law`) through :class:`BridgeStepper`.
    A count below 1 raises DomainError before any draw.
    """
    if count < 1:
        raise DomainError(f"need count >= 1, got {count}")
    stepper = BridgeStepper(spec)
    gen = rng.generator()
    paths = np.tile(np.array(spec.start.positions, dtype=np.int64), (count, 1))
    yield paths
    for n in range(spec.n_star):
        paths = stepper.step(paths, n, gen)
        yield paths


def sample_bridges_lockstep(
    spec: BridgeSpec, count: int, rng: SeedRecord
) -> np.ndarray:
    """Vectorized sampler: the trajectories of :func:`walk_bridges_lockstep`
    as one int64 array of shape (count, n_star + 1, d)."""
    walk = walk_bridges_lockstep(spec, count, rng)
    start = next(walk)  # checks count before the array is made
    out = np.empty((count, spec.n_star + 1, spec.d), dtype=np.int64)
    out[:, 0] = start
    for n, paths in enumerate(walk, start=1):
        out[:, n] = paths
    return out


def enumerate_trajectories(spec: BridgeSpec, budget: int = 24) -> np.ndarray:
    """All bridge trajectories as one array of shape (count, n_star+1, d).

    Level by level, one walker column at a time: each partial trajectory
    tries the 2^d rows of :func:`_step_signs` (bit i of a row's index moves
    walker i up), keeping moves with every neighbour gap >= 2 and every
    walker within reach of delta(x*).  Survivors are gathered parent-major,
    so the rows come out in lexicographic order of their per-step sign
    indices; a spec always has a trajectory, so the array is never empty.
    """
    if spec.d * spec.n_star > budget:
        raise BudgetExceeded(
            f"d*n_star = {spec.d * spec.n_star} exceeds budget {budget}"
        )
    d, n_star = spec.d, spec.n_star
    # positions and the target stay within n_star + |x*| of 0 .. 2(d-1)
    small = np.int16 if 2 * (d + n_star) + abs(spec.x_star) < 2**15 else np.int64
    signs = _step_signs(d).T.astype(small)  # row i: walker i's step in each move
    target = spec.end.positions
    # levels[n][i]: position of walker i at time n, one entry per partial trajectory
    levels = [[np.array([p], dtype=small) for p in spec.start.positions]]
    parents = []
    for n in range(n_star):
        reach = n_star - n - 1
        cand = [col[:, None] + s for col, s in zip(levels[-1], signs)]
        keep = np.abs(cand[0] - target[0]) <= reach
        for i in range(1, d):
            keep &= cand[i] - cand[i - 1] >= 2
            keep &= np.abs(cand[i] - target[i]) <= reach
        flat = np.flatnonzero(keep)  # parent * 2^d + move
        levels.append([c.ravel()[flat] for c in cand])
        parents.append(flat >> d)
    count = len(levels[-1][0])
    out = np.empty((count, n_star + 1, d), dtype=small)
    rows = np.arange(count)
    for n in range(n_star, 0, -1):
        for i in range(d):
            out[:, n, i] = levels[n][i][rows]
        rows = parents[n - 1][rows]
    out[:, 0] = spec.start.positions
    return out.astype(np.int64)


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
    # walker i's factor is 2^n C(n*-n+d-1, (n*-n+x_i-x*)/2) (n*+d-i)_i
    # / [C(n*+d-1, (n*+x*)/2+i) (n*-n+d-i)_i], i = 0..d-1, with rising
    # factorials (a)_i = perm(a+i-1, i); the halves are whole by parity
    num = den = 1
    for i, xi in enumerate(x.positions):
        num *= 2**n * _binom(n_star - n + d - 1, (n_star - n + xi - x_star) // 2)
        num *= math.perm(n_star + d - 1, i)
        den *= _binom(n_star + d - 1, (n_star + x_star) // 2 + i)
        den *= math.perm(n_star - n + d - 1, i)
    return Fraction(num, den)


def radon_nikodym_ratio(spec: BridgeSpec, n: int, x: WeylConfig) -> Fraction:
    """Oracle for :func:`radon_nikodym`: direct ratio of the two laws."""
    num = km_weight(spec.n_star - n, x, spec.end) * vandermonde(
        spec.start.positions
    )
    den = km_weight(spec.n_star, spec.start, spec.end) * vandermonde(
        x.positions
    )
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
