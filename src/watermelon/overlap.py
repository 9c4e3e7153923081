"""Overlap-time statistics of independent bridge ensembles.

The overlap time counts space-time coincidences between two independent
copies of the walker ensemble.  Everything countable here is exact integer
arithmetic; the square-root-of-N rescaling happens only at reporting time.
The discrete occupation-time identity (tanaka_check) is the one exact
identity everything else leans on, so it is checked to literal zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Collection, Iterator, Sequence

import numpy as np

from .errors import DomainError, ParityError, SpecMismatch
from .kernels import ContinuumEndpoint, LatticeRounding, lattice_steps
from .rng import SeedRecord
from .walk_ensembles import (
    BridgeSpec,
    chamber_sweep,
    km_weight,  # unused here; perfbench's tracer patches overlap.km_weight by name
    walk_bridges_lockstep,
)
# unused here; bound so that perfbench/spans.py can patch it on this module
from .walk_ensembles import sample_bridges_lockstep  # noqa: F401


@dataclass(frozen=True)
class OverlapRecord:
    """Pairwise and total coincidence counts over a time window."""

    pairwise: tuple[tuple[int, ...], ...]  # d x d, [k][l] counts
    total: int
    window: tuple[int, int]


def overlap_time(t1: np.ndarray, t2: np.ndarray, a: int, b: int) -> OverlapRecord:
    """Exact coincidence counts between two (n_star + 1, d) trajectories on [a, b]."""
    if t1.shape != t2.shape:
        raise SpecMismatch(f"trajectory shapes {t1.shape} != {t2.shape}")
    if not 0 <= a <= b <= len(t1) - 1:
        raise DomainError("window outside [0, n_star]")
    d = t1.shape[1]
    t1 = t1[a : b + 1]
    t2 = t2[a : b + 1]
    pairwise = tuple(
        tuple(int(np.sum(t1[:, k] == t2[:, l])) for l in range(d)) for k in range(d)
    )
    total = int(sum(sum(row) for row in pairwise))
    return OverlapRecord(pairwise=pairwise, total=total, window=(a, b))


@dataclass(frozen=True)
class TanakaDecomposition:
    """Pieces of the discrete occupation-time identity, all exact integers."""

    lhs: int  # coincidence count on [0, n]
    gap_increment: int  # |A(n+1) - B(n+1)| - |A(0) - B(0)|
    signed_sum_first: int  # sum of sgn(A(i) - B(i)) alpha(i+1)
    signed_sum_second: int  # sum of sgn(A(i+1) - B(i)) beta(i+1)

    @property
    def residual(self) -> int:
        return self.lhs - (
            self.gap_increment - self.signed_sum_first + self.signed_sum_second
        )


def tanaka_decomposition(
    alpha: Sequence[int], beta: Sequence[int], a0: int, b0: int, n: int
) -> TanakaDecomposition:
    """Evaluate both sides of the discrete occupation-time identity.

    With A, B the +-1 walks driven by alpha, beta from a0, b0 (same parity),
    the number of coincidences on [0, n] equals the absolute-gap increment
    minus/plus two signed step sums, with sgn(0) = 0.
    """
    if (a0 + b0) % 2 != 0:
        raise ParityError("a0 + b0 must be even")
    if n < 0:
        raise DomainError("need n >= 0")
    if len(alpha) < n + 1 or len(beta) < n + 1:
        raise DomainError("need n+1 steps in each driving sequence")
    steps = np.array([alpha[: n + 1], beta[: n + 1]])
    if steps.dtype.kind not in "biuf" or not (np.abs(steps) == 1).all():
        raise DomainError("driving sequences must be +-1 valued")
    steps = steps.astype(np.int64)
    # gap[i] = A(i) - B(i) for i = 0..n+1; only a0 - b0 enters
    gap = np.empty(n + 2, dtype=np.int64)
    gap[0] = a0 - b0
    np.cumsum(steps[0] - steps[1], out=gap[1:])
    gap[1:] += a0 - b0
    before = gap[:-1]
    # np.sign is sgn with sgn(0) = 0; A(i+1) - B(i) = gap[i] + alpha[i]
    return TanakaDecomposition(
        lhs=int(np.count_nonzero(before == 0)),
        gap_increment=abs(int(gap[-1])) - abs(a0 - b0),
        signed_sum_first=int(np.sign(before) @ steps[0]),
        signed_sum_second=int(np.sign(before + steps[0]) @ steps[1]),
    )


def tanaka_check(
    alpha: Sequence[int], beta: Sequence[int], a0: int, b0: int, n: int
) -> int:
    """Residual of the discrete occupation-time identity; must be exactly 0."""
    return tanaka_decomposition(alpha, beta, a0, b0, n).residual


def _pair_overlaps(
    spec: BridgeSpec, replicas: int, rngs: tuple[SeedRecord, SeedRecord],
    n_lo: int, times: Collection[int],
) -> dict[int, np.ndarray]:
    """Overlaps of `replicas` pairs of independent bridges, walked in lockstep.

    The two ensembles draw from `rngs[0]` and `rngs[1]`, exactly as
    :func:`sample_bridges_lockstep` would.  Per replica, one running int64
    count adds the walker pairs (k, l) that share a site at each time
    n_lo <= n < n_star (the pinned end configuration is never counted); a
    copy is kept at each time in `times`, so `{n: counts}` holds the overlap
    on [n_lo, n].  The walk stops at min(max(times), n_star - 1).  Only the
    current positions are stored, so memory does not grow with n_star.
    """
    count = np.zeros(replicas, dtype=np.int64)
    out = {}
    last = min(max(times), spec.n_star - 1)
    walks = zip(*(walk_bridges_lockstep(spec, replicas, r) for r in rngs))
    for n, (a, b) in enumerate(islice(walks, last + 1)):
        if n >= n_lo:
            for k in range(spec.d):
                for l in range(spec.d):
                    count += a[:, k] == b[:, l]
        if n in times:
            out[n] = count.copy()
    out.update((n, count.copy()) for n in times if n > last)
    return out


def check_t_grid(t_grid: Sequence[float], t_star: float) -> None:
    """Raise DomainError unless every overlap time lies in [0, t_star].

    t = 0 is the empty window, with zero overlap."""
    outside = [t for t in t_grid if not 0 <= t <= t_star]
    if outside:
        raise DomainError(f"t_grid values {outside} outside [0, {t_star}]")


def lattice_window(
    end: ContinuumEndpoint, d: int, N: int, window: Sequence[float]
) -> tuple[BridgeSpec, int, int]:
    """The spec at scale N and the interior lattice steps max(1, floor(Ns))
    .. min(n_star-1, floor(Ns')) of the window (s, s'); DomainError unless
    0 <= s < s' <= t_star and the window holds an interior lattice step."""
    if not (0 <= window[0] and window[1] <= end.t_star):
        raise DomainError(f"window {tuple(window)} outside [0, {end.t_star}]")
    if not window[0] < window[1]:
        raise DomainError(f"window {tuple(window)} is empty")
    spec = LatticeRounding.of(N, end).bridge_spec(d)
    n_lo = max(1, lattice_steps(window[0], N))
    n_hi = min(lattice_steps(window[1], N), spec.n_star - 1)
    if n_lo > n_hi:
        raise DomainError(f"window {tuple(window)} holds no interior lattice step at N = {N}")
    return spec, n_lo, n_hi


def overlap_moment_diagnostics(
    end: ContinuumEndpoint,
    d: int,
    N_list: Sequence[int],
    t_grid: Sequence[float],
    k_max: int,
    replicas: int,
    rng: SeedRecord,
) -> tuple[dict, list[tuple]]:
    """Monte Carlo moments of the rescaled overlap time across scales.

    For each N, walks independent bridge pairs once and reads the overlap
    on every [0, t] window from one running count.  Asserts finite-sample
    versions of uniform boundedness in N and decay as t -> 0; a verdict
    that compares nothing (fewer than three N, or one distinct t) is None.
    The tail ratio of successive moment terms is reported, not asserted.
    Returns the JSON summary and the rows (N, t, k, moment / k!, se).  An
    empty N_list or t_grid, a repeated N, a time outside [0, t_star] or
    fewer than two replicas raises DomainError, and an N whose bridge is
    empty raises EmptyBridge, each before any sampling.
    """
    if replicas < 2:  # no standard error from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    if k_max < 1:
        raise DomainError(f"need k_max >= 1, got {k_max}")
    if k_max > 6:
        raise DomainError("k_max above 6 is out of budget")
    if not N_list or not t_grid:
        raise DomainError("need a non-empty N_list and t_grid")
    if len(set(N_list)) < len(N_list):
        raise DomainError(f"N_list {list(N_list)} repeats a level")
    check_t_grid(t_grid, end.t_star)
    # every level's spec is built before any is sampled
    specs = [LatticeRounding.of(N, end).bridge_spec(d) for N in N_list]
    ts = sorted(set(float(t) for t in t_grid))
    # mean and se of moment / k! by (N as listed, t ascending, k - 1)
    mean, se = np.empty((2, len(N_list), len(ts), k_max))
    rows = []
    for li, (N, spec) in enumerate(zip(N_list, specs)):
        steps = {t: lattice_steps(t, N) for t in t_grid}  # <= n_star, as t <= t_star
        # interior times only: the pinned configs at steps 0 and n_star
        # coincide deterministically and carry no information
        overlaps = _pair_overlaps(
            spec, replicas, (rng.child(2 * li), rng.child(2 * li + 1)), 1, steps.values()
        )
        for t in t_grid:
            ti = ts.index(float(t))
            o_scaled = overlaps[steps[t]] / math.sqrt(N)
            for k in range(1, k_max + 1):
                vals = o_scaled**k / math.factorial(k)
                m, err = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))
                rows.append((N, float(t), k, m, err))
                mean[li, ti, k - 1], se[li, ti, k - 1] = m, err
    # The moments approach their continuum limits from below, so uniform
    # boundedness in N is rendered as saturation: where the first increment
    # along N_list is positive, the last must be below 0.9 of it (within
    # error bars), ruling out divergence.
    inc = np.diff(mean, axis=0)
    bounded = None if len(N_list) < 3 else not np.any(
        (inc[0] > 0) & (inc[-1] > 0.9 * inc[0] + 6 * se.max(axis=0))
    )
    decays = None if len(ts) < 2 else not np.any(
        mean[:, 0] > mean[:, -1] + 3 * se[:, 0] + 1e-12
    )
    # a zero term has no ratio: NaN
    ratios = mean[..., 1:] / np.where(mean[..., :-1] > 0, mean[..., :-1], np.nan)
    tails = {
        f"N={N},t={t}": ratios[li, ti].tolist()
        for li, N in enumerate(N_list)
        for ti, t in enumerate(ts)
    }
    summary = {"bounded_in_N": bounded, "decays_to_zero_as_t_to_0": decays, "tail_ratios": tails}
    return summary, rows


# --- squared-correlation cell sums vs overlap moments -------------------------


class ExactBridgeLaw:
    """Exact one- and two-time occupation probabilities of the bridge.

    One chamber sweep from delta(0), pruned to configurations within reach
    of delta(x*), gives per time n the configurations `configs[n]`, their
    path counts from delta(0) and the indices `succ[n]` of each one's
    successors at n + 1.  Every configuration kept reaches delta(x*) (the
    walkers' lower envelopes max(a_i - m, b_i - (n - m)) join any two
    chamber configurations a, b within reach in n steps and never collide),
    so the successor lists hold every path of the bridge: the counts to
    delta(x*) run back along them, and pair counts run forward along them.
    `_fwd[n]` and `_bwd[n]` hold the two counts of each configuration, in the
    order of `configs[n]`.  A time outside 0 <= n <= n_star raises DomainError.
    """

    def __init__(self, spec: BridgeSpec):
        self.spec = spec
        self.configs, self._fwd, self.succ = chamber_sweep(spec.start, spec.n_star, spec.end)
        bwd = [[1]]
        for layer in reversed(self.succ):
            after = bwd[-1]
            bwd.append([sum(map(after.__getitem__, js)) for js in layer])
        self._bwd = bwd[::-1]
        self.total = self._fwd[spec.n_star][0]
        self._marginals: dict[int, dict[int, int]] = {}

    def _check_time(self, n: int) -> None:
        if not 0 <= n <= self.spec.n_star:
            raise DomainError(f"time {n} outside 0..{self.spec.n_star}")

    def site_prob(self, n: int, x: int) -> Fraction:
        """P(x occupied at time n), from the marginals at time n."""
        self._check_time(n)
        marg = self._marginals.get(n)
        if marg is None:
            marg = self._marginals[n] = {}
            for pos, f, b in zip(self.configs[n], self._fwd[n], self._bwd[n]):
                w = f * b
                for x1 in pos:
                    marg[x1] = marg.get(x1, 0) + w
        return Fraction(marg.get(x, 0), self.total)

    def pair_site_table(self, n1: int, n2: int) -> dict[tuple[int, int], Fraction]:
        """All P(x1 occupied at n1, x2 occupied at n2): the pair sweep from n1,
        stopped at n2."""
        if not n1 < n2:
            raise DomainError("need n1 < n2")
        self._check_time(n1)
        self._check_time(n2)
        for counts in self._pair_counts(n1, n2):
            pass
        return {key: Fraction(c, self.total) for key, c in counts.items()}

    def _pair_counts(self, n1: int, n_last: int) -> Iterator[dict[tuple[int, int], int]]:
        """Bridge path counts with x1 occupied at n1 and x2 at n2, as one
        {(x1, x2): count} dict per n2 = n1 + 1 .. n_last.

        One transfer from time n1 per site x1: the forward counts of the
        configurations holding x1 move along the successor lists, and at
        each n2 they are contracted against the backward counts over each
        x2 of the configuration.  The counts are Python ints, so dividing by
        `total` gives the exact pair probabilities with no Karlin-McGregor
        determinant.
        """
        marked: dict[int, list[int]] = {}
        size = len(self.configs[n1])
        for i, (pos, w) in enumerate(zip(self.configs[n1], self._fwd[n1])):
            for x1 in pos:
                marked.setdefault(x1, [0] * size)[i] = w
        for n2 in range(n1 + 1, n_last + 1):
            succ, keep, configs = self.succ[n2 - 1], self._bwd[n2], self.configs[n2]
            counts: dict[tuple[int, int], int] = {}
            for x1, layer in marked.items():
                nxt = [0] * len(configs)
                for w, js in zip(layer, succ):
                    if w:
                        for j in js:
                            nxt[j] += w
                marked[x1] = nxt
                for w, b, pos in zip(nxt, keep, configs):
                    if w:
                        w *= b
                        for x2 in pos:
                            counts[x1, x2] = counts.get((x1, x2), 0) + w
            yield counts


def overlap_l2_bound_check(
    end: ContinuumEndpoint,
    d: int,
    N: int,
    window: tuple[float, float],
    k: int,
    rng: SeedRecord,
    replicas: int = 20000,
) -> dict:
    """Squared-correlation cell sum against the overlap moment bound.

    LHS: exact sum over ordered interior lattice time tuples and positions of
    psi_k^2 times cell volumes (the piecewise-constant integral).  RHS:
    E[(O[window])^k] / (2^k k!), by Monte Carlo and exactly.  Both sides run over the
    same interior lattice steps of :func:`lattice_window` (the pinned
    endpoint configs coincide deterministically and are excluded), which
    makes k = 1 an exact equality and k >= 2 an inequality whose slack is
    exactly the discarded equal-time diagonal.  Returns the JSON report.
    A window that :func:`lattice_window` rejects or fewer than two replicas
    raise DomainError before any sampling.
    """
    if replicas < 2:  # no standard error from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    if not 1 <= k <= 2:
        raise DomainError(f"exact cell sums support 1 <= k <= 2, got {k}")
    spec, n_lo, n_hi = lattice_window(end, d, N, window)
    law = ExactBridgeLaw(spec)
    # integral = sum psi_k^2 * vol^k with psi_k = (sqrt(N)/2)^k P and
    # vol = 2 N^{-3/2}, i.e. 2^{-k} N^{-k/2} times the sum of P^2
    same, cross = _squared_occupation_sums(law, n_lo, n_hi, k)
    if k == 1:
        lhs = float(same) / (2.0 * math.sqrt(N))
    else:
        lhs = float(cross) / (4.0 * N)
    # Monte Carlo RHS
    coincide = _pair_overlaps(spec, replicas, (rng.child(0), rng.child(1)), n_lo, [n_hi])[n_hi]
    vals = (coincide / math.sqrt(N)) ** k / (2**k * math.factorial(k))
    rhs = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(replicas))
    # exact RHS, E[O^k] for two independent bridges: the squared k-site
    # probabilities, with each pair of distinct times counted in both orders
    moment = same if k == 1 else same + 2 * cross
    exact_rhs = float(moment / N ** (k / 2) / (2**k * math.factorial(k)))
    return {
        "k": k,
        "window_steps": [n_lo, n_hi],
        "lhs_cell_sum": lhs,
        "rhs_mc": rhs,
        "rhs_se": se,
        "rhs_exact": exact_rhs,
        "holds": lhs <= rhs + 3 * se,
    }


def _squared_occupation_sums(
    law: ExactBridgeLaw, n_lo: int, n_hi: int, k: int
) -> tuple[Fraction, Fraction]:
    """(same-time, cross-time) sums of squared occupation probabilities, k <= 2.

    Same-time: over each n in [n_lo, n_hi], the squared P(x_1, .., x_k occupied
    at n) over all k-tuples of sites (x1 == x2 included).  Cross-time, k = 2
    only: the squared P(x1 occupied at n1, x2 occupied at n2) over
    n_lo <= n1 < n2 <= n_hi.  Both sum squared integer path counts and
    divide once by `total` squared.
    """
    same = 0
    for n in range(n_lo, n_hi + 1):
        joint: dict[tuple[int, ...], int] = {}
        for pos, f, b in zip(law.configs[n], law._fwd[n], law._bwd[n]):
            w = f * b
            for key in product(pos, repeat=k):
                joint[key] = joint.get(key, 0) + w
        same += sum(c * c for c in joint.values())
    # one pair sweep per n1 serves every n2 <= n_hi
    cross = 0
    if k == 2:
        for n1 in range(n_lo, n_hi + 1):
            for counts in law._pair_counts(n1, n_hi):
                cross += sum(c * c for c in counts.values())
    return Fraction(same, law.total**2), Fraction(cross, law.total**2)
