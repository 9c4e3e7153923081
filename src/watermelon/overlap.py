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
from itertools import product
from typing import Collection, Iterator, Sequence

import numpy as np

from .errors import DomainError, ParityError, SpecMismatch
from .kernels import ContinuumEndpoint, LatticeRounding, lattice_steps
from .rng import SeedRecord
from .walk_ensembles import (
    BridgeSpec,
    PathEnsembleSample,
    WeylConfig,
    _step_signs,
    chamber_path_sums,
    conditional_drift,
    delta_config,
    drift_bound,
    free_step_weights,
    km_weight,  # unused here; perfbench's tracer patches overlap.km_weight by name
    sample_free_walks_lockstep,
    vandermonde,
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
    scale_n: int | None = None

    @property
    def rescaled(self) -> float:
        if self.scale_n is None:
            raise DomainError("no scale attached to this record")
        return self.total / math.sqrt(self.scale_n)


def overlap_time(
    s1: PathEnsembleSample, s2: PathEnsembleSample, a: int, b: int,
    scale_n: int | None = None,
) -> OverlapRecord:
    """Exact coincidence counts between two trajectories on [a, b]."""
    if s1.spec != s2.spec:
        raise SpecMismatch(f"{s1.spec} != {s2.spec}")
    if not 0 <= a <= b <= s1.spec.n_star:
        raise DomainError("window outside [0, n_star]")
    d = s1.spec.d
    t1 = s1.trajectory[a : b + 1]
    t2 = s2.trajectory[a : b + 1]
    pairwise = tuple(
        tuple(int(np.sum(t1[:, k] == t2[:, l])) for l in range(d)) for k in range(d)
    )
    total = int(sum(sum(row) for row in pairwise))
    return OverlapRecord(pairwise=pairwise, total=total, window=(a, b), scale_n=scale_n)


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


def inverse_gap_sum(
    trajectory: np.ndarray, a_idx: int, b_idx: int, t: float, N: int
) -> float:
    """Rescaled running sum of reciprocal gaps between two walkers.

    Sums 1/(X_b(i) - X_a(i)) for i = 1..floor(t N) and divides by sqrt(N).
    Gaps are at least 2 on valid ordered trajectories.  Needs t >= 0 and
    N >= 1.
    """
    if not 1 <= a_idx < b_idx <= trajectory.shape[1]:
        raise DomainError("need 1 <= a < b <= d")
    if not (t >= 0 and N >= 1):
        raise DomainError(f"need t >= 0 and N >= 1, got t={t}, N={N}")
    steps = lattice_steps(t, N)
    if steps >= trajectory.shape[0]:
        raise DomainError("window longer than trajectory")
    gaps = trajectory[1 : steps + 1, b_idx - 1] - trajectory[1 : steps + 1, a_idx - 1]
    return float(np.sum(1.0 / gaps) / math.sqrt(N))


@dataclass
class InverseGapReport:
    rows: list[dict]
    ceiling: float


_EXACT_STATE_BUDGET = 4096  # reachable states up to which the gap law is exact


def expected_inverse_gap_check(
    d: int,
    a_idx: int,
    b_idx: int,
    n_list: Sequence[int],
    start_configs: Sequence[WeylConfig],
    rng: SeedRecord,
    mc_samples: int = 20000,
) -> InverseGapReport:
    """Table of E[sqrt(n) / gap(n)] for the free ensemble, per (n, start).

    Exact (the free-walk law from one chamber path-count sweep) when the
    reachable state count stays within _EXACT_STATE_BUDGET, Monte Carlo
    otherwise.
    Asserts only finiteness and reports the empirical ceiling.
    """
    if d < 2:
        raise DomainError("need at least two walkers for a gap")
    if not 1 <= a_idx < b_idx <= d:
        raise DomainError("need 1 <= a < b <= d")
    if any(n < 0 for n in n_list):
        raise DomainError(f"need every n >= 0, got {list(n_list)}")
    rows = []
    for si, x0 in enumerate(start_configs):
        if x0.d != d:
            raise DomainError("start config has wrong walker count")
        for ni, n in enumerate(n_list):
            exact = _reachable_count_estimate(d, n) <= _EXACT_STATE_BUDGET
            if exact:
                val = _exact_inverse_gap(x0, n, a_idx, b_idx)
                se = 0.0
            else:
                walks = sample_free_walks_lockstep(
                    x0, n, mc_samples, rng.child(si * 1000 + ni)
                )
                gaps = walks[:, n, b_idx - 1] - walks[:, n, a_idx - 1]
                vals = math.sqrt(n) / gaps
                val = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(mc_samples))
            rows.append(
                {"n": int(n), "start": list(x0.positions), "value": float(val),
                 "se": se, "exact": exact}
            )
    ceiling = max(r["value"] + 3 * r["se"] for r in rows)
    return InverseGapReport(rows=rows, ceiling=ceiling)


def _reachable_count_estimate(d: int, n: int) -> int:
    # states after n steps of d ordered walkers: crude upper bound
    return (2 * n + 1) ** d


def _exact_inverse_gap(x0: WeylConfig, n: int, a_idx: int, b_idx: int) -> float:
    # the free walk is the Vandermonde h-transform of the killed walk, so its
    # n-step law is count(x0 -> y) V(y) / (V(x0) 2^{dn})
    total = sum(
        Fraction(c * vandermonde(y), y[b_idx - 1] - y[a_idx - 1])
        for y, c in chamber_path_sums(x0, n)[n].items()
    )
    total /= vandermonde(x0.positions) * 2 ** (x0.d * n)
    return float(total) * math.sqrt(n)


@dataclass
class MomentRow:
    N: int
    t: float
    k: int
    moment_over_kfact: float
    se: float


@dataclass
class OverlapMomentReport:
    rows: list[MomentRow]
    bounded_in_n: bool
    decays_to_zero: bool
    tail_ratios: dict

    def to_json_dict(self) -> dict:
        return {
            "bounded_in_N": self.bounded_in_n,
            "decays_to_zero_as_t_to_0": self.decays_to_zero,
            "tail_ratios": self.tail_ratios,
        }


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
    on [n_lo, n].  Only the current positions are stored, so memory does
    not grow with n_star.
    """
    count = np.zeros(replicas, dtype=np.int64)
    out = {}
    walks = zip(*(walk_bridges_lockstep(spec, replicas, r) for r in rngs))
    for n, (a, b) in enumerate(walks):
        if n_lo <= n < spec.n_star:
            for k in range(spec.d):
                for l in range(spec.d):
                    count += a[:, k] == b[:, l]
        if n in times:
            out[n] = count.copy()
    return out


def check_t_grid(t_grid: Sequence[float], t_star: float) -> None:
    """Raise DomainError unless every overlap time lies in [0, t_star].

    t = 0 is the empty window, with zero overlap."""
    outside = [t for t in t_grid if not 0 <= t <= t_star]
    if outside:
        raise DomainError(f"t_grid values {outside} outside [0, {t_star}]")


def check_window(window: Sequence[float], t_star: float) -> None:
    """Raise DomainError unless both window ends are numbers with
    0 <= window[0] and window[1] <= t_star."""
    if not (0 <= window[0] and window[1] <= t_star):
        raise DomainError(f"window {tuple(window)} outside [0, {t_star}]")


def overlap_moment_diagnostics(
    end: ContinuumEndpoint,
    d: int,
    N_list: Sequence[int],
    t_grid: Sequence[float],
    k_max: int,
    replicas: int,
    rng: SeedRecord,
) -> OverlapMomentReport:
    """Monte Carlo moments of the rescaled overlap time across scales.

    For each N, walks independent bridge pairs once and reads the overlap
    on every [0, t] window from one running count.  Asserts finite-sample
    versions of uniform boundedness in N and decay as t -> 0; the tail ratio
    of successive moment terms is reported, not asserted.  An empty N_list
    or t_grid, a time outside [0, t_star] or fewer than two replicas raises
    DomainError.
    """
    if replicas < 2:  # no standard error from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    if k_max < 1:
        raise DomainError(f"need k_max >= 1, got {k_max}")
    if k_max > 6:
        raise DomainError("k_max above 6 is out of budget")
    if not N_list or not t_grid:
        raise DomainError("need a non-empty N_list and t_grid")
    check_t_grid(t_grid, end.t_star)
    rows = []
    table: dict[tuple[int, float, int], tuple[float, float]] = {}
    for li, N in enumerate(N_list):
        rounding = LatticeRounding.of(N, end)
        spec = rounding.bridge_spec(d)
        steps = {t: lattice_steps(t, N) for t in t_grid}  # <= n_star, as t <= t_star
        # interior times only: the pinned configs at steps 0 and n_star
        # coincide deterministically and carry no information
        overlaps = _pair_overlaps(
            spec, replicas, (rng.child(2 * li), rng.child(2 * li + 1)), 1, steps.values()
        )
        for t in t_grid:
            o_scaled = overlaps[steps[t]] / math.sqrt(N)
            for k in range(1, k_max + 1):
                vals = o_scaled**k / math.factorial(k)
                m, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))
                rows.append(MomentRow(N=N, t=float(t), k=k, moment_over_kfact=m, se=se))
                table[(N, float(t), k)] = (m, se)
    ts = sorted(set(float(t) for t in t_grid))
    bounded = True
    # The moments approach their continuum limits from below, so uniform
    # boundedness in N is rendered as saturation: consecutive increments
    # along N_list must shrink (within error bars), ruling out divergence.
    for t in ts:
        for k in range(1, k_max + 1):
            ms = [table[(N, t, k)][0] for N in N_list]
            ses = [table[(N, t, k)][1] for N in N_list]
            incs = [ms[i + 1] - ms[i] for i in range(len(ms) - 1)]
            if len(incs) >= 2 and incs[0] > 0:
                tol = 6 * max(ses)
                if incs[-1] > 0.9 * incs[0] + tol:
                    bounded = False
    decays = True
    for N in N_list:
        for k in range(1, k_max + 1):
            seq = [table[(N, t, k)][0] for t in ts]
            if seq[0] > seq[-1] + 3 * table[(N, ts[0], k)][1] + 1e-12:
                decays = False
    tails = {}
    for N in N_list:
        for t in ts:
            terms = [table[(N, t, k)][0] for k in range(1, k_max + 1)]
            ratios = [
                terms[i + 1] / terms[i] if terms[i] > 0 else float("nan")
                for i in range(len(terms) - 1)
            ]
            tails[f"N={N},t={t}"] = ratios
    return OverlapMomentReport(
        rows=rows, bounded_in_n=bounded, decays_to_zero=decays, tail_ratios=tails
    )


# --- squared-correlation cell sums vs overlap moments -------------------------


class ExactBridgeLaw:
    """Exact one- and two-time occupation probabilities of the bridge.

    fwd[n] counts the chamber paths delta(0) -> x of n steps and bwd[n] the
    paths x -> delta(x*) of n_star - n steps; the moves are symmetric, so
    bwd is the same sweep run from the endpoint back to the start.  Both
    layers at time n hold the same configurations: those within reach,
    walker by walker, of both ends.  (The walkers' lower envelopes
    max(a_i - m, b_i - (n - m)) join any two chamber configurations a, b
    within reach in n steps and never collide.)  A time outside
    0 <= n <= n_star raises DomainError.
    """

    def __init__(self, spec: BridgeSpec):
        self.spec = spec
        self.fwd = chamber_path_sums(spec.start, spec.n_star, spec.end)
        self.bwd = chamber_path_sums(spec.end, spec.n_star, spec.start)[::-1]
        self.total = self.fwd[spec.n_star][spec.end.positions]

    def _check_time(self, n: int) -> None:
        if not 0 <= n <= self.spec.n_star:
            raise DomainError(f"time {n} outside 0..{self.spec.n_star}")

    def site_prob(self, n: int, x: int) -> Fraction:
        """P(x occupied at time n)."""
        self._check_time(n)
        out = 0
        for pos, cf in self.fwd[n].items():
            if x in pos:
                out += cf * self.bwd[n][pos]
        return Fraction(out, self.total)

    def config_dist(self, n: int) -> dict[tuple[int, ...], Fraction]:
        self._check_time(n)
        bwd = self.bwd[n]
        return {pos: Fraction(cf * bwd[pos], self.total) for pos, cf in self.fwd[n].items()}

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

        One chamber transfer from time n1: for each site x1, the weight fwd[n1]
        of every configuration holding x1 is moved by the 2^d steps, keeping
        only configurations in bwd[n] (every path that still reaches the end
        passes through them), and at each n2 it is contracted against bwd[n2]
        over each x2 of the configuration.  The counts are Python ints, so
        dividing by `total` gives the exact pair probabilities with no
        Karlin-McGregor determinant.
        """
        signs = [tuple(s) for s in _step_signs(self.spec.d).tolist()]
        marked: dict[int, dict[tuple[int, ...], int]] = {}
        for pos, cf in self.fwd[n1].items():
            for x1 in pos:
                marked.setdefault(x1, {})[pos] = cf
        for n2 in range(n1 + 1, n_last + 1):
            keep = self.bwd[n2]
            counts: dict[tuple[int, int], int] = {}
            for x1, layer in marked.items():
                nxt: dict[tuple[int, ...], int] = {}
                for pos, w in layer.items():
                    for s in signs:
                        y = tuple(p + q for p, q in zip(pos, s))
                        if y in keep:
                            nxt[y] = nxt.get(y, 0) + w
                marked[x1] = nxt
                for pos, w in nxt.items():
                    w *= keep[pos]
                    for x2 in pos:
                        counts[x1, x2] = counts.get((x1, x2), 0) + w
            yield counts


@dataclass
class L2BoundReport:
    k: int
    window: tuple[int, int]
    lhs_cell_sum: float
    rhs_mc: float
    rhs_se: float
    rhs_exact: float
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "window_steps": list(self.window),
            "lhs_cell_sum": self.lhs_cell_sum,
            "rhs_mc": self.rhs_mc,
            "rhs_se": self.rhs_se,
            "rhs_exact": self.rhs_exact,
            "holds": self.holds,
        }


def overlap_l2_bound_check(
    end: ContinuumEndpoint,
    d: int,
    N: int,
    window: tuple[float, float],
    k: int,
    rng: SeedRecord,
    replicas: int = 20000,
) -> L2BoundReport:
    """Squared-correlation cell sum against the overlap moment bound.

    LHS: exact sum over ordered interior lattice time tuples and positions of
    psi_k^2 times cell volumes (the piecewise-constant integral).  RHS:
    E[(O[window])^k] / (2^k k!), by Monte Carlo and exactly.  Both sides run over the
    same interior lattice steps max(1, floor(Ns)) .. min(n_star-1, floor(Ns'))
    (the pinned endpoint configs coincide deterministically and are excluded),
    which makes k = 1 an exact equality and k >= 2 an inequality whose slack
    is exactly the discarded equal-time diagonal.  A window reaching outside
    [0, t_star] or fewer than two replicas raise DomainError; a window with
    window[1] <= window[0] is empty.
    """
    if replicas < 2:  # no standard error from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    if not 1 <= k <= 2:
        raise DomainError(f"exact cell sums support 1 <= k <= 2, got {k}")
    check_window(window, end.t_star)
    rounding = LatticeRounding.of(N, end)
    spec = rounding.bridge_spec(d)
    if window[1] <= window[0]:
        # empty ordered-time domain: both sides vanish
        return L2BoundReport(k=k, window=(0, -1), lhs_cell_sum=0.0, rhs_mc=0.0,
                             rhs_se=0.0, rhs_exact=0.0, holds=True)
    n_lo = max(1, lattice_steps(window[0], N))
    n_hi = min(lattice_steps(window[1], N), spec.n_star - 1)
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
    holds = lhs <= rhs + 3 * se
    return L2BoundReport(
        k=k, window=(n_lo, n_hi), lhs_cell_sum=lhs, rhs_mc=rhs, rhs_se=se,
        rhs_exact=exact_rhs, holds=holds,
    )


def _squared_occupation_sums(
    law: ExactBridgeLaw, n_lo: int, n_hi: int, k: int
) -> tuple[Fraction, Fraction]:
    """(same-time, cross-time) sums of squared occupation probabilities, k <= 2.

    Same-time: over each n in [n_lo, n_hi], the squared P(x_1, .., x_k occupied
    at n) over all k-tuples of sites (x1 == x2 included).  Cross-time, k = 2
    only: the squared P(x1 occupied at n1, x2 occupied at n2) over
    n_lo <= n1 < n2 <= n_hi.
    """
    same = Fraction(0)
    for n in range(n_lo, n_hi + 1):
        joint: dict[tuple[int, ...], Fraction] = {}
        for pos, p in law.config_dist(n).items():
            for key in product(pos, repeat=k):
                joint[key] = joint.get(key, 0) + p
        same += sum(p * p for p in joint.values())
    # one pair sweep per n1 serves every n2 <= n_hi
    cross = 0
    if k == 2:
        for n1 in range(n_lo, n_hi + 1):
            for counts in law._pair_counts(n1, n_hi):
                cross += sum(c * c for c in counts.values())
    return same, Fraction(cross, law.total**2)


@dataclass
class DriftSweepReport:
    violations: int
    checked: int
    max_ratio: float
    path_stat_moments: dict


def drift_bound_sweep(
    d: int,
    gap_range: tuple[int, int],
    rng: SeedRecord,
    configs: int = 10000,
    path_n: int = 256,
    path_replicas: int = 2000,
    t_grid: Sequence[float] = (0.1, 0.4, 1.0),
) -> DriftSweepReport:
    """Exact conditional-drift ceiling sweep plus the path-summed statistic.

    Random configurations with gaps in gap_range are checked exactly; the
    running sum (1/sqrt(N)) sum_n |E[step | position]| along sampled free
    trajectories is summarized by its first two moments per t, a fraction
    of path_n; a t outside [0, 1] raises DomainError.
    """
    if not 2 <= d <= 5:
        # one walker has no gap, so its drift bound is 0
        raise DomainError(f"sweep supports 2 <= d <= 5, got d={d}")
    check_t_grid(t_grid, 1.0)
    gen = rng.generator()
    violations = 0
    max_ratio = 0.0
    for _ in range(configs):
        gaps = gen.integers(gap_range[0], gap_range[1] + 1, size=d - 1) * 2
        base = int(gen.integers(-50, 50)) * 2
        pos = [base]
        for g in gaps:
            pos.append(pos[-1] + int(g))
        cfg = WeylConfig(tuple(pos))
        k = int(gen.integers(1, d + 1))
        drift = conditional_drift(cfg, k)
        bound = drift_bound(cfg, k)
        ratio = abs(drift) / bound
        max_ratio = max(max_ratio, float(ratio))
        if abs(drift) > bound:
            violations += 1
    # path statistic via sampled free walks
    walks = sample_free_walks_lockstep(delta_config(d, 0), path_n, path_replicas, rng.child(7))
    moments = {}
    for t in t_grid:
        steps = lattice_steps(t, path_n)
        stat = np.zeros(path_replicas)
        for k in range(1, d + 1):
            for n in range(1, steps + 1):
                stat += np.abs(_vector_drift(walks[:, n], k))
        stat /= math.sqrt(path_n)
        moments[f"t={t}"] = {
            "mean": float(stat.mean()),
            "second_over_2": float((stat**2 / 2).mean()),
        }
    return DriftSweepReport(
        violations=violations,
        checked=configs,
        max_ratio=max_ratio,
        path_stat_moments=moments,
    )


def _vector_drift(configs: np.ndarray, k: int) -> np.ndarray:
    """Conditional drift of walker k for a batch of configurations."""
    cand, w = free_step_weights(configs)
    return (w * (cand[:, :, k - 1] - configs[:, None, k - 1])).sum(axis=1)
