"""Geometric RSK path sums, forced points, lattice rotation, and scaling runs.

tau_{m,d}(n) sums products of vertex weights over d-tuples of vertex-disjoint
up-right lattice paths; ratios of consecutive tau's define the array entries.
tau is evaluated by exhaustive enumeration (the oracle) and by the
determinant of single-path sums, exactly for rational weights and in log
space otherwise; the enumeration tests validate the determinant for this
vertex-weight geometry.  Both routes, and the exact polymer average on the
rotated grid, take their single-path sums from one wavefront, :func:`path_sums`.

Weights are plain 2-D arrays and grid cells are 0-indexed (row, column): the
paper's vertex (i, j) is cell (i-1, j-1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, DomainError
from .rng import SeedRecord
from .walk_ensembles import int_det, signed_logdet


_ENUMERATION_BUDGET = 14  # largest n + m that tau_enumerate walks through


def _check_weights(w) -> np.ndarray:
    """w as a 2-D array whose every weight is > 0 (NaN fails), else DomainError.

    Integer arrays come back as Python ints, which do not overflow.
    """
    w = np.asarray(w)
    if w.ndim != 2 or not np.all(w > 0):
        raise DomainError("weights must be a 2-D array of positive numbers")
    return w.astype(object) if w.dtype.kind in "iu" else w


def _path_endpoints(d: int, n: int, m: int) -> tuple[list, list]:
    """Start and end cells of the d paths on an n x m grid: path r runs from
    (0, r) to (n-1, m-d+r)."""
    if not 1 <= d <= min(n, m):
        raise DomainError("need 1 <= d <= min(n, m)")
    return [(0, r) for r in range(d)], [(n - 1, m - d + r) for r in range(d)]


def _enumerate_paths(start: tuple[int, int], end: tuple[int, int]):
    """All up-right paths start -> end as frozensets of visited cells."""
    out = []
    path = [start]

    def rec(pos):
        if pos == end:
            out.append(frozenset(path))
            return
        i, j = pos
        if i < end[0]:
            path.append((i + 1, j))
            rec((i + 1, j))
            path.pop()
        if j < end[1]:
            path.append((i, j + 1))
            rec((i, j + 1))
            path.pop()

    if end[0] >= start[0] and end[1] >= start[1]:
        rec(start)
    return out


def tau_enumerate(w, d: int):
    """Exhaustive sum over vertex-disjoint path tuples (the oracle route)."""
    w = _check_weights(w)
    n, m = w.shape
    if n + m > _ENUMERATION_BUDGET or d > 3:
        raise BudgetExceeded(f"n+m = {n + m} (budget {_ENUMERATION_BUDGET}) or d = {d} > 3")
    starts, ends = _path_endpoints(d, n, m)
    per_route = [_enumerate_paths(s, e) for s, e in zip(starts, ends)]

    total = 0
    used: list[frozenset] = []

    def rec(r: int, acc):
        nonlocal total
        if r == d:
            total = total + acc
            return
        for cells in per_route[r]:
            if any(cells & u for u in used):
                continue
            used.append(cells)
            rec(r + 1, acc * math.prod(w[c] for c in cells))
            used.pop()

    rec(0, 1)
    return total


def tau_lgv(w, d: int):
    """tau via the determinant of single-path sums between endpoint lists.

    Vertex weights need no inclusion-exclusion correction in this geometry;
    the enumeration equivalence test asserts it rather than assuming it.
    Exact (a Fraction) when every weight is an int or a Fraction; other
    weights go through :func:`log_tau_lgv`.
    """
    w = _check_weights(w)
    n, m = w.shape
    starts, ends = _path_endpoints(d, n, m)
    if not all(isinstance(v, Rational) for v in w.flat):
        return math.exp(log_tau_lgv(np.log(w.astype(np.float64)), d))
    # the weights times the lcm q of their denominators are ints; a path from
    # start r to end s visits n + m - d + s - r cells, and the q^(s-r) factors
    # are a diagonal conjugation, so the determinant scales by q^(d(n+m-d))
    q = math.lcm(*(v.denominator for v in w.flat))
    scaled = [v.numerator * (q // v.denominator) for v in w.flat]
    scaled = np.array(scaled, dtype=object).reshape(1, n, m)
    sums = path_sums(scaled, starts, ends, 0, np.add, np.multiply)
    return Fraction(int_det(sums[0].tolist()), q ** (d * (n + m - d)))


def lgv_mismatch(gen: np.random.Generator, trials: int, max_side: int) -> int | None:
    """The first of `trials` random instances on which :func:`tau_lgv` and
    :func:`tau_enumerate` differ by more than 1e-9 relative, or None.

    Each instance draws its sides n, m from 2..max_side, then d from
    1..min(3, n, m), then n x m weights uniform on [0.5, 2).  Float weights
    send tau_lgv through :func:`log_tau_lgv`, the one-matrix case of the DP
    of the scaling run.
    """
    for trial in range(trials):
        n = int(gen.integers(2, max_side + 1))
        m = int(gen.integers(2, max_side + 1))
        d = int(gen.integers(1, min(3, n, m) + 1))
        w = gen.uniform(0.5, 2.0, size=(n, m))
        te = tau_enumerate(w, d)
        if not abs(tau_lgv(w, d) - te) <= 1e-9 * abs(te):
            return trial
    return None


def log_tau_lgv(log_w: np.ndarray, d: int) -> float:
    """log tau for an n x m matrix of finite log-weights.

    The one-matrix case of :func:`log_tau_lgv_batch`.
    """
    n, m = log_w.shape
    return float(log_tau_lgv_batch(log_w.reshape(1, n, m), d)[0])


def path_sums(w: np.ndarray, starts, ends, zero, plus, times) -> np.ndarray:
    """Single-path sums from each start cell to each end cell of every matrix
    in an (R, n, m) stack, as an (R, len(starts), len(ends)) array.

    Cells are 0-indexed (row, column).  A path steps from (i, j) to (i+1, j)
    or (i, j+1); it contributes the `times`-product of its weights, `plus`
    adds paths and `zero` is the empty sum: ``(-inf, np.logaddexp, np.add)``
    in log space, ``(0, np.add, np.multiply)`` exactly on object arrays.
    The sums run as an anti-diagonal wavefront from the first start to the
    last end: (i, j) needs only (i-1, j) and (i, j-1), on the previous
    diagonal, so a diagonal is one `plus` and one `times` over its rows on
    the matrix, for every matrix and start at once (`zero` where a start has
    not begun).  Every matrix gets the bits it would get on its own.
    """
    R, n, m = w.shape
    # column 0 stays `zero`: the missing upper neighbour of row 0
    front = np.full((R, len(starts), n + 1), zero, dtype=w.dtype)
    out = np.full((R, len(starts), len(ends)), zero, dtype=w.dtype)
    for k in range(min(i + j for i, j in starts), max(i + j for i, j in ends) + 1):
        # only rows lo..hi-1 of diagonal k lie on the matrix: rows above them
        # are never read again and rows below them are still `zero`
        lo, hi = max(0, k - m + 1), min(n, k + 1)
        rows = np.arange(lo, hi)
        front[:, :, lo + 1 : hi + 1] = times(
            w[:, None, rows, k - rows], plus(front[:, :, lo:hi], front[:, :, lo + 1 : hi + 1])
        )
        for s, (i, j) in enumerate(starts):
            if i + j == k:
                front[:, s, i + 1] = w[:, i, j]
        for e, (i, j) in enumerate(ends):
            if i + j == k:
                out[:, :, e] = front[:, :, i + 1]
    return out


def log_tau_lgv_batch(log_w: np.ndarray, d: int) -> np.ndarray:
    """log tau of each n x m matrix of finite log-weights in an (R, n, m) stack.

    The d x d log single-path sums, from the first row to the last, come
    from one log-space :func:`path_sums` over the stack and go to one batched
    :func:`signed_logdet`.
    """
    starts, ends = _path_endpoints(d, *log_w.shape[1:])
    if not np.all(np.isfinite(log_w)):
        raise DomainError("log-weights must be finite (weights must be positive)")
    logmat = path_sums(log_w, starts, ends, -np.inf, np.logaddexp, np.add)
    sign, logdet = signed_logdet(logmat)
    if np.any(sign <= 0):
        raise DomainError("nonpositive path-sum determinant")
    return logdet


def grsk_array(w, d_max: int) -> list[dict]:
    """Array entries z_{m,j}(n) = tau_{m,j}(n) / tau_{m,j-1}(n), j <= d_max,
    of an n x m weight array."""
    w = _check_weights(w)
    n, m = w.shape
    taus = [1]
    for j in range(1, d_max + 1):
        taus.append(tau_lgv(w, j))
    out = []
    for j in range(1, d_max + 1):
        if not taus[j - 1] > 0:
            raise DomainError("vanishing tau under positive weights")
        out.append({"m": m, "j": j, "n": n, "value": taus[j] / taus[j - 1]})
    return out


def forced_points(d: int, N: int) -> set[tuple[int, int]]:
    """Cells common to every path tuple on the (N+d) x (N+d) grid.

    Path r is pinned through a staircase triangle at each corner; the set has
    d(d+1) cells.
    """
    pts: set[tuple[int, int]] = set()
    for ell in range(d):
        pts.update((i, ell) for i in range(d - ell))
        pts.update((N + i, N + ell) for i in range(d - 1 - ell, d))
    return pts


def rotate_lambda(d: int, cell: tuple[int, int]) -> tuple[int, int]:
    """45-degree rotation from grid cells to walk (time, space)."""
    i, j = cell
    return (i + j + 1 - d, i - j + d - 1)


def rotate_lambda_inverse(d: int, tz: tuple[int, int]) -> tuple[int, int]:
    t, s = tz
    if (t + s) % 2 != 0:
        raise DomainError("point not in the image lattice")
    return ((t + s) // 2, (t - s) // 2 + d - 1)


def inverse_gamma_sample(theta: float, rng: SeedRecord, size=None):
    """Reciprocal of a unit-scale Gamma(theta) draw."""
    if not theta > 0:
        raise DomainError("theta must be positive")
    return 1.0 / rng.generator().gamma(theta, 1.0, size=size)


def inverse_gamma_moments(theta: float) -> tuple[float, float]:
    """Mean 1/(theta-1) for theta > 1; variance (theta-1)^{-2}(theta-2)^{-1} for theta > 2."""
    if not theta > 1:
        raise DomainError("mean requires theta > 1")
    mean = 1.0 / (theta - 1.0)
    if not theta > 2:
        raise DomainError("variance requires theta > 2")
    var = mean * mean / (theta - 2.0)
    return mean, var


_TAU_CHUNK_WEIGHTS = 1 << 19  # weights per scaling-run draw: 4 MB, whatever the replica count


def rescaled_tau_run(
    beta: float,
    N_list: Sequence[int],
    replicas: int,
    rng: SeedRecord,
    d: int = 2,
) -> tuple[dict, list[np.ndarray]]:
    """Distribution of the rescaled square-window path sum across scales.

    Weights are inverse-Gamma with parameter beta^{-1} sqrt(N); the
    normalization divides by the exact mean to the power d(2N+d), by
    2^{d(2N+d)} N^{-d^2/2}, and by the product of factorials.  Returns the
    JSON report, one entry of its "levels" per N, and per N the array of
    rescaled draws.  An empty N_list, an N below 1 or fewer than two
    replicas raises DomainError.
    """
    if not N_list:
        raise DomainError("N_list is empty")
    if replicas < 2:  # no standard deviation from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    for N in N_list:  # every level is checked before any is drawn
        if N < 1:
            raise DomainError(f"need N >= 1, got {N}")
        theta = math.sqrt(N) / beta
        if not theta > 2:  # NaN fails this too
            raise DomainError(f"theta = {theta} is not above 2 at N = {N}; variance undefined")
        if N > 400:
            raise BudgetExceeded("N above 400 is out of the determinant budget")
    levels, all_draws = [], []
    for li, N in enumerate(N_list):
        theta = math.sqrt(N) / beta
        mean, var = inverse_gamma_moments(theta)
        gen = rng.child(li).generator()
        size = N + d
        log_norm = (
            -d * (2 * N + d) * math.log(mean)
            - d * (2 * N + d) * math.log(2.0)
            + 0.5 * d * d * math.log(N)
            - sum(math.lgamma(j + 1) for j in range(d))
        )
        # replicas in chunks of at most _TAU_CHUNK_WEIGHTS weights; gamma fills
        # its output in order, so the chunks draw what one draw per replica would
        chunk = max(1, _TAU_CHUNK_WEIGHTS // (size * size))
        log_taus: list[float] = []
        for r0 in range(0, replicas, chunk):
            logw = gen.gamma(theta, 1.0, size=(min(chunk, replicas - r0), size, size))
            np.log(logw, out=logw)
            np.negative(logw, out=logw)
            log_taus.extend(log_tau_lgv_batch(logw, d).tolist())
        draws = np.array([math.exp(v + log_norm) for v in log_taus])
        q = np.percentile(draws, [5, 25, 50, 75, 95])
        levels.append({
            "N": N,
            "theta": theta,
            "variance_ratio": math.sqrt(N) * var / (mean * mean),
            "variance_ratio_limit": beta,
            "mean": float(draws.mean()),
            "std": float(draws.std(ddof=1)),
            "quantiles": {"q05": q[0], "q25": q[1], "q50": q[2], "q75": q[3], "q95": q[4]},
        })
        all_draws.append(draws)
    report = {
        "beta": beta,
        "d": d,
        "replicas": replicas,
        "seed": rng.as_dict(),
        "levels": levels,
        "ks_between_consecutive_levels":
            [_ks_statistic(a, b) for a, b in zip(all_draws, all_draws[1:])],
    }
    return report, all_draws


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    allv = np.sort(np.concatenate([a, b]))
    ca = np.searchsorted(np.sort(a), allv, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), allv, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))
