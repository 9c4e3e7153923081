"""Determinantal correlation kernels for non-intersecting bridges.

Two kernels live here: the continuum one built from normalized Hermite
polynomials, and the discrete one built from Hahn polynomials, together with
the k-point functions they generate and the N -> infinity convergence study.
Both are evaluated in their gauged forms, which keep every entry O(1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, ParityError
# hahn and hahn_exact are unused here; perfbench/spans.py patches them by name
from .special_polys import (  # noqa: F401
    _lattice_family,
    hahn,
    hahn_exact,
    hahn_ratios,
    hahn_series,
    hahn_series_exact,
    hermite_normalized,
)
from .walk_ensembles import BridgeSpec, _binom, int_det, log_binom


@dataclass(frozen=True)
class ContinuumEndpoint:
    """Terminal data (t_star, z_star) of the bridge ensemble: a finite
    t_star > 0 and a finite z_star, else DomainError."""

    t_star: float
    z_star: float = 0.0

    def __post_init__(self):
        if not (0 < self.t_star < math.inf and math.isfinite(self.z_star)):  # NaN fails
            raise DomainError(f"need a finite t_star > 0 and a finite z_star, got {self}")


@dataclass(frozen=True)
class SpaceTimePoint:
    t: float
    z: float


@dataclass(frozen=True)
class CorrelationQuery:
    points: tuple[SpaceTimePoint, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise DomainError("query needs at least one point")


def alpha_factor(t_star: float, t):
    """The argument rescaling sqrt(t_star / (2 t (t_star - t))), elementwise."""
    t = np.asarray(t, dtype=float)
    inside = (0.0 < t) & (t < t_star)
    if not inside.all():
        raise DomainError(f"t={t[~inside]} outside (0, {t_star})")
    return np.sqrt(t_star / (2.0 * t * (t_star - t)))


_ROUND_EPS = 1e-9


def lattice_steps(t: float, N: int) -> int:
    """floor(N t), robust to N t landing just below an integer (0.29 * 100)."""
    return math.floor(N * t + _ROUND_EPS)


def round_point2(t: float, z: float) -> tuple[int, int]:
    """Nearest-below lattice point with matching parity: (floor t, parity floor of z).

    A small epsilon guards against floating products like 0.7*50 landing a
    hair below an integer.
    """
    n = math.floor(t + _ROUND_EPS)
    x = math.floor(z + _ROUND_EPS)
    if (x + n) % 2 != 0:
        x -= 1
    return n, x


def nearest_parity(z: float, parity: int) -> int:
    """Integer nearest to z with the given parity (ties break downward)."""
    lo = math.floor(z + _ROUND_EPS)
    if (lo - parity) % 2 != 0:
        lo -= 1
    hi = lo + 2
    return hi if (hi - z) < (z - lo) else lo


@dataclass(frozen=True)
class LatticeRounding:
    """Diffusive embedding of a continuum endpoint at scale N."""

    N: int
    t_star: float
    z_star: float
    n_star: int
    x_star: int

    @classmethod
    def of(cls, N: int, end: ContinuumEndpoint) -> "LatticeRounding":
        """The rounding of `end` at scale N >= 1; N < 1 raises DomainError."""
        # Endpoint uses the nearest parity-matching lattice point; query
        # points use the parity floor of their tessellation cell.
        if N < 1:
            raise DomainError(f"need N >= 1, got {N}")
        n_star = lattice_steps(end.t_star, N)
        x_star = nearest_parity(math.sqrt(N) * end.z_star, n_star % 2)
        return cls(N=N, t_star=end.t_star, z_star=end.z_star, n_star=n_star, x_star=x_star)

    def bridge_spec(self, d: int) -> BridgeSpec:
        return BridgeSpec(d=d, n_star=self.n_star, x_star=self.x_star)

    def round_query_point(self, p: SpaceTimePoint) -> tuple[int, int]:
        return round_point2(self.N * p.t, math.sqrt(self.N) * p.z)


def _kernel(end: ContinuumEndpoint, d: int, t, z, tp, zp) -> np.ndarray:
    """The continuum kernel K(t, z; t', z') on broadcast arrays of coordinates.

    Nonzero terminal offset enters the Hermite arguments through a shift
    along the line from (0,0) to (t_star, z_star); the heat term is the plain
    unshifted Gaussian, present only when t < t'.  This gauge is the one the
    rescaled lattice kernel converges to pointwise.
    """
    ts, zs = end.t_star, end.z_star
    at = alpha_factor(ts, t)
    atp = alpha_factor(ts, tp)
    yc = (z - zs * t / ts) * at
    ypc = (zp - zs * tp / ts) * atp
    ratio = (t * (ts - tp)) / ((ts - t) * tp)
    s = sum(
        ratio ** (j / 2.0) * hermite_normalized(j, yc) * hermite_normalized(j, ypc)
        for j in range(d)
    )
    front = np.sqrt(ts / (2.0 * tp * (ts - t)))
    decay = np.exp(-((z - zs) ** 2) / (2.0 * (ts - t))) * np.exp(-zp * zp / (2.0 * tp))
    val = math.exp(zs * zs / (2.0 * ts)) * front * s * decay
    fwd = t < tp
    dt = np.where(fwd, tp - t, 1.0)
    heat = np.exp(-((zp - z) ** 2) / (2.0 * dt)) / np.sqrt(2.0 * math.pi * dt)
    return val - np.where(fwd, heat, 0.0)


def continuum_psi_k(end: ContinuumEndpoint, d: int, query: CorrelationQuery) -> float:
    """k-point correlation density: determinant of the continuum kernel; 0
    for a duplicated point once every time is checked to lie in (0, t_star)."""
    pts = query.points
    t = np.array([p.t for p in pts])
    alpha_factor(end.t_star, t)
    if len(set(pts)) != len(pts):
        return 0.0
    z = np.array([p.z for p in pts])
    mat = _kernel(end, d, t[:, None], z[:, None], t[None, :], z[None, :])
    return float(np.linalg.det(mat))


# --- discrete (Hahn) kernel --------------------------------------------------


def _f_weight(spec: BridgeSpec, j: int) -> Fraction:
    """Spectral weight of degree j in the discrete kernel.

    The j = 0 weight is the bare reciprocal central binomial; for j >= 1 the
    rising-factorial prefactor kicks in.
    """
    d, n_star, x_star = spec.d, spec.n_star, spec.x_star
    central = _binom(n_star + 2 * d - 2, (n_star + x_star) // 2 + d - 1)
    if j == 0:
        return Fraction(1, central)
    # (n* + 2d - j)_{j-1} = perm(n* + 2d - 2, j - 1)
    poch = math.perm(n_star + 2 * d - 2, j - 1)
    return Fraction((n_star + 2 * d - 2 * j - 1) * poch, math.factorial(j) * central)


class DiscreteKernelTable:
    """Cached per-spec evaluation of the discrete bridge kernel.

    Per factor (forward P, backward P~) and time n the table caches the
    x-free Hahn term-ratio factors of every degree (`special_polys.hahn_ratios`),
    so each factor at (n, x) is one short series run per degree, cached too.
    Exact mode keeps a factor as integer numerators over one denominator,
    with the spectral weights `f` folded into the forward factor when it is
    first filled: an entry is an integer dot product and one Fraction, and
    a k-point probability is one integer determinant (:meth:`numerators`).
    Float mode assembles each term in log space with a sign tracker and
    exponentiates once.
    """

    def __init__(self, spec: BridgeSpec, exact: bool = False):
        self.spec = spec
        self.exact = exact
        self.f = [_f_weight(spec, j) for j in range(spec.d)]
        # spectral weights are positive ratios of big integers; keep their logs
        self.log_f = [
            math.log(w.numerator) - math.log(w.denominator) for w in self.f
        ]
        self._cache: dict[tuple[bool, int, int], object] = {}
        self._series: dict[tuple[bool, int], tuple] = {}

    def _check(self, n: int, x: int) -> None:
        if (n + x) % 2 != 0:
            raise ParityError(f"point ({n}, {x}) off the parity lattice")
        if not 0 < n < self.spec.n_star:
            raise DomainError(f"time {n} outside (0, {self.spec.n_star})")

    def _factor(self, tilde: bool, n: int, x: int):
        """weights[j] * Q_j(k) * binom(M, k) at (n, x), all degrees j < d.

        Q_j is the P family (the P~ family when `tilde`) at time n, k its
        argument at x and M its size (`special_polys._lattice_family`);
        binom(M, k) counts the single walks from that family's end, and the
        weights are `f` on the forward factor of an exact table, else 1.
        Exact factors are (integer numerators, one positive denominator);
        float factors are (sign, log magnitude) pairs without the weights.
        """
        key = (tilde, n, x)
        got = self._cache.get(key)
        if got is not None:
            return got
        series = self._series.get((tilde, n))
        if series is None:
            s = self.spec
            lo, alpha, beta, M = _lattice_family(tilde, n, s.d, s.n_star, s.x_star)
            if not self.exact:
                alpha, beta = float(alpha), float(beta)
            ratios = [hahn_ratios(j, alpha, beta, M) for j in range(s.d)]
            series = self._series[tilde, n] = (lo, M, ratios)
        lo, M, ratios = series
        k = (x - lo) // 2  # x - lo is even on the parity lattice
        if self.exact:
            vals = [hahn_series_exact(r, k) for r in ratios]
            if not tilde:
                vals = [(t * w.numerator, b * w.denominator) for (t, b), w in zip(vals, self.f)]
            den = math.lcm(*(b for _, b in vals))
            c = _binom(M, k)
            got = ([t * (den // b) * c for t, b in vals], den)
        else:
            lb = log_binom(M, k)
            got = []
            for r in ratios:
                q = hahn_series(r, k)
                if q == 0.0 or lb == -math.inf:
                    got.append((0.0, -math.inf))
                else:
                    got.append((math.copysign(1.0, q), math.log(abs(q)) + lb))
        self._cache[key] = got
        return got

    def entry(self, a: tuple[int, int], b: tuple[int, int]):
        """Kernel value K((n,x); (n',x')) in the 2^{n-n'} gauge."""
        n, x = a
        npr, xpr = b
        self._check(n, x)
        self._check(npr, xpr)
        if self.exact:
            ((num,),), (dv,), (du,) = self.numerators([a], [b])
            return Fraction(num << max(n - npr, 0), du * dv << max(npr - n, 0))
        return self._float_entry(n, x, npr, xpr)

    def _float_entry(self, n: int, x: int, npr: int, xpr: int) -> float:
        # each term assembled in log space, one sign, one exponential
        total = 0.0
        if n < npr and (npr - n + xpr - x) % 2 == 0:
            lb = log_binom(npr - n, (npr - n + xpr - x) // 2)
            if lb > -math.inf:
                total -= math.exp((n - npr) * math.log(2.0) + lb)
        fwd = self._factor(False, npr, xpr)
        bwd = self._factor(True, n, x)
        base = (n - npr) * math.log(2.0)
        for j in range(self.spec.d):
            s_f, l_f = fwd[j]
            s_b, l_b = bwd[j]
            if s_f == 0.0 or s_b == 0.0:
                continue
            total += s_f * s_b * math.exp(base + self.log_f[j] + l_f + l_b)
        return total

    def numerators(self, rows: Sequence[tuple[int, int]], cols: Sequence[tuple[int, int]]):
        """Integers (A, dv, du) with K(a_i; b_j) = 2^{n_i-n'_j} A_ij / (dv_i du_j).

        For row sites a_i = (n_i, x_i) and column sites b_j = (n'_j, x'_j),
        A_ij = sum_k f_k fwd_k(b_j) bwd_k(a_i) - [n_i < n'_j] heat, over
        dv_i, the denominator of the backward factor at a_i, and du_j, that
        of the forward factor at b_j.  The gauge 2^{n-n'} is a conjugation
        and cancels in every determinant: det[K(s_i; s_j)] is
        det A / prod_i dv_i du_i.  Exact tables only; the sites must be
        checked.
        """
        fwd = [self._factor(False, n, x) for n, x in cols]
        bwd = [self._factor(True, n, x) for n, x in rows]
        mat = []
        for (n, x), (v, dv) in zip(rows, bwd):
            row = []
            for (npr, xpr), (u, du) in zip(cols, fwd):
                num = sum(map(operator.mul, u, v))
                if n < npr:
                    num -= _binom(npr - n, (npr - n + xpr - x) // 2) * du * dv
                row.append(num)
            mat.append(row)
        return mat, [dv for _, dv in bwd], [du for _, du in fwd]


def discrete_psi_prob(
    spec: BridgeSpec,
    sites: Sequence[tuple[int, int]],
    mode: str = "exact",
    table: DiscreteKernelTable | None = None,
):
    """Joint occupation probability of distinct lattice sites, via the kernel.

    This is the determinant det[K(s_i; s_j)]; multiplied by (sqrt(N)/2)^k it
    becomes the rescaled k-point function.  Exactly it is one integer
    determinant over the product of the sites' factor denominators
    (:meth:`DiscreteKernelTable.numerators`).  Every site is checked as
    :meth:`DiscreteKernelTable.entry` checks it; then duplicate sites give 0.
    A given `table` must be exact exactly when `mode` is ``exact``.
    """
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    if table is not None and table.exact != exact:
        raise DomainError(f"mode {mode!r} with a table of exact={table.exact}")
    if table is None:
        table = DiscreteKernelTable(spec, exact=exact)
    for n, x in sites:
        table._check(n, x)
    if len(set(sites)) != len(sites):
        return Fraction(0) if exact else 0.0
    if exact:
        mat, dv, du = table.numerators(sites, sites)
        return Fraction(int_det(mat), math.prod(dv) * math.prod(du))
    arr = [[table._float_entry(*a, *b) for b in sites] for a in sites]
    # one and two sites in closed form: np.linalg.det goes through the LU
    # factors and sign * exp(log|det|), which rounds even a 1 x 1 entry
    if len(sites) == 1:
        return arr[0][0]
    if len(sites) == 2:
        (a, b), (c, e) = arr
        return a * e - b * c
    return float(np.linalg.det(np.array(arr)))


def rescaled_psi_k(
    N: int,
    end: ContinuumEndpoint,
    d: int,
    query: CorrelationQuery,
) -> float:
    """Rescaled k-point correlation of the lattice bridge ensemble.

    (sqrt(N)/2)^k times the float joint occupation probability of the
    rounded cells; piecewise constant on tessellation cells, zero when two
    query points round to the same cell.  A query time that rounds outside
    the open window (0, n*) raises DomainError, duplicated or not.
    """
    rounding = LatticeRounding.of(N, end)
    spec = rounding.bridge_spec(d)
    sites = [rounding.round_query_point(p) for p in query.points]
    prob = discrete_psi_prob(spec, sites, "float")
    return prob * (math.sqrt(N) / 2.0) ** len(sites)


def kernel_convergence_study(
    end: ContinuumEndpoint,
    d: int,
    grid: Sequence[tuple[SpaceTimePoint, SpaceTimePoint]],
    N_list: Sequence[int],
) -> tuple[dict, list[tuple]]:
    """Sup-errors |K^(N) - K| over a fixed grid of point pairs, per N.

    K^(N) is (sqrt(N)/2) times the lattice kernel at the rounded coordinates
    of each pair, from one kernel table per N.  Flags a violation when the
    sup-error fails to decrease monotonically from the smallest to the
    largest N.  Returns the JSON summary, its "sup_error" keyed by str(N),
    and the rows (N, pair_id, t, z, t', z', K_N, K, abs_err).  Fewer than
    two distinct N raise DomainError, and an N whose bridge is empty raises
    EmptyBridge, each before any kernel table is built.
    """
    if len(set(N_list)) < 2:
        raise DomainError(f"the convergence study needs two or more N, got {list(N_list)}")
    # every level's spec is built before any kernel table
    roundings = [LatticeRounding.of(N, end) for N in N_list]
    specs = [rounding.bridge_spec(d) for rounding in roundings]
    coords = np.array([(a.t, a.z, b.t, b.z) for a, b in grid]).T
    limits = _kernel(end, d, *coords).tolist()
    rows = []
    sup: dict[int, float] = {}
    for N, rounding, spec in zip(N_list, roundings, specs):
        table = DiscreteKernelTable(spec)
        worst = 0.0
        for pid, (a, b) in enumerate(grid):
            entry = table.entry(rounding.round_query_point(a), rounding.round_query_point(b))
            kn = math.sqrt(N) / 2.0 * entry
            err = abs(kn - limits[pid])
            worst = max(worst, err)
            rows.append((N, pid, a.t, a.z, b.t, b.z, kn, limits[pid], err))
        sup[N] = worst
    ns = sorted(sup)
    errs = [sup[n] for n in ns]
    summary = {
        "sup_error": {str(n): e for n, e in sup.items()},
        "slope": float(np.polyfit(np.log(ns), np.log(errs), 1)[0]),
        "decreasing": all(errs[i + 1] < errs[i] for i in range(len(errs) - 1)),
        "note": "the N^{-1/2} rate window is an empirical local-CLT expectation, not a proven rate",
    }
    return summary, rows


def convergence_grid(
    end: ContinuumEndpoint,
    delta: float,
    eta: float,
    m_bound: float,
    nt: int = 8,
    nz: int = 6,
) -> list[tuple[SpaceTimePoint, SpaceTimePoint]]:
    """Grid of point pairs in the well-separated region.

    Times in (delta, t_star - delta) at least eta apart, positions bounded by
    m_bound, including reversed-time pairs so the heat-free branch is covered.
    """
    ts = np.linspace(delta + 0.02, end.t_star - delta - 0.02, nt)
    zs = np.linspace(-m_bound + 0.1, m_bound - 0.1, nz)
    pairs = []
    for t in ts:
        for tp in ts:
            if abs(tp - t) <= eta:
                continue
            for z in zs:
                for zp in zs[::2]:
                    pairs.append(
                        (
                            SpaceTimePoint(float(t), float(z)),
                            SpaceTimePoint(float(tp), float(zp)),
                        )
                    )
    return pairs
