"""Acceptance suite: every criterion as an independently runnable check.

Each criterion pits an implementation against an independent oracle (exact
enumeration, closed forms, or Monte Carlo with stated error budgets) at the
sizes and tolerances pinned below.  The CLI `verify` command and the pytest
acceptance module both run this registry.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import chaos_polymer as cp
from . import grsk
from . import kernels as kr
from . import overlap as ov
from . import special_polys as sp
from . import walk_ensembles as we
from .rng import SeedRecord


@dataclass
class CheckResult:
    crit_id: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit_seconds: float | None = None
    # CPU seconds of the process that ran the criterion, and the host's 1-,
    # 5- and 15-minute load averages when it finished: wall time well above
    # CPU time under a high load points at contention, not at the code
    cpu_seconds: float | None = None
    load_avg: tuple[float, float, float] | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.crit_id:2d} {self.name} ({self.seconds:.1f}s): {self.detail}"


def _enumeration_occupancy(spec: we.BridgeSpec, budget: int = 30):
    """Sorted interior sites (n, x) and their exact joint visit counts over all
    trajectories: one scatter fills the 0/1 trajectory-by-site matrix, whose Gram
    matrix is summed in float32 blocks of 2^16 rows (exact: every count < 2^24)."""
    trajs = we.enumerate_trajectories(spec, budget=budget)
    count = len(trajs)
    lo = int(trajs.min(initial=0))
    width = int(trajs.max(initial=0)) - lo + 1
    keys = np.subtract(trajs[:, 1 : spec.n_star], lo, dtype=np.int32)
    keys += width * np.arange(1, spec.n_star, dtype=np.int32)[:, None]
    site_keys = np.unique(keys)
    sites = [(int(k) // width, int(k) % width + lo) for k in site_keys]
    occ = np.zeros((count, len(sites)), dtype=np.uint8)
    occ[np.arange(count)[:, None, None], np.searchsorted(site_keys, keys)] = 1
    joint = np.zeros((len(sites), len(sites)), dtype=np.int64)
    for first in range(0, count, 1 << 16):
        block = occ[first : first + (1 << 16)].astype(np.float32)
        joint += (block.T @ block).astype(np.int64)
    return sites, joint, count


def crit_1_karlin_mcgregor() -> tuple[bool, str]:
    """km_weight equals enumeration probability exactly, d <= 3, n <= 8."""
    checked = 0
    for d in (1, 2, 3):
        for n in range(1, 9):
            for x_star in range(-n, n + 1):
                if (n + x_star) % 2 != 0:
                    continue
                spec = we.BridgeSpec(d, n, x_star)
                trajs = we.enumerate_trajectories(spec, budget=24)
                q = we.km_weight(n, spec.start, spec.end)
                if q != Fraction(len(trajs), 2 ** (d * n)):
                    return False, f"mismatch at {spec}: {q} vs {len(trajs)}/2^{d*n}"
                checked += 1
    return True, f"{checked} reachable endpoints match exactly"


def crit_2_macmahon() -> tuple[bool, str]:
    """Product-formula count equals enumeration, d <= 3, N <= 4."""
    if we.macmahon_count(1, 2) != 3:
        return False, "count(1, 2) != 3"
    checked = 0
    for d in (1, 2, 3):
        for N in (1, 2, 3, 4):
            spec = we.BridgeSpec(d, 2 * N, 0)
            cnt = len(we.enumerate_trajectories(spec, budget=24))
            if cnt != we.macmahon_count(N, d):
                return False, f"d={d}, N={N}: {cnt} != {we.macmahon_count(N, d)}"
            checked += 1
    return True, f"{checked} (d, N) pairs match exactly"


def crit_3_determinantal_oracle() -> tuple[bool, str]:
    """Kernel determinants equal enumeration probabilities, k <= 2, exact + float."""
    specs = [
        we.BridgeSpec(1, 6, 0),
        we.BridgeSpec(2, 6, 2),
        we.BridgeSpec(2, 8, 0),
        we.BridgeSpec(3, 8, -2),
        we.BridgeSpec(3, 10, 0),
    ]
    tested = 0
    worst_rel = 0.0
    for spec in specs:
        sites, joint, count = _enumeration_occupancy(spec, budget=30)
        exact_table = kr.DiscreteKernelTable(spec, exact=True)
        float_table = kr.DiscreteKernelTable(spec, exact=False)
        # off-band lattice queries must vanish exactly
        site_set = set(sites)
        mid = spec.n_star // 2
        for x in range(-mid - 6, spec.x_star + 2 * spec.d + spec.n_star - mid + 6, 2):
            a = (mid, x + (mid + x) % 2)
            if a in site_set:
                continue
            if kr.discrete_psi_prob(spec, [a], "exact", exact_table) != 0:
                return False, f"nonzero probability at unreachable site {a} of {spec}"
            tested += 1
        for i, a in enumerate(sites):
            p_enum = Fraction(int(joint[i, i]), count)
            p_exact = kr.discrete_psi_prob(spec, [a], "exact", exact_table)
            if p_exact != p_enum:
                return False, f"1-point mismatch at {spec} {a}"
            p_float = kr.discrete_psi_prob(spec, [a], "float", float_table)
            if p_enum > 0:
                worst_rel = max(worst_rel, abs(p_float - float(p_enum)) / float(p_enum))
            tested += 1
            for j in range(i + 1, len(sites)):
                b = sites[j]
                p_enum = Fraction(int(joint[i, j]), count)
                p_exact = kr.discrete_psi_prob(spec, [a, b], "exact", exact_table)
                if p_exact != p_enum:
                    return False, f"2-point mismatch at {spec} {a},{b}"
                p_float = kr.discrete_psi_prob(spec, [a, b], "float", float_table)
                if p_enum > 0:
                    worst_rel = max(
                        worst_rel, abs(p_float - float(p_enum)) / float(p_enum)
                    )
                tested += 1
    if worst_rel > 1e-10:
        return False, f"float path rel error {worst_rel:.2e} above 1e-10"
    return True, f"{tested} queries exact; float rel <= {worst_rel:.1e}"


def crit_4_continuum_reduction() -> tuple[bool, str]:
    """Single-walker correlation equals the Brownian bridge density, rel 1e-10."""
    worst = 0.0
    for (ts, zs) in ((1.0, 0.0), (1.5, 0.7)):
        end = kr.ContinuumEndpoint(ts, zs)
        for t in np.linspace(0.05 * ts, 0.95 * ts, 10):
            for z in np.linspace(zs - 2.0, zs + 2.0, 10):
                psi = kr.continuum_psi_k(
                    end, 1, kr.CorrelationQuery((kr.SpaceTimePoint(float(t), float(z)),))
                )
                rho = lambda tt, zz: math.exp(-zz * zz / (2 * tt)) / math.sqrt(2 * math.pi * tt)
                ref = rho(t, z) * rho(ts - t, zs - z) / rho(ts, zs)
                if ref > 1e-14:
                    worst = max(worst, abs(psi - ref) / ref)
    return worst <= 1e-10, f"200-point grid, max rel err {worst:.2e} (tol 1e-10)"


def crit_5_hahn_to_hermite() -> tuple[bool, str]:
    """Log-log error slope against M in [-0.7, -0.3] for degrees 1..4.

    Probed at c = 0.4, where the generic square-root correction is active;
    the symmetric family c = 0, p = 1/2 superconverges at rate 1/M and is
    checked separately against the stated square-root ceiling.
    """
    m_list = [100, 1000, 10_000, 100_000]
    slopes = []
    for j in range(0, 5):
        for y in (-1.0, 0.3, 2.0):
            errs = [
                abs(sp.rescaled_hahn_G(j, y, M, 0.5, 0.4, -2.0) - float(sp.hermite(j, y)))
                for M in m_list
            ]
            if j == 0:
                if any(e != 0.0 for e in errs):
                    return False, "degree 0 must be exact"
                continue
            slope = float(np.polyfit(np.log(m_list), np.log(errs), 1)[0])
            slopes.append(slope)
            if not -0.7 <= slope <= -0.3:
                return False, f"slope {slope:.3f} outside [-0.7, -0.3] at j={j}, y={y}"
    # the stated ceiling in the symmetric case: error within C M^{-1/2}, C fit at M=100
    err4 = abs(sp.rescaled_hahn_G(2, 0.3, 10_000, 0.5, 0.0, -2.0) - float(sp.hermite(2, 0.3)))
    err2 = abs(sp.rescaled_hahn_G(2, 0.3, 100, 0.5, 0.0, -2.0) - float(sp.hermite(2, 0.3)))
    if err4 > (err2 * 10.0) / 100.0:  # C = err2 * sqrt(100)
        return False, "symmetric-case error above the square-root ceiling"
    return True, f"12 (j, y) slopes in [{min(slopes):.3f}, {max(slopes):.3f}]"


def crit_6_kernel_convergence() -> tuple[bool, str]:
    """Sup-error of the lattice kernel strictly decreases along N."""
    msgs = []
    for zs in (0.0, 0.7):
        end = kr.ContinuumEndpoint(1.0, zs)
        grid = kr.convergence_grid(end, 0.1, 0.1, 2.0)
        summary, _ = kr.kernel_convergence_study(end, 2, grid, [50, 100, 200, 400])
        sup = summary["sup_error"]
        if not summary["decreasing"]:
            return False, f"z*={zs}: sup errors {sup} not strictly decreasing"
        msgs.append(f"z*={zs}: {['%.3f' % e for e in sup.values()]}")
    return True, "; ".join(msgs)


def crit_7_tanaka() -> tuple[bool, str]:
    """Occupation-time identity residual exactly 0 on 10^4 random instances."""
    gen = SeedRecord(1234, 0).generator()
    for trial in range(10_000):
        n = int(gen.integers(0, 101))
        alpha = gen.integers(0, 2, size=n + 1) * 2 - 1
        beta = gen.integers(0, 2, size=n + 1) * 2 - 1
        a0 = int(gen.integers(-30, 31))
        b0 = a0 + 2 * int(gen.integers(-15, 16))
        if ov.tanaka_check(alpha, beta, a0, b0, n) != 0:
            return False, f"nonzero residual at trial {trial}"
    return True, "10000 random instances, residual identically 0"


def crit_8_chaos_equality() -> tuple[bool, str]:
    """Chaos sum with kernel coefficients equals the exact bridge average, exact."""
    gen = SeedRecord(99, 0).generator()
    cases = []
    for d, n_star, x_star in ((1, 4, 0), (1, 6, 2), (2, 4, 0), (2, 6, 0), (2, 6, 2)):
        spec = we.BridgeSpec(d, n_star, x_star)
        sites = cp.reachable_sites(spec)
        field = cp.TableField(
            {s: Fraction(int(gen.integers(0, 2)) * 2 - 1) for s in sites},
            default=Fraction(1),
        )
        lhs = cp.partition_product_exact(spec, field)
        rhs = cp.chaos_expansion_exact(spec, field)
        if lhs != rhs:
            return False, f"{spec}: {lhs} != {rhs}"
        cases.append(f"d={d},n*={n_star}")
    return True, f"exact equality on {len(cases)} random two-valued fields"


def crit_9_sigma_ratio() -> tuple[bool, str]:
    """Variance-to-volume ratio approaches 2 monotonically, within 1% at N=1e6."""
    cumulant = cp.cumulant("rademacher")
    values = [cp.zeta_variance_ratio(1.0, 10**k, cumulant) for k in range(2, 7)]
    final = values[-1]
    if abs(final - 2.0) > 0.02:
        return False, f"value {final:.5f} at N=1e6 beyond 1% of 2"
    if not all(b > a for a, b in zip(values, values[1:])):
        return False, f"not monotone: {values}"
    return True, f"ratio over decades: {['%.4f' % v for v in values]} -> 2"


def crit_10_centered_mean() -> tuple[bool, str]:
    """Centered partition mean within 3 SE of 1 at N in {64, 256, 1024}."""
    msgs = []
    for d in (1, 2):
        report, _ = cp.intermediate_disorder_run(
            kr.ContinuumEndpoint(1.0, 0.0),
            d,
            0.5,
            [64, 256, 1024],
            1000,
            SeedRecord(2024, d),
            distribution="rademacher",
            inner_paths=64,
        )
        for lv in report["levels"]:
            N = lv["N"]
            mean, se = lv["centered_mean_interior_sites"], lv["centered_se_interior_sites"]
            pull = abs(mean - 1.0) / se
            if pull > 3.0:
                return False, f"d={d}, N={N}: mean {mean:.4f} is {pull:.1f} SE from 1"
            msgs.append(f"d={d},N={N}: {mean:.3f}±{se:.3f}")
    return True, "; ".join(msgs)


def crit_11_grsk() -> tuple[bool, str]:
    """Determinant route equals enumeration; forced points; rotation count."""
    gen = SeedRecord(55, 0).generator()
    trial = grsk.lgv_mismatch(gen, 20, 7)
    if trial is not None:
        return False, f"LGV vs enumeration rel err at trial {trial}"
    # forced-point factorization, exact rationals
    for (d, N) in ((1, 3), (2, 2), (3, 1)):
        n = m = N + d
        w = np.array(
            [
                [Fraction(int(gen.integers(1, 9)), int(gen.integers(1, 5))) for _ in range(m)]
                for _ in range(n)
            ],
            dtype=object,
        )
        tau = grsk.tau_enumerate(w, d)
        pts = grsk.forced_points(d, N)
        if len(pts) != d * (d + 1):
            return False, f"|A| != d(d+1) at d={d}"
        masked = w.copy()
        for p in pts:
            masked[p] = Fraction(1)
        if tau != math.prod(w[p] for p in pts) * grsk.tau_enumerate(masked, d):
            return False, f"forced-point factorization fails at d={d}, N={N}"
    # all-ones count equals the product formula through the rotation
    for (d, N) in ((1, 4), (2, 2), (2, 3), (3, 2)):
        if grsk.tau_lgv(np.ones((N + d, N + d), dtype=int), d) != we.macmahon_count(N, d):
            return False, f"all-ones count != product formula at d={d}, N={N}"
    return True, "20 LGV=enumeration instances; factorization and counts exact"


def crit_12_inverse_gamma() -> tuple[bool, str]:
    """Sampler mean and variance within 4 SE of the closed forms, 1e6 draws."""
    msgs = []
    for theta in (3.0, 10.0):
        mean, var = grsk.inverse_gamma_moments(theta)
        draws = grsk.inverse_gamma_sample(theta, SeedRecord(7, int(theta)), size=1_000_000)
        m_hat = float(draws.mean())
        se_mean = float(draws.std(ddof=1) / math.sqrt(len(draws)))
        if abs(m_hat - mean) > 4 * se_mean:
            return False, f"theta={theta}: mean off by {(m_hat - mean) / se_mean:.1f} SE"
        centered = (draws - m_hat) ** 2
        v_hat = float(centered.mean())
        se_var = float(centered.std(ddof=1) / math.sqrt(len(draws)))
        if abs(v_hat - var) > 4 * se_var:
            return False, f"theta={theta}: variance off by {(v_hat - var) / se_var:.1f} SE"
        msgs.append(f"theta={theta:g}: mean pull {(m_hat - mean) / se_mean:+.2f}, var pull {(v_hat - var) / se_var:+.2f}")
    return True, "; ".join(msgs)


def crit_13_overlap_l2_bound() -> tuple[bool, str]:
    """Exact squared-correlation cell sums below overlap moments, d=2, n*=12."""
    end = kr.ContinuumEndpoint(1.0, 0.0)
    msgs = []
    for k in (1, 2):
        for window in ((0.0, 1.0), (0.25, 0.75)):
            rep = ov.overlap_l2_bound_check(
                end, 2, 12, window, k, SeedRecord(31, k), replicas=30_000
            )
            lhs, rhs, se = rep["lhs_cell_sum"], rep["rhs_mc"], rep["rhs_se"]
            if not rep["holds"]:
                return False, f"k={k}, window={window}: {lhs} > {rhs} + 3*{se}"
            msgs.append(f"k={k},{window}: {lhs:.3f} <= {rhs:.3f}+3*{se:.3f}")
    return True, "; ".join(msgs)


def crit_14_particle_counting() -> tuple[bool, str]:
    """Summing kernel determinants over all positions counts d^k walkers."""
    checked = 0
    for spec in (we.BridgeSpec(1, 6, 0), we.BridgeSpec(2, 6, 0), we.BridgeSpec(3, 6, 2)):
        table = kr.DiscreteKernelTable(spec, exact=True)
        sites_by_time: dict[int, list[int]] = {}
        for n in range(1, spec.n_star):
            lo = -n
            hi = spec.x_star + 2 * (spec.d - 1) + (spec.n_star - n)
            sites_by_time[n] = [x for x in range(lo, hi + 1) if (n + x) % 2 == 0]
        # k = 1 at a middle time
        n1 = spec.n_star // 2
        tot = sum(
            kr.discrete_psi_prob(spec, [(n1, x)], "exact", table)
            for x in sites_by_time[n1]
        )
        if tot != Fraction(spec.d):
            return False, f"k=1 sum {tot} != d at {spec}"
        checked += 1
        # k = 2 at two distinct times
        n2 = n1 + 1 if n1 + 1 < spec.n_star else n1 - 1
        n_a, n_b = min(n1, n2), max(n1, n2)
        tot2 = Fraction(0)
        for xa in sites_by_time[n_a]:
            for xb in sites_by_time[n_b]:
                tot2 += kr.discrete_psi_prob(spec, [(n_a, xa), (n_b, xb)], "exact", table)
        if tot2 != Fraction(spec.d**2):
            return False, f"k=2 sum {tot2} != d^2 at {spec}"
        checked += 1
    return True, f"{checked} exact d^k identities"


def crit_15_drift_bound() -> tuple[bool, str]:
    """Exact conditional drift never exceeds its ceiling, 10^4 configs, d <= 4."""
    gen = SeedRecord(77, 0).generator()
    max_ratio = 0.0
    for _ in range(10_000):
        d = int(gen.integers(2, 5))
        gaps = gen.integers(1, 51, size=d - 1) * 2
        base = int(gen.integers(-100, 100))
        base -= base % 2
        pos = [base]
        for g in gaps:
            pos.append(pos[-1] + int(g))
        cfg = we.WeylConfig(tuple(pos))
        k = int(gen.integers(1, d + 1))
        drift = we.conditional_drift(cfg, k)
        bound = we.drift_bound(cfg, k)
        if abs(drift) > bound:
            return False, f"violation at {cfg.positions}, walker {k}"
        max_ratio = max(max_ratio, float(abs(drift) / bound))
    return True, f"10000 exact checks, max drift/bound = {max_ratio:.4f}"


def crit_16_mutation_smoke() -> tuple[bool, str]:
    """Perturbing the spectral weights by 1% must break the exact oracle."""
    spec = we.BridgeSpec(2, 6, 0)
    sites, joint, count = _enumeration_occupancy(spec)
    table = kr.DiscreteKernelTable(spec, exact=True)
    table.f = [w * Fraction(101, 100) for w in table.f]
    mismatches = 0
    for i, a in enumerate(sites):
        p_enum = Fraction(int(joint[i, i]), count)
        if kr.discrete_psi_prob(spec, [a], "exact", table) != p_enum:
            mismatches += 1
    if mismatches == 0:
        return False, "1% weight perturbation went undetected: oracle test is vacuous"
    return True, f"perturbed weights break {mismatches}/{len(sites)} one-point checks"


CRITERIA: list[tuple[int, str, float | None, Callable[[], tuple[bool, str]]]] = [
    (1, "karlin_mcgregor_oracle", 60.0, crit_1_karlin_mcgregor),
    (2, "macmahon_count", 120.0, crit_2_macmahon),
    (3, "determinantal_oracle", 300.0, crit_3_determinantal_oracle),
    (4, "continuum_reduction", None, crit_4_continuum_reduction),
    (5, "hahn_to_hermite_slope", 30.0, crit_5_hahn_to_hermite),
    (6, "kernel_convergence", 120.0, crit_6_kernel_convergence),
    (7, "discrete_tanaka", 5.0, crit_7_tanaka),
    (8, "chaos_equality", 120.0, crit_8_chaos_equality),
    (9, "sigma_ratio", None, crit_9_sigma_ratio),
    (10, "centered_partition_mean", 900.0, crit_10_centered_mean),
    (11, "grsk_oracles", 180.0, crit_11_grsk),
    (12, "inverse_gamma_moments", 30.0, crit_12_inverse_gamma),
    (13, "overlap_l2_bound", 300.0, crit_13_overlap_l2_bound),
    (14, "particle_counting", None, crit_14_particle_counting),
    (15, "drift_bound", None, crit_15_drift_bound),
    (16, "mutation_smoke", None, crit_16_mutation_smoke),
]


def run_criterion(crit_id: int) -> CheckResult:
    for cid, name, limit, fn in CRITERIA:
        if cid == crit_id:
            t0, c0 = time.time(), time.process_time()
            passed, detail = fn()
            elapsed, cpu = time.time() - t0, time.process_time() - c0
            load = os.getloadavg()
            if passed and limit is not None and elapsed > limit:
                passed = False
                detail += (
                    f"; runtime {elapsed:.0f}s exceeded {limit:.0f}s budget"
                    f" (cpu {cpu:.1f}s, load {load[0]:.2f})"
                )
            return CheckResult(cid, name, passed, detail, elapsed, limit, cpu, load)
    raise KeyError(f"no criterion {crit_id}")

