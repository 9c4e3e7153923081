"""Correlation kernels against enumeration, closed forms, and quadrature."""

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from watermelon import kernels
from watermelon.errors import DomainError, EmptyBridge, ParityError
from watermelon.kernels import (
    ContinuumEndpoint,
    CorrelationQuery,
    DiscreteKernelTable,
    LatticeRounding,
    SpaceTimePoint,
    _f_weight,
    _kernel,
    alpha_factor,
    continuum_psi_k,
    convergence_grid,
    discrete_psi_prob,
    kernel_convergence_study,
    nearest_parity,
    rescaled_psi_k,
    round_point2,
)
from watermelon.chaos_polymer import reachable_sites
from watermelon.special_polys import hahn_exact
from watermelon.walk_ensembles import BridgeSpec, _binom, enumerate_trajectories, log_binom


def rho(t, z):
    return math.exp(-z * z / (2 * t)) / math.sqrt(2 * math.pi * t)


class TestRounding:
    def test_parity_floor(self):
        assert round_point2(6.7, 3.9) == (6, 2)
        assert round_point2(5.2, 3.9) == (5, 3)
        assert round_point2(4.0, -0.5) == (4, -2)

    def test_nearest_parity(self):
        assert nearest_parity(9.9, 0) == 10
        assert nearest_parity(8.9, 0) == 8
        assert nearest_parity(7.0, 0) == 6  # ties break downward
        assert nearest_parity(-3.2, 0) == -4

    def test_lattice_rounding(self):
        lr = LatticeRounding.of(100, ContinuumEndpoint(1.0, 0.7))
        assert (lr.n_star + lr.x_star) % 2 == 0

    @pytest.mark.parametrize("make", [
        lambda: ContinuumEndpoint(1.0, math.nan),
        lambda: ContinuumEndpoint(1.0, math.inf),
        lambda: ContinuumEndpoint(math.inf, 0.0),
        lambda: ContinuumEndpoint(math.nan, 0.0),
        lambda: ContinuumEndpoint(0.0, 0.0),
        lambda: LatticeRounding.of(-4, ContinuumEndpoint(1.0, 0.0)),
        lambda: LatticeRounding.of(0, ContinuumEndpoint(1.0, 0.0)),
    ], ids=["nan_z", "inf_z", "inf_t", "nan_t", "zero_t", "negative_N", "zero_N"])
    def test_endpoint_domain(self, make):
        with pytest.raises(DomainError):
            make()

    def test_empty_bridge_has_no_spec(self):
        # z* = 7.3 at N = 50 rounds to x* = 52 > n* = 50, a bridge with no
        # trajectory, for which discrete_psi_prob once gave the site (25, 27)
        # probability 1
        rounding = LatticeRounding.of(50, ContinuumEndpoint(1.0, 7.3))
        assert (rounding.n_star, rounding.x_star) == (50, 52)
        with pytest.raises(EmptyBridge):
            rounding.bridge_spec(2)
        with pytest.raises(EmptyBridge):
            BridgeSpec(2, 50, 52)

    def test_alpha_factor_domain(self):
        assert alpha_factor(1.0, 0.5) == pytest.approx(math.sqrt(2.0))
        with pytest.raises(DomainError):
            alpha_factor(1.0, 1.0)


class TestContinuumKernel:
    def test_single_walker_density(self):
        # the one-point function is the pinned single-path density
        end = ContinuumEndpoint(1.0, 0.0)
        val = continuum_psi_k(end, 1, CorrelationQuery((SpaceTimePoint(0.5, 0.0),)))
        assert val == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)

    @pytest.mark.parametrize("ts,zs", [(1.0, 0.0), (2.0, 0.7), (0.8, -1.1)])
    def test_density_grid(self, ts, zs):
        end = ContinuumEndpoint(ts, zs)
        for t in np.linspace(0.05 * ts, 0.95 * ts, 7):
            for z in np.linspace(zs - 1.5, zs + 1.5, 7):
                psi = continuum_psi_k(
                    end, 1, CorrelationQuery((SpaceTimePoint(float(t), float(z)),))
                )
                ref = rho(t, z) * rho(ts - t, zs - z) / rho(ts, zs)
                assert psi == pytest.approx(ref, rel=1e-10)

    def test_heat_term_only_forward(self):
        end = ContinuumEndpoint(1.0, 0.0)
        a, b = SpaceTimePoint(0.3, 0.1), SpaceTimePoint(0.6, -0.2)
        fwd = _kernel(end, 2, a.t, a.z, b.t, b.z)
        rev = _kernel(end, 2, b.t, b.z, a.t, a.z)
        # reversing time removes the heat term: the difference is the heat kernel
        sum_fwd = fwd + rho(0.3, -0.3)
        assert sum_fwd != pytest.approx(rev)  # different polynomial weights
        assert _kernel(end, 2, a.t, a.z, a.t, a.z) == _kernel(end, 2, a.t, a.z, a.t, a.z)

    def test_duplicate_rule(self):
        end = ContinuumEndpoint(1.0, 0.0)
        p = SpaceTimePoint(0.4, 0.2)
        assert continuum_psi_k(end, 3, CorrelationQuery((p, p))) == 0.0

    def test_gauge_conjugation_preserves_determinants(self):
        end = ContinuumEndpoint(1.0, 0.5)
        pts = (
            SpaceTimePoint(0.2, -0.4),
            SpaceTimePoint(0.5, 0.3),
            SpaceTimePoint(0.8, 0.9),
        )
        base = np.array([[_kernel(end, 2, a.t, a.z, b.t, b.z) for b in pts] for a in pts])
        g = lambda p: math.exp(p.z)
        conj = np.array(
            [
                [_kernel(end, 2, a.t, a.z, b.t, b.z) * g(b) / g(a) for b in pts]
                for a in pts
            ]
        )
        assert np.linalg.det(conj) == pytest.approx(np.linalg.det(base), rel=1e-10)

    def test_psi_nonnegative(self):
        end = ContinuumEndpoint(1.0, 0.0)
        gen = np.random.default_rng(1)
        for _ in range(60):
            k = int(gen.integers(1, 4))
            ts = np.sort(gen.uniform(0.1, 0.9, size=k))
            pts = tuple(
                SpaceTimePoint(float(t), float(gen.uniform(-1.5, 1.5))) for t in ts
            )
            assert continuum_psi_k(end, 2, CorrelationQuery(pts)) >= -1e-10

    @pytest.mark.parametrize("d,zs", [(2, 0.7), (3, -0.9)])
    def test_particle_counting(self, d, zs):
        # d paths: psi_1 integrates to d at each time, and psi_2 to d^2 over
        # the positions at two distinct times (trapezoid rule on one grid)
        end = ContinuumEndpoint(1.3, zs)
        z, h = np.linspace(-10, 10, 801, retstep=True)
        k11 = _kernel(end, d, 0.4, z, 0.4, z)
        k22 = _kernel(end, d, 0.9, z, 0.9, z)
        k12 = _kernel(end, d, 0.4, z[:, None], 0.9, z[None, :])
        k21 = _kernel(end, d, 0.9, z[None, :], 0.4, z[:, None])
        psi2 = k11[:, None] * k22[None, :] - k12 * k21
        assert k11.sum() * h == pytest.approx(d, rel=1e-10)
        assert psi2.sum() * h * h == pytest.approx(d * d, rel=1e-10)
        for i, j in ((380, 420), (420, 390)):
            q = CorrelationQuery((SpaceTimePoint(0.4, z[i]), SpaceTimePoint(0.9, z[j])))
            assert continuum_psi_k(end, d, q) == pytest.approx(psi2[i, j], rel=1e-12)

    def test_domain_error_at_edges(self):
        end = ContinuumEndpoint(1.0, 0.0)
        with pytest.raises(DomainError):
            _kernel(end, 1, 0.0, 0.0, 0.5, 0.0)


def enumeration_occupancy(spec, budget=24):
    trajs = enumerate_trajectories(spec, budget=budget)
    count = len(trajs)
    sites = sorted(
        {(int(n), int(x)) for tr in trajs for n in range(1, spec.n_star) for x in tr[n]}
    )
    sidx = {s: i for i, s in enumerate(sites)}
    occ = np.zeros((count, len(sites)))
    for ti, tr in enumerate(trajs):
        for n in range(1, spec.n_star):
            for x in tr[n]:
                occ[ti, sidx[(n, int(x))]] = 1.0
    return sites, (occ.T @ occ).round().astype(np.int64), count


def _gauge_series_heat(spec, a, b):
    """The former exact entry: gauge * sum_j f_j fwd_j bwd_j - heat, in Fractions."""
    d, n_star, x_star = spec.d, spec.n_star, spec.x_star
    (n, x), (npr, xpr) = a, b
    f = [_f_weight(spec, j) for j in range(d)]
    fwd = [
        hahn_exact(*_former_p_params(j, npr, xpr, d, n_star, x_star))
        * _binom(d + npr - 1, (npr + xpr) // 2)
        for j in range(d)
    ]
    bwd = [
        hahn_exact(*_former_p_tilde_params(j, n, x, d, n_star, x_star))
        * _binom(n_star - n + d - 1, (n_star - n + x - x_star) // 2)
        for j in range(d)
    ]
    gauge = Fraction(2) ** (n - npr)
    heat = Fraction(0)
    if n < npr:
        heat = gauge * _binom(npr - n, (npr - n + xpr - x) // 2)
    series = sum((f[j] * fwd[j] * bwd[j] for j in range(d)), Fraction(0))
    return gauge * series - heat


class TestDiscreteKernel:
    @pytest.mark.parametrize("spec", [BridgeSpec(2, 6, 2), BridgeSpec(3, 8, -2), BridgeSpec(2, 7, 1)])
    def test_exact_entry_matches_fraction_formula(self, spec):
        sites = reachable_sites(spec)
        table = DiscreteKernelTable(spec, exact=True)
        for a in sites:
            for b in sites:
                got = table.entry(a, b)
                assert type(got) is Fraction and got == _gauge_series_heat(spec, a, b)

    def test_parity_error(self):
        spec = BridgeSpec(2, 6, 0)
        with pytest.raises(ParityError):
            DiscreteKernelTable(spec).entry((2, 1), (3, 1))

    def test_single_walker_occupation(self):
        # 1x1 determinant reproduces the binomial bridge law exactly
        spec = BridgeSpec(1, 8, 2)
        table = DiscreteKernelTable(spec, exact=True)

        def comb0(n, k):
            return math.comb(n, k) if 0 <= k <= n else 0

        for n in (1, 4, 7):
            for x in range(-n, n + 1, 2):
                if (n + x) % 2 != 0:
                    continue
                expected = Fraction(
                    comb0(n, (n + x) // 2) * comb0(8 - n, (8 - n + 2 - x) // 2),
                    math.comb(8, 5),
                )
                assert table.entry((n, x), (n, x)) == expected

    def test_heat_term_only_forward_in_time(self):
        spec = BridgeSpec(2, 8, 0)
        table = DiscreteKernelTable(spec, exact=True)
        fwd = table.entry((2, 0), (4, 0))
        rev = table.entry((4, 0), (2, 0))
        series_fwd = fwd + Fraction(2) ** (2 - 4) * math.comb(2, 1)
        assert series_fwd != fwd  # heat term present
        assert rev > 0  # pure polynomial part

    @pytest.mark.parametrize("spec", [BridgeSpec(2, 6, 0), BridgeSpec(3, 6, 2)])
    def test_enumeration_oracle(self, spec):
        sites, joint, count = enumeration_occupancy(spec)
        table = DiscreteKernelTable(spec, exact=True)
        for i, a in enumerate(sites):
            assert discrete_psi_prob(spec, [a], "exact", table) == Fraction(
                int(joint[i, i]), count
            )
            for j in range(i + 1, len(sites)):
                assert discrete_psi_prob(spec, [a, sites[j]], "exact", table) == Fraction(
                    int(joint[i, j]), count
                )

    def test_duplicate_sites_zero(self):
        spec = BridgeSpec(2, 6, 0)
        assert discrete_psi_prob(spec, [(2, 0), (2, 0)]) == 0.0

    def test_table_must_match_mode(self):
        spec = BridgeSpec(2, 6, 0)
        assert discrete_psi_prob(spec, [(3, 1)], "exact") == Fraction(18, 35)
        with pytest.raises(DomainError):
            discrete_psi_prob(spec, [(3, 1)], "exact", DiscreteKernelTable(spec, exact=False))
        with pytest.raises(DomainError):
            discrete_psi_prob(spec, [(3, 1)], "float", DiscreteKernelTable(spec, exact=True))

    @pytest.mark.parametrize(
        "spec,exact,n_step,digest",
        [
            (BridgeSpec(3, 30, -2), False, 4,
             "6e548e0bf668368cfbd8dc18c8c6aec7435ad68187d5be23cd7522df7314d428"),
            (BridgeSpec(2, 12, 0), True, 1,
             "a779101a4983ad1f4a2ac4df1f161829745e421ce96dfb2ce159549fbe698dd4"),
        ],
        ids=["float-3-30--2", "exact-2-12-0"],
    )
    def test_entries_are_pinned(self, spec, exact, n_step, digest):
        # value and type of every entry over a grid of sites, 6 sites past
        # the reachable band on each side
        sites = [
            (n, x)
            for n in range(1, spec.n_star, n_step)
            for x in range(-n - 6, n + 7)
            if (n + x) % 2 == 0
        ]
        table = DiscreteKernelTable(spec, exact=exact)
        text = "\n".join(
            f"{type(v).__name__} {v.hex() if isinstance(v, float) else v}"
            for v in (table.entry(a, b) for a in sites for b in sites)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("spec", [BridgeSpec(2, 8, 0), BridgeSpec(3, 9, 1)], ids=str)
    def test_float_one_and_two_sites_in_closed_form(self, spec):
        # one site is its entry, bit for bit; two sites are a*e - b*c of the
        # entries, within 1e-12 of the exact determinant
        table = DiscreteKernelTable(spec, exact=False)
        exact = DiscreteKernelTable(spec, exact=True)
        sites = reachable_sites(spec)
        for s in sites:
            p = discrete_psi_prob(spec, [s], "float", table)
            assert type(p) is float and p == table._float_entry(*s, *s)
        for a, b in itertools.combinations(sites[::3], 2):
            (ka, kab), (kba, kb) = [[table._float_entry(*u, *v) for v in (a, b)] for u in (a, b)]
            p = discrete_psi_prob(spec, [a, b], "float", table)
            assert type(p) is float and p == ka * kb - kab * kba
            want = float(discrete_psi_prob(spec, [a, b], "exact", exact))
            assert abs(p - want) <= 1e-12

    def test_rank_deficiency_beyond_d(self):
        # more than d sites at one time level: exactly singular minor
        spec = BridgeSpec(2, 8, 0)
        sites = [(4, -2), (4, 0), (4, 2)]
        val = discrete_psi_prob(spec, sites, "exact")
        assert val == 0


    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_duplicate_sites_are_checked(self, mode):
        # every site is checked as `entry` checks it before duplicates give 0
        spec = BridgeSpec(2, 6, 0)
        with pytest.raises(ParityError):
            discrete_psi_prob(spec, [(100, 1), (100, 1)], mode)
        with pytest.raises(DomainError):
            discrete_psi_prob(spec, [(6, 0), (6, 0)], mode)
        zero = discrete_psi_prob(spec, [(3, 1), (3, 1)], mode)
        assert zero == 0 and type(zero) is (Fraction if mode == "exact" else float)


def _former_hahn(p):
    """The former float Hahn series: Kahan summation of the term ratios."""
    j = p[0]
    x, a, b, M = map(float, p[1:])
    term = total = 1.0
    comp = 0.0
    for m in range(1, j + 1):
        num = (m - 1 - j) * (j + a + b + m) * (m - 1 - x)
        if num == 0:
            break
        term = term * num / ((a + m) * (m - 1 - M) * m)
        yk = term - comp
        t = total + yk
        comp = (t - total) - yk
        total = t
    return total


def _former_hahn_exact(p):
    """The former exact Hahn series on integer arguments: Horner over ints."""
    j, x, a, b, M = p
    ratios = []
    for m in range(1, j + 1):
        num = (m - 1 - j) * (j + m + a + b) * (m - 1 - x)
        if num == 0:
            break
        ratios.append((num, (a + m) * (m - 1 - M) * m))
    top, bottom = 1, 1
    for num, den in reversed(ratios):
        top, bottom = den * bottom + num * top, den * bottom
    return Fraction(top, bottom)


def _former_p_params(j, n, x, d, n_star, x_star):
    """Hahn arguments (j, x, alpha, beta, M) of the forward family at (n, x)."""
    return (j, (n + x) // 2, -(n_star + x_star) // 2 - d, -(n_star - x_star) // 2 - d,
            n + d - 1)


def _former_p_tilde_params(j, n, x, d, n_star, x_star):
    """Hahn arguments (j, x, alpha, beta, M) of the reflected family at (n, x)."""
    return (j, (n_star - n + x - x_star) // 2, -(n_star - x_star) // 2 - d,
            -(n_star + x_star) // 2 - d, n_star - n + d - 1)


def _former_exact_det(mat):
    """The former k-point route: Bareiss over rows scaled from Fractions."""
    a, scale = [], 1
    for row in mat:
        m = math.lcm(*(v.denominator for v in row))
        a.append([v.numerator * (m // v.denominator) for v in row])
        scale *= m
    n, sign, prev = len(a), 1, 1
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


class TestFormerRoutes:
    """The per-time Hahn series and the integer determinants against the
    per-value routes they replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cached_factors_are_the_former_series(self, d):
        checked = 0
        for n_star in range(1, 13):
            for x_star in range(-n_star, n_star + 1, 2):
                spec = BridgeSpec(d, n_star, x_star)
                exact = DiscreteKernelTable(spec, exact=True)
                flt = DiscreteKernelTable(spec)
                for n, x in reachable_sites(spec):
                    sides = (
                        (False, _former_p_params, d + n - 1, (n + x) // 2),
                        (True, _former_p_tilde_params, n_star - n + d - 1,
                         (n_star - n + x - x_star) // 2),
                    )
                    for tilde, params, top, k in sides:
                        u, du = exact._factor(tilde, n, x)
                        got = flt._factor(tilde, n, x)
                        lb = log_binom(top, k)
                        for j in range(d):
                            p = params(j, n, x, d, n_star, x_star)
                            weight = 1 if tilde else exact.f[j]
                            want = weight * _former_hahn_exact(p) * _binom(top, k)
                            assert Fraction(u[j], du) == want
                            q = _former_hahn(p)
                            if q == 0.0 or lb == -math.inf:
                                assert got[j] == (0.0, -math.inf)
                            else:
                                assert got[j] == (math.copysign(1.0, q), math.log(abs(q)) + lb)
                            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("spec", [BridgeSpec(2, 6, 2), BridgeSpec(3, 6, 0)])
    def test_kpoint_is_the_former_fraction_determinant(self, spec):
        table = DiscreteKernelTable(spec, exact=True)
        entry = functools.cache(table.entry)
        sites = reachable_sites(spec)
        for k in (1, 2, 3):
            for chosen in itertools.combinations(sites, k):
                want = _former_exact_det([[entry(a, b) for b in chosen] for a in chosen])
                got = discrete_psi_prob(spec, list(chosen), "exact", table)
                assert type(got) is Fraction and got == want


class TestRescaledPsi:
    def test_same_cell_is_zero(self):
        end = ContinuumEndpoint(1.0, 0.0)
        q = CorrelationQuery(
            (SpaceTimePoint(0.52, 0.01), SpaceTimePoint(0.525, 0.05))
        )
        assert rescaled_psi_k(100, end, 2, q) == 0.0

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_time_outside_open_window_raises(self, t, k):
        # t = 0 and t = t* round to the bridge's end times 0 and n*
        end = ContinuumEndpoint(1.0, 0.0)
        pts = (SpaceTimePoint(t, 0.0), SpaceTimePoint(0.5, 0.3))[:k]
        with pytest.raises(DomainError):
            rescaled_psi_k(100, end, 2, CorrelationQuery(pts))

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_duplicate_outside_open_window_raises(self, t):
        # the times are checked before the duplicate rule, one point or two
        end = ContinuumEndpoint(1.0, 0.0)
        p = SpaceTimePoint(t, 0.0)
        for pts in ((p,), (p, p)):
            with pytest.raises(DomainError):
                rescaled_psi_k(100, end, 2, CorrelationQuery(pts))
            with pytest.raises(DomainError):
                continuum_psi_k(end, 2, CorrelationQuery(pts))

    def test_single_walker_binomial_oracle(self):
        # (sqrt(N)/2) P(simple bridge at 0 at midstep)
        N = 100
        end = ContinuumEndpoint(1.0, 0.0)
        q = CorrelationQuery((SpaceTimePoint(0.505, 0.001),))
        prob = Fraction(
            math.comb(50, 25) * math.comb(50, 25), math.comb(100, 50)
        )
        expected = math.sqrt(N) / 2 * float(prob)
        assert rescaled_psi_k(N, end, 1, q) == pytest.approx(expected, rel=1e-11)

    def test_positivity(self):
        end = ContinuumEndpoint(1.0, 0.0)
        gen = np.random.default_rng(4)
        for _ in range(40):
            pts = tuple(
                SpaceTimePoint(float(t), float(gen.uniform(-1, 1)))
                for t in np.sort(gen.uniform(0.1, 0.9, size=2))
            )
            assert rescaled_psi_k(36, end, 2, CorrelationQuery(pts)) >= 0.0

    def test_particle_counting_identity(self):
        # summing determinants over all position pairs counts d^2, exactly
        spec = BridgeSpec(2, 6, 0)
        table = DiscreteKernelTable(spec, exact=True)
        total = Fraction(0)
        for x1 in range(-2, 5, 2):
            for x2 in range(-3, 6, 2):
                total += discrete_psi_prob(spec, [(2, x1), (3, x2)], "exact", table)
        assert total == 4

    def test_two_walker_continuum_limit(self):
        # the lattice one-point function at a fine scale sits within 2% of
        # the continuum one
        end = ContinuumEndpoint(1.0, 0.0)
        q = CorrelationQuery((SpaceTimePoint(0.50005, 0.00001),))
        disc = rescaled_psi_k(10_000, end, 2, q)
        cont = continuum_psi_k(end, 2, q)
        assert disc == pytest.approx(cont, rel=0.02)


class TestConvergence:
    def test_d1_rate_window(self):
        end = ContinuumEndpoint(1.0, 0.0)
        grid = convergence_grid(end, 0.15, 0.15, 1.5, nt=5, nz=4)
        summary, _ = kernel_convergence_study(end, 1, grid, [64, 128, 256, 512, 1024])
        assert -0.75 <= summary["slope"] <= -0.25

    def test_sup_error_decreases_d2(self):
        end = ContinuumEndpoint(1.0, 0.7)
        grid = convergence_grid(end, 0.1, 0.1, 2.0)
        summary, _ = kernel_convergence_study(end, 2, grid, [50, 100, 200, 400])
        assert summary["sup_error"]["400"] < summary["sup_error"]["50"]

    def test_empty_level_fails_before_any_table(self, monkeypatch):
        # the bridge at N = 4 is empty (x* = 6 > n* = 4); N = 400 comes first
        calls = []
        table = kernels.DiscreteKernelTable

        def counting(*a, **k):
            calls.append(a)
            return table(*a, **k)

        monkeypatch.setattr(kernels, "DiscreteKernelTable", counting)
        end = ContinuumEndpoint(1.0, 3.0)
        grid = convergence_grid(end, 0.2, 0.2, 1.0, nt=4, nz=3)
        with pytest.raises(EmptyBridge):
            kernel_convergence_study(end, 1, grid, [400, 4])
        assert calls == []

    @pytest.mark.parametrize("N_list", [[], [50], [64, 64]])
    def test_needs_two_scales(self, N_list):
        end = ContinuumEndpoint(1.0, 0.0)
        grid = convergence_grid(end, 0.2, 0.2, 1.0, nt=4, nz=3)
        with pytest.raises(DomainError):
            kernel_convergence_study(end, 1, grid, N_list)

