"""Partition functions, chaos expansions, and the disorder-scaling pipeline."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from watermelon import chaos_polymer
from watermelon.chaos_polymer import (
    DISTRIBUTIONS,
    TableField,
    chaos_expansion_exact,
    cumulant,
    intermediate_disorder_run,
    partition_product_exact,
    reachable_sites,
    smc_partition_estimates,
    zeta_variance_ratio,
)
from watermelon.errors import DomainError, EmptyBridge
from watermelon.kernels import ContinuumEndpoint, DiscreteKernelTable, discrete_psi_prob
from watermelon.rng import SeedRecord, hash_mix
from watermelon.walk_ensembles import BridgeSpec, enumerate_trajectories


_I64 = np.iinfo(np.int64)


def _reference_hash(*parts):
    """The SplitMix64-style fold over all parts at once, written out."""
    m1, m2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    with np.errstate(over="ignore"):
        h = np.uint64(0x8E51_2FB0_4C5A_11D7)
        for p in parts:
            h = h ^ (np.asarray(p).astype(np.int64).view(np.uint64)
                     + np.uint64(0x9E3779B97F4A7C15) + (h << np.uint64(6)) + (h >> np.uint64(2)))
            h = (h ^ (h >> np.uint64(30))) * m1
            h = (h ^ (h >> np.uint64(27))) * m2
            h = h ^ (h >> np.uint64(31))
    return h


def _flat_field(distribution, key, rep, n, x):
    """Site values hashed from (key + j, replica, n, x) in one fold per word."""
    words, from_words, _ = chaos_polymer._DISTRIBUTIONS[distribution]
    shape = np.broadcast_shapes(*(np.shape(a) for a in (rep, n, x)))
    seed = np.full(shape, key, dtype=np.int64)
    return from_words(*(_reference_hash(seed + j, rep, n, x) for j in range(words)))


class TestHashMix:
    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_prefix_state_continues_the_fold(self, split):
        # hash_mix(*a, *b) == hash_mix(*b, h=hash_mix(*a)), over broadcast
        # shapes, negative coordinates and the int64 extremes
        R, P, d = 5, 7, 3
        gen = SeedRecord(3, split).generator()
        x = gen.integers(-50, 50, (R, P, d))
        x[0, 0] = [_I64.min, _I64.max, -1]
        parts = (
            np.array(_I64.max, dtype=np.int64),
            np.arange(-2, R - 2, dtype=np.int64)[:, None, None],
            np.int64(_I64.min),
            x,
        )
        a, b = parts[:split], parts[split:]
        whole = hash_mix(*parts)
        assert whole.shape == (R, P, d)
        assert np.array_equal(whole, hash_mix(*b, h=hash_mix(*a)))
        assert np.array_equal(whole, _reference_hash(*parts))

    def test_scalar_parts(self):
        for parts in [(0,), (-1, 5), (_I64.min, _I64.max, 0)]:
            assert hash_mix(*parts) == _reference_hash(*parts)
            assert hash_mix(*parts[1:], h=hash_mix(parts[0])) == _reference_hash(*parts)


class TestDisorderField:
    """The SMC's field: each site's words hashed on from its
    (key + j, replica, n) prefix."""

    @staticmethod
    def _read(dist, key, rep, n, x):
        words, from_words, _ = chaos_polymer._DISTRIBUTIONS[dist]
        prefixes = chaos_polymer._prefixes(words, np.array(key, dtype=np.int64), rep, n)
        return chaos_polymer._site_values(from_words, prefixes, np.asarray(x))

    def test_repeated_reads_agree(self):
        assert self._read("gaussian", 11, 0, 3, -5) == self._read("gaussian", 11, 0, 3, -5)

    def test_order_independent(self):
        a = [float(self._read("rademacher", 4, 0, n, x)) for n, x in ((1, 1), (2, 0), (5, -3))]
        b = [float(self._read("rademacher", 4, 0, n, x)) for n, x in ((5, -3), (1, 1), (2, 0))]
        assert a == [b[1], b[2], b[0]]

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_mean_zero_unit_variance(self, dist):
        ns = np.repeat(np.arange(1, 401), 50)
        xs = np.tile(np.arange(-25, 25), 400)
        reps = np.arange(len(ns)) % 5
        # one replica's environment, and the sites spread over five replicas
        for vals in (self._read(dist, 7, 0, ns, xs), self._read(dist, 7, reps, ns, xs)):
            n = len(vals)
            assert abs(vals.mean()) < 4 / math.sqrt(n)
            assert abs(vals.var() - 1.0) < 5 * math.sqrt(max(vals.var() ** 2 * 2, 9) / n)


class TestCumulant:
    def test_closed_forms(self):
        assert cumulant("gaussian")(0.7) == pytest.approx(0.245)
        assert cumulant("rademacher")(0.7) == pytest.approx(
            math.log(math.cosh(0.7))
        )
        lam = cumulant("shifted_exponential")
        assert lam(0.5) == pytest.approx(-0.5 - math.log(0.5))
        with pytest.raises(DomainError):
            lam(1.0)

    def test_closed_forms_match_quadrature(self):
        # log E[exp(b w)] integrated against each density, independently of
        # the closed forms the package ships
        def log_mgf(log_density, lo, hi, b):
            val, _ = quad(lambda w: math.exp(b * w + log_density(w)), lo, hi,
                          epsabs=1e-13, epsrel=1e-13, limit=200)
            return math.log(val)

        gaussian = lambda w: -w * w / 2 - 0.5 * math.log(2 * math.pi)
        shifted_exponential = lambda w: -(w + 1)
        for b in (0.3, 0.7, 0.9):
            assert cumulant("gaussian")(b) == pytest.approx(
                log_mgf(gaussian, -math.inf, math.inf, b), abs=1e-10
            )
            assert cumulant("shifted_exponential")(b) == pytest.approx(
                log_mgf(shifted_exponential, -1.0, math.inf, b), abs=1e-10
            )
            assert cumulant("rademacher")(b) == pytest.approx(
                math.log(0.5 * math.exp(b) + 0.5 * math.exp(-b)), abs=1e-15
            )

    def test_small_beta_expansion(self):
        lam = cumulant("rademacher")
        b = 1e-4
        assert lam(b) == pytest.approx(b * b / 2, rel=1e-4)


class TestZeta:
    def test_exact_mean_zero_rademacher(self):
        # algebraic identity: E[exp(b w) / exp(L(b))] = 1
        cum = cumulant("rademacher")
        b = 0.37
        lam = cum(b)
        mean = 0.5 * (math.exp(b - lam) - 1) + 0.5 * (math.exp(-b - lam) - 1)
        assert abs(mean) < 1e-14

    def test_variance_ratio_limit(self):
        cum = cumulant("rademacher")
        vals = [zeta_variance_ratio(1.0, 10**k, cum) for k in (2, 3, 4, 5, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(2.0, abs=0.01)


def _boltzmann(spec, field, beta):
    """exp(beta * field) at every reachable site: its bridge average is the
    partition function at inverse temperature beta."""
    return TableField({s: math.exp(beta * field.value(*s)) for s in reachable_sites(spec)})


def _hashed_field(spec, distribution, key):
    """The flat hash's values of replica 0 at every reachable site."""
    return TableField(
        {s: float(_flat_field(distribution, key, 0, *s)) for s in reachable_sites(spec)}
    )


def _rational_field(spec, seed, values):
    """Seeded draws from `values` at every reachable site."""
    gen = SeedRecord(seed, spec.d).generator()
    return TableField(
        {s: values[int(gen.integers(len(values)))] for s in reachable_sites(spec)},
        default=Fraction(1),
    )


def _chamber_sweep_average(spec, field):
    """Reference bridge average: the weighted transfer sum over the d-walker
    chamber, one configuration per state, over the same sum with unit weights."""
    end = spec.end.positions
    signs = list(product((-1, 1), repeat=spec.d))

    def transfer(weight):
        layer = {spec.start.positions: 1}
        for n in range(1, spec.n_star + 1):
            rem = spec.n_star - n
            nxt = {}
            for pos, w in layer.items():
                for s in signs:
                    y = tuple(p + q for p, q in zip(pos, s))
                    if all(b - a >= 2 for a, b in zip(y, y[1:])) and all(
                        abs(p - t) <= rem for p, t in zip(y, end)
                    ):
                        nxt[y] = nxt.get(y, 0) + w
            if n < spec.n_star:
                nxt = {y: w * math.prod(weight(n, x) for x in y) for y, w in nxt.items()}
            layer = nxt
        return layer[end]

    return Fraction(transfer(field.value), transfer(lambda n, x: 1))


# every spec with d <= 4 and d * n_star <= 24 (the enumeration budget), save
# d = 1 beyond n_star = 12: a 1 x 1 determinant over up to 2.7e6 trajectories
_LGV_SIZES = [(d, n) for d in range(1, 5) for n in range(1, min(24 // d, 12) + 1)]


class TestEnergyAndPartition:
    def test_partition_beta_zero(self):
        spec = BridgeSpec(2, 6, 0)
        field = _hashed_field(spec, "gaussian", 0)
        assert partition_product_exact(spec, _boltzmann(spec, field, 0.0)) == 1.0

    def test_two_path_bridge(self):
        spec = BridgeSpec(1, 2, 0)
        f = TableField({(1, 1): 0.9, (1, -1): -0.4})
        z = partition_product_exact(spec, _boltzmann(spec, f, 1.7))
        assert z == pytest.approx((math.exp(1.7 * 0.9) + math.exp(-1.7 * 0.4)) / 2)

    def test_constant_field(self):
        spec = BridgeSpec(2, 5, 1)
        z = partition_product_exact(spec, _boltzmann(spec, TableField({}, default=0.7), 0.9))
        assert z == pytest.approx(math.exp(0.9 * 0.7 * 2 * 4))

    @pytest.mark.parametrize("spec", [BridgeSpec(1, 6, 2), BridgeSpec(2, 6, 0), BridgeSpec(3, 7, 1)])
    def test_transfer_sums_match_enumeration(self, spec):
        # the path average, trajectory by trajectory, is the oracle
        trajs = enumerate_trajectories(spec)
        gauss = _hashed_field(spec, "gaussian", 12)
        gen = SeedRecord(44, spec.d).generator()
        frac = TableField(
            {s: Fraction(int(gen.integers(-3, 4)), int(gen.integers(1, 4)))
             for s in reachable_sites(spec)},
            default=Fraction(1),
        )
        # every interior visit of every trajectory, read in one batch
        interior = trajs[:, 1 : spec.n_star]
        times = np.broadcast_to(np.arange(1, spec.n_star)[None, :, None], interior.shape)
        energy = _flat_field("gaussian", 12, 0, times, interior).reshape(len(trajs), -1).sum(axis=1)
        boltzmann = np.exp(0.6 * energy)
        product = []
        for t in trajs:
            visits = [(n, int(x)) for n in range(1, spec.n_star) for x in t[n]]
            product.append(math.prod(frac.value(*v) for v in visits))
        z = partition_product_exact(spec, _boltzmann(spec, gauss, 0.6))
        assert type(z) is float and z == pytest.approx(np.mean(boltzmann), rel=1e-13)
        exact = partition_product_exact(spec, frac)
        assert type(exact) is Fraction
        assert exact == Fraction(sum(product), len(trajs))

    @pytest.mark.parametrize("d,n_star", _LGV_SIZES)
    def test_lgv_matches_enumeration(self, d, n_star):
        # the odd part of every trajectory product is a power of 3 below 2^53,
        # so the products are exact doubles and equal ones pool exactly
        values = [Fraction(v) for v in (-2, -1, 0, 3)] + [Fraction(1, 2), Fraction(-3, 4)]
        times = np.arange(1, n_star)[None, :, None]
        for x_star in range(-n_star, n_star + 1, 2):
            spec = BridgeSpec(d, n_star, x_star)
            field = _rational_field(spec, 100 * n_star + x_star, values)
            table = np.full((n_star, 2 * (n_star + d)), np.nan)
            for (n, x), v in field.table.items():
                table[n, x + n_star] = v
            trajs = enumerate_trajectories(spec)
            prods = table[times, trajs[:, 1:n_star] + n_star].reshape(len(trajs), -1).prod(axis=1)
            vals, counts = np.unique(prods, return_counts=True)
            total = sum((Fraction(v) * int(c) for v, c in zip(vals, counts)), Fraction(0))
            got = partition_product_exact(spec, field)
            assert type(got) is Fraction and got == total / len(trajs), spec

    @pytest.mark.parametrize("spec", [BridgeSpec(3, 14, 0), BridgeSpec(4, 12, 2)])
    def test_lgv_matches_chamber_sweep(self, spec):
        # beyond the enumeration budget the chamber transfer sum is the oracle;
        # no zero weight, which at this length would zero the whole sum
        values = [Fraction(v) for v in (-2, -1, 2, 3)] + [Fraction(1, 3), Fraction(-5, 7)]
        field = _rational_field(spec, 31, values)
        want = _chamber_sweep_average(spec, field)
        assert want != 0 and partition_product_exact(spec, field) == want

    def test_empty_bridge_raises(self):
        # no spec for an empty bridge; one step closer the single walk
        # path visits its one interior site
        with pytest.raises(EmptyBridge):
            BridgeSpec(1, 2, 4)
        field = TableField({}, default=Fraction(2))
        assert partition_product_exact(BridgeSpec(1, 2, 2), field) == 2


def _subset_chaos_sum(spec, field):
    """Reference chaos sum: an explicit recursion over the subsets of live
    sites with at most d sites per time, one exact determinant each (the
    k-point probability of the subset; the empty one is 1)."""
    table = DiscreteKernelTable(spec, exact=True)
    by_time = {}
    for s in reachable_sites(spec):
        if field.value(*s) != 1:
            by_time.setdefault(s[0], []).append(s)
    levels = [by_time[n] for n in sorted(by_time)]

    def rec(ti, chosen, weight):
        if ti == len(levels):
            return discrete_psi_prob(spec, chosen, "exact", table) * weight
        total = Fraction(0)
        for size in range(min(spec.d, len(levels[ti])) + 1):
            for subset in combinations(levels[ti], size):
                w = weight
                for s in subset:
                    w *= Fraction(field.value(*s)) - 1
                total += rec(ti + 1, chosen + list(subset), w)
        return total

    return rec(0, [], Fraction(1))


def _former_fredholm(spec, field):
    """The former chaos route: det(I + K F) with Fraction entries
    K(a; b) (f_b - 1) + [a = b] over the live sites, by Fraction Bareiss."""
    table = DiscreteKernelTable(spec, exact=True)
    live = [s for s in reachable_sites(spec) if field.value(*s) != 1]
    f = [Fraction(field.value(*s)) - 1 for s in live]
    mat = [
        [table.entry(a, b) * f[j] + int(i == j) for j, b in enumerate(live)]
        for i, a in enumerate(live)
    ]
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
    return Fraction(sign * a[n - 1][n - 1] if n else 1, scale)


def _criterion_8_fields():
    """The five specs and two-valued fields of acceptance criterion 8, drawn
    in its order."""
    gen = SeedRecord(99, 0).generator()
    cases = []
    for d, n_star, x_star in ((1, 4, 0), (1, 6, 2), (2, 4, 0), (2, 6, 0), (2, 6, 2)):
        spec = BridgeSpec(d, n_star, x_star)
        field = TableField(
            {s: Fraction(int(gen.integers(0, 2)) * 2 - 1) for s in reachable_sites(spec)},
            default=Fraction(1),
        )
        cases.append((spec, field))
    return cases


def _rademacher_d2_field(trial):
    spec = BridgeSpec(2, 6, 0)
    gen = SeedRecord(42, trial).generator()
    field = TableField(
        {s: Fraction(int(gen.integers(0, 2)) * 2 - 1) for s in reachable_sites(spec)},
        default=Fraction(1),
    )
    return spec, field


class TestChaosExpansion:
    def test_all_ones_field(self):
        assert chaos_expansion_exact(BridgeSpec(2, 4, 0), TableField({}, default=Fraction(1))) == 1

    def test_hand_field_d1(self):
        spec = BridgeSpec(1, 4, 0)
        field = TableField(
            {(1, 1): Fraction(2), (2, 0): Fraction(-1), (3, -1): Fraction(1, 3)},
            default=Fraction(1),
        )
        assert chaos_expansion_exact(spec, field) == partition_product_exact(spec, field)

    @pytest.mark.parametrize("trial", range(3))
    def test_random_rademacher_d2(self, trial):
        spec, field = _rademacher_d2_field(trial)
        assert chaos_expansion_exact(spec, field) == partition_product_exact(spec, field)

    @pytest.mark.parametrize(
        "case",
        [*(("criterion_8", i) for i in range(5)), *(("rademacher_d2", t) for t in range(3))],
        ids=lambda c: f"{c[0]}-{c[1]}",
    )
    def test_fredholm_determinant_equals_subset_sum(self, case):
        kind, i = case
        spec, field = _criterion_8_fields()[i] if kind == "criterion_8" else _rademacher_d2_field(i)
        got = chaos_expansion_exact(spec, field)
        assert type(got) is Fraction
        assert got == _subset_chaos_sum(spec, field)

    @pytest.mark.parametrize("case", range(8))
    def test_integer_fredholm_is_the_former_fraction_form(self, case):
        # the criterion-8 fields, then seeded rational fields with 0,
        # negatives and non-integers at every reachable site
        if case < 5:
            spec, field = _criterion_8_fields()[case]
        else:
            spec = [BridgeSpec(1, 6, 2), BridgeSpec(2, 6, 0), BridgeSpec(2, 4, 2)][case - 5]
            values = [Fraction(v) for v in (0, -3, "-1/2", "1/3", "5/7", 2, "-7/4", 1)]
            field = _rational_field(spec, case, values)
        got = chaos_expansion_exact(spec, field)
        assert type(got) is Fraction and got == _former_fredholm(spec, field)

    def test_mutated_kernel_weight_breaks_equality(self, monkeypatch):
        class Mutant(DiscreteKernelTable):
            def __init__(self, spec, exact=False):
                super().__init__(spec, exact)
                self.f[-1] *= Fraction(11, 10)

        monkeypatch.setattr(chaos_polymer, "DiscreteKernelTable", Mutant)
        for spec, field in _criterion_8_fields():
            assert chaos_expansion_exact(spec, field) != partition_product_exact(spec, field)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [partition_product_exact, chaos_expansion_exact])
    def test_non_finite_field_value_names_the_site(self, fn, bad):
        with pytest.raises(DomainError, match=r"at site \(1, -1\) is not finite"):
            fn(BridgeSpec(1, 2, 0), TableField({}, default=bad))

    def test_float_path_general_field(self):
        # a non-two-valued float field: its values enter both determinants
        # as exact binary fractions, so the bridge average is the exact chaos
        # sum rounded once
        spec = BridgeSpec(2, 4, 0)
        gen = SeedRecord(43, 0).generator()
        field = TableField(
            {s: float(gen.uniform(0.7, 1.4)) for s in reachable_sites(spec)}, default=1.0
        )
        lhs = partition_product_exact(spec, field)
        rhs = chaos_expansion_exact(spec, field)
        assert type(rhs) is Fraction
        assert type(lhs) is float and lhs == float(rhs)

    @pytest.mark.parametrize(
        "spec",
        [BridgeSpec(2, 12, 0), BridgeSpec(3, 12, 2)],
        ids=lambda s: f"{s.d}-{s.n_star}-{s.x_star}",
    )
    def test_many_live_sites(self, spec):
        # more than 30 live sites: one determinant of that order, not a sum
        # over the subsets
        gen = SeedRecord(45, spec.d).generator()
        field = TableField(
            {s: Fraction(int(gen.integers(0, 2)) * 2 - 1) for s in reachable_sites(spec)},
            default=Fraction(1),
        )
        assert sum(v == -1 for v in field.table.values()) > 30
        assert chaos_expansion_exact(spec, field) == partition_product_exact(spec, field)


class TestSmcEstimator:
    def test_unbiased_for_fixed_field(self):
        spec = BridgeSpec(2, 8, 0)
        field_stream = SeedRecord(5150, 3)
        beta_n = 0.4
        key = field_stream.seed ^ (982451653 * field_stream.stream)
        table = {}
        for (n, x) in reachable_sites(spec):
            table[(n, x)] = float(_flat_field("rademacher", key, 0, n, x))
        z_exact = partition_product_exact(spec, _boltzmann(spec, TableField(table), beta_n))
        ests = np.array(
            [
                float(
                    smc_partition_estimates(
                        spec, beta_n, 1, 64, SeedRecord(77, k), "rademacher",
                        block=3, field_stream=field_stream,
                    )[0]
                )
                for k in range(300)
            ]
        )
        se = ests.std(ddof=1) / math.sqrt(len(ests))
        assert abs(ests.mean() - z_exact) <= 3 * se

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_field_equals_the_flat_hash(self, monkeypatch, dist):
        # the positions hashed from each (key, replica, n) prefix give the
        # values of hashing (key + j, replica, n, x) in one fold
        spec, R, P = BridgeSpec(3, 12, 2), 4, 8
        field_stream = SeedRecord(2**40 + 9, 5)
        key = field_stream.seed ^ (982451653 * field_stream.stream)
        seen = []
        site_values = chaos_polymer._site_values

        def record(from_words, prefixes, x):
            vals = site_values(from_words, prefixes, x)
            seen.append((x.copy(), vals))
            return vals

        monkeypatch.setattr(chaos_polymer, "_site_values", record)
        smc_partition_estimates(spec, 0.3, R, P, SeedRecord(1, 2), dist, block=4,
                                field_stream=field_stream)
        assert len(seen) == spec.n_star - 1
        rep = np.arange(R)[:, None, None]
        for n, (x, vals) in enumerate(seen, start=1):
            assert x.shape == vals.shape == (R, P, 3)
            assert np.array_equal(vals, _flat_field(dist, key, rep, n, x))

    @pytest.mark.parametrize("d", range(1, 11))
    def test_site_sums_equal_the_reduction(self, d):
        # magnitudes 1e-8..1e8, so that another order of adds rounds
        # differently; numpy's reduction turns pairwise from 8 terms on
        gen = SeedRecord(5, d).generator()
        vals = gen.standard_normal((4096, d)) * 10.0 ** gen.integers(-8, 9, (4096, d))
        sums = chaos_polymer._site_sums(vals)
        assert np.array_equal(sums, vals.sum(axis=1))
        in_order = vals[:, 0].copy()
        for i in range(1, d):
            in_order += vals[:, i]
        assert np.array_equal(sums, in_order) == (d < 8)

    @pytest.mark.parametrize("d", [7, 8])
    def test_estimates_equal_the_reduction_route(self, monkeypatch, d):
        args = (BridgeSpec(d, 6, 0), 0.3, 3, 16, SeedRecord(7, d), "gaussian")
        z = smc_partition_estimates(*args, block=2)
        monkeypatch.setattr(chaos_polymer, "_site_sums", lambda vals: vals.sum(axis=1))
        assert np.array_equal(z, smc_partition_estimates(*args, block=2))

    def test_systematic_picks_equal_the_comparison_count(self):
        # zero weights make flat runs in cum, and thresholds set to cumulative
        # weights are ties, where the count includes every equal entry
        gen = SeedRecord(11, 0).generator()
        w = gen.random((64, 48))
        w[w < 0.4] = 0.0
        w[0, 1:] = 0.0
        cum = np.cumsum(w, axis=1)
        cum /= cum[:, -1:]
        u = (gen.random((64, 1)) + np.arange(48)) / 48
        u[:, ::5] = cum[:, 2::5]
        u[:, -1] = 1.0
        assert (np.diff(cum, axis=1) == 0).sum() > 500
        want = (cum[:, None, :] <= u[:, :, None]).sum(axis=2)
        assert np.array_equal(chaos_polymer._systematic_picks(cum, u), want)

    @pytest.mark.parametrize(
        "replicas, particles, block, name",
        [(0, 8, 4, "replicas"), (-2, 8, 4, "replicas"), (4, 0, 4, "particles"),
         (4, -1, 4, "particles"), (4, 8, 0, "block"), (4, 8, -3, "block")],
    )
    def test_sizes_below_one_raise_before_any_draw(self, replicas, particles, block, name):
        class NoDraws:
            def generator(self):
                raise AssertionError("a draw was made")

        with pytest.raises(DomainError, match=f"need {name} >= 1"):
            smc_partition_estimates(BridgeSpec(2, 8, 0), 0.3, replicas, particles,
                                    NoDraws(), block=block)

    def test_replay_is_pinned(self):
        # (seed, stream) replay contract; printed at 10 significant digits so
        # that last-bit differences between exp/log builds do not count, while
        # any changed draw moves the estimates far more than that
        z = smc_partition_estimates(BridgeSpec(2, 40, 0), 0.3, 6, 32, SeedRecord(7, 1), block=8)
        text = " ".join(f"{v:.10e}" for v in z)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c006fc127e55b2232169668e30717a58f7e3ad796ed789b08ac415819f24a865"
        )

    @pytest.mark.parametrize(
        "dist, spec, digest",
        [
            ("gaussian", BridgeSpec(2, 40, 0),
             "f6df331ad95855225d8dc8f85db90a3cbde8379da0ab02bf833a91d885326016"),
            ("shifted_exponential", BridgeSpec(3, 30, 2),
             "467ac87653cfe1fd77abbd02ed4c7f140f9a099e80a01ee0d2ac3fce648f158f"),
        ],
    )
    def test_replay_is_pinned_per_law(self, dist, spec, digest):
        # the same replay contract for the laws that read two words or a log
        z = smc_partition_estimates(spec, 0.3, 6, 32, SeedRecord(7, 1), dist, block=8)
        text = " ".join(f"{v:.10e}" for v in z)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestIntermediateDisorder:
    def test_centered_mean_small(self):
        rep, _ = intermediate_disorder_run(
            ContinuumEndpoint(1.0, 0.0), 1, 0.5, [32, 64], 300, SeedRecord(12, 0),
            inner_paths=32,
        )
        for lv in rep["levels"]:
            mean = lv["centered_mean_interior_sites"]
            assert abs(mean - 1.0) <= 3 * lv["centered_se_interior_sites"]
            # the asymptotic centering differs by exp(-d * Lambda(beta_N))
            lam = cumulant("rademacher")(lv["beta_N"])
            assert lv["centered_mean_theorem"] == pytest.approx(
                mean * math.exp(-1 * lam), rel=1e-12
            )

    def test_sigma_ratio_column(self):
        rep, _ = intermediate_disorder_run(
            ContinuumEndpoint(1.0, 0.0), 1, 1.0, [100, 10_000], 4, SeedRecord(13, 0),
            inner_paths=8,
        )
        ratios = [lv["sigma_ratio"] for lv in rep["levels"]]
        assert ratios[0] < ratios[1] < 2.0
        assert rep["levels"][0]["sigma_ratio_limit"] == 2.0

    def test_variance_matches_truncated_series(self):
        # quenched variance against the truncated squared-norm series, small
        # beta; at d = 1 the norms are ||psi_k||^2 = Gamma(1 + k/2) (Pitman 1999)
        beta = 0.4
        end = ContinuumEndpoint(1.0, 0.0)
        rep, _ = intermediate_disorder_run(
            end, 1, beta, [256], 1500, SeedRecord(15, 0), inner_paths=128
        )
        b = 2 * beta * beta
        predicted = sum(b**k * math.gamma(1 + k / 2) / math.factorial(k) for k in (1, 2, 3))
        observed = rep["levels"][0]["centered_var_interior_sites"]
        spread = 6 * observed / math.sqrt(1500)
        # finite-N bias allowance on top of the Monte Carlo error
        assert abs(observed - predicted) <= spread + 0.25 * predicted

    def test_reflection_symmetry(self):
        # centered draws are distribution-invariant under x -> -x at x* = 0
        end = ContinuumEndpoint(1.0, 0.0)
        _, (draws_a,) = intermediate_disorder_run(
            end, 1, 0.6, [64], 800, SeedRecord(17, 0), inner_paths=32
        )
        _, (draws_b,) = intermediate_disorder_run(
            end, 1, 0.6, [64], 800, SeedRecord(18, 5), inner_paths=32
        )
        stat = stats.ks_2samp(draws_a, draws_b)
        assert stat.pvalue > 0.001
