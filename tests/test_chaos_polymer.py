"""Partition functions, chaos expansions, and the disorder-scaling pipeline."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from watermelon.chaos_polymer import (
    DISTRIBUTIONS,
    CumulantSpec,
    DisorderField,
    TableField,
    chaos_expansion_exact,
    energy,
    intermediate_disorder_run,
    partition_exact,
    partition_product_exact,
    reachable_sites,
    smc_partition_estimates,
    zeta_values,
    zeta_variance_ratio,
    _field_values_batch,
)
from watermelon.errors import BudgetExceeded, DomainError
from watermelon.kernels import ContinuumEndpoint
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import BridgeSpec, enumerate_trajectories, sample_bridge


class TestDisorderField:
    def test_repeated_reads_agree(self):
        f = DisorderField("gaussian", 11)
        assert f.value(3, -5) == f.value(3, -5)

    def test_order_independent(self):
        f = DisorderField("rademacher", 4)
        a = [f.value(n, x) for n, x in ((1, 1), (2, 0), (5, -3))]
        b = [f.value(n, x) for n, x in ((5, -3), (1, 1), (2, 0))]
        assert a == [b[1], b[2], b[0]]

    @pytest.mark.parametrize("dist", DISTRIBUTIONS)
    def test_mean_zero_unit_variance(self, dist):
        f = DisorderField(dist, 7)
        ns = np.repeat(np.arange(1, 401), 50)
        xs = np.tile(np.arange(-25, 25), 400)
        reps = np.arange(len(ns)) % 5
        # the SMC's per-replica field must have the same law as DisorderField
        for vals in (f.values(ns, xs), _field_values_batch(dist, 7, reps, ns, xs)):
            n = len(vals)
            assert abs(vals.mean()) < 4 / math.sqrt(n)
            assert abs(vals.var() - 1.0) < 5 * math.sqrt(max(vals.var() ** 2 * 2, 9) / n)


class TestCumulant:
    def test_closed_forms(self):
        assert CumulantSpec.for_distribution("gaussian")(0.7) == pytest.approx(0.245)
        assert CumulantSpec.for_distribution("rademacher")(0.7) == pytest.approx(
            math.log(math.cosh(0.7))
        )
        lam = CumulantSpec.for_distribution("shifted_exponential")
        assert lam(0.5) == pytest.approx(-0.5 - math.log(0.5))
        with pytest.raises(DomainError):
            lam(1.0)

    def test_numeric_quadrature_matches_gaussian(self):
        density = lambda w: math.exp(-w * w / 2) / math.sqrt(2 * math.pi)
        lam = CumulantSpec.numeric(density, -12, 12)
        for b in (0.3, 1.1):
            assert lam(b) == pytest.approx(b * b / 2, abs=1e-10)

    def test_small_beta_expansion(self):
        lam = CumulantSpec.for_distribution("rademacher")
        b = 1e-4
        assert lam(b) == pytest.approx(b * b / 2, rel=1e-4)


class TestZeta:
    def test_exact_mean_zero_rademacher(self):
        # algebraic identity: E[exp(b w) / exp(L(b))] = 1
        cum = CumulantSpec.for_distribution("rademacher")
        b = 0.37
        lam = cum(b)
        mean = 0.5 * (math.exp(b - lam) - 1) + 0.5 * (math.exp(-b - lam) - 1)
        assert abs(mean) < 1e-14

    def test_variance_ratio_limit(self):
        cum = CumulantSpec.for_distribution("rademacher")
        vals = [zeta_variance_ratio(1.0, 10**k, cum) for k in (2, 3, 4, 5, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(2.0, abs=0.01)

    def test_zeta_values_shape(self):
        f = DisorderField("rademacher", 5)
        cum = CumulantSpec.for_distribution("rademacher")
        z = zeta_values(f, 64, 0.2, cum, np.arange(1, 11), np.zeros(10, dtype=int))
        assert z.shape == (10,)


class TestEnergyAndPartition:
    def test_zero_field(self):
        s = sample_bridge(BridgeSpec(2, 6, 0), SeedRecord(1, 0))
        assert energy(s, TableField({}, default=0.0)) == 0.0

    def test_single_interior_site(self):
        s = sample_bridge(BridgeSpec(1, 2, 0), SeedRecord(2, 0))
        x1 = int(s.trajectory[1][0])
        f = TableField({(1, x1): 3.25}, default=0.0)
        assert energy(s, f) == 3.25

    def test_hand_sum(self):
        s = sample_bridge(BridgeSpec(2, 4, 0), SeedRecord(3, 0))
        f = DisorderField("gaussian", 9)
        expected = sum(
            f.value(n, int(s.trajectory[n][j])) for n in (1, 2, 3) for j in (0, 1)
        )
        assert energy(s, f) == pytest.approx(expected)

    def test_partition_beta_zero(self):
        assert partition_exact(BridgeSpec(2, 6, 0), DisorderField("gaussian", 0), 0.0) == 1.0

    def test_two_path_bridge(self):
        f = TableField({(1, 1): 0.9, (1, -1): -0.4})
        z = partition_exact(BridgeSpec(1, 2, 0), f, 1.7)
        assert z == pytest.approx((math.exp(1.7 * 0.9) + math.exp(-1.7 * 0.4)) / 2)

    def test_constant_field(self):
        spec = BridgeSpec(2, 5, 1)
        z = partition_exact(spec, TableField({}, default=0.7), 0.9)
        assert z == pytest.approx(math.exp(0.9 * 0.7 * 2 * 4))

    @pytest.mark.parametrize("spec", [BridgeSpec(1, 6, 2), BridgeSpec(2, 6, 0), BridgeSpec(3, 7, 1)])
    def test_transfer_sums_match_enumeration(self, spec):
        # the path average, trajectory by trajectory, is the oracle
        trajs = enumerate_trajectories(spec)
        gauss = DisorderField("gaussian", 12)
        gen = SeedRecord(44, spec.d).generator()
        frac = TableField(
            {s: Fraction(int(gen.integers(-3, 4)), int(gen.integers(1, 4)))
             for s in reachable_sites(spec)},
            default=Fraction(1),
        )
        boltzmann, product = [], []
        for t in trajs:
            visits = [(n, int(x)) for n in range(1, spec.n_star) for x in t[n]]
            boltzmann.append(math.exp(0.6 * sum(gauss.value(*v) for v in visits)))
            product.append(math.prod(frac.value(*v) for v in visits))
        assert partition_exact(spec, gauss, 0.6) == pytest.approx(np.mean(boltzmann), rel=1e-13)
        exact = partition_product_exact(spec, frac)
        assert type(exact) is Fraction
        assert exact == Fraction(sum(product), len(trajs))

    def test_empty_bridge_raises(self):
        spec = BridgeSpec(1, 2, 4)
        field = TableField({}, default=Fraction(2))
        with pytest.raises(DomainError):
            partition_product_exact(spec, field)
        with pytest.raises(DomainError):
            partition_exact(spec, field, 0.5)


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
        spec = BridgeSpec(2, 6, 0)
        gen = SeedRecord(42, trial).generator()
        field = TableField(
            {s: Fraction(int(gen.integers(0, 2)) * 2 - 1) for s in reachable_sites(spec)},
            default=Fraction(1),
        )
        assert chaos_expansion_exact(spec, field) == partition_product_exact(spec, field)

    def test_float_path_general_field(self):
        # non-two-valued field exercises the full subset lattice in floats
        spec = BridgeSpec(2, 4, 0)
        gen = SeedRecord(43, 0).generator()
        field = TableField(
            {s: float(gen.uniform(0.7, 1.4)) for s in reachable_sites(spec)}, default=1.0
        )
        lhs = partition_product_exact(spec, field)
        rhs = chaos_expansion_exact(spec, field, mode="float")
        assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_site_budget(self):
        spec = BridgeSpec(2, 10, 0)
        field = TableField(
            {s: Fraction(2) for s in reachable_sites(spec)}, default=Fraction(1)
        )
        with pytest.raises(BudgetExceeded):
            chaos_expansion_exact(spec, field, site_budget=10)


class TestSmcEstimator:
    def test_unbiased_for_fixed_field(self):
        spec = BridgeSpec(2, 8, 0)
        field_stream = SeedRecord(5150, 3)
        beta_n = 0.4
        key = field_stream.seed ^ (982451653 * field_stream.stream)
        table = {}
        for (n, x) in reachable_sites(spec):
            table[(n, x)] = float(
                _field_values_batch(
                    "rademacher", key, np.array([0]), np.array([n]), np.array([x])
                )[0]
            )
        z_exact = partition_exact(spec, TableField(table), beta_n)
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

    def test_replay_is_pinned(self):
        # (seed, stream) replay contract; printed at 10 significant digits so
        # that last-bit differences between exp/log builds do not count, while
        # any changed draw moves the estimates far more than that
        z = smc_partition_estimates(BridgeSpec(2, 40, 0), 0.3, 6, 32, SeedRecord(7, 1), block=8)
        text = " ".join(f"{v:.10e}" for v in z)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c006fc127e55b2232169668e30717a58f7e3ad796ed789b08ac415819f24a865"
        )


class TestIntermediateDisorder:
    def test_centered_mean_small(self):
        rep = intermediate_disorder_run(
            ContinuumEndpoint(1.0, 0.0), 1, 0.5, [32, 64], 300, SeedRecord(12, 0),
            inner_paths=32,
        )
        for lv in rep.levels:
            assert abs(lv.mean_interior - 1.0) <= 3 * lv.se_interior
            # the asymptotic centering differs by exp(-d * Lambda(beta_N))
            lam = CumulantSpec.for_distribution("rademacher")(lv.beta_n)
            assert lv.mean_theorem == pytest.approx(
                lv.mean_interior * math.exp(-1 * lam), rel=1e-12
            )

    def test_sigma_ratio_column(self):
        rep = intermediate_disorder_run(
            ContinuumEndpoint(1.0, 0.0), 1, 1.0, [100, 10_000], 4, SeedRecord(13, 0),
            inner_paths=8,
        )
        ratios = [lv.sigma_ratio for lv in rep.levels]
        assert ratios[0] < ratios[1] < 2.0
        assert rep.levels[0].sigma_ratio_limit == 2.0

    def test_report_write(self, tmp_path):
        rep = intermediate_disorder_run(
            ContinuumEndpoint(1.0, 0.0), 1, 0.4, [16], 20, SeedRecord(14, 0), inner_paths=8
        )
        rep.write(tmp_path / "r.json", tmp_path / "r.csv")
        assert (tmp_path / "r.json").exists()
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 21

    def test_variance_matches_truncated_series(self):
        # quenched variance against the truncated squared-norm series, small beta
        from watermelon.kernels import psi_l2_series

        beta = 0.4
        end = ContinuumEndpoint(1.0, 0.0)
        rep = intermediate_disorder_run(
            end, 1, beta, [256], 1500, SeedRecord(15, 0), inner_paths=128
        )
        lv = rep.levels[0]
        series = psi_l2_series(end, 1, 2 * beta * beta, 3, 30_000, SeedRecord(16, 0))
        predicted = series.value - 1.0
        observed = lv.var_interior
        spread = math.sqrt(
            (3 * series.std_error) ** 2 + (6 * lv.var_interior / math.sqrt(1500)) ** 2
        )
        # finite-N bias allowance on top of both Monte Carlo errors
        assert abs(observed - predicted) <= spread + 0.25 * predicted

    def test_reflection_symmetry(self):
        # centered draws are distribution-invariant under x -> -x at x* = 0
        end = ContinuumEndpoint(1.0, 0.0)
        rep_a = intermediate_disorder_run(
            end, 1, 0.6, [64], 800, SeedRecord(17, 0), inner_paths=32
        )
        rep_b = intermediate_disorder_run(
            end, 1, 0.6, [64], 800, SeedRecord(18, 5), inner_paths=32
        )
        stat = stats.ks_2samp(rep_a.levels[0].draws_interior, rep_b.levels[0].draws_interior)
        assert stat.pvalue > 0.001
