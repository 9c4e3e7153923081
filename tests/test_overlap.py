"""Overlap counts, the occupation-time identity, and moment diagnostics."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon.chaos_polymer import reachable_sites
from watermelon.errors import DomainError, ParityError, SpecMismatch
from watermelon.kernels import ContinuumEndpoint
from watermelon.overlap import (
    ExactBridgeLaw,
    drift_bound_sweep,
    expected_inverse_gap_check,
    inverse_gap_sum,
    overlap_l2_bound_check,
    overlap_moment_diagnostics,
    overlap_time,
    tanaka_check,
)
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import (
    BridgeSpec,
    WeylConfig,
    chamber_path_sums,
    delta_config,
    enumerate_trajectories,
    free_step_law,
    sample_bridge,
    sample_free_walks_lockstep,
    vandermonde,
)


class TestOverlapTime:
    def test_full_self_overlap(self):
        s = sample_bridge(BridgeSpec(2, 8, 0), SeedRecord(1, 0))
        rec = overlap_time(s, s, 0, 8)
        assert rec.total == 2 * 9
        assert all(rec.pairwise[k][k] == 9 for k in range(2))

    def test_opposite_phase_zigzags(self):
        import numpy as np
        from watermelon.walk_ensembles import PathEnsembleSample

        spec = BridgeSpec(1, 4, 0)
        up_first = PathEnsembleSample(spec, np.array([[0], [1], [0], [1], [0]]))
        down_first = PathEnsembleSample(spec, np.array([[0], [-1], [0], [-1], [0]]))
        rec = overlap_time(up_first, down_first, 1, 4)
        # they agree only at the shared even-time zeros inside the window
        assert rec.total == 2
        rec_interior = overlap_time(up_first, down_first, 1, 1)
        assert rec_interior.total == 0

    def test_hand_recount(self):
        s1 = sample_bridge(BridgeSpec(2, 8, 0), SeedRecord(2, 0))
        s2 = sample_bridge(BridgeSpec(2, 8, 0), SeedRecord(2, 1))
        rec = overlap_time(s1, s2, 0, 8)
        manual = sum(
            len(set(map(int, s1.trajectory[n])) & set(map(int, s2.trajectory[n])))
            for n in range(9)
        )
        assert rec.total == manual

    def test_spec_mismatch(self):
        s1 = sample_bridge(BridgeSpec(2, 8, 0), SeedRecord(3, 0))
        s2 = sample_bridge(BridgeSpec(2, 6, 0), SeedRecord(3, 1))
        with pytest.raises(SpecMismatch):
            overlap_time(s1, s2, 0, 6)

    def test_rescaled(self):
        s = sample_bridge(BridgeSpec(1, 4, 0), SeedRecord(4, 0))
        rec = overlap_time(s, s, 0, 4, scale_n=16)
        assert rec.rescaled == rec.total / 4.0


class TestTanaka:
    def test_zero_steps(self):
        assert tanaka_check([1], [1], 0, 2, 0) == 0

    def test_coupled_walks(self):
        n = 12
        alpha = [1, -1] * 7
        assert tanaka_check(alpha[: n + 1], alpha[: n + 1], 4, 4, n) == 0

    def test_parity_error(self):
        with pytest.raises(ParityError):
            tanaka_check([1], [1], 0, 1, 0)

    def test_bad_steps(self):
        with pytest.raises(DomainError):
            tanaka_check([2], [1], 0, 0, 0)

    @given(
        st.integers(0, 100),
        st.integers(-20, 20),
        st.integers(-10, 10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=400, deadline=None)
    def test_residual_always_zero(self, n, a0, half_gap, rnd):
        b0 = a0 + 2 * half_gap
        alpha = [rnd.choice((-1, 1)) for _ in range(n + 1)]
        beta = [rnd.choice((-1, 1)) for _ in range(n + 1)]
        assert tanaka_check(alpha, beta, a0, b0, n) == 0


class TestInverseGapSum:
    def test_constant_gap(self):
        traj = np.array([[0, 2]] * 17)
        traj[:, 0] = 0
        traj[:, 1] = 2
        # constant summand 1/2 over floor(tN) steps
        val = inverse_gap_sum(traj, 1, 2, 1.0, 16)
        assert val == pytest.approx((16 / 2) / 4.0)

    def test_monotone_in_t(self):
        walks = sample_free_walks_lockstep(delta_config(2, 0), 32, 1, SeedRecord(5, 0))
        vals = [inverse_gap_sum(walks[0], 1, 2, t, 32) for t in (0.25, 0.5, 1.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_index_validation(self):
        walks = sample_free_walks_lockstep(delta_config(2, 0), 8, 1, SeedRecord(6, 0))
        with pytest.raises(DomainError):
            inverse_gap_sum(walks[0], 2, 1, 0.5, 8)

    def test_moment_ceiling(self):
        # k-th moment over k! within the square-root profile, constant fitted at k=1
        walks = sample_free_walks_lockstep(delta_config(2, 0), 64, 4000, SeedRecord(7, 0))
        t = 0.5
        vals = np.array([inverse_gap_sum(w, 1, 2, t, 64) for w in walks])
        c_fit = float(vals.mean()) / (math.sqrt(t) * math.sqrt(math.pi))
        c_fit = max(c_fit, 1.0)
        for k in (2, 3, 4):
            lhs = float((vals**k).mean()) / math.factorial(k)
            rhs = (c_fit * math.sqrt(t)) ** k * math.gamma(0.5) ** k / math.gamma(
                k / 2 + 1
            )
            assert lhs <= rhs * 1.05


class TestExpectedInverseGap:
    def test_one_step_exact(self):
        rep = expected_inverse_gap_check(
            2, 1, 2, [1], [delta_config(2, 0)], SeedRecord(8, 0)
        )
        # four equally-weighted moves except the collision, gap in {2, 4}
        assert rep.rows[0]["value"] == pytest.approx(3 / 8)
        assert rep.rows[0]["exact"] is True

    def test_uniform_ceiling(self):
        rep = expected_inverse_gap_check(
            2,
            1,
            2,
            [4, 16, 64, 256],
            [delta_config(2, 0), WeylConfig((0, 30))],
            SeedRecord(9, 0),
            mc_samples=8000,
        )
        assert all(math.isfinite(r["value"]) for r in rep.rows)
        assert rep.ceiling < 1.0

    def test_rejects_single_walker(self):
        with pytest.raises(DomainError):
            expected_inverse_gap_check(1, 1, 1, [4], [delta_config(1, 0)], SeedRecord(0, 0))

    @pytest.mark.parametrize("x0", [(0, 2), (-3, 1), (0, 2, 4), (0, 4, 10)])
    def test_free_law_is_h_transformed_count(self, x0):
        # iterating the one-step law against count(x0 -> y) V(y) / (V(x0) 2^{dn})
        x0 = WeylConfig(x0)
        d = x0.d
        counts = chamber_path_sums(x0, 6)
        dist = {x0.positions: Fraction(1)}
        for n in range(1, 7):
            nxt = {}
            for pos, p in dist.items():
                for y, w in free_step_law(WeylConfig(pos)):
                    nxt[y.positions] = nxt.get(y.positions, 0) + p * w
            dist = nxt
            law = {
                y: Fraction(c * vandermonde(y), vandermonde(x0.positions) * 2 ** (d * n))
                for y, c in counts[n].items()
            }
            assert law == dist
            assert sum(law.values()) == 1
            want = sum(p * Fraction(1, y[1] - y[0]) for y, p in dist.items())
            row = expected_inverse_gap_check(d, 1, 2, [n], [x0], SeedRecord(0, 0)).rows[0]
            assert row["exact"] and row["value"] == float(want) * math.sqrt(n)


class TestExactBridgeLaw:
    def test_site_probs_count_particles(self):
        law = ExactBridgeLaw(BridgeSpec(2, 8, 0))
        for n in (1, 4, 7):
            sites = sorted({x for pos in law.fwd[n] for x in pos})
            assert sum(law.site_prob(n, x) for x in sites) == 2

    def test_pair_table_counts_particles(self):
        law = ExactBridgeLaw(BridgeSpec(2, 8, 0))
        assert sum(law.pair_site_table(2, 5).values()) == 4

    @pytest.mark.parametrize(
        "d,n_star,x_star", [(2, 6, 0), (1, 6, 0), (2, 6, 2), (2, 8, 0), (3, 8, -2), (2, 7, 1)]
    )
    def test_matches_enumeration(self, d, n_star, x_star):
        spec = BridgeSpec(d, n_star, x_star)
        law = ExactBridgeLaw(spec)
        trajs = enumerate_trajectories(spec)
        count = len(trajs)
        hits = Counter((n, int(x)) for t in trajs for n in range(1, n_star) for x in t[n])
        for site in reachable_sites(spec):
            p = law.site_prob(*site)
            assert type(p) is Fraction and p == Fraction(hits[site], count)
        n1, n2 = 2, n_star - 2
        pairs = Counter((int(a), int(b)) for t in trajs for a in t[n1] for b in t[n2])
        table = law.pair_site_table(n1, n2)
        assert all(type(p) is Fraction for p in table.values())
        assert table == {key: Fraction(c, count) for key, c in pairs.items()}


class TestL2Bound:
    def test_k1_interior_equality(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 8, (0.25, 0.75), 1, SeedRecord(10, 0),
            replicas=2000, rhs_exact=True,
        )
        assert rep.lhs_cell_sum == pytest.approx(rep.rhs_exact, rel=1e-12)
        assert rep.holds

    def test_k1_full_window_equality_d1(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 1, 6, (0.0, 1.0), 1, SeedRecord(11, 0),
            replicas=2000, rhs_exact=True,
        )
        assert rep.lhs_cell_sum == pytest.approx(rep.rhs_exact, rel=1e-12)

    def test_mc_moment_matches_exact_law(self):
        # sampling-path first moment against the exact squared-occupation sum
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 1, 10, (0.0, 1.0), 1, SeedRecord(25, 0),
            replicas=40_000, rhs_exact=True,
        )
        assert abs(rep.rhs_mc - rep.rhs_exact) <= 3 * rep.rhs_se

    def test_k2_inequality_with_slack(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 12, (0.0, 1.0), 2, SeedRecord(12, 0),
            replicas=8000, rhs_exact=True,
        )
        assert rep.lhs_cell_sum < rep.rhs_exact
        assert rep.holds

    def test_degenerate_window(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 8, (0.5, 0.5), 2, SeedRecord(13, 0),
            replicas=500,
        )
        assert rep.lhs_cell_sum == 0.0 and rep.rhs_mc == 0.0


class TestMomentDiagnostics:
    def test_zero_window(self):
        rep = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 2, [16], [0.0], 3, 500, SeedRecord(14, 0)
        )
        assert all(r.moment_over_kfact == 0.0 for r in rep.rows)

    def test_monotone_in_t(self):
        rep = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 2, [24], [0.2, 0.5, 1.0], 2, 3000, SeedRecord(15, 0)
        )
        by_k = {}
        for r in rep.rows:
            by_k.setdefault(r.k, []).append((r.t, r.moment_over_kfact))
        for k, series in by_k.items():
            vals = [v for _, v in sorted(series)]
            assert vals == sorted(vals)

    def test_bounded_and_decaying(self):
        rep = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 2, [16, 32, 64], [0.1, 0.4, 1.0], 3, 4000,
            SeedRecord(16, 0),
        )
        assert rep.bounded_in_n
        assert rep.decays_to_zero
        assert rep.tail_ratios

    def test_csv(self, tmp_path):
        rep = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 1, [16], [0.5], 2, 200, SeedRecord(17, 0)
        )
        rep.to_csv(tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text().startswith("N,t,k,")


class TestDriftSweep:
    def test_no_violations_and_decaying_statistic(self):
        rep = drift_bound_sweep(
            3, (1, 40), SeedRecord(18, 0), configs=1500, path_n=64,
            path_replicas=800, t_grid=(0.0, 0.1, 0.4, 1.0),
        )
        assert rep.violations == 0
        assert rep.max_ratio <= 1.0
        assert rep.path_stat_moments["t=0.0"]["mean"] == 0.0
        means = [rep.path_stat_moments[f"t={t}"]["mean"] for t in (0.1, 0.4, 1.0)]
        assert means[0] < means[1] < means[2]

    def test_d_cap(self):
        with pytest.raises(DomainError):
            drift_bound_sweep(6, (1, 5), SeedRecord(19, 0), configs=1)
