"""Overlap counts, the occupation-time identity, and moment diagnostics."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon.chaos_polymer import reachable_sites
from watermelon.errors import DomainError, ParityError, SpecMismatch
from watermelon import overlap
from watermelon.kernels import ContinuumEndpoint
from watermelon.overlap import (
    ExactBridgeLaw,
    _squared_occupation_sums,
    drift_bound_sweep,
    expected_inverse_gap_check,
    inverse_gap_sum,
    overlap_l2_bound_check,
    overlap_moment_diagnostics,
    overlap_time,
    tanaka_check,
    tanaka_decomposition,
)
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import (
    BridgeSpec,
    PathEnsembleSample,
    WeylConfig,
    chamber_path_sums,
    delta_config,
    enumerate_trajectories,
    free_step_law,
    km_weight,
    sample_bridge,
    sample_bridges_lockstep,
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
        for alpha in ([0, 1], [1, 1.5], np.array([1, -3]), [1, 2], ["1", "1"]):
            with pytest.raises(DomainError):
                tanaka_check(alpha, [1, 1], 0, 0, 1)
            with pytest.raises(DomainError):
                tanaka_check([1, 1], alpha, 0, 0, 1)
        with pytest.raises(DomainError):
            tanaka_check([1], [1], 0, 0, 1)
        with pytest.raises(DomainError):
            tanaka_check([1], [1], 0, 0, -1)

    @given(
        st.integers(0, 100),
        st.integers(0, 3),
        st.integers(-20, 20),
        st.integers(-10, 10),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_pieces_match_per_index_loop(self, n, extra, a0, half_gap, as_array, rnd):
        b0 = a0 + 2 * half_gap
        # driving sequences may be longer than the n + 1 steps that are read
        alpha = [rnd.choice((-1, 1)) for _ in range(n + 1 + extra)]
        beta = [rnd.choice((-1, 1)) for _ in range(n + 1 + extra)]
        a_path, b_path = [a0], [b0]
        for i in range(n + 1):
            a_path.append(a_path[-1] + alpha[i])
            b_path.append(b_path[-1] + beta[i])

        def sgn(v):
            return (v > 0) - (v < 0)

        want = (
            sum(1 for i in range(n + 1) if a_path[i] == b_path[i]),
            abs(a_path[n + 1] - b_path[n + 1]) - abs(a0 - b0),
            sum(sgn(a_path[i] - b_path[i]) * alpha[i] for i in range(n + 1)),
            sum(sgn(a_path[i + 1] - b_path[i]) * beta[i] for i in range(n + 1)),
        )
        if as_array:
            alpha, beta = np.array(alpha), np.array(beta)
        got = tanaka_decomposition(alpha, beta, a0, b0, n)
        pieces = (got.lhs, got.gap_increment, got.signed_sum_first, got.signed_sum_second)
        assert pieces == want
        assert all(type(v) is int for v in pieces)
        assert got.residual == 0

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

    @pytest.mark.parametrize("t,N", [(-0.05, 100), (0.5, 0), (0.5, -4)])
    def test_rejects_negative_time_and_scale_below_one(self, t, N):
        # a negative t would read gaps from the end of the trajectory
        traj = sample_bridge(BridgeSpec(2, 20, 0), SeedRecord(1, 0)).trajectory
        with pytest.raises(DomainError):
            inverse_gap_sum(traj, 1, 2, t, N)

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

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError):
            expected_inverse_gap_check(2, 1, 2, [4, -1], [delta_config(2, 0)], SeedRecord(0, 0))

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

    def test_forward_and_backward_layers_hold_the_same_configurations(self):
        # site_prob, config_dist and the pair sweep look up bwd[n] by every
        # key of fwd[n] without a guard
        layers = 0
        for d in range(1, 5):
            for n_star in range(1, 13):
                for x_star in range(-n_star, n_star + 1, 2):
                    law = ExactBridgeLaw(BridgeSpec(d, n_star, x_star))
                    assert len(law.fwd) == len(law.bwd) == n_star + 1
                    for fwd, bwd in zip(law.fwd, law.bwd):
                        assert fwd.keys() == bwd.keys()
                    layers += n_star + 1
        assert layers == 3272

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


def _determinant_pair_table(law, n1, n2):
    """P(x1 at n1, x2 at n2) from one exact Karlin-McGregor determinant per
    pair of configurations: the reference for the transfer sweep."""
    out = {}
    scale = 2 ** ((n2 - n1) * law.spec.d)
    for pos1, cf in law.fwd[n1].items():
        cb1 = law.bwd[n1].get(pos1, 0)
        if cb1 == 0:
            continue
        for pos2, cb in law.bwd[n2].items():
            mid = km_weight(n2 - n1, WeylConfig(pos1), WeylConfig(pos2), "exact")
            if mid == 0:
                continue
            wgt = cf * (mid * scale) * cb / law.total
            for x1 in pos1:
                for x2 in pos2:
                    out[x1, x2] = out.get((x1, x2), Fraction(0)) + wgt
    return out


class TestPairSweep:
    @pytest.mark.parametrize("d,n_star,x_star", [(1, 6, 0), (2, 8, 0), (2, 7, 1), (3, 8, -2)])
    def test_equals_determinant_reference(self, d, n_star, x_star):
        law = ExactBridgeLaw(BridgeSpec(d, n_star, x_star))
        for n1 in range(n_star + 1):
            for n2 in range(n1 + 1, n_star + 1):
                table = law.pair_site_table(n1, n2)
                assert all(type(p) is Fraction for p in table.values())
                assert table == _determinant_pair_table(law, n1, n2)

    @pytest.mark.parametrize(
        "n_lo,n_hi,same,cross",
        [
            # criterion 13's k = 2 windows (0, 1) and (0.25, 0.75) at N = 12,
            # taken from the determinant implementation
            (1, 11, Fraction(2688628669, 178151688), Fraction(1742014987, 32391216)),
            (3, 9, Fraction(1437690013, 178151688), Fraction(5830806913, 356303376)),
        ],
    )
    def test_squared_sums_pinned(self, n_lo, n_hi, same, cross):
        law = ExactBridgeLaw(BridgeSpec(2, 12, 0))
        assert _squared_occupation_sums(law, n_lo, n_hi, 2) == (same, cross)

    @pytest.mark.parametrize(
        "method,args",
        [
            ("site_prob", (-1, 0)),
            ("site_prob", (9, 0)),
            ("config_dist", (-2,)),
            ("config_dist", (9,)),
            ("pair_site_table", (-3, 2)),
            ("pair_site_table", (7, 9)),
            ("pair_site_table", (4, 4)),
        ],
    )
    def test_time_outside_window_raises(self, method, args):
        law = ExactBridgeLaw(BridgeSpec(2, 8, 0))
        with pytest.raises(DomainError):
            getattr(law, method)(*args)


class TestL2Bound:
    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_k_outside_range_raises(self, k):
        for window in ((0.0, 1.0), (0.5, 0.5)):
            with pytest.raises(DomainError):
                overlap_l2_bound_check(
                    ContinuumEndpoint(1.0, 0.0), 2, 8, window, k, SeedRecord(13, 0),
                    replicas=100,
                )

    def test_k1_interior_equality(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 8, (0.25, 0.75), 1, SeedRecord(10, 0),
            replicas=2000,
        )
        assert rep.lhs_cell_sum == pytest.approx(rep.rhs_exact, rel=1e-12)
        assert rep.holds

    def test_k1_full_window_equality_d1(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 1, 6, (0.0, 1.0), 1, SeedRecord(11, 0),
            replicas=2000,
        )
        assert rep.lhs_cell_sum == pytest.approx(rep.rhs_exact, rel=1e-12)

    def test_mc_moment_matches_exact_law(self):
        # sampling-path first moment against the exact squared-occupation sum
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 1, 10, (0.0, 1.0), 1, SeedRecord(25, 0),
            replicas=40_000,
        )
        assert abs(rep.rhs_mc - rep.rhs_exact) <= 3 * rep.rhs_se

    def test_k2_inequality_with_slack(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 12, (0.0, 1.0), 2, SeedRecord(12, 0),
            replicas=8000,
        )
        assert rep.lhs_cell_sum < rep.rhs_exact
        assert rep.holds

    @pytest.mark.parametrize("window", [(2.0, 3.0), (-0.25, 0.5), (0.5, 1.5)])
    def test_window_outside_bridge_raises(self, window):
        with pytest.raises(DomainError):
            overlap_l2_bound_check(
                ContinuumEndpoint(1.0, 0.0), 2, 12, window, 2, SeedRecord(1, 0), replicas=200
            )

    def test_degenerate_window(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 8, (0.5, 0.5), 2, SeedRecord(13, 0),
            replicas=500,
        )
        assert rep.lhs_cell_sum == 0.0 and rep.rhs_mc == 0.0


class TestMomentDiagnostics:
    @pytest.mark.parametrize(
        "spec", [BridgeSpec(1, 9, 1), BridgeSpec(2, 10, 0), BridgeSpec(3, 10, 2)]
    )
    def test_streamed_overlaps_match_overlap_time(self, spec):
        # oracle: the stored trajectories at the same seeds, counted one time
        # at a time by overlap_time over n_lo .. min(n, n_star - 1); a mark
        # below n_lo is the empty window
        reps, n_star = 8, spec.n_star
        rngs = (SeedRecord(12, 0), SeedRecord(12, 1))
        p1, p2 = (sample_bridges_lockstep(spec, reps, r) for r in rngs)
        for n_lo in (0, 1, 3):
            got = overlap._pair_overlaps(spec, reps, rngs, n_lo, range(n_star + 1))
            assert sorted(got) == list(range(n_star + 1))
            for r in range(reps):
                s1 = PathEnsembleSample(spec, p1[r])
                s2 = PathEnsembleSample(spec, p2[r])
                for n, counts in got.items():
                    assert counts.dtype == np.int64 and counts.shape == (reps,)
                    want = sum(
                        overlap_time(s1, s2, m, m).total
                        for m in range(n_lo, min(n, n_star - 1) + 1)
                    )
                    assert counts[r] == want

    def test_peak_memory_does_not_grow_with_N(self):
        # the pair walk keeps the current positions only; two stored
        # (replicas, n_star + 1, d) trajectory arrays grew the peak ~4x here
        def peak(N):
            tracemalloc.start()
            try:
                overlap_moment_diagnostics(
                    ContinuumEndpoint(1.0, 0.0), 2, [N], [1.0], 1, 5000, SeedRecord(17, 0)
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(192) <= 1.5 * peak(48)

    @pytest.mark.parametrize("k_max", [0, -1, 7])
    def test_k_max_outside_range_raises(self, k_max):
        with pytest.raises(DomainError):
            overlap_moment_diagnostics(
                ContinuumEndpoint(1.0, 0.0), 2, [16], [0.5], k_max, 100, SeedRecord(14, 0)
            )

    @pytest.mark.parametrize("N_list,t_grid", [([], [0.5]), ([16], [])])
    def test_empty_inputs_raise(self, N_list, t_grid):
        with pytest.raises(DomainError):
            overlap_moment_diagnostics(
                ContinuumEndpoint(1.0, 0.0), 2, N_list, t_grid, 2, 100, SeedRecord(14, 0)
            )

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the input")

        monkeypatch.setattr(overlap, "walk_bridges_lockstep", no_sampling)

    @pytest.mark.parametrize(
        "t_star,t_grid", [(0.5, [0.25, 1.0]), (1.0, [-0.1, 0.5]), (1.0, [0.5, math.nan])]
    )
    def test_time_outside_bridge_raises_before_sampling(self, no_walk, t_star, t_grid):
        # t = 1.0 at t* = 0.5 used to be clipped to n*, duplicating the t* row
        with pytest.raises(DomainError):
            overlap_moment_diagnostics(
                ContinuumEndpoint(t_star, 0.0), 2, [16], t_grid, 2, 100, SeedRecord(14, 0)
            )

    @pytest.mark.parametrize("call", [
        # one replica gave se = nan, zero replicas a bare numpy error
        lambda end: overlap_moment_diagnostics(end, 2, [16], [0.5], 2, 1, SeedRecord(14, 0)),
        lambda end: overlap_moment_diagnostics(end, 2, [16], [0.5], 2, 0, SeedRecord(14, 0)),
        lambda end: overlap_l2_bound_check(end, 2, 12, (0.0, 0.5), 2, SeedRecord(1, 0),
                                           replicas=1),
        # a nan window end passed the check and failed in lattice_steps
        lambda end: overlap_l2_bound_check(end, 2, 12, (math.nan, 0.5), 2, SeedRecord(1, 0),
                                           replicas=200),
        lambda end: overlap_l2_bound_check(end, 2, 12, (0.0, math.nan), 2, SeedRecord(1, 0),
                                           replicas=200),
    ], ids=["moments_one_replica", "moments_no_replicas", "l2_one_replica",
            "l2_window_start_nan", "l2_window_end_nan"])
    def test_bad_input_raises_before_sampling(self, no_walk, call):
        with pytest.raises(DomainError):
            call(ContinuumEndpoint(1.0, 0.0))

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

    def test_window_rounds_like_the_other_overlap_sums(self):
        # 0.29 * 100 = 28.999...; floor(t N + 1e-9) gives 29 steps, as in
        # inverse_gap_sum, while int(t N) gave 28 and repeated the t = 0.28 row
        rep = drift_bound_sweep(2, (1, 5), SeedRecord(19, 0), configs=1, path_n=100,
                                path_replicas=10, t_grid=(0.28, 0.29))
        rows = rep.path_stat_moments
        assert rows["t=0.28"] != rows["t=0.29"]

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_rejects_times_outside_unit_interval(self, t):
        # t is a fraction of path_n: below 0 the row was silently zero, above
        # 1 it repeated the t = 1 row
        with pytest.raises(DomainError):
            drift_bound_sweep(2, (1, 5), SeedRecord(19, 0), configs=1, path_n=8,
                              path_replicas=10, t_grid=(0.5, t))

    @pytest.mark.parametrize("d", [0, 1])
    def test_rejects_fewer_than_two_walkers(self, d):
        # one walker has no gap: its drift bound is 0
        with pytest.raises(DomainError):
            drift_bound_sweep(d, (1, 5), SeedRecord(19, 0), configs=1)
