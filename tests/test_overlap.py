"""Overlap counts, the occupation-time identity, and moment diagnostics."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon.chaos_polymer import reachable_sites
from watermelon.errors import DomainError, EmptyBridge, ParityError, SpecMismatch
from watermelon import overlap
from watermelon.kernels import ContinuumEndpoint
from watermelon.overlap import (
    ExactBridgeLaw,
    _squared_occupation_sums,
    overlap_l2_bound_check,
    overlap_moment_diagnostics,
    overlap_time,
    tanaka_check,
    tanaka_decomposition,
)
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import (
    BridgeSpec,
    WeylConfig,
    chamber_sweep,
    enumerate_trajectories,
    free_step_law,
    km_weight,
    sample_bridges_lockstep,
    vandermonde,
    walk_bridges_lockstep,
)


class TestOverlapTime:
    def test_full_self_overlap(self):
        s = sample_bridges_lockstep(BridgeSpec(2, 8, 0), 1, SeedRecord(1, 0))[0]
        rec = overlap_time(s, s, 0, 8)
        assert rec.total == 2 * 9
        assert all(rec.pairwise[k][k] == 9 for k in range(2))

    def test_opposite_phase_zigzags(self):
        up_first = np.array([[0], [1], [0], [1], [0]])
        down_first = np.array([[0], [-1], [0], [-1], [0]])
        rec = overlap_time(up_first, down_first, 1, 4)
        # they agree only at the shared even-time zeros inside the window
        assert rec.total == 2
        rec_interior = overlap_time(up_first, down_first, 1, 1)
        assert rec_interior.total == 0

    def test_hand_recount(self):
        s1 = sample_bridges_lockstep(BridgeSpec(2, 8, 0), 1, SeedRecord(2, 0))[0]
        s2 = sample_bridges_lockstep(BridgeSpec(2, 8, 0), 1, SeedRecord(2, 1))[0]
        rec = overlap_time(s1, s2, 0, 8)
        manual = sum(
            len(set(map(int, s1[n])) & set(map(int, s2[n])))
            for n in range(9)
        )
        assert rec.total == manual

    def test_spec_mismatch(self):
        s1 = sample_bridges_lockstep(BridgeSpec(2, 8, 0), 1, SeedRecord(3, 0))[0]
        s2 = sample_bridges_lockstep(BridgeSpec(2, 6, 0), 1, SeedRecord(3, 1))[0]
        with pytest.raises(SpecMismatch):
            overlap_time(s1, s2, 0, 6)

    @pytest.mark.parametrize("a,b", [(-1, 4), (0, 9), (5, 4)])
    def test_window_outside_trajectory(self, a, b):
        s = sample_bridges_lockstep(BridgeSpec(2, 8, 0), 1, SeedRecord(3, 0))[0]
        with pytest.raises(DomainError, match="window outside"):
            overlap_time(s, s, a, b)


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


def _path_sums(start, steps, end=None):
    """The counts of `chamber_sweep` as one {positions: count} dict per time."""
    configs, counts, _ = chamber_sweep(start, steps, end)
    return [dict(zip(c, w)) for c, w in zip(configs, counts)]


class TestFreeStepLaw:
    @pytest.mark.parametrize("x0", [(0, 2), (-3, 1), (0, 2, 4), (0, 4, 10)])
    def test_free_law_is_h_transformed_count(self, x0):
        # iterating the one-step law against count(x0 -> y) V(y) / (V(x0) 2^{dn})
        x0 = WeylConfig(x0)
        d = x0.d
        counts = _path_sums(x0, 6)
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


class TestExactBridgeLaw:
    def test_site_probs_count_particles(self):
        law = ExactBridgeLaw(BridgeSpec(2, 8, 0))
        for n in (1, 4, 7):
            sites = sorted({x for pos in law.configs[n] for x in pos})
            assert sum(law.site_prob(n, x) for x in sites) == 2

    def test_pair_table_counts_particles(self):
        law = ExactBridgeLaw(BridgeSpec(2, 8, 0))
        assert sum(law.pair_site_table(2, 5).values()) == 4

    def test_forward_and_backward_layers_hold_the_same_configurations(self):
        # site_prob, the squared sums and the pair sweep read _bwd[n] at every
        # index of configs[n] without a guard; the forward counts equal the
        # sweep from the start, the mirrored backward counts the sweep run
        # from the endpoint back to the start
        layers = 0
        for d in range(1, 5):
            for n_star in range(1, 13):
                for x_star in range(-n_star, n_star + 1, 2):
                    spec = BridgeSpec(d, n_star, x_star)
                    law = ExactBridgeLaw(spec)
                    fwd = _path_sums(spec.start, spec.n_star, spec.end)
                    bwd = _path_sums(spec.end, spec.n_star, spec.start)[::-1]
                    lists = (law.configs, law._fwd, law._bwd, fwd, bwd)
                    assert [len(v) for v in lists] == [n_star + 1] * 5
                    for n, (f, b) in enumerate(zip(fwd, bwd)):
                        assert len(law.configs[n]) == len(law._fwd[n]) == len(law._bwd[n])
                        assert dict(zip(law.configs[n], law._fwd[n])) == f
                        assert dict(zip(law.configs[n], law._bwd[n])) == b
                        assert f.keys() == b.keys()
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
    for pos1, cf, cb1 in zip(law.configs[n1], law._fwd[n1], law._bwd[n1]):
        if cb1 == 0:
            continue
        for pos2, cb in zip(law.configs[n2], law._bwd[n2]):
            mid = km_weight(n2 - n1, WeylConfig(pos1), WeylConfig(pos2), "exact")
            if mid == 0:
                continue
            wgt = cf * (mid * scale) * cb / law.total
            for x1 in pos1:
                for x2 in pos2:
                    out[x1, x2] = out.get((x1, x2), Fraction(0)) + wgt
    return out


def _former_pair_counts(fwd, bwd, d, n1, n_last):
    """The former pair transfer: every one of the 2^d moves of each marked
    configuration, kept when it lands in the backward layer."""
    signs = list(product((-1, 1), repeat=d))
    marked = {}
    for pos, cf in fwd[n1].items():
        for x1 in pos:
            marked.setdefault(x1, {})[pos] = cf
    for n2 in range(n1 + 1, n_last + 1):
        keep = bwd[n2]
        counts = {}
        for x1, layer in marked.items():
            nxt = {}
            for pos, w in layer.items():
                for s in signs:
                    y = tuple(p + q for p, q in zip(pos, s))
                    if y in keep:
                        nxt[y] = nxt.get(y, 0) + w
            marked[x1] = nxt
            for pos, w in nxt.items():
                for x2 in pos:
                    counts[x1, x2] = counts.get((x1, x2), 0) + w * keep[pos]
        yield counts


class TestPairSweep:
    @pytest.mark.parametrize("d,n_star,x_star", [(2, 8, 0), (3, 8, -2)])
    def test_successor_lists_match_the_former_transfer(self, d, n_star, x_star):
        spec = BridgeSpec(d, n_star, x_star)
        law = ExactBridgeLaw(spec)
        fwd = _path_sums(spec.start, n_star, spec.end)
        bwd = _path_sums(spec.end, n_star, spec.start)[::-1]
        total = fwd[n_star][spec.end.positions]
        for n1 in range(n_star):
            former = _former_pair_counts(fwd, bwd, d, n1, n_star)
            for n2, counts in zip(range(n1 + 1, n_star + 1), former):
                want = {key: Fraction(c, total) for key, c in counts.items()}
                assert law.pair_site_table(n1, n2) == want

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
        "n_lo,n_hi,same",
        [
            # the same windows at k = 1, which has no cross-time part,
            # recorded from the former per-configuration Fraction sums
            (1, 11, Fraction(1978789, 184041)),
            (3, 9, Fraction(1105024, 184041)),
        ],
    )
    def test_same_time_sums_pinned(self, n_lo, n_hi, same):
        law = ExactBridgeLaw(BridgeSpec(2, 12, 0))
        assert _squared_occupation_sums(law, n_lo, n_hi, 1) == (same, 0)

    @pytest.mark.parametrize(
        "method,args",
        [
            ("site_prob", (-1, 0)),
            ("site_prob", (9, 0)),
            ("site_prob", (-2, 2)),
            ("site_prob", (9, 1)),
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
        assert rep["lhs_cell_sum"] == pytest.approx(rep["rhs_exact"], rel=1e-12)
        assert rep["holds"]

    def test_k1_full_window_equality_d1(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 1, 6, (0.0, 1.0), 1, SeedRecord(11, 0),
            replicas=2000,
        )
        assert rep["lhs_cell_sum"] == pytest.approx(rep["rhs_exact"], rel=1e-12)

    def test_mc_moment_matches_exact_law(self):
        # sampling-path first moment against the exact squared-occupation sum
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 1, 10, (0.0, 1.0), 1, SeedRecord(25, 0),
            replicas=40_000,
        )
        assert abs(rep["rhs_mc"] - rep["rhs_exact"]) <= 3 * rep["rhs_se"]

    def test_k2_inequality_with_slack(self):
        rep = overlap_l2_bound_check(
            ContinuumEndpoint(1.0, 0.0), 2, 12, (0.0, 1.0), 2, SeedRecord(12, 0),
            replicas=8000,
        )
        assert rep["lhs_cell_sum"] < rep["rhs_exact"]
        assert rep["holds"]

    @pytest.mark.parametrize("window", [(2.0, 3.0), (-0.25, 0.5), (0.5, 1.5)])
    def test_window_outside_bridge_raises(self, window):
        with pytest.raises(DomainError):
            overlap_l2_bound_check(
                ContinuumEndpoint(1.0, 0.0), 2, 12, window, 2, SeedRecord(1, 0), replicas=200
            )

    def test_degenerate_window(self, monkeypatch):
        # a zero-width and a reversed window, and (0, 0.1), which holds no
        # interior lattice step at N = 8: none has a bound to check
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the window")

        monkeypatch.setattr(overlap, "walk_bridges_lockstep", no_sampling)
        for window in ((0.5, 0.5), (0.75, 0.25), (0.0, 0.1)):
            with pytest.raises(DomainError):
                overlap_l2_bound_check(
                    ContinuumEndpoint(1.0, 0.0), 2, 8, window, 2, SeedRecord(13, 0),
                    replicas=500,
                )


class TestMomentDiagnostics:
    def test_empty_level_fails_before_sampling(self, monkeypatch):
        # the bridge at N = 4 is empty (x* = 6 > n* = 4); N = 400 comes first
        calls = []
        walk = overlap.walk_bridges_lockstep

        def counting(*a):
            calls.append(a)
            return walk(*a)

        monkeypatch.setattr(overlap, "walk_bridges_lockstep", counting)
        with pytest.raises(EmptyBridge):
            overlap_moment_diagnostics(
                ContinuumEndpoint(1, 3), 1, [400, 4], [0.5], 1, 4, SeedRecord(3)
            )
        assert calls == []

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
                for n, counts in got.items():
                    assert counts.dtype == np.int64 and counts.shape == (reps,)
                    want = sum(
                        overlap_time(p1[r], p2[r], m, m).total
                        for m in range(n_lo, min(n, n_star - 1) + 1)
                    )
                    assert counts[r] == want

    @staticmethod
    def full_walk_overlaps(spec, replicas, rngs, n_lo, times):
        """The pair walk run through n_star, counting n_lo <= n < n_star."""
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

    @pytest.mark.parametrize("spec", [BridgeSpec(1, 9, 1), BridgeSpec(3, 12, 2)])
    @pytest.mark.parametrize("n_lo", [0, 1, 4])
    def test_pair_walk_stops_at_the_last_reported_time(self, monkeypatch, spec, n_lo):
        n_star, reps = spec.n_star, 16
        rngs = (SeedRecord(21, 0), SeedRecord(21, 1))
        steps = []
        walk = overlap.walk_bridges_lockstep

        def counted(*args):
            for paths in walk(*args):
                steps.append(paths)
                yield paths

        for times in ([n_star], [n_star - 3], [2, n_star - 1], [1, 5, n_star], [0]):
            want = self.full_walk_overlaps(spec, reps, rngs, n_lo, times)
            steps.clear()
            monkeypatch.setattr(overlap, "walk_bridges_lockstep", counted)
            got = overlap._pair_overlaps(spec, reps, rngs, n_lo, times)
            monkeypatch.undo()
            assert sorted(got) == sorted(want) == sorted(times)
            for n in times:
                assert np.array_equal(got[n], want[n])
            # positions at times 0 .. min(max(times), n_star - 1), per ensemble
            assert len(steps) == 2 * (min(max(times), n_star - 1) + 1)

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
        _, rows = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 2, [16], [0.0], 3, 500, SeedRecord(14, 0)
        )
        assert all(moment == 0.0 for _, _, _, moment, _ in rows)

    def test_monotone_in_t(self):
        _, rows = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 2, [24], [0.2, 0.5, 1.0], 2, 3000, SeedRecord(15, 0)
        )
        by_k = {}
        for _, t, k, moment, _ in rows:
            by_k.setdefault(k, []).append((t, moment))
        for k, series in by_k.items():
            vals = [v for _, v in sorted(series)]
            assert vals == sorted(vals)

    def test_bounded_and_decaying(self):
        summary, _ = overlap_moment_diagnostics(
            ContinuumEndpoint(1.0, 0.0), 2, [16, 32, 64], [0.1, 0.4, 1.0], 3, 4000,
            SeedRecord(16, 0),
        )
        assert summary["bounded_in_N"]
        assert summary["decays_to_zero_as_t_to_0"]
        assert summary["tail_ratios"]

