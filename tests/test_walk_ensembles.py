"""Walk laws and samplers against enumeration and closed-form oracles."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from watermelon.acceptance import _enumeration_occupancy
from watermelon.errors import (
    BudgetExceeded,
    DomainError,
    EmptyBridge,
    ParityError,
    UnreachableState,
)
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import (
    BridgeSpec,
    BridgeStepper,
    WeylConfig,
    bridge_transition,
    chamber_sweep,
    conditional_drift,
    delta_config,
    check_trajectories,
    drift_bound,
    enumerate_trajectories,
    exact_det,
    free_step_law,
    km_weight,
    macmahon_count,
    one_step_bridge_law,
    radon_nikodym,
    radon_nikodym_ratio,
    sample_bridges_lockstep,
    signed_logdet,
    vandermonde,
    walk_bridges_lockstep,
    _step_signs,
)


class TestWeylConfig:
    def test_delta(self):
        assert delta_config(3, -2).positions == (-2, 0, 2)

    def test_rejects_disorder(self):
        with pytest.raises(DomainError):
            WeylConfig((2, 0))

    def test_rejects_odd_gaps(self):
        with pytest.raises(ParityError):
            WeylConfig((0, 1))


class TestKmWeight:
    def test_single_walk_return(self):
        assert km_weight(2, WeylConfig((0,)), WeylConfig((0,))) == Fraction(1, 2)

    def test_two_walk_return(self):
        # 3 of the 16 step choices keep the walkers apart and return them
        assert km_weight(2, delta_config(2, 0), delta_config(2, 0)) == Fraction(3, 16)

    def test_parity_unreachable(self):
        assert km_weight(3, delta_config(2, 0), delta_config(2, 0)) == 0

    def test_out_of_reach(self):
        assert km_weight(2, WeylConfig((0,)), WeylConfig((6,))) == 0

    @pytest.mark.parametrize("d,n", [(1, 6), (2, 4), (2, 6), (3, 4)])
    def test_enumeration_consistency(self, d, n):
        for x_star in range(-n, n + 1, 2):
            if (n + x_star) % 2 != 0:
                continue
            spec = BridgeSpec(d, n, x_star)
            count = len(enumerate_trajectories(spec))
            assert km_weight(n, spec.start, spec.end, "exact") == Fraction(
                count, 2 ** (d * n)
            )

    def test_float_mode_raises(self):
        spec = BridgeSpec(2, 10, 0)
        with pytest.raises(DomainError):
            km_weight(10, spec.start, spec.end, "float")


class TestBridgeTransition:
    def test_forced_endpoint(self):
        spec = BridgeSpec(2, 4, 0)
        assert bridge_transition(spec, 2, delta_config(2, 0), 4, spec.end) == km_weight(
            2, delta_config(2, 0), spec.end
        ) / km_weight(2, delta_config(2, 0), spec.end)

    def test_symmetric_single_walk(self):
        spec = BridgeSpec(1, 2, 0)
        p = bridge_transition(spec, 0, WeylConfig((0,)), 1, WeylConfig((1,)))
        assert p == Fraction(1, 2)

    def test_one_step_matches_enumeration(self):
        spec = BridgeSpec(2, 4, 0)
        trajs = enumerate_trajectories(spec)
        # empirical one-step frequencies from the full enumeration at n = 1
        from collections import Counter

        counts = Counter(tuple(t[1]) for t in trajs)
        law = dict(
            (y.positions, p) for y, p in one_step_bridge_law(spec, 0, spec.start)
        )
        for pos, c in counts.items():
            assert law[pos] == Fraction(c, len(trajs))

    def test_rows_sum_to_one(self):
        spec = BridgeSpec(3, 8, 2)
        for n, x in ((0, delta_config(3, 0)), (3, delta_config(3, 1)), (4, delta_config(3, -2))):
            total = sum(p for _, p in one_step_bridge_law(spec, n, x))
            assert total == 1

    def test_chapman_kolmogorov(self):
        spec = BridgeSpec(2, 8, 0)
        x = delta_config(2, 0)
        targets = [
            WeylConfig((a, b))
            for a in range(-4, 5)
            for b in range(a + 2, 7)
            if (a + 4) % 2 == 0 and (b - a) % 2 == 0
        ]
        for x2 in targets:
            direct = bridge_transition(spec, 0, x, 4, x2)
            via = Fraction(0)
            for x1, p1 in one_step_bridge_law(spec, 0, x):
                try:
                    via += p1 * bridge_transition(spec, 1, x1, 4, x2)
                except UnreachableState:
                    pass
            assert via == direct

    def test_unreachable_state(self):
        spec = BridgeSpec(1, 4, 0)
        with pytest.raises(UnreachableState):
            bridge_transition(spec, 1, WeylConfig((9,)), 2, WeylConfig((8,)))


class TestEnumeration:
    def test_three_trajectories(self):
        assert len(enumerate_trajectories(BridgeSpec(2, 2, 0))) == 3

    def test_single_walk_count(self):
        assert len(enumerate_trajectories(BridgeSpec(1, 4, 2))) == math.comb(4, 3)

    def test_forced_corner(self):
        assert len(enumerate_trajectories(BridgeSpec(2, 2, 2))) == 1

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_trajectories(BridgeSpec(4, 40, 0))

    def test_all_samples_valid(self):
        spec = BridgeSpec(2, 4, 0)
        check_trajectories(spec, enumerate_trajectories(spec))

    # one valid d = 2, n* = 2 trajectory, broken one rule at a time
    @pytest.mark.parametrize("trajs,message", [
        ([[[0, 2], [1, 3]]], "shape does not match"),
        ([[[2, 4], [1, 3], [0, 2]]], "does not start at delta"),
        ([[[0, 2], [1, 3], [2, 4]]], "does not end at delta"),
        ([[[0, 2], [3, 5], [0, 2]]], "move by \\+-1"),
        ([[[0, 2], [1, 1], [0, 2]]], "strictly ordered"),
    ], ids=["shape", "start", "end", "steps", "gaps"])
    def test_check_rejects(self, trajs, message):
        spec = BridgeSpec(2, 2, 0)
        check_trajectories(spec, np.array([[[0, 2], [1, 3], [0, 2]]]))
        with pytest.raises(DomainError, match=message):
            check_trajectories(spec, np.array(trajs))

    @staticmethod
    def brute_force(spec):
        """Every sign sequence, in itertools.product order, kept when it stays
        in the chamber and ends at delta(x_star)."""
        d = spec.d
        rows = []
        for seq in itertools.product(range(1 << d), repeat=spec.n_star):
            traj = [spec.start.positions]
            for mask in seq:
                step = [1 if mask >> i & 1 else -1 for i in range(d)]
                traj.append(tuple(p + s for p, s in zip(traj[-1], step)))
            in_chamber = all(b - a >= 2 for pos in traj for a, b in zip(pos, pos[1:]))
            if in_chamber and traj[-1] == spec.end.positions:
                rows.append(traj)
        return np.array(rows, dtype=np.int64).reshape(-1, spec.n_star + 1, d)

    @pytest.mark.parametrize(
        "d,n_star,x_star", [(1, 6, 0), (1, 5, 1), (2, 6, 2), (2, 5, -1), (3, 4, 0), (3, 5, 1)]
    )
    def test_matches_sign_sequence_filter(self, d, n_star, x_star):
        spec = BridgeSpec(d, n_star, x_star)
        got = enumerate_trajectories(spec, budget=d * n_star)
        want = self.brute_force(spec)
        assert len(want) > 0
        assert got.dtype == np.int64 and np.array_equal(got, want)
        with pytest.raises(BudgetExceeded):
            enumerate_trajectories(spec, budget=d * n_star - 1)

    @staticmethod
    def whole_row_masks(d, n_star, x_star):
        """The former enumeration: np.diff and np.all over whole candidate rows."""
        start = delta_config(d, 0).positions
        small = np.int16 if 2 * (d + n_star) + abs(x_star) < 2**15 else np.int64
        signs = _step_signs(d).astype(small)
        target = np.array(delta_config(d, x_star).positions, dtype=small)
        levels = [np.array([start], dtype=small)]
        parents = []
        for n in range(n_star):
            cand = levels[-1][:, None, :] + signs
            keep = np.all(np.diff(cand, axis=2) >= 2, axis=2)
            keep &= np.all(np.abs(cand - target) <= n_star - n - 1, axis=2)
            parent, move = np.nonzero(keep)
            levels.append(cand[parent, move])
            parents.append(parent)
        out = np.empty((len(levels[-1]), n_star + 1, d), dtype=np.int64)
        rows = np.arange(len(out))
        for n in range(n_star, 0, -1):
            out[:, n] = levels[n][rows]
            rows = parents[n - 1][rows]
        out[:, 0] = start
        return out

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_whole_row_masks(self, d):
        # every spec with d * n_star <= 24, each endpoint up to one step
        # past reach (an empty bridge, whose spec raises); one walker stops
        # at n_star = 20 (185k rows), since n_star = 24 alone would hold
        # 2.7M rows, 540 MB per array
        for n_star in range(1, min(24 // d, 20) + 1):
            for x_star in range(-n_star - 2, n_star + 3, 2):
                want = self.whole_row_masks(d, n_star, x_star)
                if abs(x_star) > n_star:
                    assert len(want) == 0, (d, n_star, x_star)
                    with pytest.raises(EmptyBridge):
                        BridgeSpec(d, n_star, x_star)
                    continue
                spec = BridgeSpec(d, n_star, x_star)
                got = enumerate_trajectories(spec)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), spec

    @pytest.mark.parametrize("x_star", [4, 40000])
    def test_unreachable_is_empty(self, x_star):
        # |x*| > n* has no spec, so no enumeration can start on it, even
        # one whose x* lies beyond int16, the working type
        with pytest.raises(EmptyBridge):
            BridgeSpec(1, 2, x_star)

    def test_pinned_rows(self):
        # sha256 of the (3, 8, -2) array as the depth-first enumeration built it
        got = enumerate_trajectories(BridgeSpec(3, 8, -2), 30)
        assert got.shape == (14112, 9, 3) and got.dtype == np.int64
        assert hashlib.sha256(got.tobytes()).hexdigest() == (
            "99898f38924ffb57a051bcfd60007fb2df34bedcc58bde4aa8e82eaa52f9d908"
        )

    @pytest.mark.parametrize("d,n_star,x_star", [(2, 6, 2), (3, 6, 0), (2, 7, 1)])
    def test_occupancy_matches_per_trajectory_loop(self, d, n_star, x_star):
        spec = BridgeSpec(d, n_star, x_star)
        trajs = enumerate_trajectories(spec, budget=30)
        visits = [[(n, int(x)) for n in range(1, n_star) for x in tr[n]] for tr in trajs]
        want_sites = sorted({s for v in visits for s in v})
        col = {s: i for i, s in enumerate(want_sites)}
        want = np.zeros((len(want_sites), len(want_sites)), dtype=np.int64)
        for v in visits:
            for a in v:
                for b in v:
                    want[col[a], col[b]] += 1
        sites, joint, count = _enumeration_occupancy(spec)
        assert sites == want_sites and count == len(trajs)
        assert joint.dtype == np.int64 and np.array_equal(joint, want)


def _path_sums(start, steps, end=None):
    """The counts of `chamber_sweep` as one {positions: count} dict per time."""
    configs, counts, _ = chamber_sweep(start, steps, end)
    return [dict(zip(c, w)) for c, w in zip(configs, counts)]


class TestChamberPathSums:
    @pytest.mark.parametrize(
        "d,n_star,x_star", [(1, 7, 3), (2, 6, 2), (2, 8, 0), (3, 8, -2), (3, 7, 1)]
    )
    def test_count_matches_enumeration_and_km(self, d, n_star, x_star):
        spec = BridgeSpec(d, n_star, x_star)
        layers = _path_sums(spec.start, n_star, spec.end)
        assert list(layers[-1]) == [spec.end.positions]
        count = layers[-1][spec.end.positions]
        assert type(count) is int and count == len(enumerate_trajectories(spec))
        assert Fraction(count, 2 ** (d * n_star)) == km_weight(n_star, spec.start, spec.end, "exact")

    def test_empty_bridge_raises(self):
        with pytest.raises(DomainError):
            _path_sums(delta_config(1, 0), 2, delta_config(1, 4))

    def test_zero_steps_to_another_end_raises(self):
        with pytest.raises(DomainError, match="no non-intersecting path"):
            _path_sums(delta_config(2, 0), 0, delta_config(2, 2))
        assert _path_sums(delta_config(2, 0), 0, delta_config(2, 0)) == [{(0, 2): 1}]

    def test_end_with_other_walker_count_raises(self):
        with pytest.raises(DomainError, match="configuration sizes differ"):
            _path_sums(delta_config(2, 0), 2, delta_config(3, 0))

    def test_negative_steps_raises(self):
        with pytest.raises(DomainError, match="need n >= 0"):
            _path_sums(delta_config(2, 0), -1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_former_sweep(self, d):
        # starts: packed, and spread with one tight pair from d = 3; ends:
        # none, and every shift of the start by up to steps + 3, either parity
        starts = [delta_config(d, 0), WeylConfig((0, 4, 6, 10)[:d])]
        compared = raised = 0
        for start in starts:
            for steps in range(11):
                want = _former_chamber_path_sums(start, steps)
                assert _path_sums(start, steps) == want
                for x in range(-steps - 3, steps + 4):
                    end = WeylConfig(tuple(x + p - start.positions[0] for p in start.positions))
                    try:
                        want = _former_chamber_path_sums(start, steps, end)
                    except DomainError:
                        with pytest.raises(DomainError):
                            _path_sums(start, steps, end)
                        raised += 1
                        continue
                    if steps == 0 and end != start:
                        continue  # the former sweep's 0-step answer ignored `end`
                    assert _path_sums(start, steps, end) == want
                    compared += 1
        assert compared > 0 and raised > 0


def _former_chamber_path_sums(start, steps, end=None):
    """The former sweep: every one of the 2^d moves per configuration, kept
    when the walkers stay ordered and each is within reach of `end`."""
    signs = [tuple(s) for s in _step_signs(start.d).tolist()]
    layers = [{start.positions: 1}]
    for n in range(1, steps + 1):
        rem = steps - n
        nxt = {}
        for pos, w in layers[-1].items():
            for s in signs:
                y = tuple(p + q for p, q in zip(pos, s))
                if any(b - a < 2 for a, b in zip(y, y[1:])):
                    continue
                if end is not None and any(abs(p - t) > rem for p, t in zip(y, end.positions)):
                    continue
                nxt[y] = nxt.get(y, 0) + w
        layers.append(nxt)
    if end is not None and not layers[-1]:
        raise DomainError("no path")
    return layers


class TestMacmahon:
    def test_small_values(self):
        assert macmahon_count(1, 1) == 2
        assert macmahon_count(1, 2) == 3

    @pytest.mark.parametrize("d,N", [(1, 3), (2, 2), (2, 4), (3, 3)])
    def test_matches_enumeration(self, d, N):
        assert macmahon_count(N, d) == len(enumerate_trajectories(BridgeSpec(d, 2 * N, 0)))


class TestRadonNikodym:
    def test_single_walk_midpoint(self):
        spec = BridgeSpec(1, 2, 0)
        assert radon_nikodym(spec, 1, WeylConfig((1,))) == 1

    @pytest.mark.parametrize(
        "spec",
        [BridgeSpec(1, 8, 2), BridgeSpec(2, 8, 0), BridgeSpec(3, 10, 2), BridgeSpec(3, 10, -4)],
    )
    def test_product_formula_equals_law_ratio(self, spec):
        # compare on every configuration the bridge can reach
        trajs = enumerate_trajectories(spec, budget=30)
        for n in range(0, spec.n_star + 1, 2):
            configs = {tuple(t[n]) for t in trajs}
            for pos in configs:
                x = WeylConfig(pos)
                assert radon_nikodym(spec, n, x) == radon_nikodym_ratio(spec, n, x)

    def test_endpoint_value(self):
        spec = BridgeSpec(2, 6, 0)
        val = radon_nikodym(spec, spec.n_star, spec.end)
        assert val == radon_nikodym_ratio(spec, spec.n_star, spec.end)

    def test_zero_when_unreachable_by_bridge(self):
        spec = BridgeSpec(1, 4, 0)
        assert radon_nikodym(spec, 3, WeylConfig((5,))) == 0


class TestDrift:
    def test_single_walker_no_drift(self):
        for x in (-4, 0, 10):
            assert conditional_drift(WeylConfig((x,)), 1) == 0

    def test_adjacent_pair(self):
        assert conditional_drift(WeylConfig((0, 2)), 2) == Fraction(1, 2)
        assert conditional_drift(WeylConfig((0, 2)), 1) == Fraction(-1, 2)

    def test_wide_gap_asymptote(self):
        # drift times gap approaches 1 for the top walker of a pair
        for m in (4, 8, 14, 20):
            gap = 2**m
            cfg = WeylConfig((0, gap))
            drift = conditional_drift(cfg, 2)
            assert abs(float(drift * gap) - 1.0) < 4.0 / gap

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bound_holds(self, gaps, data):
        pos = [0]
        for g in gaps:
            pos.append(pos[-1] + 2 * g)
        cfg = WeylConfig(tuple(pos))
        k = data.draw(st.integers(1, cfg.d))
        assert abs(conditional_drift(cfg, k)) <= drift_bound(cfg, k)


class TestHarmonicity:
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_vandermonde_martingale(self, gaps):
        # mean of the signed Vandermonde over all 2^d raw moves equals h(x)
        pos = [0]
        for g in gaps:
            pos.append(pos[-1] + 2 * g)
        d = len(pos)
        total = 0
        for mask in range(1 << d):
            moved = [p + (1 if mask >> i & 1 else -1) for i, p in enumerate(pos)]
            total += vandermonde(moved)
        assert total == (1 << d) * vandermonde(pos)

    def test_free_law_normalizes(self):
        law = free_step_law(WeylConfig((0, 2, 6)))
        assert sum(p for _, p in law) == 1


class TestSamplers:
    def test_two_step_bridge_uniform(self):
        spec = BridgeSpec(1, 2, 0)
        mids = [sample_bridges_lockstep(spec, 1, SeedRecord(5, i))[0][1][0] for i in range(400)]
        up = sum(1 for m in mids if m == 1)
        # two trajectories at probability 1/2: binomial 3.5-sigma window
        assert abs(up - 200) < 3.5 * math.sqrt(400 * 0.25)

    def test_empty_bridge(self):
        # no spec, hence nothing to sample or walk, for an empty bridge; the
        # spec of the same walkers one step closer samples
        for d, n_star, x_star in ((1, 2, 4), (3, 6, 8)):
            with pytest.raises(EmptyBridge):
                BridgeSpec(d, n_star, x_star)
            spec = BridgeSpec(d, n_star, x_star - 2)
            assert sample_bridges_lockstep(spec, 3, SeedRecord(0, 0)).shape == (3, n_star + 1, d)
            assert len(list(walk_bridges_lockstep(spec, 3, SeedRecord(0, 0)))) == n_star + 1

    def test_emptiness_matches_km_weight(self):
        # the closed form |x*| > n_star of BridgeSpec against the exact
        # determinant from delta(0) to delta(x*)
        ends = [
            (d, n_star, x_star)
            for d in range(1, 5)
            for n_star in range(1, 15)
            for x_star in range(-n_star - 6, n_star + 7, 2)
        ]
        assert len(ends) == 812
        for d, n_star, x_star in ends:
            if km_weight(n_star, delta_config(d, 0), delta_config(d, x_star), "exact") == 0:
                with pytest.raises(EmptyBridge):
                    BridgeSpec(d, n_star, x_star)
            else:
                sample_bridges_lockstep(BridgeSpec(d, n_star, x_star), 1, SeedRecord(0, 0))

    def test_deterministic_replay(self):
        spec = BridgeSpec(2, 6, 0)
        a = sample_bridges_lockstep(spec, 1, SeedRecord(123, 7))[0]
        b = sample_bridges_lockstep(spec, 1, SeedRecord(123, 7))[0]
        assert np.array_equal(a, b)

    def test_rows_are_weyl_configs(self):
        traj = sample_bridges_lockstep(BridgeSpec(3, 6, 0), 1, SeedRecord(9, 0))[0]
        for row in traj:
            WeylConfig(tuple(int(v) for v in row))

    @pytest.mark.parametrize("n_star", [2, 4])
    def test_lockstep_chi_square_against_enumeration(self, n_star):
        spec = BridgeSpec(2, n_star, 0)
        trajs = enumerate_trajectories(spec)
        keys = {t.tobytes(): i for i, t in enumerate(trajs)}
        samples = sample_bridges_lockstep(spec, 100_000, SeedRecord(31, n_star))
        counts = np.zeros(len(trajs))
        for s in samples:
            counts[keys[s.astype(np.int64).tobytes()]] += 1
        expected = len(samples) / len(trajs)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        crit = stats.chi2.ppf(1 - 0.001, df=len(trajs) - 1)
        assert chi2 < crit

    def test_scalar_sampler_matches_lockstep(self):
        spec = BridgeSpec(2, 4, 0)
        trajs = enumerate_trajectories(spec)
        keys = {t.tobytes(): i for i, t in enumerate(trajs)}
        scalar = np.zeros(len(trajs))
        for i in range(1500):
            traj = sample_bridges_lockstep(spec, 1, SeedRecord(77, i))[0]
            scalar[keys[traj.tobytes()]] += 1
        expected = 1500 / len(trajs)
        chi2 = float(((scalar - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(1 - 0.001, df=len(trajs) - 1)


class TestBridgeStepper:
    @pytest.mark.parametrize(
        "d,n_star,x_star",
        [(1, 8, 0), (1, 8, 4), (2, 8, 0), (2, 8, -2), (2, 7, 1), (3, 8, 0), (3, 8, 2), (3, 7, -1)],
    )
    def test_weights_equal_exact_one_step_law(self, d, n_star, x_star):
        spec = BridgeSpec(d, n_star, x_star)
        stepper = BridgeStepper(spec)
        trajs = enumerate_trajectories(spec)
        for n in range(n_star):
            states = np.unique(trajs[:, n], axis=0)
            cand = states[:, None, :] + stepper.signs[None, :, :]
            logw = stepper._move_log_weights(states, n).T
            w = np.exp(logw - logw.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            for row, x in enumerate(states):
                x = WeylConfig(tuple(int(v) for v in x))
                law = {y.positions: float(p) for y, p in one_step_bridge_law(spec, n, x)}
                for c in range(1 << d):
                    p = law.get(tuple(int(v) for v in cand[row, c]), 0.0)
                    assert (w[row, c] == 0) == (p == 0)
                    assert abs(w[row, c] - p) <= 1e-12

    def test_unreachable_row_raises(self):
        spec = BridgeSpec(2, 6, 0)
        stepper = BridgeStepper(spec)
        gen = SeedRecord(1, 0).generator()
        # (4, 6) at time 4 cannot reach (0, 2) in the two steps left
        with pytest.raises(UnreachableState):
            stepper.step(np.array([[0, 2], [4, 6]]), 4, gen)
        # forced last step with no move onto the endpoint
        with pytest.raises(UnreachableState):
            stepper.step(np.array([[3, 5]]), 5, gen)
        assert stepper.step(np.array([[1, 3]]), 5, gen).tolist() == [[0, 2]]
        # rows far outside the light cone, alone or next to a good row
        for row in ([-500, 500], [-(10**12), 10**12], [600, 602], [-602, -600]):
            with pytest.raises(UnreachableState):
                stepper.step(np.array([row]), 1, gen)
            with pytest.raises(UnreachableState):
                stepper.step(np.array([[-1, 1], row]), 1, gen)
        # at time 4 the walkers can stand on -2 .. 4 only: the edges each
        # force one move, one site beyond either edge is unreachable
        assert stepper.step(np.array([[-2, 0]]), 4, gen).tolist() == [[-1, 1]]
        assert stepper.step(np.array([[2, 4]]), 4, gen).tolist() == [[1, 3]]
        for row in ([-4, 0], [2, 6], [-3, -1], [3, 5], [-1, 1]):
            with pytest.raises(UnreachableState):
                stepper.step(np.array([row]), 4, gen)

    @pytest.mark.parametrize("count", [1, 7, 3000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_batch_weights_equal_row_weights(self, d, count):
        # the per-cell table and the per-row route give the same bits; the
        # table serves a step exactly when 4 * (cells of the box) < paths
        spec = BridgeSpec(d, 16, 4)
        stepper = BridgeStepper(spec)
        traj = sample_bridges_lockstep(spec, count, SeedRecord(40 + d, count))
        rows = stepper._move_log_weights
        evaluated = []
        stepper._move_log_weights = lambda paths, n: evaluated.append(len(paths)) or rows(paths, n)
        small_box = []
        for n in range(spec.n_star):
            paths = traj[:, n]
            assert np.array_equal(stepper._batch_log_weights(paths, n), rows(paths, n))
            widths = (paths.max(axis=0) - paths.min(axis=0)) // 2 + 1
            small_box.append(4 * math.prod(widths.tolist()) < count)
        assert [size != count for size in evaluated] == small_box
        assert any(small_box) == (count > 4)
        assert not all(small_box) or count == 3000

    def test_unreachable_row_in_a_large_batch_raises(self):
        # one bad row among 400 good ones raises as it does alone, on either
        # route: a stuck row inside the table and a row just outside it
        # (cell route, on the 2 and 9 cells of their boxes), a row of the
        # wrong parity and rows far outside (row route)
        spec = BridgeSpec(2, 6, 0)
        stepper = BridgeStepper(spec)
        gen = SeedRecord(1, 0).generator()
        rows = stepper._move_log_weights
        evaluated = []
        stepper._move_log_weights = lambda paths, n: evaluated.append(len(paths)) or rows(paths, n)
        good = {1: [-1, 1], 4: [0, 2], 5: [1, 3]}
        for n, bad, sizes in ((5, [3, 3], [2]), (4, [1, 3], [400]), (4, [4, 6], [9]),
                              (1, [-500, 500], [400]), (1, [-(10**12), 10**12], [400])):
            with pytest.raises(UnreachableState) as alone:
                stepper.step(np.array([bad]), n, gen)
            paths = np.tile(good[n], (400, 1))
            paths[123] = bad
            evaluated.clear()
            with pytest.raises(UnreachableState) as batch:
                stepper.step(paths, n, gen)
            assert str(batch.value) == str(alone.value)
            assert evaluated == sizes

    def test_step_outside_window_raises(self):
        spec = BridgeSpec(2, 6, 0)
        stepper = BridgeStepper(spec)
        gen = SeedRecord(1, 0).generator()
        for n in (-1, 6, 7):
            with pytest.raises(DomainError):
                stepper.step(np.array([[0, 2]]), n, gen)

    def test_replay_is_pinned(self):
        # (seed, stream) replay contract: these trajectories must never change
        traj = sample_bridges_lockstep(BridgeSpec(3, 12, 2), 500, SeedRecord(2024, 3))
        assert traj.dtype == np.int64 and traj.shape == (500, 13, 3)
        assert hashlib.sha256(traj.tobytes()).hexdigest() == (
            "a964994838174fbb5447852ff0b13b30767eab2fc2533433464866e7f1eff413"
        )

    @pytest.mark.parametrize(
        "spec,count,rng,digest",
        [
            # the README overlap spec at its largest N
            (BridgeSpec(2, 48, 0), 2000, SeedRecord(5, 7),
             "1c04497cf768d83b7d5d23be9f52ac4dcce0d58b2b8afbb0110c5a9a713bfd48"),
            (BridgeSpec(1, 30, 4), 1000, SeedRecord(11, 0),
             "80dae86a8958b828c5dce2708355a4cb2ea966323e144801c7cb823a808a58b4"),
            (BridgeSpec(4, 12, -2), 1000, SeedRecord(12, 1),
             "dbc48affebe33c1c81e3e8702099c059db9889a4c4be6677f55aa68b2d42b11c"),
        ],
        ids=["2-48-0", "1-30-4", "4-12--2"],
    )
    def test_replay_is_pinned_per_shape(self, spec, count, rng, digest):
        traj = sample_bridges_lockstep(spec, count, rng)
        assert traj.dtype == np.int64 and traj.shape == (count, spec.n_star + 1, spec.d)
        assert hashlib.sha256(traj.tobytes()).hexdigest() == digest


def leibniz_det(mat):
    """Determinant by the permutation expansion: the independent oracle."""
    n = len(mat)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


_entries = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=7)
)


@st.composite
def square_matrices(draw, min_size=0, max_size=5):
    n = draw(st.integers(min_size, max_size))
    return [[draw(_entries) for _ in range(n)] for _ in range(n)]


class TestExactDet:
    @given(square_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_leibniz(self, mat):
        det = exact_det(mat)
        assert isinstance(det, Fraction)
        assert det == leibniz_det(mat)

    @given(square_matrices(min_size=2), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_singular(self, mat, c):
        mat[-1] = [c * v for v in mat[0]]
        assert exact_det(mat) == 0

    @given(square_matrices(min_size=2))
    @settings(max_examples=100, deadline=None)
    def test_zero_leading_pivot(self, mat):
        mat[0][0] = 0
        assert exact_det(mat) == leibniz_det(mat)

    def test_row_swap_sign(self):
        assert exact_det([[0, 1], [1, 0]]) == -1
        mat = [[0, Fraction(1, 2), 3], [0, 2, Fraction(-1, 3)], [5, 1, 1]]
        assert exact_det(mat) == leibniz_det(mat)

    def test_empty_and_int_matrices(self):
        assert exact_det([]) == 1
        assert exact_det([[7]]) == 7
        assert exact_det([[2, 1], [1, 3]]) == 5


class TestSignedLogdet:
    @staticmethod
    def _check(logm):
        sign, logdet = signed_logdet(logm)
        want = np.linalg.det(np.exp(logm))
        assert sign == np.sign(want)
        assert math.exp(logdet) == pytest.approx(abs(want), rel=1e-9)
        return sign

    def test_mixed_sign_determinants(self):
        gen = SeedRecord(4, 0).generator()
        signs = {
            self._check(gen.normal(0.0, 2.0, size=(k, k)))
            for k in range(1, 6)
            for _ in range(20)
        }
        assert signs == {-1.0, 1.0}

    def test_zero_entries(self):
        gen = SeedRecord(5, 0).generator()
        for k in range(2, 6):
            for _ in range(20):
                logm = gen.normal(0.0, 2.0, size=(k, k))
                logm[gen.random((k, k)) < 0.3] = -np.inf
                logm[np.arange(k), gen.integers(0, k, size=k)] = 0.0  # no zero rows
                self._check(logm)

    def test_zero_row(self):
        logm = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        assert signed_logdet(logm) == (0.0, -math.inf)

    def test_entries_beyond_double_range(self):
        gen = SeedRecord(6, 0).generator()
        logm = gen.normal(0.0, 2.0, size=(3, 3))
        sign, logdet = signed_logdet(logm)
        shifted = signed_logdet(logm + np.array([[900.0], [-900.0], [2000.0]]))
        assert shifted[0] == sign
        assert shifted[1] == pytest.approx(logdet + 2000.0, rel=1e-12)
