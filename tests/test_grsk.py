"""Lattice-path determinants, forced points, rotation, and weight scaling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from watermelon import grsk
from watermelon.errors import BudgetExceeded, DomainError
from watermelon.grsk import (
    forced_points,
    grsk_array,
    inverse_gamma_moments,
    inverse_gamma_sample,
    log_tau_lgv,
    log_tau_lgv_batch,
    path_sums,
    rescaled_tau_run,
    rotate_lambda,
    rotate_lambda_inverse,
    tau_enumerate,
    tau_lgv,
)
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import macmahon_count


def exact_path_sum(weights, start, end):
    """path_sums in exact arithmetic from one 0-indexed start to one end."""
    w = np.array([weights], dtype=object)
    return path_sums(w, [start], [end], 0, np.add, np.multiply)[0, 0, 0]


class TestSinglePathSum:
    def test_one_by_one(self):
        assert exact_path_sum([[5.0]], (0, 0), (0, 0)) == 5.0

    def test_all_ones_counts_paths(self):
        assert exact_path_sum([[1] * 5] * 4, (0, 0), (3, 4)) == math.comb(4 + 5 - 2, 3)

    def test_two_by_two(self):
        assert exact_path_sum([[1, 2], [3, 4]], (0, 0), (1, 1)) == 1 * 2 * 4 + 1 * 3 * 4

    def test_unreachable(self):
        # the end is a row before the start: no path reaches it
        assert exact_path_sum([[1] * 3] * 3, (1, 1), (0, 2)) == 0

    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_weights(self, n, m, data):
        base = [[Fraction(data.draw(st.integers(1, 5))) for _ in range(m)] for _ in range(n)]
        v0 = exact_path_sum(base, (0, 0), (n - 1, m - 1))
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, m - 1))
        base[i][j] += 1
        assert exact_path_sum(base, (0, 0), (n - 1, m - 1)) > v0

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_path_enumeration_between_two_antidiagonals(self, seed):
        # starts on one anti-diagonal and ends on a later one, as the polymer's
        # walkers map onto the grid; every (start, end) pair against the
        # products over its enumerated paths, in Fractions
        gen = SeedRecord(seed, 0).generator()
        n, m = int(gen.integers(2, 7)), int(gen.integers(2, 7))
        d = int(gen.integers(1, 4))
        k0 = int(gen.integers(0, n + m - 1))
        k1 = int(gen.integers(k0, n + m - 1))
        on = lambda k: [(i, k - i) for i in range(n) if 0 <= k - i < m]
        pick = lambda cells: [cells[i] for i in sorted(gen.permutation(len(cells))[:d])]
        starts, ends = pick(on(k0)), pick(on(k1))
        weights = [
            [Fraction(int(gen.integers(1, 8)), int(gen.integers(1, 5))) for _ in range(m)]
            for _ in range(n)
        ]
        got = path_sums(np.array([weights], dtype=object), starts, ends, 0, np.add, np.multiply)
        assert got.shape == (1, len(starts), len(ends))
        for a, (i0, j0) in enumerate(starts):
            for b, (i1, j1) in enumerate(ends):
                paths = grsk._enumerate_paths((i0, j0), (i1, j1))
                want = sum(math.prod(weights[i][j] for i, j in p) for p in paths)
                assert got[0, a, b] == want


class TestTau:
    def test_fully_packed(self):
        # d = m = n: the single tuple uses every vertex
        w = np.array([[Fraction(2), Fraction(3)], [Fraction(5), Fraction(7)]], dtype=object)
        assert tau_enumerate(w, 2) == 2 * 3 * 5 * 7

    def test_d1_reduces_to_path_sum(self):
        w = np.full((3, 4), Fraction(1), dtype=object)
        assert tau_enumerate(w, 1) == math.comb(3 + 4 - 2, 2)
        assert tau_lgv(w, 1) == math.comb(3 + 4 - 2, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            tau_enumerate(np.ones((8, 8), dtype=int), 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_lgv_equals_enumeration_exact(self, seed):
        gen = SeedRecord(seed, 0).generator()
        n = int(gen.integers(2, 7))
        m = int(gen.integers(2, 7))
        d = int(gen.integers(1, min(3, n, m) + 1))
        w = np.array(
            [
                [Fraction(int(gen.integers(1, 8)), int(gen.integers(1, 5))) for _ in range(m)]
                for _ in range(n)
            ],
            dtype=object,
        )
        assert tau_lgv(w, d) == tau_enumerate(w, d)

    def test_all_ones_d2_binomial_determinant(self):
        n = m = 5
        w = np.full((n, m), Fraction(1), dtype=object)
        # paths from (0, r) to (n - 1, m - 2 + s): n - 1 steps down, m - 2 + s - r right
        counts = [[math.comb(n - 1 + m - 2 + s - r, n - 1) for s in (0, 1)] for r in (0, 1)]
        det = counts[0][0] * counts[1][1] - counts[0][1] * counts[1][0]
        assert tau_lgv(w, 2) == det

    def test_integer_weights_are_exact(self):
        tau = tau_lgv(np.ones((4, 4), dtype=int), 2)
        assert isinstance(tau, Fraction) and tau == macmahon_count(2, 2) == 20
        assert isinstance(tau_lgv(np.ones((4, 4)), 2), float)

    def test_log_dp_matches_direct(self):
        # direct enumeration of the disjoint path pairs, in doubles
        gen = SeedRecord(3, 0).generator()
        logw = np.log(gen.uniform(0.5, 2.0, size=(6, 6)))
        direct = tau_enumerate(np.exp(logw), 2)
        assert log_tau_lgv(logw, 2) == pytest.approx(math.log(direct), rel=1e-12)

    @pytest.mark.parametrize(
        "n, m, d",
        [(6, 6, 2), (1, 1, 1), (1, 7, 1), (7, 1, 1), (2, 9, 2), (9, 2, 2),
         (5, 5, 3), (4, 8, 3), (8, 4, 4), (6, 11, 4), (12, 12, 4)]
        + [(7, 7, d) for d in range(1, 5)],
    )
    def test_log_dp_matches_exact(self, n, m, d):
        # determinant cancellation at d = 4, n = 12 costs ~4e-10 in log tau
        w = SeedRecord(n * 100 + m * 10 + d, 0).generator().uniform(0.5, 2.0, size=(n, m))
        exact = tau_lgv(np.array([[Fraction(float(v)) for v in row] for row in w], dtype=object), d)
        assert isinstance(exact, Fraction)
        assert abs(log_tau_lgv(np.log(w), d) - math.log(exact)) <= 1e-9

    @staticmethod
    def one_matrix_sweep(log_w, d):
        """The former one-matrix wavefront, with a skewed copy of the whole
        matrix and the row-scaled determinant written out."""
        n, m = log_w.shape
        rows = np.arange(n)
        cols = np.arange(n + m - 1)[:, None] - rows
        skewed = np.where((cols >= 0) & (cols < m), log_w[rows, np.clip(cols, 0, m - 1)], -np.inf)
        front = np.full((d, n + 1), -np.inf)
        logmat = np.empty((d, d))
        for k in range(n + m - 1):
            front[:, 1:] = skewed[k] + np.logaddexp(front[:, :-1], front[:, 1:])
            if k < d:
                front[k, 1] = skewed[k, 0]
            if k >= n + m - 1 - d:
                logmat[:, k - (n + m - 1 - d)] = front[:, n]
        row_max = logmat.max(axis=1)
        sign, logdet = np.linalg.slogdet(np.exp(logmat - row_max[:, None]))
        assert sign > 0
        return float(row_max.sum() + logdet)

    @pytest.mark.parametrize(
        "n, m, d",
        [(n, m, d) for n, m in [(1, 1), (3, 3), (5, 8), (8, 5), (18, 18), (24, 11)]
         for d in (1, 2, 3) if d <= min(n, m)],
    )
    def test_batch_matches_one_matrix_sweep(self, n, m, d):
        gen = SeedRecord(n * 100 + m * 10 + d, 1).generator()
        stack = -np.log(gen.gamma(4.0, 1.0, size=(9, n, m)))
        got = log_tau_lgv_batch(stack, d)
        assert got.shape == (9,)
        for r in range(9):
            assert got[r] == log_tau_lgv(stack[r], d) == self.one_matrix_sweep(stack[r], d)

    def test_batch_rejects_what_one_matrix_rejects(self):
        stack = np.zeros((3, 4, 4))
        stack[1, 2, 2] = math.nan
        with pytest.raises(DomainError):
            log_tau_lgv_batch(stack, 2)
        with pytest.raises(DomainError):
            log_tau_lgv_batch(np.zeros((3, 4, 4)), 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("d", [1, 2])
    def test_log_dp_rejects_nonfinite(self, bad, d):
        logw = np.zeros((5, 5))
        logw[2, 2] = bad
        with pytest.raises(DomainError):
            log_tau_lgv(logw, d)

    def test_log_dp_d_too_large(self):
        with pytest.raises(DomainError):
            log_tau_lgv(np.zeros((3, 5)), 4)

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize(
        "route",
        [
            lambda d: tau_lgv(np.ones((3, 3), dtype=int), d),
            lambda d: log_tau_lgv(np.zeros((3, 3)), d),
            lambda d: tau_enumerate(np.ones((3, 3), dtype=int), d),
        ],
        ids=["tau_lgv", "log_tau_lgv", "tau_enumerate"],
    )
    def test_needs_at_least_one_path(self, route, d):
        with pytest.raises(DomainError):
            route(d)

    @pytest.mark.parametrize(
        "w",
        [
            np.ones(3),
            np.ones((2, 3, 3)),
            np.array([[1, 1], [1, 0]]),
            np.array([[1.0, -0.5], [1.0, 1.0]]),
            np.array([[1.0, 1.0], [math.nan, 1.0]]),
        ],
        ids=["1d", "3d", "zero", "negative", "nan"],
    )
    @pytest.mark.parametrize("route", [tau_lgv, tau_enumerate, grsk_array])
    def test_rejects_bad_weights(self, route, w):
        with pytest.raises(DomainError):
            route(w, 1)


class TestArray:
    def test_reconstruction(self):
        gen = SeedRecord(9, 0).generator()
        w = gen.uniform(0.5, 2.0, size=(4, 4))
        rows = grsk_array(w, 3)
        prod = 1.0
        for j, row in enumerate(rows, start=1):
            assert row["value"] > 0
            prod *= row["value"]
            assert prod == pytest.approx(tau_lgv(w, j), rel=1e-12)

    def test_d_max_one(self):
        w = np.full((3, 3), 2.0)
        rows = grsk_array(w, 1)
        assert rows[0]["value"] == pytest.approx(tau_lgv(w, 1))


class TestForcedPointsAndRotation:
    def test_d1_corners(self):
        assert forced_points(1, 5) == {(0, 0), (5, 5)}

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_cardinality(self, d):
        assert len(forced_points(d, 3)) == d * (d + 1)

    def test_every_tuple_contains_forced_set(self):
        from watermelon.grsk import _enumerate_paths, _path_endpoints

        d, N = 2, 2
        n = m = N + d
        starts, ends = _path_endpoints(d, n, m)
        per_route = [_enumerate_paths(s, e) for s, e in zip(starts, ends)]
        forced = forced_points(d, N)
        tuples = 0
        for p1 in per_route[0]:
            for p2 in per_route[1]:
                if p1 & p2:
                    continue
                tuples += 1
                assert forced <= (p1 | p2)
        assert tuples == macmahon_count(N, d)

    def test_rotation_examples(self):
        assert rotate_lambda(2, (0, 1)) == (0, 0)
        # image parity: time + space is even
        for p in ((0, 0), (1, 4), (3, 2)):
            t, s = rotate_lambda(3, p)
            assert (t + s) % 2 == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip(self, d):
        pts = [(i, j) for i in range(6) for j in range(6)]
        for p in pts:
            assert rotate_lambda_inverse(d, rotate_lambda(d, p)) == p

    def test_free_region_maps_to_packed_walk_endpoints(self):
        d, N = 3, 4
        starts = [(d - 1 - ell, ell) for ell in range(d)]
        ends = [(N + d - 1 - ell, N + ell) for ell in range(d)]
        assert sorted(rotate_lambda(d, p) for p in starts) == [(0, 0), (0, 2), (0, 4)]
        assert sorted(rotate_lambda(d, p) for p in ends) == [(2 * N, 0), (2 * N, 2), (2 * N, 4)]


class TestInverseGamma:
    def test_closed_moments(self):
        mean, var = inverse_gamma_moments(3.0)
        assert (mean, var) == (0.5, 0.25)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            inverse_gamma_moments(1.0)
        with pytest.raises(DomainError):
            inverse_gamma_moments(2.0)

    @pytest.mark.parametrize("call", [
        inverse_gamma_moments,
        lambda theta: inverse_gamma_sample(theta, SeedRecord(2, 0)),
    ], ids=["moments", "sample_seed_record"])
    def test_nan_theta_raises(self, call):
        with pytest.raises(DomainError):
            call(float("nan"))

    def test_mean_vanishes_at_large_theta(self):
        mean, _ = inverse_gamma_moments(1e6)
        assert mean < 2e-6

    def test_sampler_matches_moments(self):
        theta = 5.0
        draws = inverse_gamma_sample(theta, SeedRecord(2, 0), size=400_000)
        mean, var = inverse_gamma_moments(theta)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - mean) <= 4 * se


class TestRescaledRun:
    def test_variance_ratio_formula(self):
        # sqrt(N) Var/E^2 = sqrt(N) / (theta - 2) with theta = sqrt(N)/beta
        beta = 1.0
        for N in (16, 100):
            theta = math.sqrt(N) / beta
            mean, var = inverse_gamma_moments(theta)
            assert math.sqrt(N) * var / mean**2 == pytest.approx(
                math.sqrt(N) / (theta - 2)
            )

    def test_run_report(self):
        rep, draws = rescaled_tau_run(1.0, [16, 25], 40, SeedRecord(10, 0), d=2)
        assert [lv["N"] for lv in rep["levels"]] == [16, 25]
        for lv in rep["levels"]:
            assert lv["variance_ratio"] == pytest.approx(
                math.sqrt(lv["N"]) / (lv["theta"] - 2)
            )
            assert lv["std"] > 0
        assert [len(x) for x in draws] == [40, 40]
        assert len(rep["ks_between_consecutive_levels"]) == 1

    def test_theta_guard(self):
        with pytest.raises(DomainError):
            rescaled_tau_run(3.0, [16], 5, SeedRecord(0, 0), d=1)

    @pytest.mark.parametrize(
        "N_list, error", [([64, 401], BudgetExceeded), ([64, 4], DomainError)]
    )
    def test_bad_level_fails_before_any_draw(self, monkeypatch, N_list, error):
        calls = []
        monkeypatch.setattr(grsk, "log_tau_lgv_batch", lambda *a: calls.append(a) or 0.0)
        with pytest.raises(error):
            rescaled_tau_run(1.0, N_list, 30, SeedRecord(0, 0))
        assert calls == []

    def test_nan_beta_fails_before_any_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(grsk, "log_tau_lgv_batch", lambda *a: calls.append(a) or 0.0)
        with pytest.raises(DomainError, match="theta = nan"):
            rescaled_tau_run(math.nan, [16], 4, SeedRecord(0, 0))
        assert calls == []

    @pytest.mark.parametrize("cap", [1, 7 * 18 * 18])
    def test_chunked_levels_equal_one_draw(self, monkeypatch, cap):
        # one chunk per level by default here; a cap of one weight gives one
        # replica per chunk, 7 * 18^2 gives chunks of 7 (N = 16) and 3 (N = 25)
        # with a short last one
        whole, whole_draws = rescaled_tau_run(1.0, [16, 25], 40, SeedRecord(10, 0))
        monkeypatch.setattr(grsk, "_TAU_CHUNK_WEIGHTS", cap)
        chunked, chunked_draws = rescaled_tau_run(1.0, [16, 25], 40, SeedRecord(10, 0))
        for a, b in zip(whole_draws, chunked_draws):
            assert np.array_equal(a, b)
        assert chunked == whole

    def test_pinned_levels(self):
        # replay contract of the scaling run: figures of the per-cell loop DP
        # that preceded the wavefront; the two agree to ~1e-11 relative
        pinned = {
            16: (0.00381967238589074, 0.008148464882864415,
                 [9.476031375118904e-07, 2.8840086958282306e-05, 0.00018022416962682093,
                  0.0013495008474278796, 0.018764030327191105]),
            25: (0.004866906698802619, 0.009428730600746841,
                 [3.792744104520739e-06, 3.551791304283443e-05, 0.00024293271221197094,
                  0.0037920348294782046, 0.027108793678582606]),
        }
        rep, _ = rescaled_tau_run(1.0, [16, 25], 40, SeedRecord(10, 0))
        for lv in rep["levels"]:
            mean, std, quantiles = pinned[lv["N"]]
            assert lv["mean"] == pytest.approx(mean, rel=1e-9)
            assert lv["std"] == pytest.approx(std, rel=1e-9)
            assert list(lv["quantiles"].values()) == pytest.approx(quantiles, rel=1e-9)
        assert rep["ks_between_consecutive_levels"] == [0.1]

    def test_deterministic_weights_reduce_to_count(self):
        # constant weights: tau / c^{vertices} equals the tuple count
        d, N = 2, 2
        n = m = N + d
        c = 1.7
        tau = tau_lgv(np.full((n, m), c), d)
        assert tau / c ** (d * (2 * N + d)) == pytest.approx(
            macmahon_count(N, d), rel=1e-12
        )
