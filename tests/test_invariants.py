"""Cross-module invariants: bounds, symmetries, and stability diagnostics."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from watermelon.errors import DomainError
from watermelon.kernels import (
    ContinuumEndpoint,
    CorrelationQuery,
    SpaceTimePoint,
    continuum_psi_k,
    discrete_psi_prob,
    rescaled_psi_k,
)
from watermelon.rng import SeedRecord
from watermelon.walk_ensembles import (
    BridgeSpec,
    WeylConfig,
    km_weight,
    radon_nikodym,
    sample_bridges_lockstep,
)


class TestDensityRatioCeiling:
    @staticmethod
    def _reachable_pairs(spec, n):
        # both walkers inside the diamond from their start and end anchors
        lo1 = max(-n, spec.x_star - (spec.n_star - n))
        hi2 = min(2 + n, spec.x_star + 2 + (spec.n_star - n))
        for x1 in range(lo1, hi2 + 1):
            if (x1 + n) % 2 != 0 or abs(x1) > n or abs(x1 - spec.x_star) > spec.n_star - n:
                continue
            for x2 in range(x1 + 2, hi2 + 1, 2):
                if abs(x2 - 2) > n or abs(x2 - spec.x_star - 2) > spec.n_star - n:
                    continue
                yield (x1, x2)

    def test_finite_and_stable_over_scales(self):
        # the bridge-to-free-walk density ratio over the early two thirds of
        # the window stays bounded as the lattice grows; the constant itself
        # is only reported, never asserted as ground truth
        maxima = []
        for n_star in (6, 12, 18, 24):
            spec = BridgeSpec(2, n_star, 0)
            worst = Fraction(0)
            for n in range(0, (2 * n_star) // 3 + 1):
                for pos in self._reachable_pairs(spec, n):
                    worst = max(worst, radon_nikodym(spec, n, WeylConfig(pos)))
            maxima.append(float(worst))
        assert all(math.isfinite(v) for v in maxima)
        # stability: the running maxima do not blow up across scales
        assert max(maxima) <= 2.0 * min(maxima) + 1.0


class TestDeterminantBoundStructure:
    def test_time_gap_profile(self):
        # |det| <= C / prod sqrt(t_{i+1} - t_i): fit C once on a structured
        # grid that stresses near-coincident times (where the profile
        # saturates), then assert across random samples
        end = ContinuumEndpoint(1.0, 0.0)

        def scaled(ts, zs):
            pts = tuple(SpaceTimePoint(t, z) for t, z in zip(ts, zs))
            det = abs(continuum_psi_k(end, 2, CorrelationQuery(pts)))
            return det * float(np.prod(np.sqrt(np.diff(np.array(ts)))))

        t_mesh = [0.12, 0.121, 0.2, 0.35, 0.5, 0.65, 0.8, 0.88]
        z_mesh = [-2.0, -1.1, -0.4, 0.0, 0.3, 1.0, 1.9]
        c_fit = 0.0
        for i, t0 in enumerate(t_mesh):
            for t1 in t_mesh[i + 1 :]:
                for z0 in z_mesh:
                    for z1 in z_mesh:
                        c_fit = max(c_fit, scaled((t0, t1), (z0, z1)))
        for trip in ((0.12, 0.121, 0.5), (0.2, 0.5, 0.8), (0.35, 0.36, 0.88)):
            for z0 in z_mesh[::2]:
                for z1 in z_mesh[::2]:
                    c_fit = max(c_fit, scaled(trip, (z0, z1, -z0)))
        gen = np.random.default_rng(3)
        for _ in range(250):
            k = int(gen.integers(2, 4))
            ts = np.sort(gen.uniform(0.12, 0.88, size=k))
            if np.min(np.diff(ts)) < 1e-3:
                continue
            zs = gen.uniform(-2, 2, size=k)
            assert scaled(tuple(ts), tuple(zs)) <= 1.25 * c_fit


class TestPermutationSymmetry:
    def test_continuum(self):
        end = ContinuumEndpoint(1.0, 0.3)
        pts = (
            SpaceTimePoint(0.2, -0.5),
            SpaceTimePoint(0.5, 0.4),
            SpaceTimePoint(0.7, 0.1),
        )
        base = continuum_psi_k(end, 2, CorrelationQuery(pts))
        for perm in itertools.permutations(pts):
            assert continuum_psi_k(end, 2, CorrelationQuery(perm)) == pytest.approx(
                base, rel=1e-10
            )

    def test_rescaled(self):
        end = ContinuumEndpoint(1.0, 0.0)
        pts = (SpaceTimePoint(0.3, 0.05), SpaceTimePoint(0.6, -0.4))
        a = rescaled_psi_k(36, end, 2, CorrelationQuery(pts))
        b = rescaled_psi_k(36, end, 2, CorrelationQuery(pts[::-1]))
        assert a == pytest.approx(b, rel=1e-12)


class TestTimeReversalSymmetry:
    def test_overlap_window_distribution(self):
        # the overlap over [a, b] matches the overlap over the mirrored
        # window in distribution (two-sample KS at the 0.001 level)
        spec = BridgeSpec(2, 16, 0)
        reps = 4000
        p1 = sample_bridges_lockstep(spec, reps, SeedRecord(21, 0))
        p2 = sample_bridges_lockstep(spec, reps, SeedRecord(21, 1))
        q1 = sample_bridges_lockstep(spec, reps, SeedRecord(21, 2))
        q2 = sample_bridges_lockstep(spec, reps, SeedRecord(21, 3))

        def window_counts(a, b, pa, pb):
            out = np.zeros(reps, dtype=np.int64)
            for k in range(2):
                for l in range(2):
                    out += (pa[:, a : b + 1, k] == pb[:, a : b + 1, l]).sum(axis=1)
            return out

        fwd = window_counts(2, 6, p1, p2)
        rev = window_counts(16 - 6, 16 - 2, q1, q2)
        res = stats.ks_2samp(fwd, rev)
        assert res.pvalue > 0.001


class TestReflectionSymmetry:
    def test_centered_partition_reflection(self, monkeypatch):
        # reflecting the environment through x -> -x leaves the centered
        # partition function's law unchanged when the endpoint offset is zero
        import watermelon.chaos_polymer as cp

        end = ContinuumEndpoint(1.0, 0.0)
        args = dict(d=1, beta=0.6, N_list=[48], replicas=1000, inner_paths=32)
        _, (base,) = cp.intermediate_disorder_run(end, rng=SeedRecord(30, 0), **args)
        original = cp._site_values

        def reflected(from_words, prefixes, x):
            return original(from_words, prefixes, -x)

        monkeypatch.setattr(cp, "_site_values", reflected)
        _, (mirrored,) = cp.intermediate_disorder_run(end, rng=SeedRecord(30, 0), **args)
        # a patch the SMC does not call would compare a sample with itself
        assert not np.array_equal(base, mirrored)
        res = stats.ks_2samp(base, mirrored)
        assert res.pvalue > 0.001


_SPEC = BridgeSpec(2, 6, 0)
_MODE_CALLS = {
    "km_weight": lambda m: km_weight(2, _SPEC.start, _SPEC.start, m),
    "discrete_psi_prob": lambda m: discrete_psi_prob(_SPEC, [(3, 1)], m),
}


@pytest.mark.parametrize("mode", ["Exact", "exct", ""])
@pytest.mark.parametrize("call", _MODE_CALLS.values(), ids=_MODE_CALLS.keys())
def test_unknown_mode_raises(call, mode):
    # a misspelt mode used to fall through to the float path silently
    with pytest.raises(DomainError):
        call(mode)
