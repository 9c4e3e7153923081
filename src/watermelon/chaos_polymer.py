"""Multi-path polymer partition functions and their chaos expansions.

The partition function averages exponential weights of a disordered
environment over the non-intersecting bridge measure.  Its exact multilinear
expansion in centered disorder variables has the bridge k-point functions as
coefficients; that identity is this module's central theorem-level test.
The intermediate-disorder pipeline weakens the noise like N^{-1/4} while
scaling space-time diffusively and tracks the centered partition function
across N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BudgetExceeded, DomainError
from .kernels import ContinuumEndpoint, DiscreteKernelTable, LatticeRounding
from .rng import SeedRecord, hash_mix, hash_uniform
from .walk_ensembles import BridgeSpec, PathEnsembleSample, chamber_path_sums, exact_det
# unused here; bound so that perfbench/spans.py can patch them on this module
from .walk_ensembles import enumerate_trajectories, sample_bridges_lockstep  # noqa: F401


# Site values take (seed array, *coordinates) and hash them statelessly; the
# log moment generating functions give the matching cumulant.


def _rademacher(seed, *coords):
    h = hash_mix(seed, *coords)
    return np.where((h & np.uint64(1)).astype(bool), 1.0, -1.0)


def _gaussian(seed, *coords):
    u1 = hash_uniform(seed, *coords)
    u2 = hash_uniform(seed + 1, *coords)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _shifted_exponential(seed, *coords):
    # Exp(1) - 1
    return -np.log(hash_uniform(seed, *coords)) - 1.0


def _shifted_exponential_lmgf(b: float) -> float:
    if b >= 1.0:
        raise DomainError("exponential moment diverges at beta >= 1")
    return -b - math.log1p(-b)


_DISTRIBUTIONS: dict[str, tuple[Callable, Callable[[float], float]]] = {
    "rademacher": (_rademacher, lambda b: float(np.log(np.cosh(b)))),
    "gaussian": (_gaussian, lambda b: 0.5 * b * b),
    "shifted_exponential": (_shifted_exponential, _shifted_exponential_lmgf),
}
DISTRIBUTIONS = tuple(_DISTRIBUTIONS)


def _distribution(name: str) -> tuple[Callable, Callable[[float], float]]:
    if name not in _DISTRIBUTIONS:
        raise DomainError(f"unknown distribution {name!r}")
    return _DISTRIBUTIONS[name]


@dataclass(frozen=True)
class DisorderField:
    """Lazy iid field of mean-zero unit-variance site variables.

    A site's value is a pure function of (seed, n, x) via stateless hashing,
    so reads are order-independent and repeated reads agree by construction.
    """

    distribution: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        _distribution(self.distribution)

    def values(self, n: np.ndarray, x: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        x = np.asarray(x, dtype=np.int64)
        seed = np.full(n.shape, self.seed, dtype=np.int64)
        return _DISTRIBUTIONS[self.distribution][0](seed, n, x)

    def value(self, n: int, x: int) -> float:
        return float(self.values(np.array([n]), np.array([x]))[0])


class TableField:
    """Hand-specified field over explicit sites; missing sites read `default`."""

    def __init__(self, table: Mapping[tuple[int, int], float], default: float = 0.0):
        self.table = dict(table)
        self.default = default

    def value(self, n: int, x: int):
        return self.table.get((n, x), self.default)

    def values(self, n: np.ndarray, x: np.ndarray) -> np.ndarray:
        return np.array(
            [self.value(int(a), int(b)) for a, b in zip(np.ravel(n), np.ravel(x))]
        ).reshape(np.shape(n))


@dataclass(frozen=True)
class CumulantSpec:
    """Log moment generating function of a single disorder variable."""

    lambda_fn: Callable[[float], float]

    def __call__(self, beta: float) -> float:
        return self.lambda_fn(beta)

    @classmethod
    def for_distribution(cls, name: str) -> "CumulantSpec":
        return cls(_distribution(name)[1])


def zeta_variance_ratio(beta: float, N: int, cumulant: CumulantSpec) -> float:
    """Variance-to-cell-volume ratio of the centered exponential field.

    Exactly 2 sqrt(N) (exp(L(2 b_N) - 2 L(b_N)) - 1) with b_N = N^{-1/4} beta;
    tends to 2 beta^2.
    """
    beta_n = beta * N ** -0.25
    return 2.0 * math.sqrt(N) * math.expm1(cumulant(2.0 * beta_n) - 2.0 * cumulant(beta_n))


def zeta_values(field: DisorderField, N: int, beta_n: float, cumulant: CumulantSpec,
                n: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Centered multiplicative disorder variables on lattice sites."""
    lam = cumulant(beta_n)
    w = field.values(n, x)
    return (2.0 / math.sqrt(N)) * (np.exp(beta_n * w - lam) - 1.0)


def energy(sample: PathEnsembleSample, field) -> float:
    """Total field value collected along all walkers at interior times."""
    traj = sample.trajectory
    n_star = sample.spec.n_star
    ns = np.repeat(np.arange(1, n_star), sample.spec.d)
    xs = traj[1:n_star].reshape(-1)
    return float(np.sum(field.values(ns, xs)))


def reachable_sites(spec: BridgeSpec) -> list[tuple[int, int]]:
    """Interior lattice sites any walker can occupy, grouped by time order."""
    d, n_star, x_star = spec.d, spec.n_star, spec.x_star
    sites = []
    for n in range(1, n_star):
        for w in range(d):
            lo = max(-n, x_star - (n_star - n)) + 2 * w
            hi = min(n, x_star + (n_star - n)) + 2 * w
            for x in range(lo, hi + 1, 2):
                sites.append((n, x))
    return sorted(set(sites))


def _site_values(spec: BridgeSpec, field) -> dict[tuple[int, int], object]:
    """The field at every reachable interior site, read once."""
    sites = reachable_sites(spec)
    if isinstance(field, DisorderField):
        ns, xs = np.array(sites, dtype=np.int64).reshape(-1, 2).T
        return dict(zip(sites, field.values(ns, xs).tolist()))
    return {s: field.value(*s) for s in sites}


def _bridge_average(spec: BridgeSpec, site_weight: Callable):
    """Mean over all bridge trajectories of the product of site weights over
    every walker at every interior time: a transfer sum over the chamber
    divided by the path count.  Exact (a Fraction) when the weights are."""
    end = spec.end.positions
    total = chamber_path_sums(spec.start, spec.n_star, spec.end, site_weight)[-1][end]
    count = chamber_path_sums(spec.start, spec.n_star, spec.end)[-1][end]
    if isinstance(total, (int, Fraction)):
        return Fraction(total, count)
    return float(total) / count


def partition_exact(spec: BridgeSpec, field, beta: float) -> float:
    """Average of exp(beta * energy) over every bridge trajectory."""
    boltzmann = {s: math.exp(beta * v) for s, v in _site_values(spec, field).items()}
    return float(_bridge_average(spec, lambda n, x: boltzmann[n, x]))


def partition_product_exact(spec: BridgeSpec, field):
    """E[prod over visited sites of the field value] under the bridge measure.

    A Fraction when every field value is an int or a Fraction, else a float.
    """
    values = _site_values(spec, field)
    return _bridge_average(spec, lambda n, x: values[n, x])


def chaos_expansion_exact(spec: BridgeSpec, field, site_budget: int = 20) -> Fraction:
    """Multilinear chaos sum with kernel-determinant coefficients, exactly.

    Sums det[K(s_i; s_j)] * prod (field(s) - 1) over all finite subsets of
    the live sites (reachable interior sites whose centered factor is
    nonzero).  That principal-minor expansion is the Fredholm determinant
    det(I + K F) with K the kernel matrix over the live sites and F the
    diagonal of centered factors; subsets with more than d sites at one time
    are impossible configurations, so their minors vanish.  Must reproduce
    the direct enumeration average of multiplicative weights.  Float field
    values enter as the exact binary fractions they are.
    """
    values = _site_values(spec, field)
    live = [s for s, v in values.items() if v != 1]
    if len(live) > site_budget:
        raise BudgetExceeded(
            f"{len(live)} contributing sites exceed budget {site_budget}"
        )
    table = DiscreteKernelTable(spec, exact=True)
    f = [Fraction(values[s]) - 1 for s in live]
    # I + K F: column j of the kernel matrix scaled by f_j, one entry per pair
    mat = [
        [table.entry(a, b) * f[j] + int(i == j) for j, b in enumerate(live)]
        for i, a in enumerate(live)
    ]
    return exact_det(mat)


# --- intermediate disorder pipeline ------------------------------------------


@dataclass
class PolymerLevel:
    """Summary of the centered partition function at one lattice scale."""

    N: int
    n_star: int
    x_star: int
    beta_n: float
    mean_interior: float
    se_interior: float
    var_interior: float
    mean_theorem: float
    se_theorem: float
    sigma_ratio: float
    sigma_ratio_limit: float
    histogram: dict
    draws_interior: np.ndarray


@dataclass
class PolymerReport:
    d: int
    beta: float
    end: ContinuumEndpoint
    distribution: str
    replicas: int
    inner_paths: int
    seed: SeedRecord
    levels: list[PolymerLevel]

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "beta": self.beta,
            "t_star": self.end.t_star,
            "z_star": self.end.z_star,
            "distribution": self.distribution,
            "replicas": self.replicas,
            "inner_paths": self.inner_paths,
            "seed": self.seed.as_dict(),
            "levels": [
                {
                    "N": lv.N,
                    "n_star": lv.n_star,
                    "x_star": lv.x_star,
                    "beta_N": lv.beta_n,
                    "centered_mean_interior_sites": lv.mean_interior,
                    "centered_se_interior_sites": lv.se_interior,
                    "centered_var_interior_sites": lv.var_interior,
                    "centered_mean_theorem": lv.mean_theorem,
                    "centered_se_theorem": lv.se_theorem,
                    "sigma_ratio": lv.sigma_ratio,
                    "sigma_ratio_limit": lv.sigma_ratio_limit,
                    "histogram": lv.histogram,
                }
                for lv in self.levels
            ],
        }


def freedman_diaconis(draws: np.ndarray) -> dict:
    q75, q25 = np.percentile(draws, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        edges = np.linspace(draws.min() - 0.5, draws.max() + 0.5, 2)
    else:
        width = 2.0 * iqr / len(draws) ** (1.0 / 3.0)
        nbins = max(1, int(math.ceil((draws.max() - draws.min()) / width)))
        edges = np.linspace(draws.min(), draws.max(), nbins + 1)
    counts, edges = np.histogram(draws, bins=edges)
    return {"edges": edges.tolist(), "counts": counts.tolist()}


def _field_values_batch(
    distribution: str, key: int, rep: np.ndarray, n: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Per-replica iid site values, stateless in (key, replica, n, x)."""
    key_arr = np.full(np.shape(rep), key, dtype=np.int64)
    return _distribution(distribution)[0](key_arr, rep, n, x)


def smc_partition_estimates(
    spec: BridgeSpec,
    beta_n: float,
    replicas: int,
    particles: int,
    rng: SeedRecord,
    distribution: str = "rademacher",
    block: int = 32,
    field_stream: SeedRecord | None = None,
) -> np.ndarray:
    """Unbiased partition-function estimates, one per disorder replica.

    Sequential Monte Carlo over the bridge measure: particles advance through
    the exact one-step bridge law; within a block of `block` steps each
    particle accumulates the exponential weight of its replica's disorder
    field, and at block ends the estimate absorbs the block's mean weight
    before systematic resampling.  The product-of-block-means estimator is
    unbiased for the quenched partition function for every fixed field; the
    naive single-path average is unbiased too but its lognormal tails make it
    useless beyond small lattices.

    Disorder values are a pure hash of (seed, replica, time, site), so a
    replica's field is consistent across particles and across reads.
    """
    from .walk_ensembles import BridgeStepper

    stepper = BridgeStepper(spec)
    gen = rng.generator()
    d, n_star = spec.d, spec.n_star
    fs = field_stream if field_stream is not None else rng
    field_key = fs.seed ^ (982451653 * fs.stream)
    rep_ids = np.repeat(np.arange(replicas, dtype=np.int64), particles)
    rep_col = rep_ids[:, None]
    paths = np.tile(np.array(spec.start.positions), (replicas * particles, 1))
    log_z = np.zeros(replicas)
    logw = np.zeros(replicas * particles)
    for n in range(1, n_star + 1):
        paths = stepper.step(paths, n - 1, gen)
        if n <= n_star - 1:
            vals = _field_values_batch(
                distribution, field_key, rep_col, np.int64(n), paths
            )
            logw += beta_n * vals.sum(axis=1)
        if n % block == 0 or n == n_star:
            lw = logw.reshape(replicas, particles)
            mx = lw.max(axis=1)
            wn = np.exp(lw - mx[:, None])
            log_z += mx + np.log(wn.mean(axis=1))
            # systematic resampling within each replica
            cum = np.cumsum(wn, axis=1)
            cum /= cum[:, -1:]
            u = (gen.random((replicas, 1)) + np.arange(particles)) / particles
            pick = (cum[:, None, :] <= u[:, :, None]).sum(axis=2)
            src = (np.arange(replicas)[:, None] * particles + pick).reshape(-1)
            paths = paths[src]
            logw = np.zeros(replicas * particles)
    return np.exp(log_z)


def intermediate_disorder_run(
    end: ContinuumEndpoint,
    d: int,
    beta: float,
    N_list: Sequence[int],
    replicas: int,
    rng: SeedRecord,
    distribution: str = "rademacher",
    inner_paths: int = 64,
) -> PolymerReport:
    """Centered partition function statistics across lattice scales.

    Each disorder replica carries a fresh environment; the quenched partition
    function is estimated by :func:`smc_partition_estimates` with
    `inner_paths` particles.  Two centerings are reported: interior-site
    (d(n_star - 1) sites, exactly mean-one for the unbiased estimator) and
    the asymptotic one (d * n_star sites).  An empty N_list or fewer than
    two replicas raises DomainError.
    """
    if not N_list:
        raise DomainError("N_list is empty")
    if replicas < 2:  # no standard error from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    cumulant = CumulantSpec.for_distribution(distribution)
    levels = []
    for li, N in enumerate(N_list):
        rounding = LatticeRounding.of(N, end)
        spec = rounding.bridge_spec(d)
        beta_n = beta * N ** -0.25
        lam = cumulant(beta_n)
        stream = rng.child(1000 + li)
        draws = smc_partition_estimates(
            spec, beta_n, replicas, inner_paths, stream, distribution
        )
        centered_interior = draws * math.exp(-d * (spec.n_star - 1) * lam)
        centered_theorem = draws * math.exp(-d * spec.n_star * lam)
        levels.append(
            PolymerLevel(
                N=N,
                n_star=spec.n_star,
                x_star=spec.x_star,
                beta_n=beta_n,
                mean_interior=float(centered_interior.mean()),
                se_interior=float(centered_interior.std(ddof=1) / math.sqrt(replicas)),
                var_interior=float(centered_interior.var(ddof=1)),
                mean_theorem=float(centered_theorem.mean()),
                se_theorem=float(centered_theorem.std(ddof=1) / math.sqrt(replicas)),
                sigma_ratio=zeta_variance_ratio(beta, N, cumulant),
                sigma_ratio_limit=2.0 * beta * beta,
                histogram=freedman_diaconis(centered_interior),
                draws_interior=centered_interior,
            )
        )
    return PolymerReport(
        d=d,
        beta=beta,
        end=end,
        distribution=distribution,
        replicas=replicas,
        inner_paths=inner_paths,
        seed=rng,
        levels=levels,
    )
