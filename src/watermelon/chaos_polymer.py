"""Multi-path polymer partition functions and their chaos expansions.

The partition function averages exponential weights of a disordered
environment over the non-intersecting bridge measure.  Its exact multilinear
expansion in centered disorder variables has the bridge k-point functions as
coefficients; that identity is this module's central theorem-level test.
The exact average is a Lindstroem-Gessel-Viennot determinant whose
single-walk sums come from `grsk.path_sums` on the 45-degree rotated grid.
The intermediate-disorder pipeline weakens the noise like N^{-1/4} while
scaling space-time diffusively and tracks the centered partition function
across N.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .grsk import path_sums, rotate_lambda_inverse
from .kernels import ContinuumEndpoint, DiscreteKernelTable, LatticeRounding
from .rng import SeedRecord, hash_mix, word_uniform
from .walk_ensembles import BridgeSpec, BridgeStepper, int_det
# unused here; bound so that perfbench/spans.py can patch them on this module
from .walk_ensembles import enumerate_trajectories, sample_bridges_lockstep  # noqa: F401


# Each law maps hash words to site values: word j of a site is
# hash_mix(key + j, *coords), with key + j an int64 array so that it wraps
# like the array add.  The log moment generating functions give the matching
# cumulant.


def _rademacher(h):
    return (h & np.uint64(1)).astype(np.float64) * 2.0 - 1.0


def _gaussian(h1, h2):
    u1, u2 = word_uniform(h1), word_uniform(h2)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _shifted_exponential(h):
    # Exp(1) - 1
    return -np.log(word_uniform(h)) - 1.0


def _shifted_exponential_lmgf(b: float) -> float:
    if b >= 1.0:
        raise DomainError("exponential moment diverges at beta >= 1")
    return -b - math.log1p(-b)


# name -> (hash words per site, site values from the words, cumulant)
_DISTRIBUTIONS: dict[str, tuple[int, Callable, Callable[[float], float]]] = {
    "rademacher": (1, _rademacher, lambda b: float(np.log(np.cosh(b)))),
    "gaussian": (2, _gaussian, lambda b: 0.5 * b * b),
    "shifted_exponential": (1, _shifted_exponential, _shifted_exponential_lmgf),
}
DISTRIBUTIONS = tuple(_DISTRIBUTIONS)


def _distribution(name: str) -> tuple[int, Callable, Callable[[float], float]]:
    if name not in _DISTRIBUTIONS:
        raise DomainError(f"unknown distribution {name!r}")
    return _DISTRIBUTIONS[name]


def _prefixes(words: int, key: np.ndarray, *coords: np.ndarray) -> list[np.ndarray]:
    """Hash state of each word after (key + j, *coords), j < words."""
    return [hash_mix(key + j, *coords) for j in range(words)]


def _site_values(from_words: Callable, prefixes: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Site values at positions x, each word's hash continued from its prefix."""
    return from_words(*(hash_mix(x, h=h) for h in prefixes))


class TableField:
    """Hand-specified field over explicit sites; missing sites read `default`."""

    def __init__(self, table: Mapping[tuple[int, int], float], default: float = 0.0):
        self.table = dict(table)
        self.default = default

    def value(self, n: int, x: int):
        return self.table.get((n, x), self.default)


def cumulant(name: str) -> Callable[[float], float]:
    """Log moment generating function of a single disorder variable."""
    return _distribution(name)[2]


def zeta_variance_ratio(beta: float, N: int, cumulant: Callable[[float], float]) -> float:
    """Variance-to-cell-volume ratio of the centered exponential field.

    Exactly 2 sqrt(N) (exp(L(2 b_N) - 2 L(b_N)) - 1) with b_N = N^{-1/4} beta;
    tends to 2 beta^2.
    """
    beta_n = beta * N ** -0.25
    return 2.0 * math.sqrt(N) * math.expm1(cumulant(2.0 * beta_n) - 2.0 * cumulant(beta_n))


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


def _exact_value(site: tuple[int, int], v) -> Fraction:
    """The field value v at `site` as an exact rational; NaN and infinities raise."""
    if isinstance(v, float) and not math.isfinite(v):
        raise DomainError(f"field value {v} at site {site} is not finite")
    return Fraction(v)


def partition_product_exact(spec: BridgeSpec, field):
    """E[prod over visited sites of the field value] under the bridge measure.

    Walkers step by +-1 and keep even gaps, so two of them can only swap
    order by meeting at a site.  By the Lindstroem-Gessel-Viennot lemma the
    sum over non-intersecting trajectories is then the determinant of the
    single-walk sums of the field values, and their count the same
    determinant over unit weights.  :func:`grsk.rotate_lambda_inverse` maps
    the sites onto the cells of a (U+d) x (D+d) grid on which walker r's walk
    is an up-right path from (r, d-1-r) to (U+r, D+d-1-r), U = (n* + x*)/2 and
    D = (n* - x*)/2; one exact :func:`grsk.path_sums` gives both matrices.
    Floats enter as the exact binary fractions they are: the mean is a
    Fraction when every field value is an int or a Fraction, else the exact
    mean rounded once to a float.  A NaN or infinite field value raises
    DomainError; the count is never 0, since every spec has a trajectory.
    """
    d, n_star, x_star = spec.d, spec.n_star, spec.x_star
    values = {s: field.value(*s) for s in reachable_sites(spec)}
    exact = {s: _exact_value(s, v) for s, v in values.items()}
    # every walk visits n* - 1 interior sites, so the values times the lcm q
    # of their denominators are ints that scale each walk sum by q^(n*-1)
    q = math.lcm(*(v.denominator for v in exact.values()))
    # layer 0 counts walks, layer 1 weighs them; start and end cells weigh 1
    w = np.ones((2, (n_star + x_star) // 2 + d, (n_star - x_star) // 2 + d), dtype=object)
    for s, v in exact.items():
        w[(1, *rotate_lambda_inverse(d, s))] = v.numerator * (q // v.denominator)
    starts = [rotate_lambda_inverse(d, (0, a)) for a in spec.start.positions]
    ends = [rotate_lambda_inverse(d, (n_star, b)) for b in spec.end.positions]
    sums = path_sums(w, starts, ends, 0, np.add, np.multiply)
    count, total = int_det(sums[0].tolist()), int_det(sums[1].tolist())
    mean = Fraction(total, count * q ** (d * (n_star - 1)))
    if all(isinstance(v, (int, Fraction)) for v in values.values()):
        return mean
    return float(mean)


def chaos_expansion_exact(spec: BridgeSpec, field) -> Fraction:
    """Multilinear chaos sum with kernel-determinant coefficients, exactly.

    Sums det[K(s_i; s_j)] * prod (field(s) - 1) over all finite subsets of
    the live sites (reachable interior sites whose centered factor is
    nonzero).  That principal-minor expansion is the Fredholm determinant
    det(I + K F) with K the kernel matrix over the live sites and F the
    diagonal of centered factors; subsets with more than d sites at one time
    are impossible configurations, so their minors vanish.  Must reproduce
    the direct enumeration average of multiplicative weights.  Float field
    values enter as the exact binary fractions they are; a NaN or infinite
    one raises DomainError.
    """
    values = {s: field.value(*s) for s in reachable_sites(spec)}
    live = [s for s, v in values.items() if v != 1]
    table = DiscreteKernelTable(spec, exact=True)
    f = [_exact_value(s, values[s]) - 1 for s in live]
    # det K = det A / prod s_i with s_i = dv_i du_i (DiscreteKernelTable.numerators);
    # with f_j = p_j / q_j, scaling row i of I + K F by dv_i and column j by
    # du_j q_j (after the gauge cancels) gives diag(s_i q_i) + A diag(p_j)
    mat, dv, du = table.numerators(live, live)
    scales = [v * u * fi.denominator for v, u, fi in zip(dv, du, f)]
    for i, row in enumerate(mat):
        for j, fj in enumerate(f):
            row[j] *= fj.numerator
        row[i] += scales[i]
    return Fraction(int_det(mat), math.prod(scales))


# --- intermediate disorder pipeline ------------------------------------------


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


def _site_sums(vals: np.ndarray) -> np.ndarray:
    """``vals.sum(axis=1)`` of a (P, d) array, bit for bit.

    numpy adds a row shorter than 8 in order, so for d < 8 the same sum is
    column adds in walker order, which avoid its slow short-axis reduction.
    """
    if vals.shape[1] >= 8:
        return vals.sum(axis=1)
    out = vals[:, 0].copy()
    for i in range(1, vals.shape[1]):
        out += vals[:, i]
    return out


def _systematic_picks(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row r, the number of entries of cum[r] at or below each u[r, j].

    Rows of `cum` are nondecreasing, so the count is a right-sided search,
    one per row: shifting the rows apart into one flat search would round
    the floats and could flip a tie.
    """
    pick = np.empty(u.shape, dtype=np.intp)
    for r in range(len(cum)):
        pick[r] = np.searchsorted(cum[r], u[r], side="right")
    return pick


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
    `replicas`, `particles` or `block` below 1 raises DomainError before any
    draw.
    """
    for name, v in (("replicas", replicas), ("particles", particles), ("block", block)):
        if v < 1:
            raise DomainError(f"need {name} >= 1, got {v}")
    stepper = BridgeStepper(spec)
    gen = rng.generator()
    d, n_star = spec.d, spec.n_star
    fs = field_stream if field_stream is not None else rng
    field_key = np.array(fs.seed ^ (982451653 * fs.stream), dtype=np.int64)
    words, from_words, _ = _distribution(distribution)
    # hash state after (key + j, replica, n), shape (n_star + 1, R, 1, 1)
    prefixes = _prefixes(
        words, field_key,
        np.arange(replicas, dtype=np.int64)[:, None, None],
        np.arange(n_star + 1, dtype=np.int64)[:, None, None, None],
    )
    paths = np.tile(np.array(spec.start.positions), (replicas * particles, 1))
    log_z = np.zeros(replicas)
    logw = np.zeros(replicas * particles)
    for n in range(1, n_star + 1):
        paths = stepper.step(paths, n - 1, gen)
        if n <= n_star - 1:
            # rows r * particles .. (r + 1) * particles - 1 belong to replica r
            vals = _site_values(
                from_words, [h[n] for h in prefixes], paths.reshape(replicas, particles, d)
            )
            logw += beta_n * _site_sums(vals.reshape(-1, d))
        if n % block == 0 or n == n_star:
            lw = logw.reshape(replicas, particles)
            mx = lw.max(axis=1)
            wn = np.exp(lw - mx[:, None])
            log_z += mx + np.log(wn.mean(axis=1))
            # systematic resampling within each replica
            cum = np.cumsum(wn, axis=1)
            cum /= cum[:, -1:]
            u = (gen.random((replicas, 1)) + np.arange(particles)) / particles
            pick = _systematic_picks(cum, u)
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
) -> tuple[dict, list[np.ndarray]]:
    """Centered partition function statistics across lattice scales.

    Each disorder replica carries a fresh environment; the quenched partition
    function is estimated by :func:`smc_partition_estimates` with
    `inner_paths` particles.  Two centerings are reported: interior-site
    (d(n_star - 1) sites, exactly mean-one for the unbiased estimator) and
    the asymptotic one (d * n_star sites).  Returns the JSON report, one
    entry of its "levels" per N, and per N the array of interior-centered
    draws.  An empty N_list, fewer than two replicas, fewer than one inner
    path or a non-finite beta raises DomainError, and an N whose bridge is
    empty raises EmptyBridge, each before any level is sampled.
    """
    if not N_list:
        raise DomainError("N_list is empty")
    if replicas < 2:  # no standard error from one replica
        raise DomainError(f"need at least 2 replicas, got {replicas}")
    if inner_paths < 1:
        raise DomainError(f"need at least 1 inner path, got {inner_paths}")
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    lmgf = cumulant(distribution)
    # every level's spec is built before any is sampled
    specs = [LatticeRounding.of(N, end).bridge_spec(d) for N in N_list]
    levels, draws_interior = [], []
    for li, (N, spec) in enumerate(zip(N_list, specs)):
        beta_n = beta * N ** -0.25
        lam = lmgf(beta_n)
        stream = rng.child(1000 + li)
        draws = smc_partition_estimates(
            spec, beta_n, replicas, inner_paths, stream, distribution
        )
        centered_interior = draws * math.exp(-d * (spec.n_star - 1) * lam)
        centered_theorem = draws * math.exp(-d * spec.n_star * lam)
        levels.append({
            "N": N,
            "n_star": spec.n_star,
            "x_star": spec.x_star,
            "beta_N": beta_n,
            "centered_mean_interior_sites": float(centered_interior.mean()),
            "centered_se_interior_sites":
                float(centered_interior.std(ddof=1) / math.sqrt(replicas)),
            "centered_var_interior_sites": float(centered_interior.var(ddof=1)),
            "centered_mean_theorem": float(centered_theorem.mean()),
            "centered_se_theorem": float(centered_theorem.std(ddof=1) / math.sqrt(replicas)),
            "sigma_ratio": zeta_variance_ratio(beta, N, lmgf),
            "sigma_ratio_limit": 2.0 * beta * beta,
            "histogram": freedman_diaconis(centered_interior),
        })
        draws_interior.append(centered_interior)
    report = {
        "d": d,
        "beta": beta,
        "t_star": end.t_star,
        "z_star": end.z_star,
        "distribution": distribution,
        "replicas": replicas,
        "inner_paths": inner_paths,
        "seed": rng.as_dict(),
        "levels": levels,
    }
    return report, draws_interior
