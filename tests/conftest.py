import numpy as np

from scorelab import GaussianMixture1D, annealed_langevin_run

# bounded generator: component scores stay mild enough that central
# differences of the log density are accurate to ~1e-7 everywhere
MEAN_RANGE = (-2.5, 2.5)
STD_RANGE = (0.7, 1.6)


def random_mixture(rs: np.random.Generator, max_components: int = 4) -> GaussianMixture1D:
    k = int(rs.integers(1, max_components + 1))
    raw = rs.uniform(0.2, 1.0, k)
    weights = raw / raw.sum()
    means = np.sort(rs.uniform(*MEAN_RANGE, k))
    stds = rs.uniform(*STD_RANGE, k)
    return GaussianMixture1D(weights, means, stds)


def random_mixture_pairs(seed: int, count: int):
    rs = np.random.default_rng(seed)
    return [(random_mixture(rs), random_mixture(rs)) for _ in range(count)]


def annealed_from_wide_start(n: int, target, sched, rng, **kwargs):
    """`annealed_langevin_run` from n draws of N(target mean, sigma_max^2)
    taken from `rng`, which the run then continues, as `lab langevin-run`
    starts."""
    init = target.mean() + sched.sigmas[0] * rng.standard_normal(n)
    return annealed_langevin_run(init, target, sched, rng, **kwargs)
