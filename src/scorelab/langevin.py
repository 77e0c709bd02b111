"""Unadjusted Langevin dynamics and the annealed variant over a decreasing
noise schedule.

The noisy targets are exact Gaussian-smoothed mixtures, the score at noise
level sigma being `score(smooth(target, sigma), x)`, so the sampler
isolates the behaviour of the annealing procedure itself from score
estimation error.  High noise first disperses particles across components
with the correct proportions; the decreasing levels then sharpen each
component locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixture import GaussianMixture1D, score, smooth
from .numerics import _samples


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise widths in annealing order (largest first), with per-level budget.

    `base_step` is the Langevin step at the final (smallest) level; earlier
    levels use base_step * (sigma_j / sigma_final)^2 so the step tracks the
    scale of the smoothed target.
    """

    sigmas: tuple[float, ...]
    steps_per_level: int
    base_step: float

    def __post_init__(self):
        sigmas = tuple(float(s) for s in self.sigmas)
        if not sigmas or not all(math.isfinite(s) and s > 0 for s in sigmas):
            raise ValueError(f"sigmas: noise levels must be positive and finite, got {sigmas}")
        if any(b >= a for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError("noise levels must be strictly decreasing")
        if self.steps_per_level < 1:
            raise ValueError("steps_per_level: must be >= 1")
        if not (math.isfinite(self.base_step) and self.base_step > 0):
            raise ValueError(f"base_step: must be positive and finite, got {self.base_step}")
        object.__setattr__(self, "sigmas", sigmas)
        try:
            finite = all(math.isfinite(self.step_at(level)) for level in range(len(sigmas)))
        except OverflowError:  # the float power in step_at raises on overflow
            finite = False
        if not finite:
            raise ValueError(
                f"base_step: every level step base_step * (sigma_j / sigma_final)^2 must be "
                f"finite, got base_step {self.base_step} and sigmas {sigmas[0]} to {sigmas[-1]}"
            )

    def step_at(self, level: int) -> float:
        return self.base_step * (self.sigmas[level] / self.sigmas[-1]) ** 2


def geometric_schedule(
    sigma_max: float = 8.0,
    sigma_min: float = 0.5,
    levels: int = 8,
    steps_per_level: int = 200,
    base_step: float = 0.01,
) -> NoiseSchedule:
    """Geometrically spaced noise levels from sigma_max down to sigma_min;
    one level is sigma_max alone.  Each width must have a finite square, as
    smoothing adds squared widths, and the levels must strictly decrease as
    doubles; either failure is a ValueError naming the keys."""
    for name, sigma in (("sigma_max", sigma_max), ("sigma_min", sigma_min)):
        if not (sigma > 0 and float(sigma) * float(sigma) < math.inf):
            raise ValueError(f"{name}: must be positive and finite, with a finite square, got {sigma}")
    if levels < 1:
        raise ValueError("levels: must be >= 1")
    sigmas = tuple(np.geomspace(sigma_max, sigma_min, levels))
    if sigma_min > sigma_max or any(b >= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError(
            "sigma_max, sigma_min: sigma_min must be below sigma_max, or equal to it for one "
            f"level, got {sigma_max} and {sigma_min} over {levels} levels, which must not round equal"
        )
    return NoiseSchedule(sigmas, steps_per_level, base_step)


def langevin_step(x, score_value, eps: float, rng: np.random.Generator):
    """One unadjusted update x + (eps/2) * score + sqrt(eps) * noise.

    Vectorized: x and score_value may be arrays of matching shape, in which
    case one noise draw per entry is consumed from the stream.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps: step size must be positive and finite, got {eps}")
    x = np.asarray(x, dtype=float)
    noise = rng.standard_normal(x.shape if x.ndim else None)
    return x + 0.5 * eps * np.asarray(score_value, dtype=float) + np.sqrt(eps) * noise


def annealed_langevin_run(
    init: np.ndarray,
    target: GaussianMixture1D,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    observer=None,
) -> np.ndarray:
    """Langevin sampling through the noise levels, largest to smallest, from
    the positions `init`, which the run leaves unchanged.

    At level j the particles follow the score of the sigma_j-smoothed target
    for `steps_per_level` steps with the schedule's level step.
    `observer(level, sigma, step, positions)` is called after every step
    when provided.  Returns the final positions.
    """
    x = _samples(init, "init")
    for level, sigma_j in enumerate(sched.sigmas):
        noisy = smooth(target, sigma_j)
        eps = sched.step_at(level)
        for step in range(sched.steps_per_level):
            x = langevin_step(x, score(noisy, x), eps, rng)
            if not np.isfinite(x).all():
                bad = int(np.flatnonzero(~np.isfinite(x))[0])
                raise FloatingPointError(f"non-finite particle {bad} at level {level}, step {step}")
            if observer is not None:
                observer(level, sigma_j, step, x)
    return x
