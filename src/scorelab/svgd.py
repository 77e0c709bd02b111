"""Stein variational gradient descent for a particle ensemble.

Updates are synchronous: all directions are computed from the current
ensemble, then applied at once with a fixed step size.  Each step sorts the
particles once, sums the kernel terms over the sorted positions in the fixed
tiles of the KSD pair sums, in a tile workspace that a run allocates once,
and scatters the sums back to the particles.  This canonical order makes the
update bit-exactly equivariant under particle permutation.  Particles at
equal positions get equal sums: the members of a run of equal sorted
positions can be summed in different orders (as when the run straddles a
tile edge), so each takes the sums of the run's first member.  A step
without ties skips that remap.

At N = 200 the ensemble is one tile, and building it (`stein._gauss_tile`)
is about half of a step, the score included; at bandwidths where 2 h^2 is
not a power of two the tile's kernel values can move in the last bits (see
there).  A run checks after each step that every position is finite and
looks for the first bad particle only when one is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mixture import GaussianMixture1D, score, temper_score
from .stein import KernelSpec, _gauss_tile, _tile_work, _upper_tiles


@dataclass
class ParticleEnsemble:
    """Particle positions plus the number of update steps already taken."""

    positions: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 1 or self.positions.size == 0:
            raise ValueError("positions must be a nonempty 1-D array")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    @property
    def size(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class SvgdConfig:
    """Run parameters.

    With `beta_schedule` set, the run is split into equal blocks, block l
    using the tempered score beta_l * score; the schedule must be
    non-decreasing and finish at 1 so the final block targets the true
    density.  `rescale_step` divides the step by the active beta to undo the
    shrinkage of tempered update vectors (experimental annealed mode).
    `snapshot_every` records positions every so many iterations.
    """

    kernel: KernelSpec = field(default_factory=KernelSpec)
    step_size: float = 0.1
    iterations: int = 1000
    beta_schedule: tuple[float, ...] | None = None
    rescale_step: bool = False
    snapshot_every: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size: must be positive and finite, got {self.step_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations: must be >= 1, got {self.iterations}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every: must be >= 1 when given")
        if self.beta_schedule is not None:
            betas = tuple(float(b) for b in self.beta_schedule)
            if any(not 0.0 < b <= 1.0 for b in betas):
                raise ValueError("beta schedule entries must lie in (0, 1]")
            if any(b > a for a, b in zip(betas[1:], betas)):
                raise ValueError("beta schedule must be non-decreasing")
            if betas[-1] != 1.0:
                raise ValueError("beta schedule must end at 1")
            object.__setattr__(self, "beta_schedule", betas)


def _direction_from_scores(
    x: np.ndarray, s: np.ndarray, kernel: KernelSpec, work: np.ndarray
) -> np.ndarray:
    h2 = kernel.bandwidth**2
    n = x.size
    order = np.argsort(x, kind="stable")
    xs, ss = x[order], s[order]
    phi = np.zeros(n)
    for a, b, c, e in _upper_tiles(n):
        d, _, k = _gauss_tile(xs[a:b], xs[c:e], h2, work)
        # phi_i sums s_j k + dk/dy over j, with dk/dy = k d / h2
        phi[a:b] += np.einsum("ij,j->i", k, ss[c:e]) + np.einsum("ij,ij->i", k, d) / h2
        if c != a:
            phi[c:e] += np.einsum("ij,i->j", k, ss[a:b]) - np.einsum("ij,ij->j", k, d) / h2
    # equal positions on both sides of a tile edge are summed in different
    # orders; each run of equal positions takes the sums of its first member
    tied = xs[1:] == xs[:-1]
    if tied.any():
        first = np.maximum.accumulate(np.where(np.r_[True, ~tied], np.arange(n), 0))
        phi = phi[first]
    out = np.empty_like(phi)
    out[order] = phi / n
    return out


def svgd_direction(
    ensemble: ParticleEnsemble, target: GaussianMixture1D, kernel: KernelSpec
) -> np.ndarray:
    """Optimal update direction at every particle.

    For particle x': phi(x') = mean_n [ score(x_n) k(x', x_n) + d/dx_n k(x', x_n) ],
    the kernel-smoothed score plus the repulsion term.
    """
    x = ensemble.positions
    return _direction_from_scores(x, score(target, x), kernel, _tile_work(x.size))


def svgd_run(
    init: ParticleEnsemble,
    target: GaussianMixture1D,
    cfg: SvgdConfig,
) -> tuple[ParticleEnsemble, list[tuple[int, np.ndarray]]]:
    """Iterate positions <- positions + step * direction.

    Returns the final ensemble and the list of recorded (iteration,
    positions) snapshots (empty unless cfg.snapshot_every is set).  The
    update is deterministic, so the run takes no random stream.  The kernel
    sums of every step reuse one tile workspace allocated for the run.
    """
    x = init.positions.copy()
    work = _tile_work(x.size)
    snapshots: list[tuple[int, np.ndarray]] = []

    if cfg.beta_schedule is not None:
        blocks = np.array_split(np.arange(cfg.iterations), len(cfg.beta_schedule))
        beta_at = np.empty(cfg.iterations)
        for b, idx in zip(cfg.beta_schedule, blocks):
            beta_at[idx] = b
    else:
        beta_at = None

    for t in range(cfg.iterations):
        if cfg.snapshot_every is not None and t % cfg.snapshot_every == 0:
            snapshots.append((init.iteration + t, x.copy()))
        if beta_at is None:
            s = score(target, x)
            eps = cfg.step_size
        else:
            beta = float(beta_at[t])
            s = temper_score(target, beta, x)
            eps = cfg.step_size / beta if cfg.rescale_step else cfg.step_size
        x = x + eps * _direction_from_scores(x, s, cfg.kernel, work)
        if not np.isfinite(x).all():
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise FloatingPointError(
                f"non-finite position at iteration {init.iteration + t}, particle {bad}"
            )

    final = ParticleEnsemble(x, init.iteration + cfg.iterations)
    if cfg.snapshot_every is not None:
        snapshots.append((final.iteration, x.copy()))
    return final, snapshots


def mode_fraction(ensemble: ParticleEnsemble, threshold: float) -> float:
    """Fraction of particles at or below the threshold (ties count as below)."""
    return float(np.mean(ensemble.positions <= threshold))
