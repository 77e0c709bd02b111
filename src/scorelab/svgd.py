"""Stein variational gradient descent for a particle ensemble.

Updates are synchronous: all directions are computed from the current
ensemble, then applied at once.  A run is plain SVGD, whose mode fractions
follow its start (demo 04); the remedy runs it on `smooth(target, sigma)`
for each falling noise level in turn, then on the target.  The kernel
terms are summed over the sorted positions in fixed square tiles
(`_upper_tiles`), in a tile workspace that a run allocates once.  This
canonical order makes the update bit-exactly equivariant under particle
permutation.  Each direction, in `svgd_direction` and at every step of
`svgd_run`, sorts the positions once and scatters the sums back to the
particles.  Particles at equal positions get equal sums: the members of a
run of equal sorted positions can be summed in different orders (as when
the run straddles a tile edge, or sits in two rows of one BLAS product), so
each takes the sums of the run's first member.  A step without ties skips
that remap.

A tile pair no wider than `_SPAN` bandwidths builds its kernel from two
BLAS products (`_rank3_tile`); a wider one builds it elementwise
(`_gauss_tile`), where at bandwidths with 2 h^2 not a power of two the
kernel values can move in the last bits (see there).  A run checks after
each step that every position is finite and looks for the first bad
particle only when one is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mixture import GaussianMixture1D, score
from .numerics import _samples
from .stein import KernelSpec

# Edge of the square tiles the dense Gaussian pair sums walk.  A tile's two
# 256 x 256 float64 arrays (1 MB) stay in cache, and the default ensemble
# of 200 is one tile.  256 was the fastest of 128 to 512 for a dense pair sum
# at N = 10,000 on a Xeon with 4 MB of L2 per core.  The sums stay dense: at
# N = 200 (one BLAS thread, 2-core x86_64) the box expansion of
# `stein.ksd_vstats` took 380 to 1700 us for its row sums alone, ensembles of
# spread 1 to 6, against 170 to 250 us for a whole dense direction.
_TILE = 256
# Widest tile pair, in bandwidths from its first to its last position, whose
# kernel `_rank3_tile` builds from BLAS products.  About the pair's midpoint
# |u| <= _SPAN h / 2, so each of the exponent's three terms is at most
# _SPAN^2 / 8 = 32 and their cancellation costs a few ulps of that; the row
# sums lose as much where m1 u_i / h^2 cancels the u_j / h^2 in m0.  Against
# a dense long-double sum the worst error seen was 6.2e-15 of a row's scale
# sum k (|s| + |d| / h^2) / N, on ensembles spread uniformly over exactly
# _SPAN bandwidths (N = 200, 256 and 600, bandwidths 1e-3 to 123); the
# elementwise tile's was 7e-16.  Unguarded, the error grows like
# eps (R / h)^2 over an ensemble R wide: 5.1e-10 at h = 0.05 over 200
# particles about 200 wide.  At 200 x 200 (one BLAS thread, 2-core x86_64)
# the rank-3 tile with its row sums took 68 to 72 us, the exp 33 of them,
# against 128 to 131 us for `_gauss_tile` and its einsums.
_SPAN = 16.0


def _upper_tiles(n: int):
    """Bounds (a, b, c, e) of the tiles [a:b) x [c:e) that cover the upper
    triangle of an n x n pair matrix, in the fixed order the pair sums use."""
    for a in range(0, n, _TILE):
        b = min(a + _TILE, n)
        for c in range(a, n, _TILE):
            yield a, b, c, min(c + _TILE, n)


def _tile_work(n: int) -> np.ndarray:
    """Workspace of the two tile slabs for the pair sums over n points.

    One call or one run owns it and reuses it on every tile; a ragged last
    tile uses the [:rows, :cols] corner of each slab.  Allocating per tile
    instead releases the arrays to the allocator, which can return them to
    the system and fault the pages back in on the next tile.
    """
    t = min(n, _TILE)
    return np.empty((2, t, t))


def _gauss_tile(xi: np.ndarray, xj: np.ndarray, h2: float, work: np.ndarray):
    """Differences d = xi - xj and the Gaussian kernel k on the tile
    xi x xj, written into the two slabs of `work`; k is built over the
    squares of d.

    dk/dy at (xi, xj) is k * d / h2 and dk/dx its negative.  k is symmetric
    in the pair and k * d antisymmetric, so a tile also gives the mirrored
    pairs.

    d is xi copied across the columns, then xj subtracted in place: the
    same rounded differences as one outer-broadcast subtract, which numpy
    runs 1.4x to 1.7x slower (55 against 38 us at 200 x 200 and 108 against
    63 us at 256 x 256 on a 2-core x86_64 host, where the exp of a 256 x 256
    tile takes 91 us).  The exponent is d^2 * (-0.5 / h2), a multiply over
    twice as fast as the divide d^2 / (-2 h2).  When 2 h2 is a power of two
    (bandwidth 1, 0.5 or 2, say) -0.5 / h2 is exact and the product equals
    the quotient bit for bit; otherwise an exponent can move by an ulp,
    which moves k by about |exponent| ulps.
    """
    rows, cols = xi.size, xj.size
    d = work[0, :rows, :cols]
    d[...] = xi[:, None]
    np.subtract(d, xj, out=d)
    k = np.square(d, out=work[1, :rows, :cols])
    np.multiply(k, -0.5 / h2, out=k)
    np.exp(k, out=k)
    return d, k


@dataclass(frozen=True)
class SvgdConfig:
    """Run parameters: `iterations` steps of `step_size` with `kernel`."""

    kernel: KernelSpec = field(default_factory=KernelSpec)
    step_size: float = 0.1
    iterations: int = 1000

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size: must be positive and finite, got {self.step_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations: must be >= 1, got {self.iterations}")


def _rank3_tile(xs, ss, a, b, c, e, h2, work, phi):
    """Add the pair sums of the tile xs[a:b) x xs[c:e) and of its mirror to
    phi, with the kernel built from two BLAS products (see `_SPAN`).

    With u = x - m about the midpoint m of xs[a] and xs[e-1] and
    g = -u^2 / 2h^2, the exponent -(u_i - u_j)^2 / 2h^2 is
    [g_i, u_i/h^2, 1] @ [1; u_j; g_j].  phi_i sums k (s_j + (u_i - u_j) / h^2)
    over j, which is m0 + m1 u_i / h^2 for m = [s - u/h^2; 1] @ k.T; the
    mirror's come from the same rows @ k.  One array with the rows
    s - u/h^2, 1, u, g, u/h^2, 1 holds every factor: rows 3-5 transposed
    are the left factor of the exponent, rows 1-3 its right factor, and
    rows 0-1 the left factor of the sums.
    """
    f = np.empty((6, e - a))
    u = np.subtract(xs[a:e], 0.5 * (xs[a] + xs[e - 1]), out=f[2])
    np.multiply(u, u, out=f[3])
    f[3] *= -0.5 / h2
    np.divide(u, h2, out=f[4])
    np.subtract(ss[a:e], f[4], out=f[0])
    f[1] = 1.0
    f[5] = 1.0
    rows, cols = f[:, : b - a], f[:, c - a :]
    k = np.matmul(rows[3:].T, cols[1:4], out=work[1, : b - a, : e - c])
    np.exp(k, out=k)
    m = cols[:2] @ k.T
    phi[a:b] += m[0] + m[1] * rows[4]
    if c != a:
        m = rows[:2] @ k
        phi[c:e] += m[0] + m[1] * cols[4]


def _sorted_direction(xs: np.ndarray, ss: np.ndarray, h: float, work: np.ndarray) -> np.ndarray:
    """Update direction at the sorted positions xs with scores ss, in the
    same order."""
    h2 = h**2
    n = xs.size
    phi = np.zeros(n)
    for a, b, c, e in _upper_tiles(n):
        if xs[e - 1] - xs[a] <= _SPAN * h:
            _rank3_tile(xs, ss, a, b, c, e, h2, work, phi)
            continue
        d, k = _gauss_tile(xs[a:b], xs[c:e], h2, work)
        # phi_i sums s_j k + dk/dy over j, with dk/dy = k d / h2
        phi[a:b] += np.einsum("ij,j->i", k, ss[c:e]) + np.einsum("ij,ij->i", k, d) / h2
        if c != a:
            phi[c:e] += np.einsum("ij,i->j", k, ss[a:b]) - np.einsum("ij,ij->j", k, d) / h2
    # equal positions on both sides of a tile edge, or in two rows of one
    # BLAS product, are summed in different orders; each run of equal
    # positions takes the sums of its first member
    tied = xs[1:] == xs[:-1]
    if tied.any():
        first = np.maximum.accumulate(np.where(np.r_[True, ~tied], np.arange(n), 0))
        phi = phi[first]
    return phi / n


def _direction(x: np.ndarray, target: GaussianMixture1D, h: float, work: np.ndarray) -> np.ndarray:
    """Update direction at the positions x, sorted once, in particle order."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    phi = np.empty_like(xs)
    phi[order] = _sorted_direction(xs, score(target, xs), h, work)
    return phi


def svgd_direction(positions: np.ndarray, target: GaussianMixture1D, kernel: KernelSpec) -> np.ndarray:
    """Optimal update direction at every particle.

    For particle x': phi(x') = mean_n [ score(x_n) k(x', x_n) + d/dx_n k(x', x_n) ],
    the kernel-smoothed score plus the repulsion term.
    """
    x = _samples(positions, "positions")
    return _direction(x, target, kernel.bandwidth, _tile_work(x.size))


def svgd_run(init: np.ndarray, target: GaussianMixture1D, cfg: SvgdConfig, observer=None) -> np.ndarray:
    """Iterate positions <- positions + step * direction from the positions
    `init`; returns the final positions.

    `observer(iteration, positions)` is called after every step when
    provided, with the number of steps taken and a fresh array of the
    positions in particle order.  The update is deterministic, so the run
    takes no random stream.  Every step is `svgd_direction`'s, and the
    kernel sums of every step reuse one tile workspace.
    """
    x = _samples(init, "positions")
    work = _tile_work(x.size)

    for t in range(cfg.iterations):
        x = x + cfg.step_size * _direction(x, target, cfg.kernel.bandwidth, work)
        if not np.isfinite(x).all():
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise FloatingPointError(f"non-finite position at iteration {t}, particle {bad}")
        if observer is not None:
            observer(t + 1, x.copy())
    return x


def mode_fraction(positions: np.ndarray, threshold: float) -> float:
    """Fraction of positions at or below the threshold (ties count as below)."""
    return float(np.mean(np.asarray(positions) <= threshold))
