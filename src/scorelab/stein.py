"""Stein discrepancy with closed-form optimal witnesses, plus a kernelized
sample estimator (KSD).

Two function classes are supported.  In the data-weighted L2 class the
optimal witness is proportional to the score difference and the discrepancy
is the square root of the Fisher divergence; in the unweighted L2 class the
witness is q * score_p - q' and the discrepancy is its plain L2 norm.  The
normalisation constants make each witness unit-norm in its own space, so
the discrepancies equal the attained suprema.  The KSD sums reduce each
kernel tile by BLAS products with centred moment panels (`ksd_vstats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixture import GaussianMixture1D, pdf, quadrature_window, score
from .numerics import QuadratureSpec, quad_integrate
from .scorematch import MONTE_CARLO, QUADRATURE, DivergenceEstimate

L2_Q_WEIGHTED = "l2_q_weighted"
L2_UNWEIGHTED = "l2_unweighted"

# Edge of the square tiles the Gaussian pair sums walk.  A tile's three
# 256 x 256 float64 arrays (1.5 MB) stay in cache; 256 was the fastest of
# 128 to 512 for KSD at N = 10,000 on a Xeon with 4 MB of L2 per core.  KSD
# reduces each tile by BLAS products with thin panels, so its bytes hold
# only while the BLAS splits no product's inner sum across threads; a test
# compares them under 1 and 2 BLAS threads.
_TILE = 256


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-(x - y)^2 / (2 bandwidth^2))."""

    bandwidth: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")


@dataclass(frozen=True)
class WitnessTable:
    """Tabulated optimal witness before normalisation.

    Multiplying `values` by `norm_constant` yields the unit-norm witness in
    the table's function class.  When q and p coincide the witness vanishes
    identically and no normalisation exists; such tables are flagged with
    `zero_discrepancy` and carry norm_constant 1.
    """

    grid: np.ndarray
    values: np.ndarray
    norm_constant: float
    function_class: str
    zero_discrepancy: bool = False

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if values.shape != grid.shape or not np.all(np.isfinite(values)):
            raise ValueError("values must be finite and match the grid")
        if self.function_class not in (L2_Q_WEIGHTED, L2_UNWEIGHTED):
            raise ValueError(f"unknown function class {self.function_class!r}")
        if not self.zero_discrepancy and self.norm_constant <= 0:
            raise ValueError("norm_constant must be positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def normalized(self) -> np.ndarray:
        return self.norm_constant * self.values


def _witness_norm_sq(q, p, function_class, spec):
    if function_class == L2_Q_WEIGHTED:
        integrand = lambda x: pdf(q, x) * (score(p, x) - score(q, x)) ** 2
    else:
        integrand = lambda x: (pdf(q, x) * (score(p, x) - score(q, x))) ** 2
    return quad_integrate(integrand, spec)


def _witness(q, p, grid, function_class):
    grid = np.asarray(grid, dtype=float)
    values = score(p, grid) - score(q, grid)
    if function_class == L2_UNWEIGHTED:
        values = pdf(q, grid) * values
    norm_sq = _witness_norm_sq(q, p, function_class, quadrature_window(q, p))
    if norm_sq <= 0.0:
        return WitnessTable(grid, np.zeros_like(grid), 1.0, function_class, True)
    return WitnessTable(grid, values, 1.0 / np.sqrt(norm_sq), function_class)


def witness_weighted(
    q: GaussianMixture1D, p: GaussianMixture1D, grid: np.ndarray
) -> WitnessTable:
    """Optimal witness in the q-weighted L2 class: score_p - score_q."""
    return _witness(q, p, grid, L2_Q_WEIGHTED)


def witness_unweighted(
    q: GaussianMixture1D, p: GaussianMixture1D, grid: np.ndarray
) -> WitnessTable:
    """Optimal witness in the unweighted L2 class: q * score_p - q'.

    The data-density derivative q' equals q * score_q (chain rule), so the
    witness is q times the score difference.
    """
    return _witness(q, p, grid, L2_UNWEIGHTED)


def stein_discrepancy(
    q: GaussianMixture1D,
    p: GaussianMixture1D,
    function_class: str = L2_Q_WEIGHTED,
    spec: QuadratureSpec | None = None,
) -> DivergenceEstimate:
    """Attained supremum of E_q[(score_p - score_q) f] over unit-norm f.

    For the q-weighted class the value is sqrt(int q (score_p - score_q)^2),
    i.e. the square root of the Fisher divergence; for the unweighted class
    it is sqrt(int (q score_p - q')^2).
    """
    if function_class not in (L2_Q_WEIGHTED, L2_UNWEIGHTED):
        raise ValueError(f"unknown function class {function_class!r}")
    if spec is None:
        spec = quadrature_window(q, p)
    norm_sq = max(_witness_norm_sq(q, p, function_class, spec), 0.0)
    return DivergenceEstimate(float(np.sqrt(norm_sq)), QUADRATURE, spec.nodes)


def _upper_tiles(n: int):
    """Bounds (a, b, c, e) of the tiles [a:b) x [c:e) that cover the upper
    triangle of an n x n pair matrix, in the fixed order the pair sums use."""
    for a in range(0, n, _TILE):
        b = min(a + _TILE, n)
        for c in range(a, n, _TILE):
            yield a, b, c, min(c + _TILE, n)


def _tile_work(n: int) -> np.ndarray:
    """Workspace of the three tile slabs for the pair sums over n points.

    One call or one run owns it and reuses it on every tile; a ragged last
    tile uses the [:rows, :cols] corner of each slab.  Allocating per tile
    instead releases the arrays to the allocator, which can return them to
    the system and fault the pages back in on the next tile.
    """
    t = min(n, _TILE)
    return np.empty((3, t, t))


def _gauss_tile(xi: np.ndarray, xj: np.ndarray, h2: float, work: np.ndarray):
    """Differences d = xi - xj, their squares q and the Gaussian kernel k on
    the tile xi x xj, written into the three slabs of `work`.

    dk/dy at (xi, xj) is k * d / h2 and dk/dx its negative.  k is symmetric
    in the pair and k * d antisymmetric, so a tile also gives the mirrored
    pairs.
    """
    rows, cols = xi.size, xj.size
    d = np.subtract(xi[:, None], xj[None, :], out=work[0, :rows, :cols])
    q = np.square(d, out=work[1, :rows, :cols])
    k = np.divide(q, -2.0 * h2, out=work[2, :rows, :cols])
    np.exp(k, out=k)
    return d, q, k


def ksd_vstats(
    samples: np.ndarray, models: list[GaussianMixture1D], kernel: KernelSpec
) -> list[DivergenceEstimate]:
    """V-statistic kernel Stein discrepancy of one sample set against each
    of `models`, in one pass over the kernel tiles.

    Averages the Stein kernel u_p over all N^2 ordered pairs.  u_p is
    symmetric, so only the upper triangle of the sorted samples is walked,
    in fixed square tiles small enough to stay in cache, all in one
    workspace allocated per call; each off-diagonal tile's column sums stand
    in for its mirrored pairs.  A tile is reduced by BLAS products with thin
    moment panels: with u and v the row and column positions centred on the
    tile, sum_j k d w = u_i sum_j k w - sum_j k v w, so [1, v] and, per
    model, [s, v s] against k^T give every row sum ([1, u] and [s, u s]
    against k the column sums).  Centring bounds the cancellation in that
    difference by the tile's span, not by |x|.  The sum of k d^2 is read
    from the tile's squares q: its expansion u^2 K1 - 2u Kv + Kv2 cancels
    worse (1e-13 against 1e-15 relative at bandwidth 0.05).  One stacked
    matmul gives each model the BLAS call it would get alone, so every
    estimate equals that of a call with the model alone, bit for bit.  The
    sort and the fixed tile order give a canonical summation order, so
    every value is bit-for-bit invariant under permutation of the input.
    The reported std_error uses the nondegenerate asymptotic approximation
    2 * std(row means) / sqrt(N).
    """
    if not models:
        raise ValueError("models must be nonempty")
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("samples must be nonempty")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    n = xs.size
    scores = np.array([score(p, xs) for p in models])
    h2 = kernel.bandwidth**2
    row_sums = np.zeros((len(models), n))
    work = _tile_work(n)
    for a, b, c, e in _upper_tiles(n):
        _, q, k = _gauss_tile(xs[a:b], xs[c:e], h2, work)
        # u_p = s_i s_j k + (s_i - s_j) dk/dy + d2k/dxdy, where dk/dy = k d / h2
        # and d2k/dxdy = (k - k d^2 / h2) / h2
        mid = (xs[a] + xs[e - 1]) / 2
        u, v = xs[a:b] - mid, xs[c:e] - mid
        si, sj = scores[:, a:b], scores[:, c:e]
        k1, kv = np.stack((np.ones_like(v), v)) @ k.T
        ks, kvs = np.moveaxis(np.stack((sj, v * sj), axis=1) @ k.T, 1, 0)
        kd = u * k1 - kv
        row_sums[:, a:b] += (
            si * (ks + kd / h2)
            - (u * ks - kvs) / h2
            + (k1 - np.einsum("ij,ij->i", k, q) / h2) / h2
        )
        if c != a:
            k1, ku = np.stack((np.ones_like(u), u)) @ k
            ks, kus = np.moveaxis(np.stack((si, u * si), axis=1) @ k, 1, 0)
            kd = ku - v * k1
            row_sums[:, c:e] += (
                sj * (ks - kd / h2)
                + (kus - v * ks) / h2
                + (k1 - np.einsum("ij,ij->j", k, q) / h2) / h2
            )
    out = []
    for sums in row_sums:
        value = float(sums.sum() / (n * n))
        if n > 1:
            row_means = sums / n
            std_error = float(2.0 * row_means.std(ddof=1) / np.sqrt(n))
        else:
            std_error = 0.0
        out.append(DivergenceEstimate(max(value, 0.0), MONTE_CARLO, n, std_error))
    return out


def ksd_vstat(
    samples: np.ndarray, p: GaussianMixture1D, kernel: KernelSpec
) -> DivergenceEstimate:
    """V-statistic kernel Stein discrepancy of samples against model p; see
    `ksd_vstats`."""
    return ksd_vstats(samples, [p], kernel)[0]
