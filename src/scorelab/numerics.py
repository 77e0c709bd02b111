"""Deterministic numerical substrate: fixed-grid quadrature, keyed random
streams, and the estimators' sample check.

Everything here is pure given its inputs, so results are reproducible and
safe to use from parallel experiment cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_NODES = 4097


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed integration grid on [lower, upper] with `nodes` points.

    `nodes` must be odd and at least 17: composite Simpson pairs the
    intervals, so an even count is a ValueError that names it.
    """

    lower: float
    upper: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("quadrature bounds must be finite")
        if self.lower >= self.upper:
            raise ValueError(f"lower must be < upper, got [{self.lower}, {self.upper}]")
        if self.nodes < 17 or self.nodes % 2 == 0:
            raise ValueError(
                f"nodes must be odd and at least 17, as composite Simpson needs, got {self.nodes}"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.nodes)


def _samples(x, name: str = "samples", least: int = 1) -> np.ndarray:
    """x as a 1-D float array of at least `least` finite values; else a
    ValueError that names it `name`.  The one input check of every
    estimator that takes samples or positions."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < least:
        raise ValueError(f"{name} must be a 1-D array of length at least {least}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _evaluate_on_grid(f, xs: np.ndarray) -> np.ndarray:
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"integrand returned shape {ys.shape} on a grid of shape {xs.shape}")
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"integrand is not finite at node {i} (x={xs[i]!r}, f(x)={ys[i]!r})")
    return ys


def quad_integrate(f, spec: QuadratureSpec) -> float:
    """Composite-Simpson approximation of the integral of f over the spec grid.

    f is called once, on the whole grid, and must return one value per node;
    a result of another shape is a ValueError that names both shapes.  A
    scalar-only integrand (math.exp, or `lambda x: x if x > 0 else 0.0`)
    must be wrapped in np.vectorize.  Polynomials of degree <= 3 integrate
    exactly.
    """
    xs = spec.grid()
    ys = _evaluate_on_grid(f, xs)
    h = (spec.upper - spec.lower) / (spec.nodes - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


_U64_MASK = 2**64 - 1


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Reproducible random stream for one experiment cell.

    A Philox generator keyed by [seed mod 2^64, stream_id mod 2^64]:
    identical keys reproduce the identical sequence, and distinct stream_ids
    give statistically independent streams, so experiment cells can derive
    their own stream without coordination.
    """
    key = np.array([int(seed) & _U64_MASK, int(stream_id) & _U64_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
