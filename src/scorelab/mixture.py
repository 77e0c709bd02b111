"""1-D Gaussian mixtures: densities, scores, the far-separation limit score,
Gaussian smoothing, and exact sampling.

All responsibilities are computed through log-sum-exp with max subtraction.
Well-separated mixtures drive the raw exponents to +/- hundreds, so naive
exponentials are never formed.  Every evaluation accepts a scalar or an
ndarray of positions.

Evaluation is component-major: per-component terms form a (K, ...) array,
with the means and stds reshaped to (K, 1, ..., 1) against the positions,
and every sum, maximum and log-sum-exp runs over axis 0.  numpy reduces a
short contiguous last axis slowly, and K is 2 or 3 in every experiment.
Over axis 0 numpy adds the K rows one after the other, which for K <= 7 is
exactly how it sums a contiguous last axis of that length, so the results
equal those of a (..., K) layout bit for bit.  For K >= 8 numpy sums a
contiguous last axis with eight partial sums, so there the two layouts
differ in the last bits (about 1e-14 relative).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureSpec

_LOG_2PI = math.log(2.0 * math.pi)
_WINDOW_PAD = 12.0  # quadrature_window's margin beyond the outer means, in widths


@dataclass(frozen=True, eq=False)
class GaussianMixture1D:
    """Mixture sum_k weights[k] * N(means[k], stds[k]^2).

    `log_offset` is an additive constant on the log density, standing in for
    the unknown log normaliser of an energy model; densities and scores of
    the normalised mixture are unaffected by it.  Instances are immutable.
    """

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    log_offset: float = 0.0

    def __post_init__(self):
        for name in ("weights", "means", "stds"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float)).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        k = self.weights.size
        if k < 1 or self.means.size != k or self.stds.size != k:
            raise ValueError("weights, means and stds must share a common length K >= 1")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("mixing weights must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixing weights must sum to 1, got {float(self.weights.sum())!r}")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("means must be finite")
        # the densities and scores divide by stds^2, which must be a normal double
        with np.errstate(over="ignore"):
            squares = self.stds * self.stds
        if not (np.all(self.stds > 0) and np.all((squares >= sys.float_info.min) & (squares < np.inf))):
            raise ValueError(
                f"stds must be positive and finite, each with a normal finite square, got {self.stds}"
            )

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    def mean(self) -> float:
        return float(np.dot(self.weights, self.means))


def gaussian(mean: float, std: float) -> GaussianMixture1D:
    """Single-component mixture N(mean, std^2)."""
    return GaussianMixture1D(np.array([1.0]), np.array([mean]), np.array([std]))


def two_component(pi1: float, mu1: float, mu2: float, sigma: float) -> GaussianMixture1D:
    """Two equal-width components at mu1 and mu2 with weights (pi1, 1 - pi1)."""
    if not 0.0 < pi1 < 1.0:
        raise ValueError(f"pi1 must lie in (0, 1), got {pi1}")
    return GaussianMixture1D(np.array([pi1, 1.0 - pi1]), np.array([mu1, mu2]), np.array([sigma, sigma]))


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _offsets(m: GaussianMixture1D, x: np.ndarray):
    # x - mu_k as a (K, ...) array, and the stds as (K, 1, ..., 1) to
    # broadcast against it
    shape = (-1,) + (1,) * x.ndim
    return x - m.means.reshape(shape), m.stds.reshape(shape)


def _component_logs(
    m: GaussianMixture1D, d: np.ndarray, sd: np.ndarray, out: np.ndarray
) -> np.ndarray:
    # shape (K, ...): log(pi_k) + log N(x; mu_k, sigma_k^2) from d = x - mu_k,
    # formed in `out`, which may be d itself; in place, each step rounds as
    # log(pi) - log(sd) - 0.5 * (log(2 pi) + z * z) with z = d / sd does
    logs = np.divide(d, sd, out=out)
    np.square(logs, out=logs)
    logs += _LOG_2PI
    logs *= 0.5
    return np.subtract(np.log(m.weights).reshape(sd.shape) - np.log(sd), logs, out=logs)


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) over `axis`, bit for bit as scipy computes it.

    The m entries equal to the maximum leave the sum s of the shifted
    exponentials and enter as log1p(s / m) + log(m) + max, which keeps the
    largest terms exact (Blanchard, Higham & Higham 2021).  Taking out only
    one maximum changes the last bit on rows with tied maxima.  The maxima
    are zeroed after the exponential, so a row of -inf gives -inf and a row
    with +inf gives +inf without a NaN in between.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = a.max(axis=axis, keepdims=True)
        is_max = a == a_max
        e = np.subtract(a, a_max)
        np.exp(e, out=e)
        e[is_max] = 0.0
        m = is_max.sum(axis=axis)
        # s / m keeps s = 0 as 0, since m >= 1 on every row without NaN
        return np.log1p(e.sum(axis=axis) / m) + np.log(m) + np.squeeze(a_max, axis=axis)


def _logpdf(m: GaussianMixture1D, x: np.ndarray) -> np.ndarray:
    d, sd = _offsets(m, x)
    return _logsumexp(_component_logs(m, d, sd, out=d), axis=0)


def _responsibilities(logs: np.ndarray) -> np.ndarray:
    # the component logs turned into responsibilities, in their own buffer
    logs -= logs.max(axis=0)
    np.exp(logs, out=logs)
    logs /= logs.sum(axis=0)
    return logs


def pdf(m: GaussianMixture1D, x) -> float | np.ndarray:
    """Normalised mixture density at x."""
    xs, scalar = _as_array(x)
    out = np.exp(_logpdf(m, xs))
    return float(out) if scalar else out


def score(m: GaussianMixture1D, x) -> float | np.ndarray:
    """Derivative of the log density, d/dx log p(x).

    Equals the responsibility-weighted sum of the per-component scores
    -(x - mu_k) / sigma_k^2 and never depends on log_offset.
    """
    xs, scalar = _as_array(x)
    d, sd = _offsets(m, xs)
    r = _responsibilities(_component_logs(m, d, sd, np.empty_like(d)))
    # r * -(x - mu) / sd^2, in the buffers of r and d
    comp = np.negative(d, out=d)
    comp /= sd**2
    r *= comp
    out = np.sum(r, axis=0)
    return float(out) if scalar else out


def score_derivative(m: GaussianMixture1D, x) -> float | np.ndarray:
    """Analytic d/dx of the mixture score.

    Responsibility calculus gives
        sum_k r_k [ (x-mu_k)^2/sigma_k^4 - 1/sigma_k^2 ] - score(x)^2;
    the variance of the component scores under the responsibilities, minus
    the mean curvature.  Validated against central differences of `score`
    in the test suite before anything downstream relies on it.
    """
    xs, scalar = _as_array(x)
    d, sd = _offsets(m, xs)
    r = _responsibilities(_component_logs(m, d, sd, np.empty_like(d)))
    # z = (x - mu) / sd in d's buffer; each product below rounds as
    # r * (-z / sd) and r * (z * z - 1) / sd^2 do
    z = np.divide(d, sd, out=d)
    terms = np.negative(z)
    terms /= sd
    terms *= r
    mean_score = np.sum(terms, axis=0)
    np.square(z, out=terms)
    terms -= 1.0
    terms *= r
    terms /= sd**2
    out = np.sum(terms, axis=0) - mean_score**2
    return float(out) if scalar else out


def score_limit(m: GaussianMixture1D, x) -> float | np.ndarray:
    """Piecewise limit of the score as the separation grows without bound.

    `m` must have two equal-width components with mu1 < mu2.  Left of the
    midpoint between the means the limit is the first component's score,
    right of it the second's; the limit does not involve the mixing weights.
    """
    if m.n_components != 2:
        raise ValueError("score_limit requires exactly two components")
    s1, s2 = float(m.stds[0]), float(m.stds[1])
    if abs(s1 - s2) > 1e-12 * max(s1, s2):
        raise ValueError("score_limit requires equal component widths")
    mu1, mu2 = float(m.means[0]), float(m.means[1])
    if not mu1 < mu2:
        raise ValueError(f"score_limit requires mu1 < mu2, got {mu1} >= {mu2}")
    midpoint = (mu1 + mu2) / 2.0
    xs, scalar = _as_array(x)
    if np.any(xs == midpoint):
        raise ValueError("limit undefined at midpoint")
    var = s1**2
    left = -(xs - mu1) / var
    right = -(xs - mu2) / var
    out = np.where(xs < midpoint, left, right)
    return float(out) if scalar else out


def smooth(m: GaussianMixture1D, noise_std: float) -> GaussianMixture1D:
    """Convolve with N(0, noise_std^2): widths add in quadrature.  A
    noise_std whose square overflows, or that widens a component past a
    finite square, is a ValueError."""
    if not (noise_std > 0 and float(noise_std) * float(noise_std) < math.inf):
        raise ValueError(f"noise_std must be positive, with a finite square, got {noise_std}")
    # an overflowing width reaches the constructor as inf, which rejects it
    with np.errstate(over="ignore"):
        stds = np.sqrt(m.stds**2 + noise_std**2)
    return GaussianMixture1D(m.weights.copy(), m.means.copy(), stds, m.log_offset)


def sample(m: GaussianMixture1D, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws: categorical on the weights, then component Gaussians."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = rng.choice(m.n_components, size=n, p=m.weights)
    return m.means[idx] + m.stds[idx] * rng.standard_normal(n)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mass_inside(m: GaussianMixture1D, lower: float, upper: float) -> float:
    """Exact probability mass of the mixture inside [lower, upper]."""
    total = 0.0
    for w, mu, sd in zip(m.weights.tolist(), m.means.tolist(), m.stds.tolist()):
        total += w * (_norm_cdf((upper - mu) / sd) - _norm_cdf((lower - mu) / sd))
    return total


def quadrature_window(*mixtures: GaussianMixture1D) -> QuadratureSpec:
    """Default integration window covering every component of every argument.

    Spans [min means - 12 * max stds, max means + 12 * max stds] on
    `DEFAULT_NODES` nodes; the pad of 12 widths keeps truncated tail mass far
    below quadrature error.  Components so narrow that the pad rounds away
    against the means, which would end the window on a mean, are a
    ValueError.
    """
    if not mixtures:
        raise ValueError("at least one mixture is required")
    lo = min(float(m.means.min()) for m in mixtures)
    hi = max(float(m.means.max()) for m in mixtures)
    pad = _WINDOW_PAD * max(float(m.stds.max()) for m in mixtures)
    if not (lo - pad < lo and hi < hi + pad):
        raise ValueError(
            f"the quadrature window's pad of {_WINDOW_PAD:g} component widths ({pad:.3g}) "
            f"rounds away against the means in [{lo!r}, {hi!r}]: the components are too narrow"
        )
    return QuadratureSpec(lo - pad, hi + pad)


def from_record(text: str) -> GaussianMixture1D:
    """Parse a flat text record `weights=..; means=..; stds=..; log_offset=..`:
    `;`-separated `key=value` fields, each value comma-separated decimals;
    `log_offset` is optional and defaults to 0."""
    fields: dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed mixture record field: {part!r}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    missing = {"weights", "means", "stds"} - fields.keys()
    if missing:
        raise ValueError(f"mixture record is missing {sorted(missing)}")

    def parse(key):
        try:
            return np.array([float(v) for v in fields[key].split(",")])
        except ValueError:
            raise ValueError(f"bad decimals in mixture field {key!r}: {fields[key]!r}") from None

    log_offset = float(fields.get("log_offset", "0"))
    return GaussianMixture1D(parse("weights"), parse("means"), parse("stds"), log_offset)
