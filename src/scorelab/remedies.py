"""Estimators that keep the probability-mass information score-based losses
discard: a pairwise log-density-ratio loss against a mass-preserving
reference model, low-order moment discrepancies, and the entropy-gradient
estimator for implicit (pushforward) distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mixture import _LOG_2PI, GaussianMixture1D, _logpdf, _logsumexp, quadrature_window
from .numerics import _samples, quad_integrate

# Entries per temporary of `kde_log_pdf`: 16384 doubles are 128 KiB, glibc's
# default mmap threshold.  Larger temporaries go back to the kernel when
# freed (unmapped, or trimmed from the heap top), and the next block faults
# their pages in again; smaller ones are reused from the heap.
_KDE_BLOCK = 16384


@dataclass(frozen=True)
class KdeModel:
    """Gaussian kernel density estimate: centers at the data, one bandwidth."""

    centers: np.ndarray
    bandwidth: float

    def __post_init__(self):
        centers = _samples(self.centers, "centers")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        object.__setattr__(self, "centers", centers)


def kde_fit(samples: np.ndarray) -> KdeModel:
    """Fit a KDE by Silverman's rule: h = 1.06 * std(samples) * N^(-1/5).

    A KDE of a given width is `KdeModel(samples, h)`.
    """
    xs = _samples(samples, least=2)
    h = 1.06 * float(xs.std()) * xs.size ** (-0.2)
    if h <= 0:
        raise ValueError("silverman bandwidth degenerated to zero (constant sample)")
    return KdeModel(xs, h)


def kde_log_pdf(model: KdeModel, x) -> float | np.ndarray:
    """Log of the KDE density via log-sum-exp over the centers.

    The points are taken in blocks of `_KDE_BLOCK // centers` rows (at
    least one), so no temporary outgrows the heap.  Each point's sum does
    not depend on the blocking.
    """
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    out = np.empty(flat.size)
    rows = max(1, _KDE_BLOCK // model.centers.size)
    for a in range(0, flat.size, rows):
        b = a + rows
        z = (flat[a:b, None] - model.centers) / model.bandwidth
        logs = -0.5 * (z * z) - np.log(model.bandwidth) - 0.5 * _LOG_2PI
        out[a:b] = _logsumexp(logs) - np.log(model.centers.size)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


ReferenceDensity = KdeModel | GaussianMixture1D


def _reference_log_pdf(ml: ReferenceDensity, x: np.ndarray) -> np.ndarray:
    if isinstance(ml, KdeModel):
        return np.asarray(kde_log_pdf(ml, x), dtype=float)
    return _logpdf(ml, x)


def cml_loss(
    model: GaussianMixture1D,
    ml: ReferenceDensity,
    samples: np.ndarray,
) -> float:
    """Pairwise log-density-ratio mismatch against the reference model.

    The sum over all ordered sample pairs (i, j), i != j, of
    (log ml(x_i)/ml(x_j) - log model(x_i)/model(x_j))^2.  With
    d = log ml - log model that sum is sum_{i != j} (d_i - d_j)^2
    = 2n * sum_i (d_i - mean(d))^2, which is exact and takes O(n) time and
    memory.  The model enters only through `_logpdf`, which leaves its
    additive log offset out, so the offset cancels bit for bit.  `ml` is a
    KdeModel or a mixture used as the true data density.
    """
    xs = _samples(samples, least=2)
    d = _reference_log_pdf(ml, xs) - _logpdf(model, xs)
    centred = d - d.mean()
    return 2 * xs.size * float(np.sum(centred * centred))


def moment_discrepancy(model: GaussianMixture1D, samples: np.ndarray) -> np.ndarray:
    """First and second model moments (quadrature on
    `quadrature_window(model)`) minus the sample moments.

    Isolated spurious components shift low-order model moments by large
    amounts, so the discrepancy exposes exactly what score-based losses
    cannot see.
    """
    xs = _samples(samples)
    spec = quadrature_window(model)
    out = []
    for r in (1, 2):
        model_moment = quad_integrate(lambda x: np.exp(_logpdf(model, x)) * x**r, spec)
        out.append(model_moment - float(np.mean(xs**r)))
    return np.array(out)


@dataclass(frozen=True)
class ImplicitModel:
    """Pushforward x = transform(z, phi) of a standard-normal base draw.

    `transform_dphi` must be the partial derivative of the transform in phi;
    consistency is checked by central differences at a few probe points.
    """

    transform: Callable[[np.ndarray, float], np.ndarray]
    transform_dphi: Callable[[np.ndarray, float], np.ndarray]
    phi: float

    def __post_init__(self):
        probes = np.array([-1.3, 0.2, 0.9])
        h = 1e-5
        fd = (
            np.asarray(self.transform(probes, self.phi + h), dtype=float)
            - np.asarray(self.transform(probes, self.phi - h), dtype=float)
        ) / (2.0 * h)
        claimed = np.asarray(self.transform_dphi(probes, self.phi), dtype=float)
        if not np.allclose(fd, claimed, rtol=1e-4, atol=1e-6):
            raise ValueError("transform_dphi disagrees with finite differences of transform")


@dataclass(frozen=True)
class EntropyGradientEstimate:
    """Monte-Carlo dH/dphi of a pushforward law and its standard error."""

    value: float
    std_error: float


def entropy_grad_estimate(
    model: ImplicitModel,
    score_fn: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    rng: np.random.Generator,
) -> EntropyGradientEstimate:
    """Entropy gradient dH/dphi = -E[score(x) * transform_dphi(z)], with
    x = transform(z, phi), by the Monte-Carlo mean over base draws z.

    The identity holds for any pushforward (Li & Turner 2018, "Gradient
    Estimators for Implicit Models"): for x = phi * z it gives +1/phi.
    `score_fn` must be the exact score of the pushforward law.  Sampling is
    under the same base law that defines the model, so isolated components
    cannot hide from this estimator the way they do from two-distribution
    integrals.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    z = rng.standard_normal(n_samples)
    x = np.asarray(model.transform(z, model.phi), dtype=float)
    terms = np.asarray(score_fn(x), dtype=float) * np.asarray(
        model.transform_dphi(z, model.phi), dtype=float
    )
    value = -float(terms.mean())
    std_error = float(terms.std(ddof=1) / np.sqrt(n_samples))
    if not (math.isfinite(value) and math.isfinite(std_error)):
        raise ValueError(
            f"the entropy gradient estimate is not finite: value {value}, std_error {std_error}"
        )
    return EntropyGradientEstimate(value, std_error)
