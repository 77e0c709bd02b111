"""Fisher divergence and the empirical score-matching objective.

The divergence J(q||p) = integral of q (score_q - score_p)^2 is evaluated on
a fixed quadrature grid, with a Monte-Carlo form kept as an independent
cross-check.  `lab fisher-sweep` grids the two failure modes of the loss:
indifference to mixing proportions (model vs reweighted model) and to
spurious isolated components (data concentrated on one component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import (
    GaussianMixture1D,
    mass_inside,
    pdf,
    quadrature_window,
    score,
    score_derivative,
)
from .numerics import QuadratureSpec, _samples, quad_integrate

_MASS_TOL = 1e-6


@dataclass(frozen=True)
class DivergenceEstimate:
    """Divergence value and, for a sample estimate, its standard error
    (None for a quadrature value).  A negative value is a ValueError: every
    producer sums nonnegative terms or takes a square root.
    """

    value: float
    std_error: float | None = None

    def __post_init__(self):
        if np.isnan(self.value):
            raise ValueError("divergence estimate is NaN")
        if self.value < 0.0:
            raise ValueError(f"divergence estimate {self.value!r} is negative")
        if self.std_error is not None and not self.std_error >= 0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error!r}")


def _check_window(q: GaussianMixture1D, spec: QuadratureSpec) -> None:
    outside = 1.0 - mass_inside(q, spec.lower, spec.upper)
    if outside > _MASS_TOL:
        raise ValueError(
            f"quadrature window [{spec.lower}, {spec.upper}] misses {outside:.3g} "
            "of the data distribution's mass"
        )


def fisher_divergence(
    q: GaussianMixture1D, p: GaussianMixture1D, spec: QuadratureSpec | None = None
) -> DivergenceEstimate:
    """Quadrature value of J(q||p) = int q(x) (score_q(x) - score_p(x))^2 dx.

    The default window is widened to cover all components of both arguments;
    an explicit window that drops more than 1e-6 of q's mass is rejected.
    """
    if spec is None:
        spec = quadrature_window(q, p)
    _check_window(q, spec)

    def integrand(x):
        diff = score(q, x) - score(p, x)
        return pdf(q, x) * diff * diff

    value = quad_integrate(integrand, spec)
    return DivergenceEstimate(value)


def fisher_divergence_mc(
    q_samples: np.ndarray, q: GaussianMixture1D, p: GaussianMixture1D
) -> DivergenceEstimate:
    """Monte-Carlo J(q||p) from samples of q, using both analytic scores.

    Serves as an independent cross-check of the quadrature path; the two
    agree within a few standard errors when the samples really come from q.
    """
    xs = _samples(q_samples, "q_samples")
    diff = score(q, xs) - score(p, xs)
    sq = diff * diff
    value = float(sq.mean())
    std_error = float(sq.std(ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else 0.0
    return DivergenceEstimate(value, std_error)


def sm_objective_empirical(samples: np.ndarray, p: GaussianMixture1D) -> float:
    """Empirical score-matching objective, mean of 1/2 score^2 + score'.

    Estimates J(data||p)/2 up to the model-independent constant
    -E[score_data^2]/2, so it can be driven entirely by samples.  Depends on
    the model only through its score, never through the normaliser.
    """
    xs = _samples(samples)
    s = score(p, xs)
    return float((0.5 * s * s + score_derivative(p, xs)).mean())
