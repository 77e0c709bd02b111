"""Fisher divergence and the empirical score-matching objective.

The divergence J(q||p) = integral of q (score_q - score_p)^2 is evaluated on
a fixed quadrature grid, with a Monte-Carlo form kept as an independent
cross-check.  `blindness_sweep` grids the two failure modes of the loss:
indifference to mixing proportions (model vs reweighted model) and to
spurious isolated components (data concentrated on one component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import (
    GaussianMixture1D,
    gaussian,
    mass_inside,
    pdf,
    quadrature_window,
    score,
    score_derivative,
    two_component,
)
from .numerics import QuadratureSpec, quad_integrate

# largest negative value still treated as quadrature round-off
_NEG_TOL = 1e-12
_MASS_TOL = 1e-6

QUADRATURE = "quadrature"


@dataclass(frozen=True)
class DivergenceEstimate:
    """Divergence value, its resolution and, for a sample estimate, its
    standard error.

    `resolution` is the node count of a quadrature value and the sample
    count of a sample estimate; `std_error` is None for a quadrature value.
    Values within round-off below zero are clamped to zero.
    """

    value: float
    resolution: int
    std_error: float | None = None

    def __post_init__(self):
        if np.isnan(self.value):
            raise ValueError("divergence estimate is NaN")
        if self.value < -_NEG_TOL:
            raise ValueError(f"divergence estimate {self.value!r} is negative beyond round-off")
        if self.value < 0.0:
            object.__setattr__(self, "value", 0.0)
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
    return DivergenceEstimate(value, spec.nodes)


def fisher_divergence_mc(
    q_samples: np.ndarray, q: GaussianMixture1D, p: GaussianMixture1D
) -> DivergenceEstimate:
    """Monte-Carlo J(q||p) from samples of q, using both analytic scores.

    Serves as an independent cross-check of the quadrature path; the two
    agree within a few standard errors when the samples really come from q.
    """
    xs = np.asarray(q_samples, dtype=float)
    if xs.size == 0:
        raise ValueError("q_samples must be nonempty")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    diff = score(q, xs) - score(p, xs)
    sq = diff * diff
    value = float(sq.mean())
    std_error = float(sq.std(ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else 0.0
    return DivergenceEstimate(value, int(sq.size), std_error)


def sm_objective_empirical(samples: np.ndarray, p: GaussianMixture1D) -> float:
    """Empirical score-matching objective, mean of 1/2 score^2 + score'.

    Estimates J(data||p)/2 up to the model-independent constant
    -E[score_data^2]/2, so it can be driven entirely by samples.  Depends on
    the model only through its score, never through the normaliser.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("samples must be nonempty")
    s = score(p, xs)
    return float((0.5 * s * s + score_derivative(p, xs)).mean())


def blindness_sweep(
    separations,
    pi_pairs,
    sigma: float,
) -> dict[str, list]:
    """Grid J(p||p') and J(q||p) over mode separations and weight pairs.

    For each separation s the component means sit at -s/2 and +s/2.  Per row:
    p has weight pair (pi, 1-pi), p' is p with pi replaced by pi_prime, and
    q is p's first component alone (the spurious-component case).  Returns
    the rows as a {column: list} table under the `sweep.csv` names.
    """
    seps = [float(s) for s in separations]
    if any(s <= 0 for s in seps) or any(b <= a for a, b in zip(seps, seps[1:])):
        raise ValueError("separations must be positive and increasing")
    pairs = [(float(a), float(b)) for a, b in pi_pairs]
    if any(not (0 < a < 1 and 0 < b < 1) for a, b in pairs):
        raise ValueError("mixing proportions must lie in (0, 1)")

    table = {
        name: []
        for name in ("separation", "pi", "pi_prime", "j_pp_prime", "j_q_p", "method", "nodes")
    }
    for s in seps:
        for pi, pi_prime in pairs:
            p = two_component(pi, -s / 2.0, s / 2.0, sigma)
            p_prime = two_component(pi_prime, -s / 2.0, s / 2.0, sigma)
            q = gaussian(-s / 2.0, sigma)
            spec = quadrature_window(p, p_prime)
            j_pp = fisher_divergence(p, p_prime, spec)
            j_qp = fisher_divergence(q, p, spec)
            row = (s, pi, pi_prime, j_pp.value, j_qp.value, QUADRATURE, spec.nodes)
            for column, value in zip(table.values(), row):
                column.append(value)
    return table
