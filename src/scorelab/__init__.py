"""Numerical laboratory for score-based methods on 1-D Gaussian mixtures.

The library evaluates score matching (Fisher divergence), Stein
discrepancies, SVGD, and annealed Langevin sampling on mixtures whose
components can be made arbitrarily well separated, where score functions
stop carrying information about mixing proportions.  Quadrature oracles
make the resulting blindness measurable, and the remedies module hosts
estimators that retain probability-mass information.
"""

from .langevin import NoiseSchedule, annealed_langevin_run, geometric_schedule, langevin_step
from .mixture import (
    GaussianMixture1D,
    from_record,
    gaussian,
    log_unnorm,
    mass_inside,
    pdf,
    quadrature_window,
    sample,
    score,
    score_derivative,
    score_limit,
    smooth,
    to_record,
    two_component,
)
from .numerics import QuadratureSpec, finite_diff, make_stream, quad_integrate
from .remedies import (
    EntropyGradientEstimate,
    ImplicitModel,
    KdeModel,
    cml_loss,
    entropy_grad_estimate,
    kde_fit,
    kde_log_pdf,
    moment_discrepancy,
)
from .scorematch import (
    DivergenceEstimate,
    blindness_sweep,
    fisher_divergence,
    fisher_divergence_mc,
    sm_objective_empirical,
)
from .stein import (
    L2_Q_WEIGHTED,
    L2_UNWEIGHTED,
    KernelSpec,
    ksd_vstat,
    ksd_vstats,
    stein_discrepancy,
    witness_unweighted,
    witness_weighted,
)
from .svgd import ParticleEnsemble, SvgdConfig, mode_fraction, svgd_direction, svgd_run

__all__ = [
    "DivergenceEstimate",
    "EntropyGradientEstimate",
    "GaussianMixture1D",
    "ImplicitModel",
    "KdeModel",
    "KernelSpec",
    "L2_Q_WEIGHTED",
    "L2_UNWEIGHTED",
    "NoiseSchedule",
    "ParticleEnsemble",
    "QuadratureSpec",
    "SvgdConfig",
    "annealed_langevin_run",
    "blindness_sweep",
    "cml_loss",
    "entropy_grad_estimate",
    "finite_diff",
    "fisher_divergence",
    "fisher_divergence_mc",
    "from_record",
    "gaussian",
    "geometric_schedule",
    "kde_fit",
    "kde_log_pdf",
    "ksd_vstat",
    "ksd_vstats",
    "langevin_step",
    "log_unnorm",
    "make_stream",
    "mass_inside",
    "mode_fraction",
    "moment_discrepancy",
    "pdf",
    "quad_integrate",
    "quadrature_window",
    "sample",
    "score",
    "score_derivative",
    "score_limit",
    "smooth",
    "sm_objective_empirical",
    "stein_discrepancy",
    "svgd_direction",
    "svgd_run",
    "to_record",
    "two_component",
    "witness_unweighted",
    "witness_weighted",
]

__version__ = "0.1.0"
