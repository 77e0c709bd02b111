"""Estimators that keep probability-mass information.

Three tools that detect what score-based losses miss: the pairwise
log-density-ratio loss against a mass-preserving reference (here a KDE or
the true data density), low-order moment discrepancies, and - for implicit
models - the entropy-gradient estimator, which samples under its own law
and therefore cannot be blind to itself.
"""

import numpy as np

import scorelab as sl

data = sl.two_component(0.9, -5, 5, 1)
model = sl.two_component(0.1, -5, 5, 1)  # swapped weights
samples = sl.sample(data, 2000, sl.make_stream(3, 0))

fisher = sl.fisher_divergence(data, model)
print("data 0.9/0.1 vs model 0.1/0.9, means +/-5:")
print(f"  fisher divergence        {fisher.value:.3e}   (blind)")

loss_true = sl.cml_loss(model, data, samples)
kde = sl.kde_fit(samples)
loss_kde = sl.cml_loss(model, kde, samples)
print(f"  pair log-ratio loss      {loss_true:.1f} (true reference), {loss_kde:.1f} (KDE reference)")

moments = sl.moment_discrepancy(model, samples)
print(f"  moment discrepancies     first {moments[0]:+.3f}, second {moments[1]:+.3f}")

print()
print("lambda sweep (the weighting is a free knob; too small does nothing,")
print("too large trusts the crude reference more than the model):")
for lam in (0.01, 0.1, 1.0, 10.0):
    print(f"  lambda={lam:<5g} loss={lam * loss_kde:.2f}")

print()
print("entropy gradient of an implicit scale family x = phi * z:")
for phi in (0.5, 1.0, 2.0):
    m = sl.ImplicitModel(transform=lambda z, p: p * z, transform_dphi=lambda z, p: z, phi=phi)
    est = sl.entropy_grad_estimate(m, lambda x: -x / phi**2, 100_000, sl.make_stream(4, int(phi * 2)))
    print(
        f"  phi={phi}: dH/dphi {est.value:+.4f} +/- {est.std_error:.4f};"
        f" analytic {1 / phi:+.4f}"
    )
print("(dH/dphi = -E[score(x) * dx/dphi] for any pushforward x = T(z, phi))")
