"""The score-matching loss cannot see reweighted or spurious components.

Two reference points: distinguishable models (a unit Gaussian against a
variance-4 Gaussian) sit at J = 0.5625, while a mixture against the same
mixture with swapped weights drops below 1e-4 once the modes separate by
10 widths, and a model with a huge never-observed component looks almost
perfect against single-component data.
"""

import scorelab as sl

landmark = sl.fisher_divergence(sl.gaussian(0, 1), sl.gaussian(0, 2))
print(f"J(N(0,1) || N(0,4)) = {landmark.value:.6f}   <- distinguishable models")
print()

print("blindness sweep (mode distance s, weights 0.5 vs 0.9):")
print(f"{'s':>4} {'J(p||p_reweighted)':>20} {'J(component||mixture)':>22}")
for s in (4, 6, 8, 10):
    p = sl.two_component(0.5, -s / 2, s / 2, 1.0)
    p_reweighted = sl.two_component(0.9, -s / 2, s / 2, 1.0)
    component = sl.gaussian(-s / 2, 1.0)
    j_pp = sl.fisher_divergence(p, p_reweighted).value
    j_qp = sl.fisher_divergence(component, p).value
    print(f"{s:4.0f} {j_pp:20.3e} {j_qp:22.3e}")

print()
print("the Monte-Carlo estimator agrees with quadrature:")
q, p = sl.gaussian(0, 1), sl.gaussian(0, 2)
samples = sl.sample(q, 50_000, sl.make_stream(0, 0))
mc = sl.fisher_divergence_mc(samples, q, p)
print(f"  quadrature {landmark.value:.5f} vs MC {mc.value:.5f} +/- {mc.std_error:.5f}")

print()
print("empirical objective (no normaliser needed):")
h = sl.sm_objective_empirical(samples, p)
print(f"  mean(score^2/2 + score') = {h:.5f}  -> J/2 - E[score_q^2]/2 = {0.5 * 0.5625 - 0.5:.5f}")
