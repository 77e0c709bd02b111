"""Stein discrepancies inherit the blindness, witnesses show why.

The optimal witness in either function class is driven by the score
difference; where the data distribution has mass, that difference decays
like the responsibility of the unseen component, so the attained supremum
collapses.  The kernelized sample estimator (KSD) behaves the same way:
data from one component cannot tell a 10/90 model from a 90/10 one.
"""

import numpy as np

import scorelab as sl

q = sl.gaussian(-4, 1)
p = sl.two_component(0.5, -4, 4, 1)
grid = np.linspace(-8, 8, 9)

# the witnesses before normalisation: the score gap, and q times it
gap = sl.score(p, grid) - sl.score(q, grid)
print("witnesses for q = N(-4,1) against the 50/50 mixture (means +/-4):")
print(f"{'x':>5} {'score gap':>12} {'density-weighted':>18}")
for x, fw, fu in zip(grid, gap, sl.pdf(q, grid) * gap):
    print(f"{x:5.1f} {fw:12.4f} {fu:18.3e}")
print("(the score gap reaches 8 on the right, exactly where q has no mass)")

print()
print("attained suprema by mode distance:")
for s in (4, 6, 8, 10):
    qq = sl.gaussian(-s / 2, 1)
    pp = sl.two_component(0.5, -s / 2, s / 2, 1)
    w = sl.stein_discrepancy(qq, pp, sl.L2_Q_WEIGHTED).value
    u = sl.stein_discrepancy(qq, pp, sl.L2_UNWEIGHTED).value
    print(f"  s={s:2d}: weighted {w:.3e}   unweighted {u:.3e}")

print()
print("KSD from 4000 samples of N(-5,1), Gaussian kernel, unit bandwidth:")
xs = sl.sample(sl.gaussian(-5, 1), 4000, sl.make_stream(1, 0))
kernel = sl.KernelSpec(1.0)
for label, model in [
    ("true component N(-5,1)", sl.gaussian(-5, 1)),
    ("mixture pi1=0.1", sl.two_component(0.1, -5, 5, 1)),
    ("mixture pi1=0.9", sl.two_component(0.9, -5, 5, 1)),
    ("wrong side N(+5,1)", sl.gaussian(5, 1)),
]:
    est = sl.ksd_vstat(xs, model, kernel)
    print(f"  {label:24s} {est.value:.6f}")
