"""How the score of a well-separated mixture forgets its mixing weights.

A two-component Gaussian mixture with means at -4 and +4 keeps
essentially the same score function whether the left component carries
10% or 90% of the mass: away from the midpoint, the score converges to a
piecewise function of the component means alone.
"""

import numpy as np

import scorelab as sl

grid = np.array([-6.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 6.0])

print("score of 0.5*N(-4,1) + 0.5*N(4,1) vs reweighted variants")
print(f"{'x':>6} " + " ".join(f"pi1={p:<4}" for p in (0.1, 0.5, 0.9)) + "   limit")
mixture = sl.two_component(0.5, -4, 4, 1)
for x in grid:
    scores = [sl.score(sl.two_component(p1, -4, 4, 1), x) for p1 in (0.1, 0.5, 0.9)]
    limit = sl.score_limit(mixture, x)
    print(f"{x:6.1f} " + " ".join(f"{s:8.4f}" for s in scores) + f" {limit:8.4f}")

print()
print("maximum pairwise score difference on +/-3 windows around the modes:")
for s in (2, 4, 6, 8, 10):
    xs = np.concatenate([np.linspace(-s - 3, -s + 3, 501), np.linspace(s - 3, s + 3, 501)])
    a = sl.score(sl.two_component(0.1, -s, s, 1), xs)
    b = sl.score(sl.two_component(0.9, -s, s, 1), xs)
    print(f"  means at +/-{s}: {np.max(np.abs(a - b)):.3e}")
print("(the dependence on the weights dies off once the components separate)")
