"""Annealing through noise levels recovers the mixing proportions that
plain score-following cannot.

At high noise the smoothed mixture is effectively unimodal, so Langevin
dynamics distributes particles across the (smoothed) components with the
correct mass split; stepping the noise down keeps that allocation while
sharpening each mode.  Plain Langevin started inside one mode never
crosses at this separation within the same step budget.
"""

import numpy as np

import scorelab as sl

print("annealed run: geometric noise 8 -> 0.5 over 8 levels, 200 steps each")
print(f"{'pi1':>6} {'recovered left fraction':>25}")
sched = sl.geometric_schedule()
for pi1 in (0.1, 0.3, 0.5, 0.7):
    target = sl.two_component(pi1, -4, 4, 1)
    rng = sl.make_stream(7, int(pi1 * 10))
    init = target.mean() + sched.sigmas[0] * rng.standard_normal(5000)
    positions = sl.annealed_langevin_run(init, target, sched, rng)
    print(f"{pi1:6.1f} {sl.mode_fraction(positions, 0.0):25.3f}")

print()
print("plain Langevin, same step budget, all particles started at -4:")
positions = sl.annealed_langevin_run(
    np.full(5000, -4.0),
    sl.two_component(0.5, -4, 4, 1),
    sl.NoiseSchedule((0.01,), 1600, 0.01),
    sl.make_stream(8, 0),
)
print(f"  left fraction stays at {sl.mode_fraction(positions, 0.0):.4f} (target weight is 0.5)")

print()
print("the noisy scores driving the run are exact smoothed-mixture scores:")
target = sl.two_component(0.3, -4, 4, 1)
for sigma in (8.0, 2.0, 0.5):
    s0 = sl.score(sl.smooth(target, sigma), 0.0)
    print(f"  sigma={sigma:4.1f}: score at midpoint {s0:+.5f}")
print("(at high noise the score points toward the overall mean, mixing mass correctly)")
