"""SVGD lands on whatever mixing proportions the initialization suggests.

Two hundred particles approximate the 50/50 mixture with means at -4 and
+4.  Started inside the left mode they all stay there; started wide at
the midpoint they split near 50/50; started in the right mode they all
miss the left one.  The final left-mode fraction is a function of where
the particles began, not of the target's weights.

The remedy is noise annealing, as for Langevin in demo 05: run SVGD on
the target smoothed by N(0, sigma^2) for each sigma of a falling schedule,
then on the target itself.  At pi1 = 0.1 it ends near 0.15 from every
start.  Tempering the score by beta does not help: the schedule
beta = 0.1, 0.3, 1 over 3000 steps from N(-4, 1) ended at 0.42 to 0.46
with the step divided by beta and at 0.71 to 0.735 without, so the
library keeps only the noise.
"""

import scorelab as sl

target = sl.two_component(0.5, -4, 4, 1)
cfg = sl.SvgdConfig(kernel=sl.KernelSpec(1.0), step_size=0.1, iterations=2000)

print("target: 0.5*N(-4,1) + 0.5*N(4,1); 200 particles, 2000 steps")
print(f"{'init':>16} {'left-mode fraction':>20}")
for idx, (mu0, sigma0) in enumerate([(-4, 1), (0, 3), (4, 1)]):
    rng = sl.make_stream(42, idx)
    init = mu0 + sigma0 * rng.standard_normal(200)
    final, _ = sl.svgd_run(init, target, cfg)
    frac = sl.mode_fraction(final, 0.0)
    print(f"  N({mu0:+d}, {sigma0}^2)  {frac:20.3f}")

print()
print("single particle follows the plain score field (no interaction):")
print(f"  direction at 2.5 = {sl.svgd_direction([2.5], target, cfg.kernel)[0]:.4f}"
      f" vs score {sl.score(target, 2.5):.4f}")

print()
print("noise-annealed SVGD on 0.1*N(-4,1) + 0.9*N(4,1): 200 steps on each")
print("smoothed target, sigma 8 -> 0.5 over 8 levels, then 500 steps on the target")
skewed = sl.two_component(0.1, -4, 4, 1)


def annealed(positions):
    for sigma in sl.geometric_schedule(8.0, 0.5, 8).sigmas:
        level = sl.SvgdConfig(kernel=cfg.kernel, step_size=0.1 * (1 + sigma**2), iterations=200)
        positions, _ = sl.svgd_run(positions, sl.smooth(skewed, sigma), level)
    final = sl.SvgdConfig(kernel=cfg.kernel, step_size=0.1, iterations=500)
    return sl.svgd_run(positions, skewed, final)[0]


print(f"{'init':>16} {'plain, 2000 steps':>18} {'noise-annealed':>15}")
for idx, (mu0, sigma0) in enumerate([(-4, 1), (0, 3), (4, 1)]):
    rng = sl.make_stream(42, idx)
    init = mu0 + sigma0 * rng.standard_normal(200)
    plain = sl.mode_fraction(sl.svgd_run(init, skewed, cfg)[0], 0.0)
    noised = sl.mode_fraction(annealed(init), 0.0)
    print(f"  N({mu0:+d}, {sigma0}^2)  {plain:18.3f} {noised:15.3f}")
