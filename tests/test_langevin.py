import numpy as np
import pytest
from scipy.differentiate import derivative

import scorelab as sl
from scorelab.mixture import _logpdf

TARGET = sl.two_component(0.3, -4, 4, 1)


class TestSchedule:
    def test_strictly_decreasing_enforced(self):
        with pytest.raises(ValueError, match="decreasing"):
            sl.NoiseSchedule((1.0, 1.0), 10, 0.01)
        with pytest.raises(ValueError, match="positive"):
            sl.NoiseSchedule((1.0, 0.0), 10, 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="sigmas"):
            sl.NoiseSchedule((bad,), 1, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_base_step_rejected(self, bad):
        with pytest.raises(ValueError, match="base_step"):
            sl.NoiseSchedule((1.0,), 1, bad)

    @pytest.mark.parametrize("sigmas, base_step", [((1e160, 0.5), 0.01), ((8.0, 0.5), 1e308)])
    def test_level_step_that_overflows_rejected(self, sigmas, base_step):
        # the first raises OverflowError in the float power of step_at, the
        # second gives an infinite step
        with pytest.raises(ValueError, match="base_step: every level step"):
            sl.NoiseSchedule(sigmas, 1, base_step)

    def test_single_level_allowed(self):
        sched = sl.NoiseSchedule((0.5,), 10, 0.01)
        assert sched.step_at(0) == 0.01

    def test_step_scaling(self):
        sched = sl.NoiseSchedule((8.0, 2.0, 0.5), 10, 0.01)
        assert sched.step_at(0) == pytest.approx(0.01 * 256.0)
        assert sched.step_at(2) == pytest.approx(0.01)

    def test_single_level_is_sigma_max(self):
        assert sl.geometric_schedule(8.0, 0.5, 1).sigmas == (8.0,)
        assert sl.geometric_schedule(2.0, 2.0, 1).sigmas == (2.0,)

    @pytest.mark.parametrize(
        "sigma_max, sigma_min, levels",
        [(0.5, 8.0, 1), (0.5, 8.0, 8), (8.0, 100.0, 1), (2.0, 2.0, 2), (1.0, 0.9999999999999998, 8)],
    )
    def test_levels_that_cannot_fall_from_sigma_max_to_sigma_min_rejected(self, sigma_max, sigma_min, levels):
        with pytest.raises(ValueError, match="^sigma_max, sigma_min: "):
            sl.geometric_schedule(sigma_max, sigma_min, levels)

    def test_sigma_min_whose_square_overflows_named(self):
        # the CLI tests cover sigma_max; sigma_min fails alone only above it
        with pytest.raises(ValueError, match="^sigma_min: must be positive and finite, with a finite square"):
            sl.geometric_schedule(8.0, 1.7e308, 1)

    def test_tiny_widths_allowed(self):
        assert sl.geometric_schedule(1e-160, 1e-170, 2).sigmas == (1e-160, 1e-170)

    def test_geometric_shape(self):
        sched = sl.geometric_schedule(8.0, 0.5, 8, 200, 0.01)
        assert len(sched.sigmas) == 8
        assert sched.sigmas[0] == pytest.approx(8.0)
        assert sched.sigmas[-1] == pytest.approx(0.5)
        ratios = np.diff(np.log(sched.sigmas))
        assert np.allclose(ratios, ratios[0])


class TestLangevinStep:
    def test_deterministic_given_stream_state(self):
        a = sl.langevin_step(np.zeros(4), np.zeros(4), 0.01, sl.make_stream(1, 0))
        b = sl.langevin_step(np.zeros(4), np.zeros(4), 0.01, sl.make_stream(1, 0))
        assert np.array_equal(a, b)

    def test_drift_and_noise_shape(self):
        rng = sl.make_stream(2, 0)
        out = sl.langevin_step(np.array([1.0, -1.0]), np.array([2.0, -2.0]), 0.04, rng)
        assert out.shape == (2,)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            sl.langevin_step(0.0, 0.0, 0.0, sl.make_stream(0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_step_rejected(self, bad):
        with pytest.raises(ValueError, match="eps"):
            sl.langevin_step(np.zeros(3), np.zeros(3), bad, sl.make_stream(0, 0))

    def test_stationarity_on_standard_normal(self):
        rng = sl.make_stream(3, 0)
        g = sl.gaussian(0, 1)
        x = rng.standard_normal(10_000)
        for _ in range(5000):
            x = sl.langevin_step(x, sl.score(g, x), 0.01, rng)
        assert abs(x.mean()) < 0.05
        assert abs(x.var() - 1.0) < 0.05


class TestNoisyScore:
    """The score of the target smoothed with N(0, sigma^2) noise."""

    def test_heavy_smoothing_merges_components(self):
        # one wide bump: score at 0 is -(0 - mean) / (sigma_j^2 + sigma^2)
        merged = sl.score(sl.smooth(TARGET, 100.0), 0.0)
        approx = -(0.0 - TARGET.mean()) / 100.0**2
        assert merged == pytest.approx(approx, rel=0.05)

    def test_light_smoothing_changes_little(self):
        xs = np.linspace(-8, 8, 81)
        delta = np.abs(sl.score(sl.smooth(TARGET, 0.01), xs) - sl.score(TARGET, xs))
        assert delta.max() < 1e-3

    def test_symmetry_survives_smoothing(self):
        sym = sl.two_component(0.5, -3, 3, 1)
        assert sl.score(sl.smooth(sym, 2.0), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_consistent_with_smoothed_log_density(self):
        noisy = sl.smooth(TARGET, 2.0)
        spec = sl.quadrature_window(noisy)
        xs = np.linspace(spec.lower, spec.upper, 41)
        fd = derivative(lambda t: _logpdf(noisy, t), xs).df
        assert np.max(np.abs(sl.score(sl.smooth(TARGET, 2.0), xs) - fd)) < 1e-6

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            sl.score(sl.smooth(TARGET, 0.0), 0.0)


class TestAnnealedRun:
    def test_deterministic(self):
        sched = sl.geometric_schedule(4.0, 0.5, 4, 50, 0.01)
        a = sl.annealed_langevin_run(200, TARGET, sched, sl.make_stream(5, 0))
        b = sl.annealed_langevin_run(200, TARGET, sched, sl.make_stream(5, 0))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("pi1", [0.1, 0.3, 0.5])
    def test_recovers_mixing_proportion(self, pi1):
        target = sl.two_component(pi1, -4, 4, 1)
        positions = sl.annealed_langevin_run(
            5000, target, sl.geometric_schedule(), sl.make_stream(2024, int(pi1 * 10))
        )
        assert abs(sl.mode_fraction(positions, 0.0) - pi1) < 0.05

    def test_plain_langevin_stays_in_start_mode(self):
        # same step budget, concentrated init, no annealing: no crossings
        single = sl.NoiseSchedule((0.01,), 1600, 0.01)
        positions = sl.annealed_langevin_run(
            5000,
            sl.two_component(0.5, -4, 4, 1),
            single,
            sl.make_stream(99, 0),
            init=np.full(5000, -4.0),
        )
        assert sl.mode_fraction(positions, 0.0) > 0.99

    def test_single_gaussian_target_matches_moments(self):
        # the run equilibrates to the sigma_min-smoothed law, so recovering
        # the raw target needs a final level well below the target width
        target = sl.gaussian(1.0, 1.0)
        positions = sl.annealed_langevin_run(
            5000, target, sl.geometric_schedule(4.0, 0.1, 8, 500, 0.01), sl.make_stream(41, 0)
        )
        assert abs(positions.mean() - 1.0) < 0.05
        assert abs(positions.var() - 1.0) < 0.05

    def test_returns_a_float_array_of_the_particles(self):
        sched = sl.geometric_schedule(2.0, 0.5, 2, 5, 0.01)
        positions = sl.annealed_langevin_run(7, TARGET, sched, sl.make_stream(1, 0), init=np.arange(7))
        assert isinstance(positions, np.ndarray)
        assert positions.dtype == np.float64
        assert positions.shape == (7,)

    def test_observer_sees_every_step(self):
        sched = sl.geometric_schedule(2.0, 0.5, 2, 5, 0.01)
        seen = []
        sl.annealed_langevin_run(
            10, TARGET, sched, sl.make_stream(6, 0), observer=lambda *args: seen.append(args[:3])
        )
        assert len(seen) == 10
        assert seen[0][:1] == (0,)
        assert seen[-1][0] == 1

    def test_nonfinite_particle_names_level_and_step(self):
        bad = sl.NoiseSchedule((1.0,), 5, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"particle 0 at level 0, step \d+"):
                sl.annealed_langevin_run(4, TARGET, bad, sl.make_stream(7, 0))
            # only particle 2 starts where the score overflows
            init = np.array([0.0, 0.0, 1e300, 0.0])
            with pytest.raises(FloatingPointError, match=r"particle 2 at level 0, step 0$"):
                sl.annealed_langevin_run(
                    4, TARGET, sl.NoiseSchedule((1.0,), 5, 0.01), sl.make_stream(7, 0), init=init
                )

    def test_particle_count_checked(self):
        with pytest.raises(ValueError, match="^n_particles must be >= 1"):
            sl.annealed_langevin_run(0, TARGET, sl.NoiseSchedule((1.0,), 1, 0.01), sl.make_stream(0))

    def test_init_shape_checked(self):
        with pytest.raises(ValueError, match="init"):
            sl.annealed_langevin_run(
                4, TARGET, sl.NoiseSchedule((1.0,), 5, 0.01), sl.make_stream(8, 0), init=np.zeros(3)
            )
