import numpy as np
import pytest

import scorelab as sl
from scorelab.stein import _TILE as TILE

KERNEL = sl.KernelSpec(1.0)
TARGET = sl.two_component(0.5, -4, 4, 1)


class TestDirection:
    def test_single_particle_reduces_to_score(self):
        e = sl.ParticleEnsemble(np.array([1.7]))
        d = sl.svgd_direction(e, sl.gaussian(0, 1), KERNEL)
        assert d[0] == sl.score(sl.gaussian(0, 1), 1.7)

    def test_two_symmetric_particles_oppose(self):
        e = sl.ParticleEnsemble(np.array([-2.0, 2.0]))
        d = sl.svgd_direction(e, TARGET, KERNEL)
        assert d[0] == -d[1]

    def test_mode_local_ensemble_is_nearly_stationary(self):
        # calibrated: max |direction| 0.112, mean 0.050 for this stream
        rng = sl.make_stream(5, 0)
        e = sl.ParticleEnsemble(sl.sample(sl.gaussian(-4, 1), 50, rng))
        d = sl.svgd_direction(e, TARGET, KERNEL)
        assert np.max(np.abs(d)) < 0.5
        assert abs(d.mean()) < 0.1

    def test_permutation_equivariance_bit_exact(self):
        rng = sl.make_stream(8, 0)
        x = sl.sample(TARGET, 64, rng)
        perm = np.random.default_rng(4).permutation(x.size)
        d = sl.svgd_direction(sl.ParticleEnsemble(x), TARGET, KERNEL)
        d_perm = sl.svgd_direction(sl.ParticleEnsemble(x[perm]), TARGET, KERNEL)
        assert np.array_equal(d_perm, d[perm])

    @pytest.mark.parametrize("n", [200, 2 * TILE + 37])
    def test_tiles_match_sort_per_row_sum(self, n):
        # the earlier formula: each particle's N contributions sorted, then
        # summed; the tiled sums agree with it to rounding
        rng = sl.make_stream(8, 1)
        x = 3.0 * rng.standard_normal(n)
        s = sl.score(TARGET, x)
        d = x[:, None] - x[None, :]
        contrib = np.exp(-d * d / 2.0) * (s[None, :] + d)
        contrib.sort(axis=1)
        reference = contrib.sum(axis=1) / x.size
        got = sl.svgd_direction(sl.ParticleEnsemble(x), TARGET, KERNEL)
        assert np.max(np.abs(got - reference)) <= 1e-15
        perm = np.random.default_rng(5).permutation(x.size)
        d_perm = sl.svgd_direction(sl.ParticleEnsemble(x[perm]), TARGET, KERNEL)
        assert np.array_equal(d_perm, got[perm])

    def test_equal_positions_across_a_tile_edge_move_together(self):
        x = np.sort(3.0 * sl.make_stream(8, 2).standard_normal(2 * TILE + 37))
        x[TILE] = x[TILE + 1] = x[TILE - 1]
        d = sl.svgd_direction(sl.ParticleEnsemble(x), TARGET, KERNEL)
        assert d[TILE - 1] == d[TILE] == d[TILE + 1]
        perm = np.random.default_rng(6).permutation(x.size)
        d_perm = sl.svgd_direction(sl.ParticleEnsemble(x[perm]), TARGET, KERNEL)
        assert np.array_equal(d_perm, d[perm])


class TestRun:
    def test_single_particle_is_score_ascent(self):
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.05, iterations=40)
        final, _ = sl.svgd_run(sl.ParticleEnsemble(np.array([2.5])), TARGET, cfg)
        x = 2.5
        for _ in range(40):
            x = x + 0.05 * sl.score(TARGET, x)
        assert final.positions[0] == x
        assert final.iteration == 40

    def test_translation_equivariance(self):
        c = 2.0
        rng = sl.make_stream(9, 0)
        init = sl.sample(sl.gaussian(-4, 1), 32, rng)
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=50)
        base, _ = sl.svgd_run(sl.ParticleEnsemble(init), TARGET, cfg)
        shifted_target = sl.two_component(0.5, -4 + c, 4 + c, 1)
        moved, _ = sl.svgd_run(sl.ParticleEnsemble(init + c), shifted_target, cfg)
        assert np.allclose(moved.positions, base.positions + c, atol=1e-9)

    def test_mode_seeking_from_left_mode(self):
        rng = sl.make_stream(7, 0)
        init = sl.ParticleEnsemble(-4 + rng.standard_normal(200))
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=2000)
        final, _ = sl.svgd_run(init, TARGET, cfg)
        assert sl.mode_fraction(final, 0.0) > 0.9

    def test_wide_midpoint_init_splits(self):
        # 20-seed calibration put the split in [0.465, 0.575]
        rng = sl.make_stream(7, 1)
        init = sl.ParticleEnsemble(0 + 3 * rng.standard_normal(200))
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=1000)
        final, _ = sl.svgd_run(init, TARGET, cfg)
        assert 0.3 <= sl.mode_fraction(final, 0.0) <= 0.7

    def test_single_mode_sanity(self):
        rng = sl.make_stream(11, 0)
        init = sl.ParticleEnsemble(rng.uniform(-3, 3, 200))
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.05, iterations=2000)
        final, _ = sl.svgd_run(init, sl.gaussian(0, 1), cfg)
        assert abs(final.positions.mean()) < 0.1
        assert 0.8 <= final.positions.std() <= 1.2

    def test_snapshots_recorded(self):
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=10, snapshot_every=4)
        init = sl.ParticleEnsemble(np.array([-1.0, 1.0]))
        final, snaps = sl.svgd_run(init, TARGET, cfg)
        assert [it for it, _ in snaps] == [0, 4, 8, 10]
        assert np.array_equal(snaps[-1][1], final.positions)

    def test_nonfinite_position_names_iteration_and_particle(self):
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=1e300, iterations=5)
        init = sl.ParticleEnsemble(np.array([1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"iteration \d+, particle 0"):
                sl.svgd_run(init, sl.gaussian(0, 1), cfg)

    def test_annealed_mode_runs_and_matches_plain_at_beta_one(self):
        init = sl.ParticleEnsemble(np.array([-3.0, -1.0, 2.0]))
        plain = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=30)
        trivial = sl.SvgdConfig(
            kernel=KERNEL, step_size=0.1, iterations=30, beta_schedule=(1.0,)
        )
        a, _ = sl.svgd_run(init, TARGET, plain)
        b, _ = sl.svgd_run(init, TARGET, trivial)
        assert np.array_equal(a.positions, b.positions)

    def test_annealed_schedule_with_rescale(self):
        init = sl.ParticleEnsemble(np.array([-3.0, -1.0, 2.0, 3.5]))
        cfg = sl.SvgdConfig(
            kernel=KERNEL,
            step_size=0.05,
            iterations=60,
            beta_schedule=(0.25, 0.5, 1.0),
            rescale_step=True,
        )
        final, _ = sl.svgd_run(init, TARGET, cfg)
        assert np.all(np.isfinite(final.positions))


class TestConfigValidation:
    def test_beta_schedule_must_end_at_one(self):
        with pytest.raises(ValueError, match="end at 1"):
            sl.SvgdConfig(beta_schedule=(0.5, 0.9))

    def test_beta_schedule_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            sl.SvgdConfig(beta_schedule=(0.9, 0.5, 1.0))

    def test_beta_schedule_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            sl.SvgdConfig(beta_schedule=(0.0, 1.0))

    def test_positive_step(self):
        with pytest.raises(ValueError):
            sl.SvgdConfig(step_size=0.0)


class TestModeFraction:
    def test_all_below(self):
        assert sl.mode_fraction(sl.ParticleEnsemble(np.full(5, -1.0)), 0.0) == 1.0

    def test_even_split(self):
        assert sl.mode_fraction(sl.ParticleEnsemble(np.array([-1.0, 1.0])), 0.0) == 0.5

    def test_tie_counts_as_below(self):
        assert sl.mode_fraction(sl.ParticleEnsemble(np.array([0.0, 1.0])), 0.0) == 0.5

    def test_matches_component_mass(self):
        m = sl.two_component(0.1, -4, 4, 1)
        xs = sl.sample(m, 100_000, sl.make_stream(13, 0))
        frac = sl.mode_fraction(sl.ParticleEnsemble(xs), 0.0)
        assert frac == pytest.approx(0.1, abs=0.003)
