import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorelab as sl
import scorelab.svgd as svgd_module
from scorelab.svgd import _SPAN, _gauss_tile, _tile_work
from scorelab.svgd import _TILE as TILE

KERNEL = sl.KernelSpec(1.0)
TARGET = sl.two_component(0.5, -4, 4, 1)


class TestDirection:
    def test_single_particle_reduces_to_score(self):
        d = sl.svgd_direction(np.array([1.7]), sl.gaussian(0, 1), KERNEL)
        assert d[0] == sl.score(sl.gaussian(0, 1), 1.7)

    def test_two_symmetric_particles_oppose(self):
        d = sl.svgd_direction(np.array([-2.0, 2.0]), TARGET, KERNEL)
        assert d[0] == -d[1]

    def test_mode_local_ensemble_is_nearly_stationary(self):
        # calibrated: max |direction| 0.112, mean 0.050 for this stream
        rng = sl.make_stream(5, 0)
        x = sl.sample(sl.gaussian(-4, 1), 50, rng)
        d = sl.svgd_direction(x, TARGET, KERNEL)
        assert np.max(np.abs(d)) < 0.5
        assert abs(d.mean()) < 0.1

    def test_permutation_equivariance_bit_exact(self):
        rng = sl.make_stream(8, 0)
        x = sl.sample(TARGET, 64, rng)
        perm = np.random.default_rng(4).permutation(x.size)
        d = sl.svgd_direction(x, TARGET, KERNEL)
        d_perm = sl.svgd_direction(x[perm], TARGET, KERNEL)
        assert np.array_equal(d_perm, d[perm])

    @pytest.mark.parametrize(
        "n, from_target",
        [(200, False), (2 * TILE + 37, False), (200, True)],
        ids=["200", str(2 * TILE + 37), "200 from target"],
    )
    def test_tiles_match_sort_per_row_sum(self, n, from_target):
        # the earlier formula: each particle's N contributions sorted, then
        # summed; the tiled sums agree with it to rounding.  An ensemble drawn
        # from the target is under _SPAN bandwidths wide, so its one tile is
        # a rank-3 tile; it is held to 1e-14 of each row's sum of |terms| / N
        # (2.4e-15 was the worst of six streams)
        rng = sl.make_stream(8, 1)
        x = sl.sample(TARGET, n, rng) if from_target else 3.0 * rng.standard_normal(n)
        s = sl.score(TARGET, x)
        d = x[:, None] - x[None, :]
        contrib = np.exp(-d * d / 2.0) * (s[None, :] + d)
        scale = np.abs(contrib).sum(axis=1) / x.size
        contrib.sort(axis=1)
        reference = contrib.sum(axis=1) / x.size
        got = sl.svgd_direction(x, TARGET, KERNEL)
        if from_target:
            assert np.ptp(x) <= _SPAN * KERNEL.bandwidth
            assert np.all(np.abs(got - reference) <= 1e-14 * scale)
        else:
            assert np.max(np.abs(got - reference)) <= 1e-15
        perm = np.random.default_rng(5).permutation(x.size)
        d_perm = sl.svgd_direction(x[perm], TARGET, KERNEL)
        assert np.array_equal(d_perm, got[perm])

    @pytest.mark.parametrize("n", [200, 600])
    def test_matches_long_double_reference_on_both_tile_paths(self, n, monkeypatch):
        # ensembles from two unit components `separation` apart: the narrow
        # bandwidths take only elementwise tiles, the wide ones rank-3 tiles
        # wherever a tile pair spans at most _SPAN bandwidths.  Every row is
        # held to 1e-14 of its scale sum k (|s| + |d| / h^2) / N; the worst
        # seen was 2.5e-15, and 9.5e-16 with elementwise tiles alone
        paths = {"rank3": 0, "gauss": 0}

        def counted(path, fn):
            def call(*args):
                paths[path] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(svgd_module, "_rank3_tile", counted("rank3", svgd_module._rank3_tile))
        monkeypatch.setattr(svgd_module, "_gauss_tile", counted("gauss", svgd_module._gauss_tile))
        for bandwidth, separation in itertools.product([0.05, 0.7, 1.0, 5.0], [8, 40, 200]):
            target = sl.two_component(0.5, -separation / 2, separation / 2, 1.0)
            x = sl.sample(target, n, sl.make_stream(3, n))
            s = sl.score(target, x)
            got = sl.svgd_direction(x, target, sl.KernelSpec(bandwidth))
            xl = x.astype(np.longdouble)
            d = xl[:, None] - xl[None, :]
            h2 = np.longdouble(bandwidth) ** 2
            k = np.exp(-d * d / (2 * h2))
            reference = (k * (s[None, :] + d / h2)).sum(axis=1) / n
            scale = (k * (np.abs(s)[None, :] + np.abs(d) / h2)).sum(axis=1) / n
            err = np.abs(got - reference) / scale
            assert np.all(err <= 1e-14), (bandwidth, separation, float(err.max()))
        assert paths["rank3"] > 0 and paths["gauss"] > 0, paths

    def test_equal_positions_across_a_tile_edge_move_together(self):
        x = np.sort(3.0 * sl.make_stream(8, 2).standard_normal(2 * TILE + 37))
        x[TILE] = x[TILE + 1] = x[TILE - 1]
        d = sl.svgd_direction(x, TARGET, KERNEL)
        assert d[TILE - 1] == d[TILE] == d[TILE + 1]
        perm = np.random.default_rng(6).permutation(x.size)
        d_perm = sl.svgd_direction(x[perm], TARGET, KERNEL)
        assert np.array_equal(d_perm, d[perm])

    def test_equal_positions_inside_one_tile_move_together(self):
        # N = 200 is one tile; three positions appear twice each
        x = 3.0 * sl.make_stream(8, 3).standard_normal(200)
        x[[10, 20, 30]] = x[[150, 160, 170]]
        d = sl.svgd_direction(x, TARGET, KERNEL)
        assert np.array_equal(d[[10, 20, 30]], d[[150, 160, 170]])
        perm = np.random.default_rng(7).permutation(x.size)
        d_perm = sl.svgd_direction(x[perm], TARGET, KERNEL)
        assert np.array_equal(d_perm, d[perm])


class TestPositionsChecked:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([]), "positions must be a 1-D array of length at least 1"),
            (np.zeros((2, 2)), "positions must be a 1-D array of length at least 1"),
            (np.array([0.0, np.nan]), "positions must be finite"),
            (np.array([np.inf]), "positions must be finite"),
        ],
        ids=["empty", "2-D", "nan", "inf"],
    )
    def test_direction_and_run_reject(self, bad, message):
        with pytest.raises(ValueError, match=message):
            sl.svgd_direction(bad, TARGET, KERNEL)
        with pytest.raises(ValueError, match=message):
            sl.svgd_run(bad, TARGET, sl.SvgdConfig(kernel=KERNEL, iterations=1))

    def test_run_leaves_its_start_unchanged(self):
        init = np.array([-1.0, 0.5, 2.0])
        final = sl.svgd_run(init, TARGET, sl.SvgdConfig(kernel=KERNEL, iterations=3))
        assert np.array_equal(init, [-1.0, 0.5, 2.0])
        assert not np.array_equal(final, init)


class TestRun:
    def test_single_particle_is_score_ascent(self):
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.05, iterations=40)
        final = sl.svgd_run(np.array([2.5]), TARGET, cfg)
        x = 2.5
        for _ in range(40):
            x = x + 0.05 * sl.score(TARGET, x)
        assert final[0] == x

    def test_run_equals_direction_loop(self):
        # the run reuses one tile workspace across steps; ragged tiles and
        # stale slab contents must not change a bit
        x0 = 3.0 * sl.make_stream(8, 3).standard_normal(2 * TILE + 37)
        cfg = sl.SvgdConfig(kernel=sl.KernelSpec(0.8), step_size=0.1, iterations=20)
        final = sl.svgd_run(x0, TARGET, cfg)
        x = x0
        for _ in range(20):
            x = x + 0.1 * sl.svgd_direction(x, TARGET, cfg.kernel)
        assert np.array_equal(final, x)

    def test_crossing_run_equals_direction_loop(self):
        # a large step makes particles cross, so the run re-sorts its
        # ensemble; the run must still equal the loop bit for bit and be
        # permutation-equivariant
        x0 = 3.0 * sl.make_stream(8, 4).standard_normal(2 * TILE + 37)
        cfg = sl.SvgdConfig(kernel=sl.KernelSpec(0.3), step_size=5.0, iterations=20)
        final = sl.svgd_run(x0, TARGET, cfg)
        x, crossings = x0, 0
        for _ in range(20):
            step = x + 5.0 * sl.svgd_direction(x, TARGET, cfg.kernel)
            crossings += not np.array_equal(np.argsort(x, kind="stable"), np.argsort(step, kind="stable"))
            x = step
        assert crossings >= 10
        assert np.array_equal(final, x)
        perm = np.random.default_rng(9).permutation(x0.size)
        moved = sl.svgd_run(x0[perm], TARGET, cfg)
        assert np.array_equal(moved, final[perm])

    def test_tied_run_equals_direction_loop(self):
        # repeated positions, one triple straddling a tile edge, under a
        # large step that makes particles cross: tied particles move
        # together, and the run equals the loop bit for bit and is
        # permutation-equivariant
        x0 = np.sort(3.0 * sl.make_stream(8, 6).standard_normal(2 * TILE + 37))
        x0[TILE] = x0[TILE + 1] = x0[TILE - 1]
        x0[[500, 510, 520]] = x0[[300, 310, 320]]
        cfg = sl.SvgdConfig(kernel=sl.KernelSpec(0.3), step_size=5.0, iterations=20)
        final = sl.svgd_run(x0, TARGET, cfg)
        x = x0
        for _ in range(20):
            x = x + 5.0 * sl.svgd_direction(x, TARGET, cfg.kernel)
        assert np.array_equal(final, x)
        assert final[TILE - 1] == final[TILE] == final[TILE + 1]
        assert np.array_equal(final[[500, 510, 520]], final[[300, 310, 320]])
        perm = np.random.default_rng(10).permutation(x0.size)
        assert np.array_equal(sl.svgd_run(x0[perm], TARGET, cfg), final[perm])

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_nonfinite_position_names_lowest_particle_in_input_order(self, perm):
        # the particles at +-1e150 overflow in the first step and the one at
        # 0.5 does not; the message names the lower of the two input indices,
        # whatever their sorted positions
        x = np.array([0.5, 1e150, -1e150])[list(perm)]
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=1e300, iterations=5)
        bad = min(i for i, v in enumerate(x) if abs(v) > 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=rf"iteration 0, particle {bad}$"):
                sl.svgd_run(x, sl.gaussian(0, 1), cfg)

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the rank-3 tiles are BLAS products, and the BLAS reads its thread
        # count once at load, so each count runs in its own interpreter; each
        # size runs once on rank-3 tiles (an ensemble from the target at
        # bandwidth 1) and once on elementwise ones (bandwidth 0.05)
        script = """
import json, sys
import scorelab as sl
import scorelab.svgd as sv
paths = {"rank3": 0, "gauss": 0}
def counted(path, fn):
    def call(*args):
        paths[path] += 1
        return fn(*args)
    return call
sv._rank3_tile = counted("rank3", sv._rank3_tile)
sv._gauss_tile = counted("gauss", sv._gauss_tile)
target = sl.two_component(0.5, -4.0, 4.0, 1.0)
for n in json.loads(sys.argv[1]):
    for bandwidth in (1.0, 0.05):
        x = sl.sample(target, n, sl.make_stream(8, n))
        cfg = sl.SvgdConfig(sl.KernelSpec(bandwidth), 0.1, 20)
        final = sl.svgd_run(x, target, cfg)
        print(n, bandwidth, paths["rank3"], paths["gauss"], final.tobytes().hex())
"""
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = str(Path(sl.__file__).resolve().parents[1])
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps([200, 549])],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        counts = [line.split()[:4] for line in outputs[0].splitlines()]
        assert len(counts) == 4
        # the running totals: every rank-3 case adds rank-3 tiles, every
        # bandwidth-0.05 case elementwise ones
        previous = (0, 0)
        for n, bandwidth, rank3, gauss in counts:
            rank3, gauss = int(rank3), int(gauss)
            if bandwidth == "1.0":
                assert rank3 > previous[0]
            else:
                assert gauss > previous[1] and rank3 == previous[0]
            previous = (rank3, gauss)

    def test_translation_equivariance(self):
        c = 2.0
        rng = sl.make_stream(9, 0)
        init = sl.sample(sl.gaussian(-4, 1), 32, rng)
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=50)
        base = sl.svgd_run(init, TARGET, cfg)
        shifted_target = sl.two_component(0.5, -4 + c, 4 + c, 1)
        moved = sl.svgd_run(init + c, shifted_target, cfg)
        assert np.allclose(moved, base + c, atol=1e-9)

    def test_mode_seeking_from_left_mode(self):
        rng = sl.make_stream(7, 0)
        init = -4 + rng.standard_normal(200)
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=2000)
        final = sl.svgd_run(init, TARGET, cfg)
        assert sl.mode_fraction(final, 0.0) > 0.9

    def test_wide_midpoint_init_splits(self):
        # 20-seed calibration put the split in [0.465, 0.575]
        rng = sl.make_stream(7, 1)
        init = 0 + 3 * rng.standard_normal(200)
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.1, iterations=1000)
        final = sl.svgd_run(init, TARGET, cfg)
        assert 0.3 <= sl.mode_fraction(final, 0.0) <= 0.7

    def test_single_mode_sanity(self):
        rng = sl.make_stream(11, 0)
        init = rng.uniform(-3, 3, 200)
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=0.05, iterations=2000)
        final = sl.svgd_run(init, sl.gaussian(0, 1), cfg)
        assert abs(final.mean()) < 0.1
        assert 0.8 <= final.std() <= 1.2

    def test_observer_sees_every_step_in_particle_order(self):
        # a large step makes particles cross, so the run re-sorts between
        # the steps it reports
        x0 = 3.0 * sl.make_stream(8, 5).standard_normal(40)
        cfg = sl.SvgdConfig(kernel=sl.KernelSpec(0.3), step_size=5.0, iterations=10)
        seen = []
        final = sl.svgd_run(x0, TARGET, cfg, lambda it, positions: seen.append((it, positions)))
        assert [it for it, _ in seen] == list(range(1, 11))
        x, crossings = x0, 0
        for _, positions in seen:
            step = x + 5.0 * sl.svgd_direction(x, TARGET, cfg.kernel)
            crossings += not np.array_equal(np.argsort(x, kind="stable"), np.argsort(step, kind="stable"))
            x = step
            assert np.array_equal(positions, x)
        assert crossings >= 3
        assert np.array_equal(seen[-1][1], final)
        # each call gets its own array, and the run returns another
        assert len({id(positions) for _, positions in seen} | {id(final)}) == 11

    def test_nonfinite_position_names_iteration_and_particle(self):
        cfg = sl.SvgdConfig(kernel=KERNEL, step_size=1e300, iterations=5)
        init = np.array([1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"iteration \d+, particle 0"):
                sl.svgd_run(init, sl.gaussian(0, 1), cfg)

    def test_noise_annealing_ends_near_pi1_from_either_mode(self):
        # demo 04's remedy at N = 100: SVGD on smooth(target, sigma) for 200
        # steps per level, sigma 8 -> 0.5 over 8 levels, then 500 steps on
        # the target.  Over seeds 0 to 19 the runs from N(-4, 1) and N(4, 1)
        # ended at 0.14 to 0.17, at most 0.03 apart; the bias above pi1 is
        # SVGD's, not the schedule's.  Plain SVGD from the same starts keeps
        # each start's mode.
        target = sl.two_component(0.1, -4, 4, 1)
        annealed, plain = [], []
        for idx, mu0 in enumerate([-4, 4]):
            init = mu0 + sl.make_stream(0, idx).standard_normal(100)
            ensemble = init
            for sigma in sl.geometric_schedule(8.0, 0.5, 8).sigmas:
                level = sl.SvgdConfig(kernel=KERNEL, step_size=0.1 * (1 + sigma**2), iterations=200)
                ensemble = sl.svgd_run(ensemble, sl.smooth(target, sigma), level)
            ensemble = sl.svgd_run(ensemble, target, sl.SvgdConfig(kernel=KERNEL, iterations=500))
            annealed.append(sl.mode_fraction(ensemble, 0.0))
            final = sl.svgd_run(init, target, sl.SvgdConfig(kernel=KERNEL, iterations=500))
            plain.append(sl.mode_fraction(final, 0.0))
        assert abs(annealed[0] - annealed[1]) <= 0.03
        assert all(0.12 <= f <= 0.19 for f in annealed), annealed
        assert plain == [1.0, 0.0]


class TestConfigValidation:
    def test_positive_step(self):
        with pytest.raises(ValueError):
            sl.SvgdConfig(step_size=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_step(self, bad):
        with pytest.raises(ValueError, match="step_size: must be positive and finite"):
            sl.SvgdConfig(step_size=bad)


class TestModeFraction:
    def test_all_below(self):
        assert sl.mode_fraction(np.full(5, -1.0), 0.0) == 1.0

    def test_even_split(self):
        assert sl.mode_fraction(np.array([-1.0, 1.0]), 0.0) == 0.5

    def test_tie_counts_as_below(self):
        assert sl.mode_fraction(np.array([0.0, 1.0]), 0.0) == 0.5

    def test_matches_component_mass(self):
        m = sl.two_component(0.1, -4, 4, 1)
        xs = sl.sample(m, 100_000, sl.make_stream(13, 0))
        frac = sl.mode_fraction(xs, 0.0)
        assert frac == pytest.approx(0.1, abs=0.003)


class TestGaussTile:
    # reference: one broadcast subtract, then the exponent d^2 / (-2 h^2)
    N = 2 * TILE + 37
    TILES = {
        "square": (0, TILE, TILE, 2 * TILE),
        "ragged": (0, TILE, 2 * TILE, N),
        "corner": (2 * TILE, N, 2 * TILE, N),
    }

    def _both(self, bandwidth, tile):
        a, b, c, e = self.TILES[tile]
        xs = 3.0 * sl.make_stream(4, 1).standard_normal(self.N)
        xi, xj = xs[a:b], xs[c:e]
        h2 = bandwidth**2
        d, k = _gauss_tile(xi, xj, h2, _tile_work(self.N))
        d0 = np.subtract(xi[:, None], xj[None, :])
        arg0 = np.square(d0) / (-2.0 * h2)
        return (d, k), (d0, np.exp(arg0)), arg0

    def test_workspace_is_two_slabs_holding_d_and_k(self):
        assert _tile_work(100).shape == (2, 100, 100)
        work = _tile_work(self.N)
        assert work.shape == (2, TILE, TILE)
        xs = sl.make_stream(4, 2).standard_normal(TILE + 5)
        d, k = _gauss_tile(xs[:TILE], xs[TILE:], 1.0, work)
        assert d.base is work and k.base is work
        assert np.shares_memory(d, work[0]) and np.shares_memory(k, work[1])

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("bandwidth", [0.5, 1.0, 2.0])
    def test_bits_equal_the_reference_when_2h2_is_a_power_of_two(self, bandwidth, tile):
        (d, k), (d0, k0), _ = self._both(bandwidth, tile)
        assert np.array_equal(d, d0)
        assert np.array_equal(k, k0)

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("bandwidth", [0.7, 0.05])
    def test_other_bandwidths_move_the_exponent_by_an_ulp(self, bandwidth, tile):
        (d, k), (d0, k0), arg0 = self._both(bandwidth, tile)
        assert np.array_equal(d, d0)
        assert np.array_equal(k == 0, k0 == 0)
        # a relative error e in the exponent is a relative error e * |arg| in
        # k, so near underflow (|arg| ~ 700) k moves by up to ~1e-13; where
        # |arg| <= 10 it moves by under 1e-14
        eps = np.finfo(float).eps
        bound = 4 * eps * (1 + np.abs(arg0)) * k0 + np.finfo(float).smallest_subnormal
        assert np.all(np.abs(k - k0) <= bound)
        small = np.abs(arg0) <= 10
        assert np.any(small & (k != k0))
        assert k[small] == pytest.approx(k0[small], rel=1e-14, abs=0)
