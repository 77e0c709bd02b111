import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorelab as sl
from conftest import random_mixture_pairs
from scorelab.stein import _TILE as TILE
from scorelab.stein import _gauss_tile, _tile_work

N01 = sl.gaussian(0.0, 1.0)
N04 = sl.gaussian(0.0, 2.0)  # variance 4
GRID = np.linspace(-16, 16, 641)


def fine_quad(f, lo, hi):
    return sl.quad_integrate(f, sl.QuadratureSpec(lo, hi, 8193))


class TestWitnessWeighted:
    def test_identical_distributions_flagged(self):
        table = sl.witness_weighted(N01, N01, GRID)
        assert table.zero_discrepancy
        assert np.all(table.values == 0.0)

    def test_value_right_of_midpoint(self):
        # scores converge to -(x-mu2) on the right and -(x-mu1) under q,
        # leaving the mode-distance gap of 8
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        table = sl.witness_weighted(q, p, GRID)
        at5 = table.values[np.argmin(np.abs(GRID - 5.0))]
        assert at5 == pytest.approx(8.0, abs=1e-6)

    def test_value_vanishes_left_of_midpoint(self):
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        table = sl.witness_weighted(q, p, GRID)
        at_m4 = table.values[np.argmin(np.abs(GRID - (-4.0)))]
        assert abs(at_m4) < 1e-9

    def test_unit_norm_in_weighted_space(self):
        q = sl.gaussian(-1, 1.2)
        p = sl.two_component(0.4, -1, 2, 1)
        table = sl.witness_weighted(q, p, GRID)
        c = table.norm_constant
        norm = fine_quad(
            lambda x: sl.pdf(q, x) * (c * (sl.score(p, x) - sl.score(q, x))) ** 2, -16, 17
        )
        assert norm == pytest.approx(1.0, abs=1e-6)


class TestWitnessUnweighted:
    def test_identical_distributions_flagged(self):
        table = sl.witness_unweighted(N01, N01, GRID)
        assert table.zero_discrepancy
        assert np.all(table.values == 0.0)

    def test_near_zero_left_of_midpoint(self):
        # q score_p - q' collapses to q (score_p - score_q); at the midpoint
        # itself the raw value peaks at q(0) * 4 = 5.35e-4, still tiny in
        # absolute terms
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        table = sl.witness_unweighted(q, p, GRID)
        at0 = table.values[np.argmin(np.abs(GRID))]
        assert abs(at0) < 1e-3
        assert at0 == pytest.approx(5.353e-04, rel=1e-3)

    def test_vanishing_tail_kills_right_side(self):
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        table = sl.witness_unweighted(q, p, GRID)
        at4 = table.values[np.argmin(np.abs(GRID - 4.0))]
        assert abs(at4) < 1e-13

    def test_unit_norm_in_plain_space(self):
        q = sl.gaussian(-1, 1.2)
        p = sl.two_component(0.4, -1, 2, 1)
        table = sl.witness_unweighted(q, p, GRID)
        c = table.norm_constant
        norm = fine_quad(
            lambda x: (c * sl.pdf(q, x) * (sl.score(p, x) - sl.score(q, x))) ** 2, -16, 17
        )
        assert norm == pytest.approx(1.0, abs=1e-6)


class TestSteinDiscrepancy:
    def test_identical_distributions(self):
        assert sl.stein_discrepancy(N01, N01, sl.L2_Q_WEIGHTED).value <= 1e-9

    def test_weighted_equals_root_fisher(self):
        est = sl.stein_discrepancy(N01, N04, sl.L2_Q_WEIGHTED)
        assert est.value == pytest.approx(0.75, abs=1e-6)

    def test_structural_identity_on_random_pairs(self):
        for q, p in random_mixture_pairs(31, 20):
            sd = sl.stein_discrepancy(q, p, sl.L2_Q_WEIGHTED)
            j = sl.fisher_divergence(q, p)
            assert abs(sd.value**2 - j.value) < 1e-9

    def test_decay_with_separation(self):
        values_w, values_u = [], []
        for s in (4, 6, 8, 10):
            q = sl.gaussian(-s / 2, 1)
            p = sl.two_component(0.5, -s / 2, s / 2, 1)
            values_w.append(sl.stein_discrepancy(q, p, sl.L2_Q_WEIGHTED).value)
            values_u.append(sl.stein_discrepancy(q, p, sl.L2_UNWEIGHTED).value)
        assert all(a > b for a, b in zip(values_w, values_w[1:]))
        assert all(a > b for a, b in zip(values_u, values_u[1:]))

    def test_both_classes_vanish_at_wide_separation(self):
        q = sl.gaussian(-10, 1)
        p = sl.two_component(0.5, -10, 10, 1)
        assert sl.stein_discrepancy(q, p, sl.L2_Q_WEIGHTED).value < 1e-6
        assert sl.stein_discrepancy(q, p, sl.L2_UNWEIGHTED).value < 1e-6

    def test_magnitudes_at_separation_ten(self):
        # modes +/-5: the weighted supremum is sqrt(2.232e-5) = 4.72e-3
        q = sl.gaussian(-5, 1)
        p = sl.two_component(0.5, -5, 5, 1)
        assert sl.stein_discrepancy(q, p, sl.L2_Q_WEIGHTED).value == pytest.approx(
            4.7245e-03, rel=1e-3
        )
        assert sl.stein_discrepancy(q, p, sl.L2_UNWEIGHTED).value == pytest.approx(
            4.6284e-06, rel=1e-3
        )

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            sl.stein_discrepancy(N01, N04, "l2_made_up")


class TestKsd:
    def test_matched_model_is_small(self):
        xs = sl.sample(N01, 10_000, sl.make_stream(0, 0))
        est = sl.ksd_vstat(xs, N01, sl.KernelSpec(1.0))
        assert 0.0 <= est.value <= 3e-3
        assert est.std_error is not None

    def test_mismatched_model_is_large(self):
        xs = sl.sample(N01, 2_000, sl.make_stream(1, 0))
        matched = sl.ksd_vstat(xs, N01, sl.KernelSpec(1.0)).value
        shifted = sl.ksd_vstat(xs, sl.gaussian(10, 1), sl.KernelSpec(1.0)).value
        assert shifted > 10 * matched

    def test_blind_to_mixing_weights(self):
        # samples live on the left component; the two models' scores agree
        # bitwise-level on the sample support
        xs = sl.sample(sl.gaussian(-5, 1), 10_000, sl.make_stream(123, 0))
        kernel = sl.KernelSpec(1.0)
        a = sl.ksd_vstat(xs, sl.two_component(0.1, -5, 5, 1), kernel).value
        b = sl.ksd_vstat(xs, sl.two_component(0.9, -5, 5, 1), kernel).value
        assert abs(a - b) < 1e-6

    @pytest.mark.parametrize("n", [1, 2 * TILE + 37])
    @pytest.mark.parametrize(
        "bandwidth, shift",
        [(1.0, 0.0), (0.7, 0.0), (0.05, 0.0), (20.0, 0.0), (1.0, 1e3)],
        ids=["1.0", "0.7", "0.05", "20.0", "1.0-shift1e3"],
    )
    def test_tiles_agree_with_dense_evaluation(self, n, bandwidth, shift):
        # several tiles with a ragged last one, against every ordered pair
        # formed at once in input order; the tile sums centre their positions,
        # so samples far from 0 must cost no accuracy
        p = sl.two_component(0.3, -1.5 + shift, 2.0 + shift, 1.0)
        xs = sl.sample(p, n, sl.make_stream(4, 0))
        s = sl.score(p, xs)
        h2 = bandwidth**2
        d = xs[:, None] - xs[None, :]
        k = np.exp(-d * d / (2 * h2))
        u = k * (s[:, None] * s[None, :] + (s[:, None] - s[None, :]) * d / h2 + 1 / h2 - d * d / h2**2)
        row_means = u.mean(axis=1)
        est = sl.ksd_vstat(xs, p, sl.KernelSpec(bandwidth))
        # abs=0: approx's default abs of 1e-12 would swamp rel on values near 1e-3
        assert est.value == pytest.approx(float(u.mean()), rel=1e-13, abs=0)
        if n > 1:
            dense_se = 2.0 * row_means.std(ddof=1) / np.sqrt(n)
            assert est.std_error == pytest.approx(dense_se, rel=1e-12, abs=0)
        else:
            assert est.value == pytest.approx(s[0] ** 2 + 1 / h2, rel=1e-15, abs=0)
            assert est.std_error == 0.0

    def test_agrees_with_dense_evaluation(self):
        xs = sl.sample(N01, 400, sl.make_stream(2, 0))
        s = sl.score(N01, xs)
        d = xs[:, None] - xs[None, :]
        k = np.exp(-d * d / 2)
        u = k * (s[:, None] * s[None, :] + (s[:, None] - s[None, :]) * d + 1 - d * d)
        est = sl.ksd_vstat(xs, N01, sl.KernelSpec(1.0))
        assert est.value == pytest.approx(float(u.mean()), abs=1e-15)

    def test_permutation_invariance_is_bit_exact(self):
        xs = sl.sample(N01, 500, sl.make_stream(3, 0))
        perm = np.random.default_rng(9).permutation(xs.size)
        a = sl.ksd_vstat(xs, N04, sl.KernelSpec(1.0))
        b = sl.ksd_vstat(xs[perm], N04, sl.KernelSpec(1.0))
        assert a.value == b.value

    def test_multi_tile_permutation_invariance_is_bit_exact(self):
        p = sl.two_component(0.3, -1.5, 2.0, 1.0)
        xs = sl.sample(p, 2 * TILE + 37, sl.make_stream(5, 0))
        perm = np.random.default_rng(10).permutation(xs.size)
        a = sl.ksd_vstat(xs, p, sl.KernelSpec(1.0))
        b = sl.ksd_vstat(xs[perm], p, sl.KernelSpec(1.0))
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_decreases_with_sample_size(self):
        kernel = sl.KernelSpec(1.0)
        small, large = [], []
        for seed in range(20):
            rng = sl.make_stream(seed, 7)
            xs = sl.sample(N01, 10_000, rng)
            small.append(sl.ksd_vstat(xs[:100], N01, kernel).value)
            large.append(sl.ksd_vstat(xs, N01, kernel).value)
        assert np.median(small) > np.median(large)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            sl.ksd_vstat(np.array([]), N01, sl.KernelSpec(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sl.ksd_vstat(np.array([0.0, bad]), N01, sl.KernelSpec(1.0))

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            sl.KernelSpec(0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bandwidth_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            sl.KernelSpec(bad)


class TestKsdVstats:
    # K = 1, 2 and 3, with the first model repeated
    MODELS = [
        sl.gaussian(0.2, 1.3),
        sl.two_component(0.3, -1.5, 2.0, 1.0),
        sl.GaussianMixture1D([0.49, 0.49, 0.02], [-1.5, 2.0, 0.3], [1.0, 1.0, 0.5]),
        sl.gaussian(0.2, 1.3),
    ]

    @pytest.mark.parametrize("n", [1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE + 37])
    @pytest.mark.parametrize("bandwidth", [1.0, 0.7])
    def test_equals_one_call_per_model_bit_for_bit(self, n, bandwidth):
        xs = sl.sample(self.MODELS[1], n, sl.make_stream(6, 0))
        kernel = sl.KernelSpec(bandwidth)
        batched = sl.ksd_vstats(xs, self.MODELS, kernel)
        single = [sl.ksd_vstat(xs, p, kernel) for p in self.MODELS]
        assert [(e.value, e.std_error, e.resolution) for e in batched] == [
            (e.value, e.std_error, e.resolution) for e in single
        ]

    def test_permutation_invariance_is_bit_exact(self):
        xs = sl.sample(self.MODELS[2], 2 * TILE + 37, sl.make_stream(7, 0))
        perm = np.random.default_rng(11).permutation(xs.size)
        kernel = sl.KernelSpec(1.0)
        a = sl.ksd_vstats(xs, self.MODELS, kernel)
        b = sl.ksd_vstats(xs[perm], self.MODELS, kernel)
        assert [(e.value, e.std_error) for e in a] == [(e.value, e.std_error) for e in b]

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the tile sums are BLAS products, and the BLAS reads its thread count
        # once at load, so each count runs in its own interpreter
        script = """
import json, sys
import scorelab as sl
records, n = json.loads(sys.argv[1])
models = [sl.GaussianMixture1D(*r) for r in records]
xs = sl.sample(models[1], n, sl.make_stream(8, 0))
for e in sl.ksd_vstats(xs, models, sl.KernelSpec(1.0)):
    print(float.hex(e.value), float.hex(e.std_error))
"""
        records = [[m.weights.tolist(), m.means.tolist(), m.stds.tolist()] for m in self.MODELS]
        arg = json.dumps([records, 2 * TILE + 37])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = str(Path(sl.__file__).resolve().parents[1])
            proc = subprocess.run(
                [sys.executable, "-c", script, arg],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == len(self.MODELS)
        assert outputs[0] == outputs[1]

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError, match="models"):
            sl.ksd_vstats(np.array([0.0, 1.0]), [], sl.KernelSpec(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            sl.ksd_vstats(np.array([0.0, bad]), self.MODELS, sl.KernelSpec(1.0))


class TestGaussTile:
    # reference: one broadcast subtract, then the exponent q / (-2 h^2)
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
        d, q, k = _gauss_tile(xi, xj, h2, _tile_work(self.N))
        d0 = np.subtract(xi[:, None], xj[None, :])
        q0 = np.square(d0)
        arg0 = q0 / (-2.0 * h2)
        return (d, q, k), (d0, q0, np.exp(arg0)), arg0

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("bandwidth", [0.5, 1.0, 2.0])
    def test_bits_equal_the_reference_when_2h2_is_a_power_of_two(self, bandwidth, tile):
        (d, q, k), (d0, q0, k0), _ = self._both(bandwidth, tile)
        assert np.array_equal(d, d0)
        assert np.array_equal(q, q0)
        assert np.array_equal(k, k0)

    @pytest.mark.parametrize("tile", list(TILES))
    @pytest.mark.parametrize("bandwidth", [0.7, 0.05])
    def test_other_bandwidths_move_the_exponent_by_an_ulp(self, bandwidth, tile):
        (d, q, k), (d0, q0, k0), arg0 = self._both(bandwidth, tile)
        assert np.array_equal(d, d0)
        assert np.array_equal(q, q0)
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
