import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorelab as sl
from conftest import random_mixture_pairs
from scorelab.stein import _CUTOFF, _RESOLUTION, _TERMS

N01 = sl.gaussian(0.0, 1.0)
N04 = sl.gaussian(0.0, 2.0)  # variance 4
GRID = np.linspace(-16, 16, 641)


def fine_quad(f, lo, hi):
    return sl.quad_integrate(f, sl.QuadratureSpec(lo, hi, 8193))


def scaled_up(witness, q, p, function_class):
    """The witness on GRID times its Stein discrepancy: the raw witness."""
    return witness(q, p, GRID) * sl.stein_discrepancy(q, p, function_class).value


class TestWitnessWeighted:
    def test_identical_distributions_flagged(self):
        assert np.all(sl.witness_weighted(N01, N01, GRID) == 0.0)

    def test_value_right_of_midpoint(self):
        # scores converge to -(x-mu2) on the right and -(x-mu1) under q,
        # leaving the mode-distance gap of 8
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        raw = scaled_up(sl.witness_weighted, q, p, sl.L2_Q_WEIGHTED)
        at5 = raw[np.argmin(np.abs(GRID - 5.0))]
        assert at5 == pytest.approx(8.0, abs=1e-6)

    def test_value_vanishes_left_of_midpoint(self):
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        raw = scaled_up(sl.witness_weighted, q, p, sl.L2_Q_WEIGHTED)
        at_m4 = raw[np.argmin(np.abs(GRID - (-4.0)))]
        assert abs(at_m4) < 1e-9

    def test_unit_norm_in_weighted_space(self):
        q = sl.gaussian(-1, 1.2)
        p = sl.two_component(0.4, -1, 2, 1)
        norm = fine_quad(lambda x: sl.pdf(q, x) * sl.witness_weighted(q, p, x) ** 2, -16, 17)
        assert norm == pytest.approx(1.0, abs=1e-6)


class TestWitnessUnweighted:
    def test_identical_distributions_flagged(self):
        assert np.all(sl.witness_unweighted(N01, N01, GRID) == 0.0)

    def test_near_zero_left_of_midpoint(self):
        # q score_p - q' collapses to q (score_p - score_q); at the midpoint
        # itself the raw value peaks at q(0) * 4 = 5.35e-4, still tiny in
        # absolute terms
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        raw = scaled_up(sl.witness_unweighted, q, p, sl.L2_UNWEIGHTED)
        at0 = raw[np.argmin(np.abs(GRID))]
        assert abs(at0) < 1e-3
        assert at0 == pytest.approx(5.353e-04, rel=1e-3)

    def test_vanishing_tail_kills_right_side(self):
        q = sl.gaussian(-4, 1)
        p = sl.two_component(0.5, -4, 4, 1)
        raw = scaled_up(sl.witness_unweighted, q, p, sl.L2_UNWEIGHTED)
        at4 = raw[np.argmin(np.abs(GRID - 4.0))]
        assert abs(at4) < 1e-13

    def test_unit_norm_in_plain_space(self):
        q = sl.gaussian(-1, 1.2)
        p = sl.two_component(0.4, -1, 2, 1)
        norm = fine_quad(lambda x: sl.witness_unweighted(q, p, x) ** 2, -16, 17)
        assert norm == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("witness", [sl.witness_weighted, sl.witness_unweighted])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_witness_rejects_a_non_finite_grid_point(witness, bad):
    grid = np.array([-1.0, 0.0, bad, 2.0])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="witness values must be finite"):
        witness(sl.gaussian(-1, 1.2), sl.two_component(0.4, -1, 2, 1), grid)


class TestSteinDiscrepancy:
    def test_identical_distributions(self):
        assert sl.stein_discrepancy(N01, N01, sl.L2_Q_WEIGHTED).value <= 1e-9

    def test_weighted_equals_root_fisher(self):
        est = sl.stein_discrepancy(N01, N04, sl.L2_Q_WEIGHTED)
        assert est.value == pytest.approx(0.75, abs=1e-6)

    def test_structural_identity_on_random_pairs(self):
        for q, p in random_mixture_pairs(31, 20):
            spec = sl.quadrature_window(q, p)
            sd = sl.stein_discrepancy(q, p, sl.L2_Q_WEIGHTED, spec)
            j = sl.fisher_divergence(q, p, spec)
            assert sd.value == math.sqrt(j.value)

    @pytest.mark.parametrize(
        "witness, function_class",
        [(sl.witness_weighted, sl.L2_Q_WEIGHTED), (sl.witness_unweighted, sl.L2_UNWEIGHTED)],
    )
    def test_witness_normalised_by_its_discrepancy(self, witness, function_class):
        # bit for bit the product (1 / sd) * raw, not the quotient raw / sd
        q = sl.gaussian(-1, 1.2)
        p = sl.two_component(0.4, -1, 2, 1)
        raw = sl.score(p, GRID) - sl.score(q, GRID)
        if function_class == sl.L2_UNWEIGHTED:
            raw = sl.pdf(q, GRID) * raw
        sd = sl.stein_discrepancy(q, p, function_class).value
        assert np.array_equal(witness(q, p, GRID), (1.0 / sd) * raw)

    @pytest.mark.parametrize("function_class", [sl.L2_Q_WEIGHTED, sl.L2_UNWEIGHTED])
    def test_narrow_window_rejected(self, function_class):
        q = sl.gaussian(-1, 1.2)
        p = sl.two_component(0.4, -1, 2, 1)
        narrow = sl.QuadratureSpec(-2.0, 5.0, 801)
        with pytest.raises(ValueError, match="misses .* of the data distribution's mass"):
            sl.stein_discrepancy(q, p, function_class, narrow)

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

    @pytest.mark.parametrize(
        "n, bandwidth, shift",
        [
            *[
                pytest.param(n, bandwidth, shift, id=f"{tag}-{n}")
                for bandwidth, shift, tag in [
                    (1.0, 0.0, "1.0"),
                    (0.7, 0.0, "0.7"),
                    (0.05, 0.0, "0.05"),
                    (20.0, 0.0, "20.0"),
                    (1.0, 1e3, "1.0-shift1e3"),
                ]
                for n in (1, 549)
            ],
            pytest.param(3000, 20.0, 0.0, id="20.0-3000"),
        ],
    )
    def test_tiles_agree_with_dense_evaluation(self, n, bandwidth, shift):
        # the box expansion against every ordered pair in input order; the
        # boxes centre their offsets, so samples far from 0 must cost no
        # accuracy
        p = sl.two_component(0.3, -1.5 + shift, 2.0 + shift, 1.0)
        xs = sl.sample(p, n, sl.make_stream(4, 0))
        s = sl.score(p, xs)
        value, std_error = dense_ksd(xs, s, bandwidth)
        est = sl.ksd_vstat(xs, p, sl.KernelSpec(bandwidth))
        # abs=0: approx's default abs of 1e-12 would swamp rel on values near 1e-3
        assert est.value == pytest.approx(value, rel=1e-13, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)
        if n == 1:
            assert est.value == pytest.approx(s[0] ** 2 + 1 / bandwidth**2, rel=1e-15, abs=0)
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
        xs = sl.sample(p, 549, sl.make_stream(5, 0))
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

    def test_bandwidth_square_must_be_a_normal_double(self):
        # bandwidth^2 overflows above about 1.34e154 and is subnormal or 0
        # below about 1.49e-154
        for bad in (1e-300, 1e-160, 1e-154, 1.4e154, 1e200):
            with pytest.raises(ValueError, match="with a normal finite square, got"):
                sl.KernelSpec(bad)
        for good in (1.5e-154, 1.3e154):
            assert sl.KernelSpec(good).bandwidth == good


class TestTinyBandwidth:
    # 800 draws 8.9e-6 apart or more: at these bandwidths every pair but
    # the diagonal has k = 0, so V = (sum s^2 + N / h^2) / N^2 exactly
    P = sl.two_component(0.5, -4, 4, 1)
    XS = sl.sample(P, 800, sl.make_stream(1, 0))

    def exact(self, bandwidth):
        s = sl.score(self.P, self.XS)
        return (np.sum(s * s) + self.XS.size / bandwidth**2) / self.XS.size**2

    @pytest.mark.parametrize("bandwidth", [1e-15, 1e-16, 1e-18])
    def test_below_the_rounding_of_the_samples_rejected(self, bandwidth):
        # the box centres round at eps * |x|, so the offsets would leave
        # |v| <= 1/2 and the sums read 0.99999999813, 0.778 and 0.65 of the
        # exact value, each with a finite std_error
        with pytest.raises(ValueError, match=f"bandwidth {bandwidth} is too small for samples reaching 7.53"):
            sl.ksd_vstat(self.XS, self.P, sl.KernelSpec(bandwidth))

    @pytest.mark.parametrize("bandwidth", [1e-12, 1e-9])
    def test_small_bandwidth_reads_the_diagonal(self, bandwidth):
        est = sl.ksd_vstat(self.XS, self.P, sl.KernelSpec(bandwidth))
        assert est.value == pytest.approx(self.exact(bandwidth), rel=1e-15, abs=0)

    def test_least_bandwidth_is_the_stated_multiple_of_the_rounding(self):
        least = _RESOLUTION * np.finfo(float).eps * np.max(np.abs(self.XS))
        est = sl.ksd_vstat(self.XS, self.P, sl.KernelSpec(least))
        assert est.value == pytest.approx(self.exact(least), rel=1e-15, abs=0)
        with pytest.raises(ValueError, match="too small"):
            sl.ksd_vstat(self.XS, self.P, sl.KernelSpec(np.nextafter(least, 0.0)))


def dense_ksd(xs, s, bandwidth, block=500):
    """Value and std_error from every ordered pair, formed in input order in
    row blocks of `block` samples; std_error is 0 for one sample.

    The four kernel terms are separate products: summed inside one bracket
    before the multiply by k, the 1/h^2 term loses its low bits to s_i s_j,
    which at N = 3000 and bandwidth 20 moved the value by up to 1.4e-12
    relative against an extended-precision sum.
    """
    n = xs.size
    h2 = bandwidth**2
    row_sums = np.empty(n)
    for a in range(0, n, block):
        si = s[a : a + block, None]
        d = xs[a : a + block, None] - xs[None, :]
        k = np.exp(-d * d / (2 * h2))
        u = k * (si * s[None, :]) + k * d / h2 * (si - s[None, :]) + k / h2 - k * (d * d) / h2**2
        row_sums[a : a + block] = u.sum(axis=1)
    value = row_sums.sum() / (n * n)
    std_error = 2.0 * (row_sums / n).std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return value, std_error


class TestGaussTransform:
    # the box expansion of ksd_vstat against all pairs, at the tolerances of
    # test_tiles_agree_with_dense_evaluation

    def _agrees(self, p, xs, bandwidth):
        value, std_error = dense_ksd(xs, sl.score(p, xs), bandwidth)
        est = sl.ksd_vstat(xs, p, sl.KernelSpec(bandwidth))
        assert est.value == pytest.approx(value, rel=1e-13, abs=0)
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "bandwidth, shift", [(0.05, 0.0), (20.0, 0.0), (1.0, 1e3)], ids=["0.05", "20.0", "1.0-shift1e3"]
    )
    def test_agrees_with_all_pairs_at_n_3000(self, bandwidth, shift):
        p = sl.two_component(0.3, -1.5 + shift, 2.0 + shift, 1.0)
        self._agrees(p, sl.sample(p, 3000, sl.make_stream(12, 0)), bandwidth)

    def test_agrees_where_the_cutoff_skips_boxes(self):
        # clusters 40 bandwidths apart: no pair across them is in reach
        p = sl.two_component(0.4, -20.0, 20.0, 1.0)
        xs = sl.sample(p, 2000, sl.make_stream(13, 0))
        assert np.min(xs[xs > 0]) - np.max(xs[xs < 0]) > 2 * (_CUTOFF + 1)
        self._agrees(p, xs, 1.0)

    def test_agrees_when_every_sample_is_its_own_box(self):
        p = sl.gaussian(0.0, 1.0)
        xs = sl.sample(p, 1000, sl.make_stream(14, 0))
        bandwidth = 1e-3
        slots = np.floor((np.sort(xs) - xs.min()) / bandwidth)
        assert np.unique(slots).size > 0.85 * xs.size  # most samples sit alone
        self._agrees(p, xs, bandwidth)

    def test_truncated_expansion_is_within_its_bound(self):
        # k = exp(-t^2/2) sum_{n < P} t^n exp(-v^2/2) v^n / n! for every
        # target in reach of a box (|t| <= cutoff + 1/2) and source in it
        t = np.linspace(-(_CUTOFF + 0.5), _CUTOFF + 0.5, 841)[:, None]
        v = np.linspace(-0.5, 0.5, 101)[None, :]
        series = sum(t**n * v**n / math.factorial(n) for n in range(_TERMS))
        expansion = np.exp(-t * t / 2) * np.exp(-v * v / 2) * series
        assert np.max(np.abs(expansion - np.exp(-((t - v) ** 2) / 2))) <= 1e-15


class TestKsdVstats:
    # K = 1, 2 and 3, with the first model repeated
    MODELS = [
        sl.gaussian(0.2, 1.3),
        sl.two_component(0.3, -1.5, 2.0, 1.0),
        sl.GaussianMixture1D([0.49, 0.49, 0.02], [-1.5, 2.0, 0.3], [1.0, 1.0, 0.5]),
        sl.gaussian(0.2, 1.3),
    ]

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 549])
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
        xs = sl.sample(self.MODELS[2], 549, sl.make_stream(7, 0))
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
        arg = json.dumps([records, 549])
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

    @pytest.mark.parametrize("bandwidth", [1e-150, 1e-100])
    def test_bandwidth_too_small_for_n_rejected(self, bandwidth):
        # 1/(n h^2) is the self-pair term of each row mean; at n = 800 its
        # squares summed over the rows overflow, and the std_error came out
        # inf with a finite value
        xs = sl.sample(self.MODELS[0], 800, sl.make_stream(1, 0))
        with pytest.raises(ValueError, match=f"bandwidth {bandwidth} is too small for 800 samples"):
            sl.ksd_vstats(xs, self.MODELS, sl.KernelSpec(bandwidth))

    def test_nonfinite_estimate_rejected(self):
        # a model with a width of 1e-150 has scores near 1e150 at the
        # samples, whose products overflow
        models = [sl.gaussian(0.0, 1.0), sl.gaussian(0.0, 1e-150)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="the estimate against model 1 is not finite"):
                sl.ksd_vstats(np.array([1.0, 2.0]), models, sl.KernelSpec(1.0))

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError, match="models"):
            sl.ksd_vstats(np.array([0.0, 1.0]), [], sl.KernelSpec(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            sl.ksd_vstats(np.array([0.0, bad]), self.MODELS, sl.KernelSpec(1.0))
