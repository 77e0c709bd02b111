import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

import scorelab as sl
from conftest import random_mixture
from scorelab.mixture import _LOG_2PI, _logsumexp

STANDARD = sl.gaussian(0.0, 1.0)


class TestConstruction:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sl.GaussianMixture1D([0.5, 0.6], [0, 1], [1, 1])

    def test_positive_stds_enforced(self):
        with pytest.raises(ValueError, match="stds"):
            sl.GaussianMixture1D([1.0], [0.0], [0.0])

    def test_std_square_must_be_a_normal_double(self):
        # std^2 overflows above about 1.34e154 and is subnormal or 0 below
        # about 1.49e-154
        for bad in (1e-300, 1e-170, 1e-154, 1.4e154, 1e200):
            with pytest.raises(ValueError, match="each with a normal finite square"):
                sl.GaussianMixture1D([0.5, 0.5], [-1.0, 1.0], [1.0, bad])
        for good in (1.5e-154, 1.3e154):
            assert sl.GaussianMixture1D([0.5, 0.5], [-1.0, 1.0], [1.0, good]).stds[1] == good

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            sl.GaussianMixture1D([0.5, 0.5], [0.0], [1.0, 1.0])

    def test_immutable(self):
        m = sl.two_component(0.4, -1, 1, 1)
        with pytest.raises(Exception):
            m.weights[0] = 0.7

    def test_record_round_trip(self):
        m = sl.GaussianMixture1D([0.25, 0.75], [-1.5, 2.0], [0.8, 1.3], log_offset=2.5)
        back = sl.from_record(sl.to_record(m))
        assert np.array_equal(back.weights, m.weights)
        assert np.array_equal(back.means, m.means)
        assert np.array_equal(back.stds, m.stds)
        assert back.log_offset == m.log_offset

    def test_record_parse_errors(self):
        with pytest.raises(ValueError, match="missing"):
            sl.from_record("weights=1.0; means=0.0")
        with pytest.raises(ValueError, match="decimals"):
            sl.from_record("weights=1.0; means=abc; stds=1.0")


class TestPdf:
    def test_standard_normal_at_zero(self):
        assert sl.pdf(STANDARD, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-8)

    def test_equal_mixture_value(self):
        m = sl.two_component(0.5, -2, 2, 1)
        expected = 0.5 * (norm.pdf(0, -2, 1) + norm.pdf(0, 2, 1))
        assert sl.pdf(m, 0.0) == pytest.approx(expected, abs=1e-12)
        assert sl.pdf(m, 0.0) == pytest.approx(0.05399097, abs=1e-8)

    def test_normalization_under_quadrature(self):
        m = sl.two_component(0.3, -2, 2, 1)
        total = sl.quad_integrate(lambda x: sl.pdf(m, x), sl.quadrature_window(m))
        assert abs(total - 1.0) < 1e-9

    def test_far_tail_not_minus_inf(self):
        # log density stays finite out to 35 widths from the nearest mean
        m = sl.two_component(0.5, -3, 3, 1)
        val = sl.log_unnorm(m, 3 + 35.0)
        assert np.isfinite(val)


class TestLogUnnorm:
    def test_standard_normal(self):
        assert sl.log_unnorm(STANDARD, 0.0) == pytest.approx(-0.91893853, abs=1e-8)

    def test_offset_is_additive(self):
        shifted = sl.gaussian(0.0, 1.0, log_offset=3.0)
        assert sl.log_unnorm(shifted, 0.0) == pytest.approx(-0.91893853 + 3.0, abs=1e-8)

    def test_mixture_matches_pdf(self):
        m = sl.two_component(0.5, -2, 2, 1)
        assert sl.log_unnorm(m, 0.0) == pytest.approx(math.log(sl.pdf(m, 0.0)), abs=1e-12)


class TestScore:
    def test_single_gaussian(self):
        assert sl.score(STANDARD, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_mixture_zero_at_midpoint(self):
        m = sl.two_component(0.5, -3, 3, 1)
        assert sl.score(m, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_far_component_suppressed(self):
        # oracle: raw responsibility formula, safe at this separation
        m = sl.two_component(0.3, -4, 4, 1)
        n1, n2 = norm.pdf(-4, -4, 1), norm.pdf(-4, 4, 1)
        r2 = 0.7 * n2 / (0.3 * n1 + 0.7 * n2)
        expected = r2 * 8.0  # component-1 score vanishes at its own mean
        got = sl.score(m, -4.0)
        assert got == pytest.approx(expected, rel=1e-6)
        assert abs(got) < 1e-10

    def test_matches_finite_difference_on_grid(self):
        rs = np.random.default_rng(11)
        for _ in range(20):
            m = random_mixture(rs)
            spec = sl.quadrature_window(m)
            xs = np.linspace(spec.lower, spec.upper, 41)
            fd = np.array([sl.finite_diff(lambda t: sl.log_unnorm(m, t), x) for x in xs])
            assert np.max(np.abs(sl.score(m, xs) - fd)) < 1e-6

    def test_score_ignores_log_offset_bitwise(self):
        m = sl.two_component(0.4, -2, 2, 1.2)
        shifted = sl.GaussianMixture1D(m.weights, m.means, m.stds, log_offset=17.0)
        xs = np.linspace(-6, 6, 101)
        assert np.array_equal(sl.score(m, xs), sl.score(shifted, xs))


class TestScoreDerivative:
    def test_single_gaussian_constant(self):
        m = sl.gaussian(1.0, 2.0)
        assert sl.score_derivative(m, 0.3) == pytest.approx(-0.25, abs=1e-12)

    def test_matches_finite_difference(self):
        rs = np.random.default_rng(12)
        for _ in range(20):
            m = random_mixture(rs)
            spec = sl.quadrature_window(m)
            for x in np.linspace(spec.lower, spec.upper, 21):
                fd = sl.finite_diff(lambda t: sl.score(m, t), x)
                assert abs(sl.score_derivative(m, x) - fd) < 1e-6


# The (..., K) layout with reductions over the last axis, as the library
# evaluated mixtures before it moved to (K, ...) with reductions over axis 0.
# The expressions are the same, so for K <= 7 the two must agree bit for bit.
def _oracle_logs(m, x):
    z = (x[..., None] - m.means) / m.stds
    return np.log(m.weights) - np.log(m.stds) - 0.5 * (_LOG_2PI + z * z)


def _oracle_responsibilities(m, x):
    logs = _oracle_logs(m, x)
    logs = logs - logs.max(axis=-1, keepdims=True)
    w = np.exp(logs)
    return w / w.sum(axis=-1, keepdims=True)


def _oracle_score(m, x):
    comp = -(x[..., None] - m.means) / m.stds**2
    return np.sum(_oracle_responsibilities(m, x) * comp, axis=-1)


def _oracle_score_derivative(m, x):
    r = _oracle_responsibilities(m, x)
    z = (x[..., None] - m.means) / m.stds
    mean_score = np.sum(r * (-z / m.stds), axis=-1)
    return np.sum(r * (z * z - 1.0) / m.stds**2, axis=-1) - mean_score**2


ORACLES = {
    sl.score: _oracle_score,
    sl.pdf: lambda m, x: np.exp(logsumexp(_oracle_logs(m, x), axis=-1)),
    sl.log_unnorm: lambda m, x: logsumexp(_oracle_logs(m, x), axis=-1) + m.log_offset,
    sl.score_derivative: _oracle_score_derivative,
}


def _wide_mixture(rs, k):
    raw = rs.uniform(0.05, 1.0, k)
    return sl.GaussianMixture1D(raw / raw.sum(), rs.uniform(-30, 30, k), rs.uniform(0.2, 3.0, k), 1.5)


def _positions(rs, m, shape):
    # out to 37 widths past the outer means, where the exponents reach -700,
    # plus a midpoint between two means
    pad = 37.0 * m.stds.max()
    lo, hi = m.means.min() - pad, m.means.max() + pad
    x = rs.uniform(lo, hi, shape)
    flat = x.reshape(-1)
    flat[:3] = [lo, hi, (m.means[0] + m.means[-1]) / 2][: flat.size]
    return x


def _assert_bits_match_oracle(m, x):
    for f, oracle in ORACLES.items():
        got, want = np.asarray(f(m, x)), np.asarray(oracle(m, np.asarray(x, dtype=float)))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f.__name__


class TestComponentMajorLayout:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_bits_match_last_axis_oracle(self, k):
        rs = np.random.default_rng(100 + k)
        for _ in range(10):
            m = _wide_mixture(rs, k)
            for n in (1, 7, 200, 4097):
                _assert_bits_match_oracle(m, _positions(rs, m, n))
            _assert_bits_match_oracle(m, _positions(rs, m, (16, 9)))
            for x in _positions(rs, m, 3).tolist():
                _assert_bits_match_oracle(m, x)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_bits_match_at_tied_midpoints(self, k):
        # equal weights and widths at even means: each midpoint between
        # neighbours ties two component logs exactly
        means = 4.0 * (np.arange(k) - (k - 1) / 2)
        m = sl.GaussianMixture1D(np.full(k, 1.0 / k), means, np.ones(k))
        mids = (means[:-1] + means[1:]) / 2
        logs, i = _oracle_logs(m, mids), np.arange(k - 1)
        assert np.array_equal(logs[i, i], logs[i, i + 1])
        _assert_bits_match_oracle(m, mids)
        _assert_bits_match_oracle(m, np.concatenate([mids, np.linspace(-60, 60, 201)]))
        for x in mids.tolist():
            _assert_bits_match_oracle(m, x)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
                st.lists(st.floats(-50.0, 50.0), min_size=k, max_size=k),
                st.lists(st.floats(0.05, 10.0), min_size=k, max_size=k),
            )
        ),
        st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=40),
    )
    def test_bits_match_on_generated_mixtures(self, params, xs):
        raw, means, stds = (np.array(v) for v in params)
        m = sl.GaussianMixture1D(raw / raw.sum(), means, stds)
        _assert_bits_match_oracle(m, np.array(xs))
        _assert_bits_match_oracle(m, xs[0])

    @pytest.mark.parametrize("k", [8, 12, 16])
    def test_many_components_agree_to_last_bits(self, k):
        # numpy sums a contiguous last axis of 8 or more with eight partial
        # sums, so only the last bits may differ
        rs = np.random.default_rng(200 + k)
        for _ in range(10):
            m = _wide_mixture(rs, k)
            x = _positions(rs, m, 4097)
            for f, oracle in ORACLES.items():
                want = oracle(m, x)
                tol = 1e-13 * max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(f(m, x) - want)) <= tol, f.__name__


class TestScoreLimit:
    def test_left_of_midpoint(self):
        assert sl.score_limit(sl.two_component(0.3, -4, 4, 1), -4.0) == 0.0

    def test_right_of_midpoint(self):
        assert sl.score_limit(sl.two_component(0.3, -4, 4, 1), 5.0) == -1.0

    def test_wider_components(self):
        m = sl.two_component(0.5, -4, 4, 2)
        assert sl.score_limit(m, -6.0) == pytest.approx(0.5, abs=1e-14)

    def test_midpoint_rejected(self):
        with pytest.raises(ValueError, match="midpoint"):
            sl.score_limit(sl.two_component(0.3, -4, 4, 1), 0.0)

    def test_weights_do_not_enter(self):
        a = sl.two_component(0.1, -4, 4, 1)
        b = sl.two_component(0.9, -4, 4, 1)
        xs = np.array([-5.0, -1.0, 2.0, 6.0])
        assert np.array_equal(sl.score_limit(a, xs), sl.score_limit(b, xs))

    def test_view_validation(self):
        cases = [
            ([0.2, 0.3, 0.5], [-4, 0, 4], [1, 1, 1], "view requires exactly two components"),
            ([0.5, 0.5], [-4, 4], [1, 2], "view requires equal component widths"),
            ([0.5, 0.5], [4, -4], [1, 1], "view requires mu1 < mu2, got 4.0 >= -4.0"),
            ([0.5, 0.5], [4, 4], [1, 1], "view requires mu1 < mu2, got 4.0 >= 4.0"),
        ]
        for weights, means, stds, message in cases:
            with pytest.raises(ValueError) as info:
                sl.score_limit(sl.GaussianMixture1D(weights, means, stds), 1.0)
            assert str(info.value) == message


class TestLimitConvergence:
    """Far-separation behaviour of the score, quantified on +/-3 windows
    around the modes.

    For mu = (-s, s) the inner window edges sit at distance s-3 from the
    midpoint, where the residual responsibility weight is ~exp(-2s(s-3)).
    For s in {2, 3} the windows reach the midpoint itself, so the maxima
    there are O(s) rather than small; decay kicks in from s=4.
    """

    @staticmethod
    def _windows(s: float, n: int = 2001) -> np.ndarray:
        xs = np.concatenate(
            [np.linspace(-s - 3, -s + 3, n), np.linspace(s - 3, s + 3, n)]
        )
        return xs[xs != 0.0]

    def test_limit_approach_decays_from_s4(self):
        maxima = []
        for s in (4, 5, 6):
            m = sl.two_component(0.3, -s, s, 1)
            xs = self._windows(s)
            maxima.append(np.max(np.abs(sl.score(m, xs) - sl.score_limit(m, xs))))
        assert maxima[0] > maxima[1] > maxima[2]
        assert maxima[1] < 1e-6  # measured 4.81e-08 at s=5
        assert maxima[1] == pytest.approx(4.809e-08, rel=1e-2)

    def test_windows_crossing_midpoint_are_not_small(self):
        # s=2,3 windows include the midpoint where the limit is discontinuous,
        # so the maxima are O(s) there (2.80 and 4.20 in the fine-grid limit)
        for s, floor in [(2, 2.5), (3, 4.0)]:
            m = sl.two_component(0.3, -s, s, 1)
            xs = self._windows(s)
            worst = np.max(np.abs(sl.score(m, xs) - sl.score_limit(m, xs)))
            assert floor < worst < 2 * s

    def test_weight_blindness_at_separation_ten(self):
        # mu=(-5,5): max score change when pi1 goes 0.1 -> 0.9 is 1.83e-07
        xs = self._windows(5)
        a = sl.two_component(0.1, -5, 5, 1)
        b = sl.two_component(0.9, -5, 5, 1)
        worst = np.max(np.abs(sl.score(a, xs) - sl.score(b, xs)))
        assert worst < 1e-6
        assert worst == pytest.approx(1.832e-07, rel=1e-2)


class TestSmooth:
    def test_variance_additivity(self):
        m = sl.two_component(0.5, -2, 2, 1)
        out = sl.smooth(m, 1.0)
        assert np.allclose(out.stds, math.sqrt(2.0))
        assert np.array_equal(out.means, m.means)
        assert np.array_equal(out.weights, m.weights)

    def test_tiny_noise_limit(self):
        m = sl.two_component(0.5, -2, 2, 1)
        out = sl.smooth(m, 1e-9)
        assert np.allclose(out.stds, m.stds, atol=1e-12)

    def test_composition_in_quadrature(self):
        m = sl.GaussianMixture1D([0.2, 0.8], [-1, 3], [0.5, 2.0], log_offset=1.0)
        twice = sl.smooth(sl.smooth(m, 0.7), 1.1)
        once = sl.smooth(m, math.sqrt(0.7**2 + 1.1**2))
        assert np.allclose(twice.stds, once.stds, atol=1e-12)
        assert np.array_equal(twice.means, once.means)
        assert np.array_equal(twice.weights, once.weights)
        assert twice.log_offset == once.log_offset

    def test_matches_monte_carlo_density(self):
        m = sl.two_component(0.3, -2, 2, 1)
        rng = sl.make_stream(17, 0)
        xs = sl.sample(m, 100_000, rng) + 2.0 * rng.standard_normal(100_000)
        width = 0.1
        inbin = np.mean(np.abs(xs) < width / 2)
        se = math.sqrt(inbin * (1 - inbin) / xs.size) / width
        assert abs(inbin / width - sl.pdf(sl.smooth(m, 2.0), 0.0)) < 3 * se

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            sl.smooth(STANDARD, 0.0)


class TestSample:
    def test_moments(self):
        xs = sl.sample(STANDARD, 1_000_000, sl.make_stream(5, 0))
        assert abs(xs.mean()) < 0.003
        assert abs(xs.var() - 1.0) < 0.005

    def test_component_proportions(self):
        m = sl.two_component(0.1, -4, 4, 1)
        xs = sl.sample(m, 100_000, sl.make_stream(6, 0))
        assert np.mean(xs < 0) == pytest.approx(0.1, abs=0.003)

    def test_deterministic_given_stream(self):
        a = sl.sample(STANDARD, 64, sl.make_stream(9, 3))
        b = sl.sample(STANDARD, 64, sl.make_stream(9, 3))
        assert np.array_equal(a, b)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sl.sample(STANDARD, 0, sl.make_stream(0, 0))


def _lse_rows(k):
    rs = np.random.default_rng(k)
    a = rs.normal(0.0, 30.0, (600, k))
    a[::5, -1] = a[::5, 0]  # tied maxima when column 0 is the largest
    a[1::5] = a[1::5, :1]  # all-equal rows
    a[2::5] += 690.0  # exponents near +700
    a[3::5] -= 690.0  # and near -700
    return a


class TestLogSumExp:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 2000])
    def test_matches_scipy_bit_for_bit(self, k):
        a = _lse_rows(k)
        assert _logsumexp(a).tobytes() == logsumexp(a, axis=-1).tobytes()
        for row in a[:20]:
            assert _logsumexp(row).tobytes() == np.float64(logsumexp(row)).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_axis_zero_matches_scipy_last_axis(self, k):
        a = _lse_rows(k)
        want = logsumexp(a, axis=-1).tobytes()
        assert _logsumexp(a.T, axis=0).tobytes() == want
        assert _logsumexp(np.ascontiguousarray(a.T), axis=0).tobytes() == want

    def test_tied_maximum(self):
        # taking out a single maximum gives -0.45644281894376826 here
        a = np.array([-1.15, -8.256, -1.15])
        assert float(_logsumexp(a)) == float(logsumexp(a)) == -0.45644281894376837

    def test_nonfinite_entries_follow_scipy(self):
        inf = np.inf
        a = np.array([[inf, 0.0], [inf, -inf], [-inf, -inf], [-inf, 3.0], [np.nan, 1.0]])
        assert _logsumexp(a).tobytes() == logsumexp(a, axis=-1).tobytes()


class TestMassInside:
    def test_matches_normal_cdf(self):
        rs = np.random.default_rng(17)
        for _ in range(50):
            m = random_mixture(rs)
            lower, upper = np.sort(rs.uniform(-8.0, 8.0, 2))
            ref = np.dot(m.weights, norm.cdf(upper, m.means, m.stds) - norm.cdf(lower, m.means, m.stds))
            assert abs(sl.mass_inside(m, lower, upper) - ref) <= 1e-15

    def test_whole_line(self):
        m = sl.two_component(0.3, -2.0, 2.0, 1.0)
        assert sl.mass_inside(m, -math.inf, math.inf) == 1.0
