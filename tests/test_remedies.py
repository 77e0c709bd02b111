import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

import scorelab as sl
from scorelab.mixture import _logpdf
from scorelab.remedies import _KDE_BLOCK, _reference_log_pdf

N01 = sl.gaussian(0.0, 1.0)
ROWS = _KDE_BLOCK // 2000  # rows per KDE block at 2000 centers


class TestKde:
    def test_silverman_bandwidth(self):
        xs = sl.sample(N01, 100_000, sl.make_stream(1, 0))
        model = sl.kde_fit(xs)
        assert model.bandwidth == pytest.approx(0.106, abs=0.01)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sl.kde_fit(np.array([1.0]))

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="degenerated to zero"):
            sl.kde_fit(np.full(5, 2.0))

    def test_log_pdf_single_center(self):
        model = sl.KdeModel(np.array([0.0]), 1.0)
        assert sl.kde_log_pdf(model, 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_log_pdf_two_symmetric_centers(self):
        model = sl.KdeModel(np.array([-1.0, 1.0]), 1.0)
        expected = math.log(math.exp(-0.5) / math.sqrt(2 * math.pi))
        assert sl.kde_log_pdf(model, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_point_mass_limit(self):
        tight = sl.KdeModel(np.full(100, 3.0) + 1e-9 * np.arange(100), 0.25)
        expected = -math.log(0.25 * math.sqrt(2 * math.pi))
        assert sl.kde_log_pdf(tight, 3.0) == pytest.approx(expected, abs=1e-6)

    def test_consistency_at_origin(self):
        xs = sl.sample(N01, 100_000, sl.make_stream(2, 0))
        model = sl.kde_fit(xs)
        assert sl.kde_log_pdf(model, 0.0) == pytest.approx(math.log(0.39894), abs=0.02)

    @pytest.mark.parametrize(
        "n, centers",
        [
            *[
                pytest.param(n, 2000, id=str(n))
                for n in (None, 1, 256, 257, 2000, ROWS - 1, ROWS, ROWS + 1)
            ],
            pytest.param(3, _KDE_BLOCK + 1, id="3-one-row-blocks"),
        ],
    )
    def test_row_blocks_match_one_shot_formula(self, n, centers):
        rng = sl.make_stream(6, 0)
        model = sl.kde_fit(sl.sample(sl.two_component(0.3, -2, 2, 1), centers, rng))
        x = 1.7 if n is None else 3.0 * rng.standard_normal(n)
        z = (np.asarray(x)[..., None] - model.centers) / model.bandwidth
        logs = -0.5 * (z * z) - np.log(model.bandwidth) - 0.5 * math.log(2 * math.pi)
        expected = logsumexp(logs, axis=-1) - np.log(model.centers.size)
        got = sl.kde_log_pdf(model, x)
        if n is None:
            assert isinstance(got, float) and got == float(expected)
        else:
            assert got.tobytes() == expected.tobytes()

    def test_peak_memory_stays_under_one_megabyte(self):
        rng = sl.make_stream(7, 0)
        data = sl.two_component(0.3, -2, 2, 1)
        model = sl.kde_fit(sl.sample(data, 2000, rng))
        x = sl.sample(data, 2000, rng)
        tracemalloc.start()
        try:
            sl.kde_log_pdf(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_nonfinite_sample_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sl.kde_fit(np.array([0.0, 1.0, np.nan, 2.0]))

    @pytest.mark.parametrize(
        "centers, bandwidth",
        [
            ([0.0, 1.0], np.nan),
            ([0.0, 1.0], np.inf),
            ([0.0, np.nan], 1.0),
            ([0.0, np.inf], 1.0),
            ([-np.inf], 1.0),
        ],
    )
    def test_model_rejects_nonfinite(self, centers, bandwidth):
        with pytest.raises(ValueError, match="finite"):
            sl.KdeModel(np.array(centers), bandwidth)


class TestCmlLoss:
    def test_vanishes_when_model_equals_reference(self):
        m = sl.two_component(0.3, -2, 2, 1)
        xs = sl.sample(m, 200, sl.make_stream(3, 0))
        assert sl.cml_loss(m, m, xs) == 0.0

    def test_log_offset_invariance_is_bit_exact(self):
        data = sl.two_component(0.9, -5, 5, 1)
        model = sl.two_component(0.1, -5, 5, 1)
        shifted = sl.GaussianMixture1D(model.weights, model.means, model.stds, log_offset=5.0)
        xs = sl.sample(data, 400, sl.make_stream(4, 0))
        a = sl.cml_loss(model, data, xs)
        b = sl.cml_loss(shifted, data, xs)
        assert a == b

    def test_idealized_swap_pair_value(self):
        # one cross-component ordered pair mismatches by 2 log 9; the loss
        # sums both orderings of the single (i, j) pair
        data = sl.two_component(0.9, -5, 5, 1)
        model = sl.two_component(0.1, -5, 5, 1)
        xs = np.array([-5.0, 5.0])
        loss = sl.cml_loss(model, data, xs)
        assert loss == pytest.approx(2 * (2 * math.log(9.0)) ** 2, rel=1e-9)
        assert loss / 2 == pytest.approx(19.3112, abs=1e-3)

    def test_sample_order_irrelevant_with_all_pairs(self):
        data = sl.two_component(0.7, -3, 3, 1)
        model = sl.two_component(0.4, -3, 3, 1)
        xs = sl.sample(data, 100, sl.make_stream(6, 0))
        a = sl.cml_loss(model, data, xs)
        b = sl.cml_loss(model, data, xs[::-1].copy())
        assert a == pytest.approx(b, rel=1e-12)

    def test_kde_reference_accepted(self):
        data = sl.two_component(0.9, -5, 5, 1)
        model = sl.two_component(0.1, -5, 5, 1)
        xs = sl.sample(data, 500, sl.make_stream(8, 0))
        kde = sl.kde_fit(xs)
        loss = sl.cml_loss(model, kde, xs)
        assert loss > 1.0

    def test_distinguishes_what_fisher_cannot(self):
        # swapped mixing weights at mode distance 10: the score-based loss is
        # at the 5e-5 floor while the pairwise ratio loss is huge
        data = sl.two_component(0.9, -5, 5, 1)
        model = sl.two_component(0.1, -5, 5, 1)
        fisher = sl.fisher_divergence(data, model).value
        assert fisher == pytest.approx(4.892e-05, rel=1e-3)
        xs = sl.sample(data, 2000, sl.make_stream(10, 0))
        loss = sl.cml_loss(model, data, xs)
        assert loss > 1.0
        assert loss > 1e4 * fisher

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_samples_rejected(self, bad):
        xs = np.array([0.0, bad, 1.0])
        with pytest.raises(ValueError, match="samples must be finite"):
            sl.cml_loss(N01, N01, xs)


class TestCmlLosses:
    """The loss against its ordered-pair definition on each reference kind."""

    DATA = sl.two_component(0.9, -5, 5, 1)
    MODEL = sl.GaussianMixture1D([0.1, 0.9], [-5.0, 5.0], [1.0, 1.0], log_offset=3.5)

    @staticmethod
    def references(xs):
        data = TestCmlLosses.DATA
        return {
            "kde": sl.kde_fit(xs),
            "mixture": data,
        }

    def mismatch(self, ml, xs):
        """d = log ml - log model, formed as `cml_loss` forms it."""
        return _reference_log_pdf(ml, xs) - _logpdf(self.MODEL, xs)

    @pytest.mark.parametrize("reference", ["kde", "mixture"])
    @pytest.mark.parametrize("n", [2, 3, 400])
    def test_matches_brute_force_pair_sum(self, reference, n):
        xs = sl.sample(self.DATA, n, sl.make_stream(20, n))
        ml = self.references(xs)[reference]
        d = self.mismatch(ml, xs).tolist()
        exact = math.fsum((d[i] - d[j]) ** 2 for i in range(n) for j in range(n) if i != j)
        loss = sl.cml_loss(self.MODEL, ml, xs)
        assert loss == pytest.approx(exact, rel=1e-13, abs=0)

    def test_matches_dense_pair_sum_at_remedies_defaults(self):
        xs = sl.sample(self.DATA, 2000, sl.make_stream(0, 0))
        kde = sl.kde_fit(xs)
        d = self.mismatch(kde, xs)
        diff = np.subtract.outer(d, d)
        dense = float(np.sum(diff * diff))
        loss = sl.cml_loss(self.MODEL, kde, xs)
        assert loss == pytest.approx(dense, rel=1e-12)

    def test_validates_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            sl.cml_loss(self.MODEL, self.DATA, np.array([0.0]))
        with pytest.raises(ValueError, match="samples must be finite"):
            sl.cml_loss(self.MODEL, self.DATA, np.array([0.0, np.nan]))


class TestMomentDiscrepancy:
    def test_model_mean_exact(self):
        m = sl.two_component(0.1, -4, 4, 1)
        # moment side alone: E_p[x] = 0.1*(-4) + 0.9*4 = 3.2
        diff = sl.moment_discrepancy(m, np.array([0.0]))
        assert diff[0] == pytest.approx(3.2, abs=1e-9)

    def test_self_consistency_is_zero(self):
        m = sl.two_component(0.4, -1, 2, 1.2)
        spec = sl.quadrature_window(m)
        m1 = sl.quad_integrate(lambda x: sl.pdf(m, x) * x, spec)
        m2 = sl.quad_integrate(lambda x: sl.pdf(m, x) * x**2, spec)
        # two-point sample set reproducing the first two model moments
        spread = math.sqrt(m2 - m1**2)
        xs = np.array([m1 - spread, m1 + spread])
        diff = sl.moment_discrepancy(m, xs)
        assert np.max(np.abs(diff)) < 1e-9

    def test_matched_law_within_clt(self):
        m = sl.two_component(0.3, -2, 2, 1)
        xs = sl.sample(m, 100_000, sl.make_stream(12, 0))
        diff = sl.moment_discrepancy(m, xs)
        sigma = math.sqrt(np.var(xs))
        assert abs(diff[0]) < 4 * sigma / math.sqrt(xs.size)

    def test_returns_the_first_two_moment_gaps(self):
        m = sl.two_component(0.1, -4, 4, 1)
        # E_p[x] = 3.2 and E_p[x^2] = 16 + 1 = 17; the samples' moments are 2 and 5
        diff = sl.moment_discrepancy(m, np.array([1.0, 3.0]))
        assert diff.shape == (2,)
        assert diff == pytest.approx([1.2, 12.0], abs=1e-9)

    def test_detects_spurious_component(self):
        data = sl.sample(sl.gaussian(-4, 1), 100_000, sl.make_stream(13, 0))
        model = sl.two_component(0.5, -4, 4, 1)
        diff = sl.moment_discrepancy(model, data)
        assert diff[0] == pytest.approx(4.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            sl.moment_discrepancy(N01, np.array([]))

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be finite"):
            sl.moment_discrepancy(N01, np.array([0.0, np.nan]))


class TestEntropyGradient:
    @staticmethod
    def scale_model(phi):
        return sl.ImplicitModel(
            transform=lambda z, p: p * z,
            transform_dphi=lambda z, p: z,
            phi=phi,
        )

    @pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
    def test_scale_family_magnitude(self, phi):
        # pushforward is N(0, phi^2), whose entropy log(phi) + const has
        # dH/dphi = 1/phi
        model = self.scale_model(phi)
        score_fn = lambda x: -x / phi**2
        est = sl.entropy_grad_estimate(model, score_fn, 100_000, sl.make_stream(14, int(phi * 2)))
        assert abs(est.value - 1 / phi) < 4 * est.std_error

    def test_location_family_is_flat(self):
        model = sl.ImplicitModel(
            transform=lambda z, p: z + p,
            transform_dphi=lambda z, p: np.ones_like(z),
            phi=0.7,
        )
        score_fn = lambda x: -(x - 0.7)
        est = sl.entropy_grad_estimate(model, score_fn, 100_000, sl.make_stream(15, 0))
        assert abs(est.value) < 4 * est.std_error

    def test_derivative_validation_catches_mistakes(self):
        with pytest.raises(ValueError, match="finite differences"):
            sl.ImplicitModel(
                transform=lambda z, p: p * z,
                transform_dphi=lambda z, p: 2 * z,  # wrong by a factor
                phi=1.0,
            )

    def test_nonfinite_estimate_rejected(self):
        score_fn = lambda x: np.where(x > 2, np.nan, -x)
        message = r"^the entropy gradient estimate is not finite: value nan, std_error nan$"
        with pytest.raises(ValueError, match=message):
            sl.entropy_grad_estimate(self.scale_model(1.0), score_fn, 1000, sl.make_stream(16, 0))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            sl.entropy_grad_estimate(self.scale_model(1.0), lambda x: -x, 1, sl.make_stream(0, 0))
