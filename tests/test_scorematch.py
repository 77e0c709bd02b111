import csv

import numpy as np
import pytest

import scorelab as sl
import scorelab.cli as cli
from conftest import random_mixture, random_mixture_pairs

N01 = sl.gaussian(0.0, 1.0)
N04 = sl.gaussian(0.0, 2.0)  # variance 4


def expected_gaussian_j(s1: float, s2: float) -> float:
    # same-mean Gaussians: score difference is (x-m)(1/s2^2 - 1/s1^2), so
    # J = (1/s2^2 - 1/s1^2)^2 * E_q[(x-m)^2] = (1/s2^2 - 1/s1^2)^2 * s1^2
    return (1.0 / s2**2 - 1.0 / s1**2) ** 2 * s1**2


def q_score_second_moment(q: sl.GaussianMixture1D) -> float:
    spec = sl.quadrature_window(q)
    return sl.quad_integrate(lambda x: sl.pdf(q, x) * sl.score(q, x) ** 2, spec)


class TestDivergenceEstimate:
    def test_rejects_truly_negative(self):
        for value in (-1e-6, -5e-13):
            with pytest.raises(ValueError, match="negative"):
                sl.DivergenceEstimate(value)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            sl.DivergenceEstimate(float("nan"))
        with pytest.raises(ValueError, match="std_error"):
            sl.DivergenceEstimate(1.0, std_error=float("nan"))


class TestFisherDivergence:
    def test_identical_arguments_vanish(self):
        assert sl.fisher_divergence(N01, N01).value <= 1e-12

    def test_gaussian_closed_form(self):
        est = sl.fisher_divergence(N01, N04)
        assert est.value == pytest.approx(0.5625, abs=1e-9)
        assert est.std_error is None
        wider = sl.fisher_divergence(sl.gaussian(0, 2), sl.gaussian(0, 1))
        assert wider.value == pytest.approx(expected_gaussian_j(2, 1), rel=1e-9)

    def test_blindness_at_separation_ten(self):
        # modes at +/-5; exact value 1.5239e-05 (adaptive-quadrature oracle)
        p = sl.two_component(0.5, -5, 5, 1)
        p_prime = sl.two_component(0.9, -5, 5, 1)
        est = sl.fisher_divergence(p, p_prime)
        assert est.value == pytest.approx(1.523870e-05, rel=1e-4)
        assert est.value < 1e-4  # tiny against any distinguishable-model scale

    def test_self_divergence_on_random_mixtures(self):
        rs = np.random.default_rng(21)
        for _ in range(20):
            m = random_mixture(rs)
            assert sl.fisher_divergence(m, m).value < 1e-12

    def test_nonnegative_on_random_pairs(self):
        for q, p in random_mixture_pairs(22, 20):
            assert sl.fisher_divergence(q, p).value >= 0.0

    def test_narrow_window_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            sl.fisher_divergence(N01, N01, sl.QuadratureSpec(-1, 1, 257))

    def test_window_covers_far_components_of_model(self):
        # q ignores the model's second component; the default window must not
        q = sl.gaussian(-5, 1)
        p = sl.two_component(0.5, -5, 5, 1)
        spec = sl.quadrature_window(q, p)
        assert spec.lower < -16 and spec.upper > 16

    @pytest.mark.parametrize("sigma", [1e-17, 1e-150])
    def test_window_whose_pad_rounds_away_rejected(self, sigma):
        # 12 widths of 1e-17 are below half an ulp of 2, so the window would
        # end on the means and miss half the mass
        expected = r"pad of 12 component widths .* rounds away against the means in \[-2.0, 2.0\]"
        with pytest.raises(ValueError, match=expected):
            sl.quadrature_window(sl.two_component(0.5, -2, 2, sigma))

    def test_window_of_narrow_components_keeps_a_pad(self):
        # from 1.9e-17, 12 widths round to at least one ulp of 2, which is at
        # least 8 widths and leaves under 1e-15 of the mass outside
        for sigma in (1.9e-17, 1e-16, 1e-3):
            m = sl.two_component(0.5, -2, 2, sigma)
            spec = sl.quadrature_window(m)
            assert spec.lower < -2.0 and spec.upper > 2.0
            assert 1.0 - sl.mass_inside(m, spec.lower, spec.upper) < 1e-15


class TestFisherDivergenceMc:
    def test_zero_integrand_is_exact(self):
        xs = sl.sample(N01, 1000, sl.make_stream(1, 0))
        est = sl.fisher_divergence_mc(xs, N01, N01)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_matches_quadrature_value(self):
        xs = sl.sample(N01, 100_000, sl.make_stream(2, 0))
        est = sl.fisher_divergence_mc(xs, N01, N04)
        assert abs(est.value - 0.5625) < 4 * est.std_error

    def test_agreement_on_random_pairs(self):
        for idx, (q, p) in enumerate(random_mixture_pairs(23, 10)):
            xs = sl.sample(q, 20_000, sl.make_stream(23, idx))
            mc = sl.fisher_divergence_mc(xs, q, p)
            quad = sl.fisher_divergence(q, p)
            assert abs(mc.value - quad.value) < 4 * max(mc.std_error, 1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            sl.fisher_divergence_mc(np.array([]), N01, N01)

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be finite"):
            sl.fisher_divergence_mc(np.array([0.0, np.inf]), N01, N04)


class TestSmObjective:
    def test_matched_model_value(self):
        xs = sl.sample(N01, 100_000, sl.make_stream(3, 0))
        assert sl.sm_objective_empirical(xs, N01) == pytest.approx(-0.5, abs=0.02)

    def test_wider_model_value(self):
        xs = sl.sample(N01, 100_000, sl.make_stream(4, 0))
        # 0.5 * J - 0.5 * E[s_q^2] = 0.5 * 0.5625 - 0.5
        assert sl.sm_objective_empirical(xs, N04) == pytest.approx(-0.21875, abs=0.02)

    def test_log_offset_invariant_bitwise(self):
        xs = sl.sample(N01, 5_000, sl.make_stream(5, 0))
        base = sl.gaussian(0.3, 1.4)
        shifted = sl.gaussian(0.3, 1.4, log_offset=7.0)
        assert sl.sm_objective_empirical(xs, base) == sl.sm_objective_empirical(xs, shifted)

    @pytest.mark.parametrize(
        "scenario",
        [
            (sl.gaussian(0, 1), sl.gaussian(0, 2)),
            (sl.gaussian(0, 1), sl.gaussian(0, 1)),
            (sl.two_component(0.3, -2, 2, 1), sl.two_component(0.3, -2, 2, 1)),
            (sl.gaussian(-1, 1.5), sl.two_component(0.5, -2, 2, 1)),
            (sl.two_component(0.7, -1, 2, 0.8), sl.two_component(0.4, -1.5, 1.5, 1.2)),
        ],
        ids=["analytic", "matched", "mixture-matched", "gauss-vs-mixture", "mixture-pair"],
    )
    def test_links_to_fisher_divergence(self, scenario):
        # H_emp + E_q[s_q^2]/2 should equal J/2 within Monte-Carlo error
        q, p = scenario
        xs = sl.sample(q, 100_000, sl.make_stream(6, hash(str(scenario)) % 1000))
        terms = 0.5 * sl.score(p, xs) ** 2 + sl.score_derivative(p, xs)
        se = terms.std(ddof=1) / np.sqrt(terms.size)
        h = float(terms.mean())
        j = sl.fisher_divergence(q, p).value
        assert abs(h + 0.5 * q_score_second_moment(q) - 0.5 * j) < 4 * max(se, 1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            sl.sm_objective_empirical(np.array([]), N01)


def fisher_sweep_rows(tmp_path, separations: str, pi_pairs: str) -> list[dict]:
    """The rows of `lab fisher-sweep`'s sweep.csv at sigma 1."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        f"[experiment]\ncommand = fisher-sweep\nseed = 0\nout_dir = {tmp_path / 'out'}\n\n"
        f"[params]\nseparations = {separations}\npi_pairs = {pi_pairs}\n",
        encoding="utf-8",
    )
    assert cli.main(["fisher-sweep", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as handle:
        return list(csv.DictReader(handle))


class TestBlindnessSweep:
    def test_rows_and_monotone_decay(self, tmp_path):
        rows = fisher_sweep_rows(tmp_path, "4, 6, 8, 10", "0.5:0.9")
        assert len(rows) == 4
        jpp = [float(r["j_pp_prime"]) for r in rows]
        jqp = [float(r["j_q_p"]) for r in rows]
        assert all(a > b for a, b in zip(jpp, jpp[1:]))
        assert all(a > b for a, b in zip(jqp, jqp[1:]))
        # frozen endpoint values (modes +/-5), adaptive-quadrature oracle
        assert jpp[-1] == pytest.approx(1.523870e-05, rel=1e-4)
        assert jqp[-1] == pytest.approx(2.232050e-05, rel=1e-4)

    def test_sweep_csv_header_and_row_order(self, tmp_path):
        # one row per separation and pair, separation first, then pair
        rows = fisher_sweep_rows(tmp_path, "4, 6", "0.5:0.9, 0.2:0.7")
        assert list(rows[0]) == ["separation", "pi", "pi_prime", "j_pp_prime", "j_q_p", "method", "nodes", "pair"]
        assert [(r["separation"], r["pi"], r["pi_prime"], r["pair"]) for r in rows] == [
            ("4.0", "0.5", "0.9", "0"),
            ("4.0", "0.2", "0.7", "1"),
            ("6.0", "0.5", "0.9", "0"),
            ("6.0", "0.2", "0.7", "1"),
        ]
        assert [r["method"] for r in rows] == ["quadrature"] * 4
        assert [int(r["nodes"]) for r in rows] == [sl.QuadratureSpec(0.0, 1.0).nodes] * 4
        # the window of all mixtures at one separation is each pair's
        # default window
        for r in rows:
            s, pi, pi_prime = float(r["separation"]), float(r["pi"]), float(r["pi_prime"])
            p = sl.two_component(pi, -s / 2, s / 2, 1.0)
            p_prime = sl.two_component(pi_prime, -s / 2, s / 2, 1.0)
            assert float(r["j_pp_prime"]) == sl.fisher_divergence(p, p_prime).value
            assert float(r["j_q_p"]) == sl.fisher_divergence(sl.gaussian(-s / 2, 1.0), p).value

    def test_flatness_across_weights_at_wide_separation(self):
        # with modes at +/-10 the map pi1 -> J(q||p) is flat below 1e-8
        q = sl.gaussian(-10, 1)
        values = []
        for pi1 in np.arange(0.1, 0.95, 0.1):
            p = sl.two_component(float(pi1), -10, 10, 1)
            values.append(sl.fisher_divergence(q, p).value)
        assert max(values) < 1e-6
        assert max(values) - min(values) < 1e-8

    def test_blindness_magnitudes_at_separation_ten(self):
        # at modes +/-5 the weight dependence survives at the 1e-5 scale,
        # four orders below the distinguishable-model landmark J=0.5625
        q = sl.gaussian(-5, 1)
        values = {
            pi1: sl.fisher_divergence(q, sl.two_component(pi1, -5, 5, 1)).value
            for pi1 in (0.1, 0.5, 0.9)
        }
        assert values[0.1] == pytest.approx(6.813412e-05, rel=1e-4)
        assert values[0.5] == pytest.approx(2.232050e-05, rel=1e-4)
        assert values[0.9] == pytest.approx(6.984283e-06, rel=1e-4)
