import math
import re

import numpy as np
import pytest

import scorelab as sl
from scorelab import QuadratureSpec, make_stream, quad_integrate

N01 = sl.gaussian(0.0, 1.0)

# every estimator or sampler that checks its samples or positions with
# `_samples`: the argument's name in the message and the fewest values it takes
SAMPLE_CALLERS = {
    "ksd_vstat": (lambda x: sl.ksd_vstat(x, N01, sl.KernelSpec(1.0)), "samples", 1),
    "cml_loss": (lambda x: sl.cml_loss(N01, N01, x), "samples", 2),
    "kde_fit": (sl.kde_fit, "samples", 2),
    "moment_discrepancy": (lambda x: sl.moment_discrepancy(N01, x), "samples", 1),
    "fisher_divergence_mc": (lambda x: sl.fisher_divergence_mc(x, N01, N01), "q_samples", 1),
    "sm_objective_empirical": (lambda x: sl.sm_objective_empirical(x, N01), "samples", 1),
    "KdeModel": (lambda x: sl.KdeModel(x, 1.0), "centers", 1),
    "svgd_run": (lambda x: sl.svgd_run(x, N01, sl.SvgdConfig(iterations=1)), "positions", 1),
    "svgd_direction": (lambda x: sl.svgd_direction(x, N01, sl.KernelSpec(1.0)), "positions", 1),
    "annealed_langevin_run": (
        lambda x: sl.annealed_langevin_run(3, N01, sl.NoiseSchedule((1.0,), 1, 0.01), make_stream(0), init=x),
        "init",
        1,
    ),
}


class TestSampleCheck:
    @pytest.mark.parametrize("caller", SAMPLE_CALLERS)
    @pytest.mark.parametrize("bad", ["2-D", "too short", "nan", "inf"])
    def test_rejects_with_the_argument_named(self, caller, bad):
        fn, name, least = SAMPLE_CALLERS[caller]
        shape = f"{name} must be a 1-D array of length at least {least}, got shape"
        x, message = {
            "2-D": (np.zeros((3, 2)), f"{shape} (3, 2)"),
            "too short": (np.zeros(least - 1), f"{shape} ({least - 1},)"),
            "nan": (np.array([0.0, np.nan, 1.0]), f"{name} must be finite"),
            "inf": (np.array([0.0, 1.0, np.inf]), f"{name} must be finite"),
        }[bad]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(x)


class TestQuadrature:
    def test_constant_integrand(self):
        assert quad_integrate(lambda x: np.ones_like(x), QuadratureSpec(0, 1, 65)) == pytest.approx(1.0, abs=1e-14)

    def test_odd_function_cancels(self):
        assert quad_integrate(lambda x: x, QuadratureSpec(-1, 1, 65)) == pytest.approx(0.0, abs=1e-14)

    def test_standard_normal_mass(self):
        # oracle: closed form via erf
        expected = math.erf(10.0 / math.sqrt(2.0))
        got = quad_integrate(
            lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi), QuadratureSpec(-10, 10, 2049)
        )
        assert abs(got - expected) < 1e-10

    @pytest.mark.parametrize("nodes", [17, 101, 4097])
    def test_cubics_exact_any_node_count(self, nodes):
        # composite Simpson integrates degree <= 3 polynomials exactly
        coeffs = [0.7, -1.3, 2.1, 0.4]
        a, b = -2.3, 1.7

        def poly(x):
            return coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3

        exact = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1)) for k, c in enumerate(coeffs))
        got = quad_integrate(poly, QuadratureSpec(a, b, nodes))
        assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize(
        "f, shape",
        [(lambda x: 1.0, "()"), (lambda x: x[:-1], "(128,)"), (lambda x: x[:, None], "(129, 1)")],
        ids=["scalar", "short", "column"],
    )
    def test_result_of_another_shape_names_both_shapes(self, f, shape):
        with pytest.raises(ValueError, match=rf"shape {re.escape(shape)} on a grid of shape \(129,\)"):
            quad_integrate(f, QuadratureSpec(0, 1, 129))

    def test_scalar_only_integrand_needs_vectorize(self):
        with pytest.raises(TypeError):
            quad_integrate(lambda x: math.exp(-x), QuadratureSpec(0, 1, 129))
        got = quad_integrate(np.vectorize(lambda x: math.exp(-x)), QuadratureSpec(0, 1, 129))
        assert got == pytest.approx(1 - math.exp(-1), abs=1e-10)

    def test_vectorized_error_propagates_without_scalar_retries(self):
        calls = []

        def f(x):
            calls.append(np.ndim(x))
            raise ValueError("broken integrand")

        with pytest.raises(ValueError, match="broken integrand"):
            quad_integrate(f, QuadratureSpec(0, 1, 129))
        assert calls == [1]

    def test_branching_scalar_integrand_needs_vectorize(self):
        f = lambda x: x if x > 0 else 0.0
        with pytest.raises(ValueError, match="truth value"):
            quad_integrate(f, QuadratureSpec(-1, 1, 129))
        assert quad_integrate(np.vectorize(f), QuadratureSpec(-1, 1, 129)) == pytest.approx(0.5, abs=1e-14)

    def test_nonfinite_value_names_the_node(self):
        def f(x):
            return np.where(x > 0.5, np.inf, 1.0)

        with pytest.raises(ValueError, match="not finite at node"):
            quad_integrate(f, QuadratureSpec(0, 1, 33))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1, 0, 65)
        with pytest.raises(ValueError):
            QuadratureSpec(0, 1, 7)

    @pytest.mark.parametrize("lower, upper", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
    def test_nonfinite_bound_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="quadrature bounds must be finite"):
            QuadratureSpec(lower, upper)

    @pytest.mark.parametrize("nodes", [16, 64, 4096])
    def test_even_node_count_rejected(self, nodes):
        # composite Simpson pairs the intervals, so it needs an odd count
        with pytest.raises(ValueError, match=rf"nodes must be odd .*got {nodes}$"):
            QuadratureSpec(0, 1, nodes)


class TestRngStream:
    @pytest.mark.parametrize("seed, stream_id", [(42, 0), (9, 3), (-123, 2), (2**64 + 5, -1)])
    def test_philox_keyed_by_seed_and_stream_id(self, seed, stream_id):
        # the key of every recorded lab output; a change here moves them all
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key))
        rng = make_stream(seed, stream_id)
        assert isinstance(rng, np.random.Generator)
        assert np.array_equal(rng.standard_normal(64), expected.standard_normal(64))
        weights = [0.2, 0.3, 0.5]
        assert np.array_equal(rng.choice(3, size=64, p=weights), expected.choice(3, size=64, p=weights))
        assert np.array_equal(rng.uniform(-1.0, 1.0, 64), expected.uniform(-1.0, 1.0, 64))

    def test_same_key_same_sequence(self):
        a = make_stream(42, 0).standard_normal(100)
        b = make_stream(42, 0).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = make_stream(42, 0).standard_normal(100)
        b = make_stream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_normal_draw_mean(self):
        draws = make_stream(7, 0).standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.005

    def test_uniform_range(self):
        u = make_stream(3, 5).uniform(2.0, 4.0, 1000)
        assert u.min() >= 2.0 and u.max() <= 4.0

    def test_negative_seed_is_usable(self):
        a = make_stream(-123, 2).standard_normal(8)
        b = make_stream(-123, 2).standard_normal(8)
        assert np.array_equal(a, b)
