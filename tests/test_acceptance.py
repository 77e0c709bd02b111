"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Conventions used throughout: a two-component target at "separation s" places
the component means at -s and +s with unit width.  In criterion 2 this s is
the half-distance between the means, so the mode distance is 2s, and its
score-difference windows are +/-3 around each mean; the annealed
Langevin criterion instead names the mode distance directly (means at -4 and
+4 for separation 8), matching the sampler's own documentation.  The
measured values driving every threshold live in this file so the printed
lines carry them verbatim.
"""

import time

import numpy as np
import pytest
from scipy.differentiate import derivative

import scorelab as sl
import scorelab.cli as cli
from conftest import random_mixture, random_mixture_pairs
from scorelab.mixture import _logpdf


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float) -> str:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = f"[{status}] criterion {num:02d} {name}: {detail} ({elapsed:.2f}s, limit {limit:g}s)"
    print(line)
    return line


def test_criterion_01_score_oracle_suite():
    t0 = time.perf_counter()
    rs = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        m = random_mixture(rs)
        spec = sl.quadrature_window(m)
        xs = np.linspace(spec.lower, spec.upper, 41)
        fd = derivative(lambda t: _logpdf(m, t), xs).df
        worst = max(worst, float(np.max(np.abs(sl.score(m, xs) - fd))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6
    line = report(1, "score vs finite difference", ok, f"max|err|={worst:.3g} < 1e-6", elapsed, 1.0)
    assert ok and elapsed < 1.0, line


def test_criterion_02_score_weight_dependence_decay():
    # For means at -s and +s with unit width the score is -x + s*tanh(s*x + L/2),
    # L the log-odds of the weights, so pi1 = 0.1 against 0.9 differs by
    #   D(x) = s*[tanh(s*x + c) - tanh(s*x - c)]
    #        = s*(40/9) / (cosh(s*x + c)*cosh(s*x - c)),   c = ln(9)/2.
    # D is even and peaks at the midpoint x = 0 with D(0) = 2s*tanh(c) = 1.6s.
    # For s <= 3 the +/-3 windows contain the midpoint; for s > 3 the maximum
    # sits at the inner window edges x = +/-(s - 3) and decays like exp(-2s(s-3)).
    t0 = time.perf_counter()
    eps = np.finfo(float).eps
    c = 0.5 * np.log(9.0)
    maxima, exact, agree = [], [], []
    for s in (2, 3, 4, 5, 6):
        xs = np.concatenate(
            [np.linspace(-s - 3, -s + 3, 2001), np.linspace(s - 3, s + 3, 2001)]
        )
        a = sl.score(sl.two_component(0.1, -s, s, 1), xs)
        b = sl.score(sl.two_component(0.9, -s, s, 1), xs)
        maxima.append(float(np.max(np.abs(a - b))))
        exact.append(float(np.max(s * (40 / 9) / (np.cosh(s * xs + c) * np.cosh(s * xs - c)))))
        tol = 1e-9 * exact[-1] + 16 * eps * float(np.max(np.abs(np.concatenate([a, b]))))
        agree.append(abs(maxima[-1] - exact[-1]) <= tol)
    elapsed = time.perf_counter() - t0
    closed_form = all(agree)
    # The grid's nearest point to x = 0 is at most h/2 = 0.0015 away, which
    # lowers D by at most 0.36*s^2*(h/2)^2 relative (3.2e-6 at s = 2).
    midpoint = all(abs(maxima[i] - 1.6 * s) <= 1e-5 * 1.6 * s for i, s in enumerate((2, 3)))
    decreasing = all(x > y for x, y in zip(maxima[1:], maxima[2:]))
    small = maxima[3] < 1e-6 and maxima[4] < 1e-13
    detail = (
        "max|score diff| over windows for s=2..6, measured/closed form: "
        + ", ".join(f"{m:.9g}/{e:.9g}" for m, e in zip(maxima, exact))
        + f"; closed form={closed_form}, 1.6s at s=2,3: {midpoint}, strictly decreasing"
        f" from s=3: {decreasing}, s=5 < 1e-6 and s=6 < 1e-13: {small}"
    )
    ok = closed_form and midpoint and decreasing and small
    line = report(2, "weight dependence decay", ok, detail, elapsed, 1.0)
    assert ok and elapsed < 1.0, line


def test_criterion_03_fisher_blind_to_reweighting():
    t0 = time.perf_counter()
    values = []
    for s in (4, 6, 8, 10):
        p = sl.two_component(0.5, -s, s, 1)
        p_prime = sl.two_component(0.9, -s, s, 1)
        values.append(sl.fisher_divergence(p, p_prime).value)
    elapsed = time.perf_counter() - t0
    non_increasing = all(x >= y for x, y in zip(values, values[1:]))
    ok = values[-1] < 1e-6 and non_increasing
    detail = (
        f"J(p||p') at separation 10: {values[-1]:.3g} < 1e-6; sweep "
        + ", ".join(f"{v:.3g}" for v in values)
        + f" non-increasing={non_increasing}"
    )
    line = report(3, "reweighting blindness", ok, detail, elapsed, 1.0)
    assert ok and elapsed < 1.0, line


def test_criterion_04_fisher_blind_to_spurious_component():
    t0 = time.perf_counter()
    q = sl.gaussian(-10, 1)
    values = [
        sl.fisher_divergence(q, sl.two_component(round(pi1, 1), -10, 10, 1)).value
        for pi1 in np.arange(0.1, 0.95, 0.1)
    ]
    elapsed = time.perf_counter() - t0
    spread = max(values) - min(values)
    ok = max(values) < 1e-6 and spread < 1e-8
    detail = f"max J(q||p)={max(values):.3g} < 1e-6; spread over pi1={spread:.3g} < 1e-8"
    line = report(4, "spurious-component blindness", ok, detail, elapsed, 1.0)
    assert ok and elapsed < 1.0, line


SCENARIOS = [
    (sl.gaussian(0, 1), sl.gaussian(0, 2)),  # analytic case, J = 0.5625
    (sl.gaussian(0, 1), sl.gaussian(0, 1)),
    (sl.two_component(0.3, -2, 2, 1), sl.two_component(0.3, -2, 2, 1)),
    (sl.gaussian(-1, 1.5), sl.two_component(0.5, -2, 2, 1)),
    (sl.two_component(0.7, -1, 2, 0.8), sl.two_component(0.4, -1.5, 1.5, 1.2)),
]


def test_criterion_05_cross_estimator_identity():
    t0 = time.perf_counter()
    worst_sigma = 0.0
    analytic_ok = True
    for idx, (q, p) in enumerate(SCENARIOS):
        xs = sl.sample(q, 100_000, sl.make_stream(505, idx))
        terms = 0.5 * sl.score(p, xs) ** 2 + sl.score_derivative(p, xs)
        h = float(terms.mean())
        se = float(terms.std(ddof=1) / np.sqrt(terms.size))
        spec = sl.quadrature_window(q, p)
        eq2 = sl.quad_integrate(lambda x: sl.pdf(q, x) * sl.score(q, x) ** 2, spec)
        j = sl.fisher_divergence(q, p, spec).value
        gap_sigmas = abs(h + 0.5 * eq2 - 0.5 * j) / max(se, 1e-15)
        worst_sigma = max(worst_sigma, gap_sigmas)
        if idx == 0:
            analytic_ok = abs(j - 0.5625) < 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst_sigma < 4.0 and analytic_ok
    detail = f"worst |gap|={worst_sigma:.2f} MC std errors (<4); analytic J=0.5625 ok={analytic_ok}"
    line = report(5, "empirical objective identity", ok, detail, elapsed, 10.0)
    assert ok and elapsed < 10.0, line


def test_criterion_06_stein_discrepancy_vanishes():
    t0 = time.perf_counter()
    q = sl.gaussian(-10, 1)
    p = sl.two_component(0.5, -10, 10, 1)
    sd_w = sl.stein_discrepancy(q, p, sl.L2_Q_WEIGHTED).value
    sd_u = sl.stein_discrepancy(q, p, sl.L2_UNWEIGHTED).value
    worst_gap = 0.0
    for qq, pp in random_mixture_pairs(606, 20):
        sd = sl.stein_discrepancy(qq, pp, sl.L2_Q_WEIGHTED).value
        j = sl.fisher_divergence(qq, pp).value
        worst_gap = max(worst_gap, abs(sd**2 - j))
    elapsed = time.perf_counter() - t0
    ok = sd_w < 1e-6 and sd_u < 1e-6 and worst_gap < 1e-9
    detail = (
        f"SD weighted={sd_w:.3g}, unweighted={sd_u:.3g} (<1e-6); "
        f"max|SD^2 - J|={worst_gap:.3g} (<1e-9)"
    )
    line = report(6, "stein discrepancy blindness", ok, detail, elapsed, 2.0)
    assert ok and elapsed < 2.0, line


def test_criterion_07_ksd_blindness():
    t0 = time.perf_counter()
    xs = sl.sample(sl.gaussian(-5, 1), 10_000, sl.make_stream(707, 0))
    kernel = sl.KernelSpec(1.0)
    k_left = sl.ksd_vstat(xs, sl.two_component(0.1, -5, 5, 1), kernel).value
    k_right = sl.ksd_vstat(xs, sl.two_component(0.9, -5, 5, 1), kernel).value
    k_near = sl.ksd_vstat(xs, sl.gaussian(-5, 1), kernel).value
    k_far = sl.ksd_vstat(xs, sl.gaussian(5, 1), kernel).value
    elapsed = time.perf_counter() - t0
    ok = abs(k_left - k_right) < 1e-6 and k_far > 10 * k_near
    detail = (
        f"|KSD(pi=0.1) - KSD(pi=0.9)|={abs(k_left - k_right):.3g} (<1e-6); "
        f"far/near ratio={k_far / k_near:.0f} (>10)"
    )
    line = report(7, "ksd blindness", ok, detail, elapsed, 30.0)
    assert ok and elapsed < 30.0, line


def test_criterion_08_svgd_initialization_sensitivity():
    t0 = time.perf_counter()
    cells = [(-4.0, 1.0), (0.0, 3.0), (4.0, 1.0)]
    cfg = sl.SvgdConfig(kernel=sl.KernelSpec(1.0), step_size=0.1, iterations=2000)
    fractions = {}
    index = 0
    for pi1 in (0.5, 0.1):
        target = sl.two_component(pi1, -4, 4, 1)
        for mu0, s0 in cells:
            rng = sl.make_stream(808, index)
            init = mu0 + s0 * rng.standard_normal(200)
            final, _ = sl.svgd_run(init, target, cfg)
            fractions[(pi1, mu0, s0)] = sl.mode_fraction(final, 0.0)
            index += 1
    elapsed = time.perf_counter() - t0
    spreads = {
        pi1: max(fractions[(pi1, mu0, s0)] for mu0, s0 in cells)
        - min(fractions[(pi1, mu0, s0)] for mu0, s0 in cells)
        for pi1 in (0.5, 0.1)
    }
    anchored = fractions[(0.5, -4.0, 1.0)]
    ok = all(s > 0.3 for s in spreads.values()) and anchored > 0.9
    detail = (
        f"mode-fraction spread over mu0: pi1=0.5 -> {spreads[0.5]:.2f}, "
        f"pi1=0.1 -> {spreads[0.1]:.2f} (>0.3); left-init fraction={anchored:.2f} (>0.9)"
    )
    line = report(8, "svgd initialization sensitivity", ok, detail, elapsed, 60.0)
    assert ok and elapsed < 60.0, line


def test_criterion_09_annealed_langevin_recovery():
    t0 = time.perf_counter()
    gaps = {}
    for pi1 in (0.1, 0.3, 0.5):
        target = sl.two_component(pi1, -4, 4, 1)
        ens = sl.annealed_langevin_run(
            5000, target, sl.geometric_schedule(), sl.make_stream(2024, int(pi1 * 10))
        )
        gaps[pi1] = abs(sl.mode_fraction(ens, 0.0) - pi1)
    baseline = sl.annealed_langevin_run(
        5000,
        sl.two_component(0.5, -4, 4, 1),
        sl.NoiseSchedule((0.01,), 1600, 0.01),
        sl.make_stream(99, 0),
        init=np.full(5000, -4.0),
    )
    stuck = sl.mode_fraction(baseline, 0.0)
    elapsed = time.perf_counter() - t0
    ok = all(g < 0.05 for g in gaps.values()) and stuck > 0.99
    detail = (
        "annealed |fraction - pi1|: "
        + ", ".join(f"{pi}:{g:.3f}" for pi, g in gaps.items())
        + f" (<0.05); plain baseline stays at {stuck:.4f} (>0.99)"
    )
    line = report(9, "annealed langevin recovery", ok, detail, elapsed, 120.0)
    assert ok and elapsed < 120.0, line


def test_criterion_10_remedies_contrast():
    t0 = time.perf_counter()
    data = sl.two_component(0.9, -10, 10, 1)
    model = sl.two_component(0.1, -10, 10, 1)
    fisher = sl.fisher_divergence(data, model).value
    xs = sl.sample(data, 2000, sl.make_stream(1010, 0))
    loss = sl.cml_loss(model, data, xs)
    shifted = sl.GaussianMixture1D(model.weights, model.means, model.stds, log_offset=11.0)
    loss_shifted = sl.cml_loss(shifted, data, xs)
    spurious_data = sl.sample(sl.gaussian(-4, 1), 100_000, sl.make_stream(1010, 2))
    moment = sl.moment_discrepancy(sl.two_component(0.5, -4, 4, 1), spurious_data)[0]
    elapsed = time.perf_counter() - t0
    ok = fisher < 1e-6 and loss > 1.0 and loss == loss_shifted and abs(moment) > 3.9
    detail = (
        f"fisher={fisher:.3g} (<1e-6) while cml={loss:.1f} (>1.0); "
        f"offset bit-invariant={loss == loss_shifted}; first-moment gap={moment:.2f} (>3.9)"
    )
    line = report(10, "mass-aware remedies contrast", ok, detail, elapsed, 10.0)
    assert ok and elapsed < 10.0, line


def test_criterion_11_entropy_gradient_oracle():
    t0 = time.perf_counter()
    gaps = {}
    for idx, phi in enumerate((0.5, 1.0, 2.0)):
        model = sl.ImplicitModel(
            transform=lambda z, p: p * z, transform_dphi=lambda z, p: z, phi=phi
        )
        est = sl.entropy_grad_estimate(
            model, lambda x: -x / phi**2, 100_000, sl.make_stream(1111, idx)
        )
        gaps[phi] = abs(abs(est.value) - 1.0 / phi) / est.std_error
    location = sl.ImplicitModel(
        transform=lambda z, p: z + p, transform_dphi=lambda z, p: np.ones_like(z), phi=0.3
    )
    est0 = sl.entropy_grad_estimate(location, lambda x: -(x - 0.3), 100_000, sl.make_stream(1111, 9))
    flat_sigmas = abs(est0.value) / est0.std_error
    elapsed = time.perf_counter() - t0
    ok = all(g < 4 for g in gaps.values()) and flat_sigmas < 4
    detail = (
        "scale-family gaps (std errors): "
        + ", ".join(f"phi={p}:{g:.2f}" for p, g in gaps.items())
        + f"; location-family {flat_sigmas:.2f} (<4)"
    )
    line = report(11, "entropy gradient oracle", ok, detail, elapsed, 5.0)
    assert ok and elapsed < 5.0, line


DETERMINISM_CONFIG = """
[experiment]
command = svgd-run
seed = 7
out_dir = {out}

[params]
pi1_grid = 0.5, 0.1
cells = -4:1, 0:3, 4:1
particles = 60
iterations = 150
snapshot_every = 50
"""


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DETERMINISM_CONFIG.format(out=tmp_path / "unused"))
    trees = {}
    for label, threads in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / label
        code = cli.main(
            ["svgd-run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        trees[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    elapsed = time.perf_counter() - t0
    ok = trees["a"] == trees["b"] == trees["c"]
    n_files = len(trees["a"])
    detail = f"{n_files} output files byte-identical across reruns and thread counts"
    line = report(12, "cli determinism", ok, detail, elapsed, 60.0)
    assert ok and elapsed < 60.0, line
