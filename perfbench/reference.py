"""Independent references for the values the `lab` commands report.

Nothing here imports scorelab.  Fisher divergences and Stein discrepancies
of two-component, equal-width mixtures are integrated in mpmath with the
score difference in closed form: with responsibilities r1 = sigmoid(a(x))
and a linear log-odds a(x), the difference of two mixtures' scores is
(r1 - r1') (mu1 - mu2) / sigma^2, and r1 - r1' is formed through
expm1 of the constant log-odds gap, so nothing cancels.  Panels are fixed
16-point Gauss-Legendre rules, 4 sigma^2 / s wide across the midpoint
transition and 4 sigma wide elsewhere; against panels half as wide at 30
digits, no value moves by more than 1e-15 relative for separations 2 to 80.

The kernel Stein discrepancy is recomputed densely in float64, over the
pairs in input order in row blocks, rather than over the sorted upper
triangle the library uses.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

_GL_POINTS = 16
_BAND_WIDTHS = 60.0  # transition widths sigma^2 / s covered by fine panels
_TAIL_SIGMAS = 20.0
_DPS = 20
_FINE_WIDTHS = 4.0
_COARSE_SIGMAS = 4.0


def _panels(s: float, sigma: float, centers: list[float]) -> list[float]:
    lo, hi = -s / 2 - _TAIL_SIGMAS * sigma, s / 2 + _TAIL_SIGMAS * sigma
    width = sigma * sigma / s
    a = max(lo, min(centers) - _BAND_WIDTHS * width)
    b = min(hi, max(centers) + _BAND_WIDTHS * width)
    fine = _FINE_WIDTHS * width
    pts = [a + i * fine for i in range(int((b - a) / fine) + 1)] + [b]
    coarse = _COARSE_SIGMAS * sigma
    pts += [lo + i * coarse for i in range(int((a - lo) / coarse) + 1)]
    pts += [b + i * coarse for i in range(1, int((hi - b) / coarse) + 1)] + [hi]
    pts = sorted(set(pts) | {lo, hi})
    return [x for i, x in enumerate(pts) if i == 0 or x - pts[i - 1] > 1e-12 * coarse]


def _integrate(f, pts: list[float]) -> mp.mpf:
    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)
    nodes = [mp.mpf(float(x)) for x in nodes]
    weights = [mp.mpf(float(w)) for w in weights]
    total = mp.mpf(0)
    for a, b in zip(pts, pts[1:]):
        half, mid = (mp.mpf(b) - a) / 2, (mp.mpf(b) + a) / 2
        total += half * mp.fsum(w * f(mid + half * x) for x, w in zip(nodes, weights))
    return total


class TwoComponent:
    """pi N(-s/2, sigma^2) + (1 - pi) N(s/2, sigma^2), evaluated in mpmath."""

    def __init__(self, pi: float, s: float, sigma: float):
        self.pi, self.s, self.sigma = mp.mpf(pi), mp.mpf(s), mp.mpf(sigma)
        self.logit = mp.log(self.pi) - mp.log(1 - self.pi)
        self.norm = 1 / (mp.sqrt(2 * mp.pi) * self.sigma)

    def center(self) -> float:
        # where the responsibilities cross: a(x) = logit - s x / sigma^2 = 0
        return float(self.logit * self.sigma**2 / self.s)

    def e(self, x):
        """exp(-a(x)) = r2 / r1."""
        return mp.exp(self.s * x / self.sigma**2 - self.logit)

    def first_component(self, x):
        return self.norm * mp.exp(-((x + self.s / 2) ** 2) / (2 * self.sigma**2))

    def pdf(self, x):
        # second component density = first * exp(s x / sigma^2)
        g1 = self.first_component(x)
        return self.pi * g1 * (1 + self.e(x))


def fisher_pp(pi: float, pi_prime: float, s: float, sigma: float) -> mp.mpf:
    """J(p || p') for two weightings of the same two components."""
    with mp.workdps(_DPS):
        p, q = TwoComponent(pi, s, sigma), TwoComponent(pi_prime, s, sigma)
        gap = mp.expm1(p.logit - q.logit)
        scale = (p.s / p.sigma**2) ** 2

        def f(x):
            ep = p.e(x)
            dr = ep * gap / ((1 + ep) * (1 + q.e(x)))  # r1 - r1'
            return p.pdf(x) * dr * dr * scale

        return _integrate(f, _panels(s, sigma, [p.center(), q.center()]))


def _spurious_integrand(pi: float, s: float, sigma: float, power: int):
    # q = N(-s/2, sigma^2) and p the mixture: score_q - score_p = -r2 s / sigma^2
    p = TwoComponent(pi, s, sigma)
    scale = (p.s / p.sigma**2) ** 2

    def f(x):
        e = p.e(x)
        r2 = e / (1 + e)
        return p.first_component(x) ** power * r2 * r2 * scale

    return f, _panels(s, sigma, [p.center()])


def fisher_qp(pi: float, s: float, sigma: float) -> mp.mpf:
    """J(q || p) with q the first component of p alone."""
    with mp.workdps(_DPS):
        return _integrate(*_spurious_integrand(pi, s, sigma, 1))


def stein_unweighted(pi: float, s: float, sigma: float) -> mp.mpf:
    """sqrt(int (q (score_p - score_q))^2), q the first component of p."""
    with mp.workdps(_DPS):
        return mp.sqrt(_integrate(*_spurious_integrand(pi, s, sigma, 2)))


def stein_weighted(pi: float, s: float, sigma: float) -> mp.mpf:
    with mp.workdps(_DPS):
        return mp.sqrt(fisher_qp(pi, s, sigma))


def rel_err(got: float, ref) -> float:
    """|got - ref| / |ref| in mpmath, so references below double range work."""
    with mp.workdps(_DPS):
        ref = mp.mpf(ref)
        if ref == 0:
            return 0.0 if got == 0.0 else math.inf
        return float(abs(mp.mpf(got) - ref) / abs(ref))


# --- kernel Stein discrepancy ------------------------------------------------

_U64 = 2**64 - 1


def mixture_sample(weights, means, stds, n: int, seed: int, stream_id: int = 0) -> np.ndarray:
    """The documented sampler: Philox keyed by (seed, stream_id), a categorical
    draw on the weights, then one standard normal per sample."""
    key = np.array([seed & _U64, stream_id & _U64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    idx = gen.choice(len(weights), size=n, p=np.asarray(weights, dtype=float))
    return np.asarray(means, dtype=float)[idx] + np.asarray(stds, dtype=float)[idx] * gen.standard_normal(n)


def mixture_score(weights, means, stds, x: np.ndarray) -> np.ndarray:
    w, m, sd = (np.asarray(v, dtype=float) for v in (weights, means, stds))
    z = (x[:, None] - m) / sd
    logs = np.log(w) - np.log(sd) - 0.5 * z * z
    logs -= logs.max(axis=1, keepdims=True)
    r = np.exp(logs)
    r /= r.sum(axis=1, keepdims=True)
    return (r * (-z / sd)).sum(axis=1)


def ksd_dense(x: np.ndarray, scores: list[np.ndarray], bandwidth: float, block: int = 500):
    """V-statistic KSD and its std error for each score array.

    Every pair is formed densely, once per unordered pair: a row block meets
    the columns from its own start onward, and by symmetry of the Stein
    kernel its column sums complete the rows below the block.  The kernel
    terms that do not depend on the score are shared by all the arrays.
    """
    n = x.size
    h2 = bandwidth * bandwidth
    row_sums = np.zeros((len(scores), n))
    for a in range(0, n, block):
        b = min(a + block, n)
        d = x[a:b, None] - x[None, a:]
        k = np.exp(-d * d / (2 * h2))
        base = k * (1 / h2 - d * d / (h2 * h2))
        kd = k * d / h2
        for m, score in enumerate(scores):
            si, sj = score[a:b, None], score[None, a:]
            u = base + k * (si * sj) + kd * (si - sj)
            row_sums[m, a:b] += u.sum(axis=1)
            row_sums[m, b:] += u[:, b - a :].sum(axis=0)
    out = []
    for rows in row_sums:
        value = math.fsum(rows) / (n * n)
        std_error = 2.0 * float(np.std(rows / n, ddof=1)) / math.sqrt(n)
        out.append((max(value, 0.0), std_error))
    return out
