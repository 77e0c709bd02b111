"""Stein discrepancy with closed-form optimal witnesses, plus a kernelized
sample estimator (KSD).

Two function classes are supported.  In the data-weighted L2 class the
optimal witness is proportional to the score difference and the discrepancy
is sqrt(J(q||p)) from `fisher_divergence`; in the unweighted L2 class the
witness is q * score_p - q' and the discrepancy is its plain L2 norm.  Each
witness is divided by its `stein_discrepancy`, so it is unit-norm in its
own space and the discrepancies equal the attained suprema.  The KSD sums
are a 1-D fast Gauss transform: a Taylor expansion on boxes one bandwidth
wide, exact to rounding, in O(N) work per model (`ksd_vstats`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .mixture import GaussianMixture1D, pdf, quadrature_window, score
from .numerics import QuadratureSpec, _samples, quad_integrate
from .scorematch import DivergenceEstimate, _check_window, fisher_divergence

L2_Q_WEIGHTED = "l2_q_weighted"
L2_UNWEIGHTED = "l2_unweighted"

# The KSD box expansion (`ksd_vstats` derives each from its error bound):
# Taylor terms per box, the cutoff in bandwidths beyond a box's edge, the
# samples or targets taken per pass and the boxes whose coefficients are
# built at once, which bound the temporaries whatever N.
_TERMS = 24
_CUTOFF = 10.0
_BLOCK = 2048
_GROUP = 256
_INV_FACTORIAL = np.array([1.0 / math.factorial(n) for n in range(_TERMS)])
# The least bandwidth, in units of eps * max|x|: the box centres and the
# offsets round at eps * |x|, which moves an offset by up to about
# 4 eps max|x| / h, so at this multiple |v| stays within 1/2 + 1/32 and the
# truncation bound of `ksd_vstats` within 1.2e-18.
_RESOLUTION = 128.0


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-(x - y)^2 / (2 bandwidth^2))."""

    bandwidth: float = 1.0

    def __post_init__(self):
        # the kernel sums divide by bandwidth^2, so it must be a normal
        # double; h * h, since h ** 2 raises where the square overflows
        h = float(self.bandwidth)
        if not (h > 0 and sys.float_info.min <= h * h < math.inf):
            raise ValueError(
                f"bandwidth must be positive and finite, with a normal finite square, got {self.bandwidth}"
            )


def _witness(q, p, grid, function_class):
    values = score(p, grid) - score(q, grid)
    if function_class == L2_UNWEIGHTED:
        values = pdf(q, grid) * values
    if not np.all(np.isfinite(values)):
        raise ValueError("witness values must be finite")
    sd = stein_discrepancy(q, p, function_class).value
    # q == p: the witness vanishes identically and has no normalisation
    if sd == 0.0:
        return np.zeros_like(values)
    return (1.0 / sd) * values


def witness_weighted(
    q: GaussianMixture1D, p: GaussianMixture1D, grid: np.ndarray
) -> np.ndarray:
    """Unit-norm optimal witness in the q-weighted L2 class on `grid`:
    score_p - score_q over its `stein_discrepancy`, zeros where that is 0."""
    return _witness(q, p, grid, L2_Q_WEIGHTED)


def witness_unweighted(
    q: GaussianMixture1D, p: GaussianMixture1D, grid: np.ndarray
) -> np.ndarray:
    """Unit-norm optimal witness in the unweighted L2 class on `grid`:
    q * score_p - q' over its `stein_discrepancy`, zeros where that is 0.

    The data-density derivative q' equals q * score_q (chain rule), so the
    witness is q times the score difference.
    """
    return _witness(q, p, grid, L2_UNWEIGHTED)


def stein_discrepancy(
    q: GaussianMixture1D,
    p: GaussianMixture1D,
    function_class: str = L2_Q_WEIGHTED,
    spec: QuadratureSpec | None = None,
) -> DivergenceEstimate:
    """Attained supremum of E_q[(score_p - score_q) f] over unit-norm f.

    For the q-weighted class the value is sqrt(J(q||p)) from
    `fisher_divergence`; for the unweighted class it is
    sqrt(int (q score_p - q')^2).  Either class rejects an explicit window
    that drops more than 1e-6 of q's mass.
    """
    if function_class not in (L2_Q_WEIGHTED, L2_UNWEIGHTED):
        raise ValueError(f"unknown function class {function_class!r}")
    if spec is None:
        spec = quadrature_window(q, p)
    if function_class == L2_Q_WEIGHTED:
        norm_sq = fisher_divergence(q, p, spec).value
    else:
        _check_window(q, spec)
        integrand = lambda x: (pdf(q, x) * (score(p, x) - score(q, x))) ** 2
        # a square under Simpson's positive weights: never negative
        norm_sq = quad_integrate(integrand, spec)
    return DivergenceEstimate(math.sqrt(norm_sq))


def _powers(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[n] = t**n for every row n of out, by doubling: rows [m, m + step)
    are rows [0, step) times t**m, so 26 rows take ten passes."""
    out[0] = 1.0
    out[1] = t
    m = 2
    while m < len(out):
        step = min(m, len(out) - m)
        np.multiply(out[:step], out[m - 1] * t, out=out[m : m + step])
        m += step
    return out


def _box_coefficients(xs, scores, centres, first, stop, h):
    """Taylor coefficients in t of A0, A1, A2 for each box, (boxes, 3, P),
    and of B0, B1 for each box and model, (boxes, models, 2, P).

    They are the raw moments sum g v^q (q < P + 2, shared by the models)
    and sum g v^q s (q < P + 1, per model), g = exp(-v^2 / 2), over the
    boxes' samples, shifted by k and divided by n!; the samples are taken
    in chunks of `_BLOCK`.
    """
    nb, nm = centres.size, scores.shape[0]
    raw = np.zeros((nb, _TERMS + 2))
    raw_s = np.zeros((nm, nb, _TERMS + 1))
    work = np.empty((_TERMS + 2, _BLOCK))
    for a in range(first[0], stop[-1], _BLOCK):
        e = min(a + _BLOCK, stop[-1])
        b = np.searchsorted(first, np.arange(a, e), "right") - 1
        v = (xs[a:e] - centres[b]) / h
        pw = _powers(v, work[:, : e - a])
        pw *= np.exp(-0.5 * v * v)
        seg = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        ids = b[seg]
        raw[ids] += np.add.reduceat(pw, seg, axis=1).T
        for k, s in enumerate(scores[:, a:e]):
            raw_s[k, ids] += np.add.reduceat(pw[: _TERMS + 1] * s, seg, axis=1).T
    # A_k = exp(-t^2 / 2) sum_{n < P} t^n raw[n + k] / n!, B_k likewise from raw_s
    shared = np.stack([raw[:, k : k + _TERMS] for k in range(3)], axis=1) * _INV_FACTORIAL
    per_model = np.stack([raw_s[:, :, k : k + _TERMS] for k in range(2)], axis=2)
    return shared, np.ascontiguousarray((per_model * _INV_FACTORIAL).transpose(1, 0, 2, 3))


def _stein_row_sums(xs: np.ndarray, scores: np.ndarray, h: float) -> np.ndarray:
    """sum_j u_p(x_i, x_j) for every sorted sample x_i and every row of
    scores, by the box expansion of `ksd_vstats`."""
    n = xs.size
    h2 = h * h
    slot = xs - xs[0]
    slot /= h
    np.floor(slot, out=slot)
    first = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
    stop = np.r_[first[1:], n]
    centres = xs[0] + h * (slot[first] + 0.5)
    reach = h * (_CUTOFF + 0.5)
    lo = np.searchsorted(xs, centres - reach, "left")
    hi = np.searchsorted(xs, centres + reach, "right")
    row_sums = np.zeros_like(scores)
    work = np.empty((_TERMS, _BLOCK))
    for g0 in range(0, first.size, _GROUP):
        g1 = min(g0 + _GROUP, first.size)
        shared, per_model = _box_coefficients(
            xs, scores, centres[g0:g1], first[g0:g1], stop[g0:g1], h
        )
        for b in range(g0, g1):
            for r in range(lo[b], hi[b], _BLOCK):
                e = min(r + _BLOCK, hi[b])
                t = (xs[r:e] - centres[b]) / h
                tn = _powers(t, work[:, : e - r])
                a0, a1, a2 = shared[b - g0] @ tn
                # one product per model, the call it would get alone
                b0, b1 = (per_model[b - g0] @ tn).transpose(1, 0, 2)
                ta0 = t * a0
                kd = (ta0 - a1) / h
                kdd = (a0 - (t * (ta0 - 2 * a1) + a2)) / h2
                rows = scores[:, r:e] * (b0 + kd) - (t * b0 - b1) / h + kdd
                rows *= np.exp(-0.5 * t * t)
                row_sums[:, r:e] += rows
    return row_sums


def _check_scale(n: int, h: float, reach: float) -> None:
    """Raise ValueError unless a KSD over n samples, none farther than
    `reach` from 0, stays in double range at bandwidth h and resolves its
    boxes: each row mean holds the self-pair term 1/(n h^2), the std_error
    sums the squares of n row means, and h must be at least `_RESOLUTION`
    times eps * reach, the rounding of a box centre."""
    scale = 1.0 / (n * h * h)
    if not math.isfinite(n * scale * scale):
        raise ValueError(
            f"bandwidth {h} is too small for {n} samples: the self-pair term 1/(n h^2) = {scale:.3g} "
            "of each row mean overflows when n of them are squared and summed"
        )
    least = _RESOLUTION * sys.float_info.epsilon * reach
    if h < least:
        raise ValueError(
            f"bandwidth {h} is too small for samples reaching {reach:.3g}: box offsets round at "
            f"eps * {reach:.3g}, and the bandwidth must be at least {_RESOLUTION:g} times that, {least:.3g}"
        )


def ksd_vstats(
    samples: np.ndarray, models: list[GaussianMixture1D], kernel: KernelSpec
) -> list[DivergenceEstimate]:
    """V-statistic kernel Stein discrepancy of one sample set against each
    of `models`, in O(N) work per model.

    Averages the Stein kernel u_p over all N^2 ordered pairs:
    u_p(x, y) = s(x) s(y) k + (s(x) - s(y)) k d / h^2 + (k - k d^2 / h^2) / h^2
    with d = x - y, k = exp(-d^2 / (2 h^2)) and s the model's score.  The
    row sums over y are a 1-D fast Gauss transform (Greengard & Strain
    1991) by Taylor expansion, exact to rounding:

    - Boxes.  The sorted samples are cut into boxes one bandwidth wide,
      anchored at the smallest.  With c a box's centre, a source y in it
      has offset v = (y - c) / h, |v| <= 1/2 (1/2 + 1/32 after rounding,
      see `_RESOLUTION`), and a target x has t = (x - c) / h.
    - Expansion.  k = exp(-t^2 / 2) sum_{n < P} t^n [exp(-v^2 / 2) v^n / n!]
      plus a tail at most max_t exp(-t^2/2 + |t|/2 - 1/8) (|t|/2)^P / P!,
      2.3e-19 for P = _TERMS = 24: the smallest P whose bound is under
      1e-18, two orders below the rounding of a unit kernel value (P = 23
      gives 2.2e-18).  A wider box would need more terms.
    - Cutoff.  A target more than _CUTOFF = 10 bandwidths from a box's
      nearest edge skips that box; each skipped pair has k <= e^-50 =
      1.9e-22, and k d^2 / h^2 <= 100 e^-50, under the truncation bound
      (9 bandwidths would give 2e-16).  The targets of each box are found
      by `searchsorted` and taken in blocks of `_BLOCK` rows, the sources'
      moments in blocks of `_BLOCK` samples, and the coefficients of
      `_GROUP` boxes at a time, so that beside index arrays of at most N
      entries the temporaries stay near 1.5 MB whatever N.
    - Row sums in box-centred form.  With A_k = sum k v^k and
      B_k = sum k v^k s(y) over a box, sum k d = h (t A0 - A1),
      sum k d s = h (t B0 - B1) and sum k d^2 = h^2 (t^2 A0 - 2t A1 + A2),
      so the box adds s(x) (B0 + (t A0 - A1) / h) - (t B0 - B1) / h
      + (A0 - (t^2 A0 - 2t A1 + A2)) / h^2 to the row sum of x.  Each A_k
      and B_k is exp(-t^2 / 2) times a polynomial in t whose coefficients
      are the box's moments sum exp(-v^2 / 2) v^(n + k) / n! (shared by the
      models) and sum exp(-v^2 / 2) v^(n + k) s(y) / n!; one product of the
      (3, P) shared coefficients and one per model of its (2, P) ones with
      the (P, rows) powers of t evaluate them.  Offsets are taken from the
      box centre, so cancellation is bounded by the box, not by |x|.
      Folding the brackets into two polynomials instead, with the
      differences taken coefficient by coefficient, ran about a third
      faster but moved `ksd.csv` values by up to 1.8e-13 relative against
      an extended-precision dense sum, where this form stays within 1e-14.

    Each model's moments, coefficients and product are the operations a
    call with that model alone would make, so every estimate equals that of
    a single-model call bit for bit.  The sort gives a canonical order, so
    every value is bit-for-bit invariant under permutation of the input; no
    BLAS product sums over more than P terms, so no thread split reaches an
    inner sum.  A target is in reach of at most 22 boxes and costs about
    (3 + 2 models) P multiply-adds in each, so the work is linear in N.
    The reported std_error uses the nondegenerate asymptotic approximation
    2 * std(row means) / sqrt(N).  A bandwidth too small for N or for the
    samples' magnitude (see `_check_scale`), or any estimate that is not
    finite, raises ValueError.
    """
    if not models:
        raise ValueError("models must be nonempty")
    xs = np.sort(_samples(samples))
    n = xs.size
    _check_scale(n, kernel.bandwidth, max(abs(xs[0]), abs(xs[-1])))
    scores = np.array([score(p, xs) for p in models])
    row_sums = _stein_row_sums(xs, scores, kernel.bandwidth)
    out = []
    for i, sums in enumerate(row_sums):
        value = float(sums.sum() / (n * n))
        if n > 1:
            row_means = sums / n
            std_error = float(2.0 * row_means.std(ddof=1) / np.sqrt(n))
        else:
            std_error = 0.0
        if not (math.isfinite(value) and math.isfinite(std_error)):
            raise ValueError(
                f"the estimate against model {i} is not finite: value {value}, std_error {std_error}"
            )
        out.append(DivergenceEstimate(max(value, 0.0), std_error))
    return out


def ksd_vstat(
    samples: np.ndarray, p: GaussianMixture1D, kernel: KernelSpec
) -> DivergenceEstimate:
    """V-statistic kernel Stein discrepancy of samples against model p; see
    `ksd_vstats`."""
    return ksd_vstats(samples, [p], kernel)[0]
