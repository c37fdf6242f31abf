"""Numerical evaluation of recovery conditions, infeasibility thresholds,
and Hamming-distance bounds for noisy top-k degree ranking.

Every quantity here is a leading-order evaluation: vanishing remainder
terms are dropped throughout, and report dictionaries say so.  Natural
logarithms are used everywhere.  Degree ranks are 1-based and refer to
the non-increasingly sorted true degree sequence, so sigma at rank i is
the noisy-degree standard deviation of the node holding rank i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .centrality import SpectralPair, TopKSet, _scores
from .graphs import NoiseParams, _integers

__all__ = [
    "DegreeMoments",
    "CorrectionTerms",
    "SeparationReport",
    "InfeasibilityReport",
    "HammingBoundsRealization",
    "TailEnvelope",
    "EvecBound",
    "normal_cdf",
    "noisy_degree_moments",
    "correction_terms",
    "default_c_of_n",
    "default_i_star",
    "separation_report",
    "infeasibility_report",
    "hamming_bounds_realization",
    "er_noise_variance_proxy",
    "er_expected_hamming_lower_bound",
    "tail_envelope",
    "evec_bound",
    "evec_gap_check",
    "classify_regime",
    "bound_report",
    "evec_report",
]

LEADING_ORDER_NOTE = "leading-order evaluation; vanishing remainder terms omitted"


@dataclass(frozen=True)
class DegreeMoments:
    """Mean and variance of observed degrees under edge-flip noise.

    Floats for one true degree, float arrays for an array of them.
    """

    mu: float | np.ndarray
    sigma2: float | np.ndarray

    @property
    def sigma(self) -> float | np.ndarray:
        return np.sqrt(self.sigma2)


@dataclass(frozen=True)
class CorrectionTerms:
    """Second-order tail corrections eps1 (extreme-value) and eps2 (slack)."""

    eps1: float
    eps2: float
    c_of_n: float


@dataclass(frozen=True)
class SeparationReport:
    """Sufficient-condition check for exact top-k recovery from noisy degrees."""

    k: int
    i_star: int
    delta_bdry: float
    delta_bulk: float
    l_k: float
    l_bdry: float
    sigma_bar_bdry: float
    bdry_required: float
    bulk_required: float
    one_gap_required: float
    boundary_ok: bool
    bulk_ok: bool
    one_gap_ok: bool
    snr: float
    success_prob_budget: float


@dataclass(frozen=True)
class InfeasibilityReport:
    """Necessary-gap thresholds at or below which exact recovery fails with probability bounded away from 0."""

    k: int
    i_star: int
    delta_bulk_threshold: float
    delta_bdry_threshold: float
    delta_bdry_bar: float
    bulk_infeasible: bool
    bdry_infeasible: bool


class HammingBoundsRealization(NamedTuple):
    """Per-realization sandwich on the top-k Hamming distance.

    The four counts split the noisy scores at t: true top-k members below
    (at most) t and outsiders above (at least) t.
    """

    lower: int
    upper: int
    t: float
    in_below: int
    in_at_most: int
    out_above: int
    out_at_least: int


class TailEnvelope(NamedTuple):
    """High-probability envelope for the largest non-top-k noisy degree."""

    c_upper: float
    c_lower: float


@dataclass(frozen=True)
class EvecBound:
    """Entrywise eigenvector perturbation bound and its gap precondition."""

    b1: float
    b2: float
    b3: float
    eps_n: float
    gap_condition_ok: bool


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def noisy_degree_moments(d: int | np.ndarray, n: int, params: NoiseParams) -> DegreeMoments:
    """Moments of the observed degree of a node with true degree d.

    The observed degree is Binomial(n-1-d, alpha) + Binomial(d, 1-beta),
    so mu = (n-1-d) alpha + d (1-beta) and
    sigma2 = (n-1-d) alpha (1-alpha) + d beta (1-beta).  An integer array
    d gives the moments of every entry, equal to the scalar calls.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if np.any((d < 0) | (d > n - 1)):
        raise ValueError(f"degree must lie in [0, {n - 1}], got {d}")
    a, b = params.alpha, params.beta
    mu = (n - 1 - d) * a + d * (1.0 - b)
    sigma2 = (n - 1 - d) * a * (1.0 - a) + d * b * (1.0 - b)
    return DegreeMoments(mu=mu, sigma2=sigma2)


def default_c_of_n(n: int) -> float:
    """Default slowly growing slack constant: ln ln n, clamped below at 1."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return max(1.0, math.log(math.log(n)))


def correction_terms(m: int, n: int, c_of_n: float | None = None) -> CorrectionTerms:
    """Tail correction terms for a maximum over m variables in an n-node graph.

    eps1(m) = ln ln m / (2 sqrt(2 ln m)) sharpens the Gaussian-maximum
    location; eps2(n) = C(n) / sqrt(ln n) is the slack margin.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if c_of_n is None:
        c_of_n = default_c_of_n(n)
    if not c_of_n > 0:
        raise ValueError(f"slack constant must be positive, got {c_of_n}")
    eps1 = math.log(math.log(m)) / (2.0 * math.sqrt(2.0 * math.log(m)))
    eps2 = c_of_n / math.sqrt(math.log(n))
    return CorrectionTerms(eps1=eps1, eps2=eps2, c_of_n=c_of_n)


def _band(m: int, n: int, c_of_n: float | None) -> tuple[float, float]:
    """(sqrt(2 ln m) - eps1(m)) -/+ eps2(n): the extreme-value band of a maximum over m tail degrees."""
    terms = correction_terms(m, n, c_of_n)
    base = math.sqrt(2.0 * math.log(m)) - terms.eps1
    return base - terms.eps2, base + terms.eps2


def _descending(degrees) -> np.ndarray:
    """The degrees, one per node in any node order, as int64 sorted non-increasingly."""
    d = _integers(degrees, "degrees")
    if d.ndim != 1:
        raise ValueError(f"degrees must be a 1-d array, got shape {d.shape}")
    return np.sort(d)[::-1]


def _ranked(degrees, k: int, params: NoiseParams, i_star: int | None = None):
    """Validated (sorted degrees, 1 - alpha - beta, observed-degree moments by rank).

    With i_star the extreme-value bands over the n - k ranks past k and over
    the ranks i_star..n are evaluated, and each needs at least 3 nodes.
    """
    d_sorted = _descending(degrees)
    n = d_sorted.size
    if not 1 <= k <= n - (1 if i_star is None else 3):
        raise ValueError(f"need 1 <= k <= n - {1 if i_star is None else 3}, got k={k}, n={n}")
    if i_star is not None and not k < i_star <= n - 2:
        raise ValueError(f"need k < i_star <= n - 2, got k={k}, i_star={i_star}, n={n}")
    contraction = 1.0 - params.alpha - params.beta
    if contraction <= 0.0:
        raise ValueError(
            f"need alpha + beta < 1, got alpha={params.alpha}, beta={params.beta}"
        )
    return d_sorted, contraction, noisy_degree_moments(d_sorted, n, params)


def default_i_star(degrees, k: int, params: NoiseParams) -> int:
    """Smallest rank past k whose degree gap already dominates the bulk noise.

    Returns the smallest i with k < i <= n - 2 and
    d_(k) - d_(i) >= 2 sqrt(2 ln(n - i + 1)) sigma_(i) / (1 - alpha - beta),
    falling back to k + 1 when no rank qualifies.  The scan stops at n - 2
    so the returned rank leaves at least 3 tail positions for the
    correction terms used downstream.  degrees holds one true degree per
    node, in any node order.
    """
    d_sorted, contraction, mom = _ranked(degrees, k, params)
    n = d_sorted.size
    ranks, sigma = np.arange(k + 1, n - 1), mom.sigma
    gap = d_sorted[k - 1] - d_sorted[ranks - 1]
    rough = 2.0 * np.sqrt(2.0 * np.log(n - ranks + 1)) * sigma[ranks - 1] / contraction
    # np.log may differ from math.log in the last bit: screen with slack, then decide with math
    for i in ranks[gap >= rough * (1.0 - 1e-9)].tolist():
        need = 2.0 * math.sqrt(2.0 * math.log(n - i + 1)) * float(sigma[i - 1]) / contraction
        if int(d_sorted[k - 1] - d_sorted[i - 1]) >= need:
            return i
    return k + 1


def separation_report(
    degrees,
    k: int,
    i_star: int,
    params: NoiseParams,
    delta: float,
    c_of_n: float | None = None,
) -> SeparationReport:
    """Evaluate the two sufficient degree-gap conditions for top-k recovery.

    The boundary condition keeps ranks k and k+1..i_star-1 in order; the
    bulk condition keeps rank k above every rank from i_star down.  When
    both hold, the noisy top-k set equals the true one with probability
    at least 1 - 2 delta up to vanishing terms.  Also evaluates the
    single-gap variant that needs no i_star split, and the signal-to-noise
    ratio (1 - alpha - beta) (d_(k) - d_(k+1)) / sigma_(k+1).

    degrees holds one true degree per node, in any node order; i_star is
    a 1-based rank with k < i_star <= n - 2, and k <= n - 3.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    d_sorted, contraction, mom = _ranked(degrees, k, params, i_star)
    n = d_sorted.size
    sig_k, sig_k1, sig_istar = mom.sigma[[k - 1, k, i_star - 1]].tolist()
    delta_bdry = float(d_sorted[k - 1] - d_sorted[k])
    delta_bulk = float(d_sorted[k - 1] - d_sorted[i_star - 1])
    l_k = math.log(k / delta)
    l_bdry = math.log(k * (i_star - k) / delta)

    # largest combined per-pair variance over top ranks vs near-boundary ranks
    if i_star > k + 1:
        sigma_bar_bdry = math.sqrt(
            float(mom.sigma2[:k].max()) + float(mom.sigma2[k : i_star - 1].max())
        )
        bdry_required = (
            math.sqrt(2.0 * l_bdry) * sigma_bar_bdry + (2.0 / 3.0) * l_bdry
        ) / contraction
        boundary_ok = delta_bdry >= bdry_required
    else:
        # no competitor sits strictly between rank k and i_star: vacuous
        sigma_bar_bdry = 0.0
        bdry_required = 0.0
        boundary_ok = True

    def required(m: int, sigma: float) -> float:
        # the best of m tail degrees must stay below rank k
        return (
            _band(m, n, c_of_n)[1] * sigma + sig_k * math.sqrt(2.0 * l_k) + (2.0 / 3.0) * l_k
        ) / contraction

    bulk_required = required(n - i_star + 1, sig_istar)
    bulk_ok = delta_bulk >= bulk_required
    one_gap_required = required(n - k, sig_k1)
    one_gap_ok = delta_bdry >= one_gap_required

    snr = contraction * delta_bdry / sig_k1 if sig_k1 > 0 else math.inf

    return SeparationReport(
        k=k,
        i_star=i_star,
        delta_bdry=delta_bdry,
        delta_bulk=delta_bulk,
        l_k=l_k,
        l_bdry=l_bdry,
        sigma_bar_bdry=sigma_bar_bdry,
        bdry_required=bdry_required,
        bulk_required=bulk_required,
        one_gap_required=one_gap_required,
        boundary_ok=boundary_ok,
        bulk_ok=bulk_ok,
        one_gap_ok=one_gap_ok,
        snr=snr,
        success_prob_budget=1.0 - 2.0 * delta,
    )


def infeasibility_report(
    degrees,
    k: int,
    i_star: int,
    params: NoiseParams,
    c1: float = 0.5,
    c_of_n: float | None = None,
) -> InfeasibilityReport:
    """Evaluate necessary gap thresholds: at or below one, recovery fails with probability bounded away from 0.

    That holds at leading order, not draw by draw: simulated ER/PA graphs labelled infeasible-boundary
    kept mean exact-recovery rates of 0.583 over noise draws where d_(k) > d_(k+1), 0.438 where they tie.
    delta_bulk_threshold guards the bulk gap d_(k) - d_(i_star), delta_bdry_threshold the boundary gap
    d_(k) - d_(k+1), and delta_bdry_bar is the complementary single-gap threshold above which the
    boundary cannot be blamed.  Thresholds are clamped at zero; degrees, k, i_star as in separation_report.
    """
    if not 0.0 < c1 < 1.0:
        raise ValueError(f"c1 must lie in (0, 1), got {c1}")
    d_sorted, contraction, mom = _ranked(degrees, k, params, i_star)
    n = d_sorted.size
    sig_k, sig_k1, sig_istar = mom.sigma[[k - 1, k, i_star - 1]].tolist()

    bulk_threshold = max(0.0, _band(n - i_star + 1, n, c_of_n)[0] * sig_istar / contraction)
    bdry_threshold = max(
        0.0,
        c1 * 2.0 * math.sqrt(2.0 * math.log(k)) * max(sig_k, sig_k1) / contraction,
    )
    bdry_bar = max(0.0, _band(n - k, n, c_of_n)[0] * sig_k1 / contraction)

    delta_bulk = float(d_sorted[k - 1] - d_sorted[i_star - 1])
    delta_bdry = float(d_sorted[k - 1] - d_sorted[k])

    return InfeasibilityReport(
        k=k,
        i_star=i_star,
        delta_bulk_threshold=bulk_threshold,
        delta_bdry_threshold=bdry_threshold,
        delta_bdry_bar=bdry_bar,
        bulk_infeasible=delta_bulk <= bulk_threshold,
        bdry_infeasible=delta_bdry <= bdry_threshold,
    )


def hamming_bounds_realization(true_topk: TopKSet, noisy_scores) -> HammingBoundsRealization:
    """Sandwich the realized top-k Hamming distance from one noisy score vector.

    Splits the noisy scores at t, the (k+1)-th largest value.  Nodes of the
    true top-k scoring strictly below t are certainly lost and outsiders
    scoring strictly above t are certainly let in, which gives the lower
    bound; the upper bound counts every member / outsider that could
    possibly cross.  Both counts hold for every tie-break of the noisy
    top-k selection.  A 2-d block of score rows gives every field as an
    array over its rows; a 1-d vector is the one-row block.
    """
    s = np.asarray(noisy_scores)
    block = _scores(s, ndim=2) if s.ndim == 2 else _scores(s)[None, :]
    n, k = block.shape[1], true_topk.k
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    members = np.fromiter(true_topk.members, dtype=np.int64, count=k)
    if (stray := members[(members < 0) | (members >= n)]).size:
        raise ValueError(f"top-k member {int(stray.min())} is not a node id in range({n})")

    t = np.partition(block, n - k - 1, axis=1)[:, n - k - 1, None]  # (k+1)-th largest, in the scores' own dtype
    inside = block[:, members]
    in_below, in_above = np.count_nonzero(inside < t, axis=1), np.count_nonzero(inside > t, axis=1)
    # the outsiders' counts are the whole row's minus the members'
    out_above = np.count_nonzero(block > t, axis=1) - in_above
    out_at_least = n - k - (np.count_nonzero(block < t, axis=1) - in_below)
    in_at_most = k - in_above
    lower = 2 * np.maximum(in_below, out_above)
    upper = 2 * np.minimum(in_at_most, out_at_least)
    rows = HammingBoundsRealization(lower, upper, t[:, 0], in_below, in_at_most, out_above, out_at_least)
    if s.ndim == 2:
        return rows
    lower, upper, t, *counts = (field[0] for field in rows)
    return HammingBoundsRealization(int(lower), int(upper), float(t), *map(int, counts))


def er_noise_variance_proxy(n: int, p: float, params: NoiseParams) -> float:
    """Variance proxy c_n used by the dense-graph expected-Hamming bound."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    a, b = params.alpha, params.beta
    q = 1.0 - p
    s = math.sqrt(2.0 * p * q * math.log(n) / n)
    return (q - s) * a * (1.0 - a) + (p - s) * b * (1.0 - b)


def er_expected_hamming_lower_bound(
    n: int,
    p: float,
    params: NoiseParams,
    k: int,
    c_of_n: float | None = None,
) -> float:
    """Lower bound on half the expected top-k Hamming distance in a dense graph.

    Returns k Phi(-2 C(n) / sqrt(c_n ln n)) with c_n from
    :func:`er_noise_variance_proxy`; the vanishing remainder is omitted.
    Raises when c_n <= 0 (the bound is inapplicable at that noise level).
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if c_of_n is None:
        c_of_n = default_c_of_n(n)
    if not c_of_n > 0:
        raise ValueError(f"slack constant must be positive, got {c_of_n}")
    c_n = er_noise_variance_proxy(n, p, params)
    if c_n <= 0.0:
        raise ValueError(
            f"bound inapplicable: variance proxy c_n={c_n:.3e} is not positive"
        )
    arg = -2.0 * c_of_n / (math.sqrt(c_n) * math.sqrt(math.log(n)))
    return k * normal_cdf(arg)


def tail_envelope(
    degrees, k: int, params: NoiseParams, c_of_n: float | None = None
) -> TailEnvelope:
    """Envelope for the maximum noisy degree among the n - k non-top nodes.

    c_upper exceeds that maximum with high probability, c_lower sits below
    it; both are centered at the rank-(k+1) moments, and
    c_upper - c_lower = 2 eps2(n) sigma_(k+1) exactly.  degrees holds one
    true degree per node, in any node order.
    """
    d_sorted = _descending(degrees)
    n = d_sorted.size
    if not 1 <= k <= n - 3:
        raise ValueError(f"need 1 <= k <= n - 3, got k={k}, n={n}")
    mom = noisy_degree_moments(int(d_sorted[k]), n, params)
    sigma = float(mom.sigma)
    lower, upper = _band(n - k, n, c_of_n)
    return TailEnvelope(c_upper=mom.mu + upper * sigma, c_lower=mom.mu + lower * sigma)


def evec_bound(spec: SpectralPair, params: NoiseParams) -> EvecBound:
    """Entrywise perturbation bound for the leading eigenvector under noise.

    The three envelopes capture the noise matrix: b1 bounds its entrywise
    aggregate effect, b2 its deviation along one direction, b3 its
    spectral norm.  When the eigengap clears 2 b3 + 4 b2 the bound eps_n
    controls ||x - x_tilde||_inf; otherwise eps_n is reported as inf with
    gap_condition_ok False.  The spectral norm of the nonnegative adjacency
    matrix is its Perron root spec.lambda1.
    """
    n = spec.x.size
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    x_inf = float(spec.x.max())
    if spec.lambda1 < 0 or x_inf < 0:
        raise ValueError("leading eigenvalue and max entry must be nonnegative")
    a, b = params.alpha, params.beta
    ab = a + b
    ln_n = math.log(n)

    variance_like = ab - (a - b) ** 2  # equals a(1-a) + b(1-b) + 2ab >= 0
    b1 = ab * math.sqrt(n) + 5.0 * math.sqrt(max(0.0, variance_like) * ln_n)
    b2 = math.sqrt(2.0 * n * ab + ln_n)
    b3 = 5.0 * math.sqrt(n * ab) + a * n + ab * spec.lambda1

    lam1, lam2 = spec.lambda1, spec.lambda2
    gap = lam1 - lam2
    gap_ok = gap > 2.0 * b3 + 4.0 * b2

    if not gap_ok or lam1 <= 0.0 or lam1 - b3 <= 0.0:
        return EvecBound(b1=b1, b2=b2, b3=b3, eps_n=math.inf, gap_condition_ok=False)

    front = (gap - 2.0 * b3 - 2.0 * b2) / (gap - 2.0 * b3 - 4.0 * b2)
    eps_n = front * (lam2 / lam1 + x_inf) * (
        2.0 * b3 / gap + b3 / (lam1 - b3)
    ) + (2.0 * b1 + 2.0 * b2 * x_inf) / (gap - 2.0 * b3 - 4.0 * b2)
    return EvecBound(b1=b1, b2=b2, b3=b3, eps_n=eps_n, gap_condition_ok=True)


def evec_gap_check(spec: SpectralPair, k: int, bound: EvecBound) -> bool:
    """True when the k-th eigenvector entry gap clears twice the perturbation bound.

    Sorts the leading eigenvector entries non-increasingly and compares
    x_(k) - x_(k+1) against 2 eps_n; guaranteed recovery of the
    eigenvector top-k set requires a strict inequality.
    """
    x = np.sort(spec.x)[::-1]
    n = x.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not math.isfinite(bound.eps_n):
        return False
    return bool(x[k - 1] - x[k] > 2.0 * bound.eps_n)


def classify_regime(sep: SeparationReport, inf_rep: InfeasibilityReport) -> str:
    """Coarse verdict from the sufficient and necessary conditions.

    'recoverable-likely' when the paired sufficient conditions (or the single-gap variant) hold;
    otherwise an infeasibility label when a necessary gap is violated, which at leading order means
    failure with probability bounded away from zero, not certain failure; 'indeterminate' in between.
    """
    if (sep.boundary_ok and sep.bulk_ok) or sep.one_gap_ok:
        return "recoverable-likely"
    if inf_rep.bdry_infeasible:
        return "infeasible-boundary"
    if inf_rep.bulk_infeasible:
        return "infeasible-bulk"
    return "indeterminate"


def _fields(record, *dropped: str) -> dict:
    """A dataclass record's fields by name, less the dropped ones; the values are the record's own, not copies."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in dropped}


def bound_report(
    degrees,
    k: int,
    params: NoiseParams,
    delta: float = 0.05,
    c1: float = 0.5,
    c_of_n: float | None = None,
    i_star: int | None = None,
) -> dict:
    """Assemble every degree bound evaluation for one graph into a dict of plain values.

    degrees holds one true degree per node, in any node order.  The evec section is None; evec_report builds
    it from the graph's solved top-2 pair.  Numbers are plain Python floats and ints, so snr and eps_n may be
    inf or nan; the CLI writes those into strict JSON as the strings 'nan'/'inf'/'-inf'.
    """
    deg = _descending(degrees)
    n, degree_sum = deg.size, int(deg.sum())
    if degree_sum % 2:
        raise ValueError(f"degrees must have an even sum, got {degree_sum}")
    if i_star is None:
        i_star = default_i_star(deg, k, params)
    sep = separation_report(deg, k, i_star, params, delta, c_of_n)
    inf_rep = infeasibility_report(deg, k, i_star, params, c1, c_of_n)
    return {
        "note": LEADING_ORDER_NOTE,
        "n": n,
        "num_edges": degree_sum // 2,
        "k": k,
        **_fields(params),
        "delta": delta,
        "c1": c1,
        "c_of_n": c_of_n if c_of_n is not None else default_c_of_n(n),
        "i_star": i_star,
        # k and i_star sit at the top level of the report
        "separation": _fields(sep, "k", "i_star"),
        "infeasibility": _fields(inf_rep, "k", "i_star"),
        "regime": classify_regime(sep, inf_rep),
        # the reports above need k <= n - 3, so the envelope's n - k >= 3 holds
        "tail_envelope": tail_envelope(deg, k, params, c_of_n)._asdict(),
        "evec": None,
    }


def evec_report(spectral: SpectralPair, k: int, params: NoiseParams) -> dict:
    """The evec section of a bound report: the solved top-2 pair, evec_bound of it and evec_gap_check at k."""
    eb = evec_bound(spectral, params)
    return {**_fields(spectral, "x", "iterations"), **_fields(eb), "topk_entry_gap_ok": evec_gap_check(spectral, k, eb)}
