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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .centrality import ScoreVector, SpectralPair, TopKSet, spectral_top2
from .graphs import DegreeSequence, Graph, degrees
from .noise import NoiseParams

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
]

LEADING_ORDER_NOTE = "leading-order evaluation; vanishing remainder terms omitted"


@dataclass(frozen=True)
class DegreeMoments:
    """Mean and variance of one node's observed degree under edge-flip noise."""

    mu: float
    sigma2: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


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
    """Necessary-gap thresholds below which no estimator can succeed."""

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


def noisy_degree_moments(d: int, n: int, params: NoiseParams) -> DegreeMoments:
    """Moments of the observed degree of a node with true degree d.

    The observed degree is Binomial(n-1-d, alpha) + Binomial(d, 1-beta),
    so mu = (n-1-d) alpha + d (1-beta) and
    sigma2 = (n-1-d) alpha (1-alpha) + d beta (1-beta).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= d <= n - 1:
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


def _check_flip_budget(params: NoiseParams) -> float:
    contraction = 1.0 - params.alpha - params.beta
    if contraction <= 0.0:
        raise ValueError(
            f"need alpha + beta < 1, got alpha={params.alpha}, beta={params.beta}"
        )
    return contraction


def _rank_moments(dseq: DegreeSequence, rank: int, params: NoiseParams) -> DegreeMoments:
    # rank is 1-based into the non-increasing order
    d_sorted = dseq.sorted_degrees()
    n = d_sorted.size
    return noisy_degree_moments(int(d_sorted[rank - 1]), n, params)


def default_i_star(
    dseq: DegreeSequence, k: int, params: NoiseParams, c_of_n: float | None = None
) -> int:
    """Smallest rank past k whose degree gap already dominates the bulk noise.

    Returns the smallest i with k < i <= n - 2 and
    d_(k) - d_(i) >= 2 sqrt(2 ln(n - i + 1)) sigma_(i) / (1 - alpha - beta),
    falling back to k + 1 when no rank qualifies.  The scan stops at n - 2
    so the returned rank leaves at least 3 tail positions for the
    correction terms used downstream.
    """
    d_sorted = dseq.sorted_degrees()
    n = d_sorted.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    contraction = _check_flip_budget(params)
    d_k = float(d_sorted[k - 1])
    for i in range(k + 1, n - 1):
        mom = noisy_degree_moments(int(d_sorted[i - 1]), n, params)
        need = 2.0 * math.sqrt(2.0 * math.log(n - i + 1)) * mom.sigma / contraction
        if d_k - float(d_sorted[i - 1]) >= need:
            return i
    return k + 1


def separation_report(
    dseq: DegreeSequence,
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

    i_star is a 1-based rank with k < i_star <= n.
    """
    d_sorted = dseq.sorted_degrees()
    n = d_sorted.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not k < i_star <= n:
        raise ValueError(f"need k < i_star <= n, got k={k}, i_star={i_star}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    contraction = _check_flip_budget(params)

    delta_bdry = float(d_sorted[k - 1] - d_sorted[k])
    delta_bulk = float(d_sorted[k - 1] - d_sorted[i_star - 1])
    l_k = math.log(k / delta)
    l_bdry = math.log(k * (i_star - k) / delta)

    sig_k = _rank_moments(dseq, k, params).sigma
    sig_k1 = _rank_moments(dseq, k + 1, params).sigma
    sig_istar = _rank_moments(dseq, i_star, params).sigma

    # largest combined per-pair variance over top ranks vs near-boundary ranks
    sorted_sigma2 = np.array(
        [noisy_degree_moments(int(d), n, params).sigma2 for d in d_sorted]
    )
    if i_star > k + 1:
        sigma_bar_bdry = math.sqrt(
            float(sorted_sigma2[:k].max()) + float(sorted_sigma2[k : i_star - 1].max())
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

    terms = correction_terms(n - i_star + 1, n, c_of_n)
    bulk_required = (
        (math.sqrt(2.0 * math.log(n - i_star + 1)) - terms.eps1 + terms.eps2) * sig_istar
        + sig_k * math.sqrt(2.0 * l_k)
        + (2.0 / 3.0) * l_k
    ) / contraction
    bulk_ok = delta_bulk >= bulk_required

    terms_k = correction_terms(n - k, n, c_of_n)
    one_gap_required = (
        (math.sqrt(2.0 * math.log(n - k)) - terms_k.eps1 + terms_k.eps2) * sig_k1
        + sig_k * math.sqrt(2.0 * l_k)
        + (2.0 / 3.0) * l_k
    ) / contraction
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
    dseq: DegreeSequence,
    k: int,
    i_star: int,
    params: NoiseParams,
    c1: float = 0.5,
    c_of_n: float | None = None,
) -> InfeasibilityReport:
    """Evaluate necessary gap thresholds: below them, recovery must fail.

    delta_bulk_threshold guards the bulk gap d_(k) - d_(i_star),
    delta_bdry_threshold guards the boundary gap d_(k) - d_(k+1), and
    delta_bdry_bar is the complementary single-gap threshold above which
    the boundary cannot be blamed.  Thresholds are clamped at zero.
    """
    d_sorted = dseq.sorted_degrees()
    n = d_sorted.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not k < i_star <= n:
        raise ValueError(f"need k < i_star <= n, got k={k}, i_star={i_star}")
    if not 0.0 < c1 < 1.0:
        raise ValueError(f"c1 must lie in (0, 1), got {c1}")
    contraction = _check_flip_budget(params)

    sig_k = _rank_moments(dseq, k, params).sigma
    sig_k1 = _rank_moments(dseq, k + 1, params).sigma
    sig_istar = _rank_moments(dseq, i_star, params).sigma

    terms_star = correction_terms(n - i_star + 1, n, c_of_n)
    bulk_threshold = max(
        0.0,
        (math.sqrt(2.0 * math.log(n - i_star + 1)) - terms_star.eps1 - terms_star.eps2)
        * sig_istar
        / contraction,
    )

    bdry_threshold = max(
        0.0,
        c1 * 2.0 * math.sqrt(2.0 * math.log(k)) * max(sig_k, sig_k1) / contraction,
    )

    terms_k = correction_terms(n - k, n, c_of_n)
    bdry_bar = max(
        0.0,
        (math.sqrt(2.0 * math.log(n - k)) - terms_k.eps1 - terms_k.eps2)
        * sig_k1
        / contraction,
    )

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


def hamming_bounds_realization(
    true_topk: TopKSet, noisy_scores: ScoreVector, k: int
) -> HammingBoundsRealization:
    """Sandwich the realized top-k Hamming distance from one noisy score vector.

    Splits the noisy scores at t, the (k+1)-th largest value.  Nodes of the
    true top-k scoring strictly below t are certainly lost and outsiders
    scoring strictly above t are certainly let in, which gives the lower
    bound; the upper bound counts every member / outsider that could
    possibly cross.  Both counts hold for every tie-break of the noisy
    top-k selection.
    """
    s = noisy_scores.scores
    n = s.size
    if true_topk.k != k:
        raise ValueError(f"true set has k={true_topk.k}, expected {k}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")

    t = float(np.partition(s, n - k - 1)[n - k - 1])  # (k+1)-th largest
    members = np.fromiter(true_topk.members, dtype=np.int64, count=k)
    mask = np.zeros(n, dtype=bool)
    mask[members] = True

    in_below = int(np.count_nonzero(s[mask] < t))
    out_above = int(np.count_nonzero(s[~mask] > t))
    in_at_most = int(np.count_nonzero(s[mask] <= t))
    out_at_least = int(np.count_nonzero(s[~mask] >= t))

    lower = 2 * max(in_below, out_above)
    upper = 2 * min(in_at_most, out_at_least)
    return HammingBoundsRealization(lower, upper, t, in_below, in_at_most, out_above, out_at_least)


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
    dseq: DegreeSequence,
    k: int,
    n: int,
    params: NoiseParams,
    c_of_n: float | None = None,
) -> TailEnvelope:
    """Envelope for the maximum noisy degree among the n - k non-top nodes.

    c_upper exceeds that maximum with high probability, c_lower sits below
    it; both are centered at the rank-(k+1) moments, and
    c_upper - c_lower = 2 eps2(n) sigma_(k+1) exactly.
    """
    d_sorted = dseq.sorted_degrees()
    if n != d_sorted.size:
        raise ValueError(f"n={n} does not match degree sequence length {d_sorted.size}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if n - k < 3:
        raise ValueError(f"need n - k >= 3, got {n - k}")
    mom = _rank_moments(dseq, k + 1, params)
    terms = correction_terms(n - k, n, c_of_n)
    base = math.sqrt(2.0 * math.log(n - k)) - terms.eps1
    c_upper = mom.mu + (base + terms.eps2) * mom.sigma
    c_lower = mom.mu + (base - terms.eps2) * mom.sigma
    return TailEnvelope(c_upper=c_upper, c_lower=c_lower)


def evec_bound(
    spec: SpectralPair,
    spectral_norm_a: float,
    x_inf: float,
    n: int,
    params: NoiseParams,
) -> EvecBound:
    """Entrywise perturbation bound for the leading eigenvector under noise.

    The three envelopes capture the noise matrix: b1 bounds its entrywise
    aggregate effect, b2 its deviation along one direction, b3 its
    spectral norm.  When the eigengap clears 2 b3 + 4 b2 the bound eps_n
    controls ||x - x_tilde||_inf; otherwise eps_n is reported as inf with
    gap_condition_ok False.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if spectral_norm_a < 0 or x_inf < 0:
        raise ValueError("spectral norm and max entry must be nonnegative")
    a, b = params.alpha, params.beta
    ab = a + b
    ln_n = math.log(n)

    variance_like = ab - (a - b) ** 2  # equals a(1-a) + b(1-b) + 2ab >= 0
    b1 = ab * math.sqrt(n) + 5.0 * math.sqrt(max(0.0, variance_like) * ln_n)
    b2 = math.sqrt(2.0 * n * ab + ln_n)
    b3 = 5.0 * math.sqrt(n * ab) + a * n + ab * spectral_norm_a

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
    x = np.sort(spec.x.scores)[::-1]
    n = x.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not math.isfinite(bound.eps_n):
        return False
    return bool(x[k - 1] - x[k] > 2.0 * bound.eps_n)


def classify_regime(sep: SeparationReport, inf_rep: InfeasibilityReport) -> str:
    """Coarse verdict from the sufficient and necessary conditions.

    'recoverable-likely' when the paired sufficient conditions (or the
    single-gap variant) hold; otherwise one of the infeasibility labels
    when a necessary gap is violated; 'indeterminate' in between.
    """
    if (sep.boundary_ok and sep.bulk_ok) or sep.one_gap_ok:
        return "recoverable-likely"
    if inf_rep.bdry_infeasible:
        return "infeasible-boundary"
    if inf_rep.bulk_infeasible:
        return "infeasible-bulk"
    return "indeterminate"


def bound_report(
    g: Graph,
    k: int,
    params: NoiseParams,
    delta: float = 0.05,
    c1: float = 0.5,
    c_of_n: float | None = None,
    i_star: int | None = None,
    include_evec: bool = True,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> dict:
    """Assemble every bound evaluation for one graph into a dict of plain values.

    Numbers are plain Python floats and ints, so snr and eps_n may be
    inf or nan.  The CLI writes the report as strict JSON, with those
    values as the strings 'nan'/'inf'/'-inf'.
    """
    dseq = degrees(g)
    n = g.n
    if i_star is None:
        i_star = default_i_star(dseq, k, params, c_of_n)
    sep = separation_report(dseq, k, i_star, params, delta, c_of_n)
    inf_rep = infeasibility_report(dseq, k, i_star, params, c1, c_of_n)
    out: dict = {
        "note": LEADING_ORDER_NOTE,
        "n": n,
        "num_edges": g.num_edges,
        "k": k,
        "alpha": params.alpha,
        "beta": params.beta,
        "delta": delta,
        "c1": c1,
        "c_of_n": c_of_n if c_of_n is not None else default_c_of_n(n),
        "i_star": i_star,
        "separation": {
            "delta_bdry": sep.delta_bdry,
            "delta_bulk": sep.delta_bulk,
            "l_k": sep.l_k,
            "l_bdry": sep.l_bdry,
            "sigma_bar_bdry": sep.sigma_bar_bdry,
            "bdry_required": sep.bdry_required,
            "bulk_required": sep.bulk_required,
            "one_gap_required": sep.one_gap_required,
            "boundary_ok": sep.boundary_ok,
            "bulk_ok": sep.bulk_ok,
            "one_gap_ok": sep.one_gap_ok,
            "snr": sep.snr,
            "success_prob_budget": sep.success_prob_budget,
        },
        "infeasibility": {
            "delta_bulk_threshold": inf_rep.delta_bulk_threshold,
            "delta_bdry_threshold": inf_rep.delta_bdry_threshold,
            "delta_bdry_bar": inf_rep.delta_bdry_bar,
            "bulk_infeasible": inf_rep.bulk_infeasible,
            "bdry_infeasible": inf_rep.bdry_infeasible,
        },
        "regime": classify_regime(sep, inf_rep),
    }
    if n - k >= 3:
        env = tail_envelope(dseq, k, n, params, c_of_n)
        out["tail_envelope"] = {"c_upper": env.c_upper, "c_lower": env.c_lower}
    else:
        out["tail_envelope"] = None
    if include_evec and n >= 3:
        pair = spectral_top2(g, tol=tol, max_iter=max_iter)
        eb = evec_bound(pair, pair.lambda1, float(pair.x.scores.max()), n, params)
        out["evec"] = {
            "lambda1": pair.lambda1,
            "lambda2": pair.lambda2,
            "converged": pair.converged,
            "residual": pair.residual,
            "degenerate": pair.degenerate,
            "disconnected": pair.disconnected,
            "b1": eb.b1,
            "b2": eb.b2,
            "b3": eb.b3,
            "eps_n": eb.eps_n,
            "gap_condition_ok": eb.gap_condition_ok,
            "topk_entry_gap_ok": evec_gap_check(pair, k, eb) if k < n else False,
        }
    else:
        out["evec"] = None
    return out
