import json
import math

import numpy as np
import pytest

from noisytopk import (
    EvecBound,
    InfeasibilityReport,
    NoiseParams,
    SeparationReport,
    TopKSet,
    bound_report,
    classify_regime,
    correction_terms,
    default_c_of_n,
    default_i_star,
    degree_scores,
    degrees,
    er_expected_hamming_lower_bound,
    er_noise_variance_proxy,
    evec_bound,
    evec_gap_check,
    generate_er,
    hamming,
    hamming_bounds_realization,
    infeasibility_report,
    noisy_degree_moments,
    normal_cdf,
    separation_report,
    spectral_top2,
    tail_envelope,
    top_k,
)
from noisytopk import Graph, ScoreVector, apply_noise
from noisytopk.graphs import DegreeSequence
from conftest import normal_cdf_quadrature


def _graph(n, edges):
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


def _dseq(values):
    d = np.asarray(values, dtype=np.int64)
    order = np.lexsort((np.arange(d.size), -d))
    return DegreeSequence(degrees=d, order=order)


STAR = _graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
K4 = _graph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        for x in (0.3, 1.0, 2.5, 4.0):
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-12

    def test_reference_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-10)

    def test_against_quadrature(self):
        for x in np.linspace(-5, 5, 21):
            assert abs(normal_cdf(float(x)) - normal_cdf_quadrature(float(x))) <= 1e-10


class TestDegreeMoments:
    def test_zero_noise_identity(self):
        m = noisy_degree_moments(d=7, n=30, params=NoiseParams(0.0, 0.0))
        assert m.mu == 7.0
        assert m.sigma2 == 0.0

    def test_isolated_node_collapse(self):
        n, a, b = 40, 0.2, 0.5
        m = noisy_degree_moments(d=0, n=n, params=NoiseParams(a, b))
        assert m.mu == pytest.approx((n - 1) * a, abs=1e-12)
        assert m.sigma2 == pytest.approx((n - 1) * a * (1 - a), abs=1e-12)

    def test_reference_values(self):
        m = noisy_degree_moments(d=25, n=250, params=NoiseParams(0.01, 0.02))
        assert m.mu == pytest.approx(26.74, abs=1e-10)
        assert m.sigma2 == pytest.approx(2.7076, abs=1e-10)

    def test_mean_gap_contraction(self):
        # mu(d) - mu(d') = (1 - alpha - beta)(d - d')
        params = NoiseParams(0.1, 0.3)
        for d1, d2 in ((9, 4), (20, 19), (15, 0)):
            m1 = noisy_degree_moments(d=d1, n=60, params=params)
            m2 = noisy_degree_moments(d=d2, n=60, params=params)
            assert m1.mu - m2.mu == pytest.approx(0.6 * (d1 - d2), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            noisy_degree_moments(d=30, n=30, params=NoiseParams(0.1, 0.1))
        with pytest.raises(ValueError):
            noisy_degree_moments(d=-1, n=30, params=NoiseParams(0.1, 0.1))

    def test_monte_carlo_cross_check(self):
        # binomial decomposition of the observed degree of one node
        n, d, a, b = 120, 30, 0.08, 0.25
        m = noisy_degree_moments(d=d, n=n, params=NoiseParams(a, b))
        rng = np.random.default_rng(42)
        reps = 100_000
        draws = rng.binomial(n - 1 - d, a, size=reps) + rng.binomial(d, 1 - b, size=reps)
        se_mean = draws.std(ddof=1) / math.sqrt(reps)
        assert abs(draws.mean() - m.mu) <= 4 * se_mean
        centered = draws - draws.mean()
        s2 = float((centered**2).sum() / (reps - 1))
        mu4 = float((centered**4).mean())
        se_var = math.sqrt((mu4 - s2 * s2 * (reps - 3) / (reps - 1)) / reps)
        assert abs(s2 - m.sigma2) <= 4 * se_var


class TestCorrectionTerms:
    def test_eps1_reference(self):
        c = correction_terms(m=15, n=1000)
        assert c.eps1 == pytest.approx(
            math.log(math.log(15)) / (2 * math.sqrt(2 * math.log(15))), abs=1e-15
        )
        assert c.eps1 == pytest.approx(0.2140354865054793, abs=1e-12)

    def test_eps2_reference(self):
        c = correction_terms(m=100, n=10**6)
        assert c.c_of_n == pytest.approx(math.log(math.log(10**6)), abs=1e-12)
        assert c.eps2 == pytest.approx(0.7064425298847954, abs=1e-12)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            correction_terms(m=2, n=100)
        with pytest.raises(ValueError):
            correction_terms(m=100, n=2)
        with pytest.raises(ValueError):
            correction_terms(m=100, n=100, c_of_n=0.0)

    def test_default_c_of_n_clamp(self):
        # clamp binds below n = e^e ~ 15.2
        assert default_c_of_n(3) == 1.0
        assert default_c_of_n(10) == 1.0
        assert default_c_of_n(100) == pytest.approx(math.log(math.log(100)), abs=1e-15)
        assert default_c_of_n(10**6) == pytest.approx(2.625791914476011, abs=1e-12)


class TestSeparationReport:
    def test_zero_noise_collapse(self):
        # sigma terms vanish; conditions reduce to gap >= (2/3) L
        dseq = _dseq([9, 8, 6, 5, 4, 3, 2, 1, 1, 0])
        rep = separation_report(dseq, k=2, i_star=4, params=NoiseParams(0.0, 0.0), delta=0.5)
        assert rep.sigma_bar_bdry == 0.0
        assert rep.bdry_required == pytest.approx((2 / 3) * math.log(2 * 2 / 0.5))
        assert rep.boundary_ok
        assert rep.bulk_ok
        assert rep.one_gap_ok
        assert rep.snr == math.inf
        assert rep.success_prob_budget == pytest.approx(0.0)

    def test_tied_cutoff_fails_boundary(self):
        dseq = _dseq([9, 9, 9, 9, 8, 7, 6, 5, 4, 3])
        rep = separation_report(dseq, k=2, i_star=5, params=NoiseParams(0.05, 0.05), delta=0.05)
        assert rep.delta_bdry == 0.0
        assert not rep.boundary_ok

    def test_bulk_gap_dominates_boundary_gap(self):
        dseq = _dseq([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        rep = separation_report(dseq, k=3, i_star=6, params=NoiseParams(0.1, 0.1), delta=0.1)
        assert rep.delta_bulk >= rep.delta_bdry
        assert rep.l_k == pytest.approx(math.log(3 / 0.1))
        assert rep.l_bdry == pytest.approx(math.log(3 * 3 / 0.1))

    def test_snr_formula(self):
        dseq = _dseq([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        params = NoiseParams(0.1, 0.2)
        rep = separation_report(dseq, k=3, i_star=6, params=params, delta=0.1)
        sig = noisy_degree_moments(d=6, n=10, params=params).sigma
        assert rep.snr == pytest.approx(0.7 * 1 / sig, abs=1e-12)

    def test_vacuous_boundary_when_istar_adjacent(self):
        dseq = _dseq([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        rep = separation_report(dseq, k=3, i_star=4, params=NoiseParams(0.1, 0.1), delta=0.1)
        assert rep.boundary_ok
        assert rep.bdry_required == 0.0
        assert rep.sigma_bar_bdry == 0.0

    def test_domain_guards(self):
        dseq = _dseq([4, 3, 2, 1, 0])
        with pytest.raises(ValueError):
            separation_report(dseq, k=2, i_star=2, params=NoiseParams(0.1, 0.1), delta=0.1)
        with pytest.raises(ValueError):
            separation_report(dseq, k=2, i_star=4, params=NoiseParams(0.6, 0.5), delta=0.1)
        with pytest.raises(ValueError):
            separation_report(dseq, k=2, i_star=4, params=NoiseParams(0.1, 0.1), delta=1.5)

    def test_dense_er_boundary_rarely_holds(self):
        # dense homogeneous degrees leave tiny gaps at the cutoff, far
        # below the noise thresholds, on nearly every seed
        params = NoiseParams(0.05, 0.05)
        fails = 0
        seeds = 100
        for seed in range(seeds):
            g = generate_er(1000, 0.25, seed=seed)
            rep = separation_report(degrees(g), k=5, i_star=55, params=params, delta=0.05)
            fails += int(not rep.boundary_ok)
        assert fails >= 95


class TestDefaultIStar:
    def test_large_gap_right_after_k(self):
        values = [39, 39, 39] + [10] * 37
        i_star = default_i_star(_dseq(values), k=3, params=NoiseParams(0.01, 0.01))
        assert i_star == 4

    def test_flat_sequence_falls_back(self):
        values = [10] * 30
        i_star = default_i_star(_dseq(values), k=3, params=NoiseParams(0.1, 0.1))
        assert i_star == 4

    def test_gradual_decay_picks_interior_rank(self):
        values = [35, 33, 31, 30, 29, 28, 27, 26, 15, 10] + [5] * 30
        params = NoiseParams(0.05, 0.05)
        i_star = default_i_star(_dseq(values), k=3, params=params)
        assert 3 < i_star <= 40
        dsorted = _dseq(values).sorted_degrees()
        mom = noisy_degree_moments(d=int(dsorted[i_star - 1]), n=40, params=params)
        need = 2 * math.sqrt(2 * math.log(40 - i_star + 1)) * mom.sigma / 0.9
        assert dsorted[2] - dsorted[i_star - 1] >= need


class TestInfeasibilityReport:
    def test_flat_tail_is_boundary_infeasible(self):
        dseq = _dseq([9, 9, 9, 9, 8, 7, 6, 5, 4, 3])
        rep = infeasibility_report(dseq, k=2, i_star=5, params=NoiseParams(0.05, 0.05))
        assert rep.bdry_infeasible

    def test_zero_noise_thresholds_vanish(self):
        dseq = _dseq([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        rep = infeasibility_report(dseq, k=3, i_star=5, params=NoiseParams(0.0, 0.0))
        assert rep.delta_bulk_threshold == 0.0
        assert rep.delta_bdry_threshold == 0.0
        assert rep.delta_bdry_bar == 0.0
        assert not rep.bulk_infeasible
        assert not rep.bdry_infeasible
        tied = _dseq([9, 8, 8, 8, 5, 4, 3, 2, 1, 0])
        rep = infeasibility_report(tied, k=2, i_star=5, params=NoiseParams(0.0, 0.0))
        assert rep.bdry_infeasible  # zero gap <= zero threshold, inclusive

    def test_c1_domain(self):
        dseq = _dseq([9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
        with pytest.raises(ValueError):
            infeasibility_report(dseq, k=3, i_star=5, params=NoiseParams(0.1, 0.1), c1=1.0)

    def test_dense_er_boundary_infeasible(self):
        params = NoiseParams(0.05, 0.05)
        hits = 0
        seeds = 100
        for seed in range(seeds):
            g = generate_er(1000, 0.25, seed=seed)
            rep = infeasibility_report(degrees(g), k=5, i_star=55, params=params, c1=0.5)
            hits += int(rep.bdry_infeasible)
        assert hits >= 95

    def test_threshold_monotonicity_in_noise(self):
        dseq = _dseq([25, 22, 20, 18, 16, 14, 12, 10, 8, 6] + [2] * 20)
        alphas = np.linspace(0.0, 0.45, 10)
        bulk = []
        bdry_bar = []
        sig_bar = []
        for a in alphas:
            params = NoiseParams(float(a), 0.3)
            rep = infeasibility_report(dseq, k=3, i_star=6, params=params)
            sep = separation_report(dseq, k=3, i_star=6, params=params, delta=0.05)
            bulk.append(rep.delta_bulk_threshold)
            bdry_bar.append(rep.delta_bdry_bar)
            sig_bar.append(sep.sigma_bar_bdry)
        assert np.all(np.diff(bulk) >= -1e-12)
        assert np.all(np.diff(bdry_bar) >= -1e-12)
        assert np.all(np.diff(sig_bar) >= -1e-12)
        betas = np.linspace(0.0, 0.45, 10)
        bulk = [
            infeasibility_report(dseq, k=3, i_star=6, params=NoiseParams(0.3, float(b))).delta_bulk_threshold
            for b in betas
        ]
        assert np.all(np.diff(bulk) >= -1e-12)


class TestHammingBounds:
    def test_noiseless_strict_gap_pins_zero(self):
        scores = ScoreVector(np.array([9.0, 7.0, 5.0, 3.0, 1.0]), "degree")
        true_set = TopKSet(k=2, members=frozenset({0, 1}), tie_broken=False)
        hb = hamming_bounds_realization(true_set, scores, 2)
        assert hb.lower == 0
        assert hb.upper == 0
        assert hb.t == 5.0

    def test_reversed_ranking_pins_full_distance(self):
        noisy = ScoreVector(np.array([1.0, 2.0, 3.0, 4.0]), "degree")
        true_set = TopKSet(k=2, members=frozenset({0, 1}), tie_broken=False)
        hb = hamming_bounds_realization(true_set, noisy, 2)
        assert hb.lower == 4
        assert hb.upper == 4

    def test_mismatched_k_rejected(self):
        scores = ScoreVector(np.arange(5, dtype=float), "degree")
        true_set = TopKSet(k=2, members=frozenset({3, 4}), tie_broken=False)
        with pytest.raises(ValueError):
            hamming_bounds_realization(true_set, scores, 3)

    def test_sandwich_at_both_admissible_thresholds(self):
        # the realized Hamming distance stays inside the bracket for the
        # implemented threshold (the (k+1)-th largest noisy score) and for
        # the alternative admissible choice t = k-th largest
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(8, 40))
            g = generate_er(n, float(rng.uniform(0.1, 0.7)), seed=trial)
            k = int(rng.integers(1, 5))
            params = NoiseParams(float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
            true_set = top_k(degree_scores(g), k, seed=trial)
            y = apply_noise(g, params, seed=trial + 10_000)
            noisy_scores = degree_scores(y)
            noisy_set = top_k(noisy_scores, k, seed=trial + 20_000)
            d = hamming(true_set, noisy_set)
            hb = hamming_bounds_realization(true_set, noisy_scores, k)
            assert hb.lower <= d <= hb.upper
            s = noisy_scores.scores
            t_hi = float(np.partition(s, n - k)[n - k])  # k-th largest
            members = np.zeros(n, dtype=bool)
            members[list(true_set.members)] = True
            lower_hi = 2 * max(
                int(np.count_nonzero(s[members] < t_hi)),
                int(np.count_nonzero(s[~members] > t_hi)),
            )
            upper_hi = 2 * min(
                int(np.count_nonzero(s[members] <= t_hi)),
                int(np.count_nonzero(s[~members] >= t_hi)),
            )
            assert lower_hi <= d <= upper_hi


class TestErLowerBound:
    def test_reference_window(self):
        v = er_expected_hamming_lower_bound(n=1000, p=0.25, params=NoiseParams(0.05, 0.05), k=5)
        assert 0.0 < v <= 2.5

    def test_scales_linearly_in_k(self):
        v5 = er_expected_hamming_lower_bound(n=1000, p=0.25, params=NoiseParams(0.05, 0.05), k=5)
        v10 = er_expected_hamming_lower_bound(n=1000, p=0.25, params=NoiseParams(0.05, 0.05), k=10)
        assert v10 == pytest.approx(2 * v5, rel=1e-12)

    def test_faster_slack_growth_shrinks_bound(self):
        slow = er_expected_hamming_lower_bound(
            n=1000, p=0.25, params=NoiseParams(0.05, 0.05), k=5, c_of_n=default_c_of_n(1000)
        )
        fast = er_expected_hamming_lower_bound(
            n=1000, p=0.25, params=NoiseParams(0.05, 0.05), k=5, c_of_n=math.log(1000)
        )
        assert fast < slow
        assert fast < 1e-6

    def test_symmetric_proxy_at_half(self):
        a = er_noise_variance_proxy(500, 0.5, NoiseParams(0.1, 0.3))
        b = er_noise_variance_proxy(500, 0.5, NoiseParams(0.3, 0.1))
        assert a == pytest.approx(b, abs=1e-15)

    def test_inapplicable_raises(self):
        with pytest.raises(ValueError, match="inapplicable"):
            er_expected_hamming_lower_bound(n=100, p=0.01, params=NoiseParams(0.0, 0.5), k=2)


class TestTailEnvelope:
    def test_zero_noise_pins_next_degree(self):
        g = generate_er(50, 0.3, seed=4)
        dseq = degrees(g)
        env = tail_envelope(dseq, k=5, n=50, params=NoiseParams(0.0, 0.0))
        d6 = float(dseq.sorted_degrees()[5])
        assert env.c_upper == pytest.approx(d6, abs=1e-12)
        assert env.c_lower == pytest.approx(d6, abs=1e-12)

    def test_width_identity(self):
        g = generate_er(200, 0.2, seed=8)
        dseq = degrees(g)
        params = NoiseParams(0.07, 0.12)
        env = tail_envelope(dseq, k=10, n=200, params=params)
        terms = correction_terms(m=190, n=200)
        sig = noisy_degree_moments(d=int(dseq.sorted_degrees()[10]), n=200, params=params).sigma
        assert env.c_upper - env.c_lower == pytest.approx(2 * terms.eps2 * sig, abs=1e-12)
        assert env.c_lower <= env.c_upper

    def test_domain_guards(self):
        g = generate_er(10, 0.5, seed=1)
        with pytest.raises(ValueError):
            tail_envelope(degrees(g), k=5, n=11, params=NoiseParams(0.1, 0.1))
        with pytest.raises(ValueError):
            tail_envelope(degrees(g), k=8, n=10, params=NoiseParams(0.1, 0.1))


class TestEvecBound:
    def _pair(self, lam1, lam2, n=100):
        x = np.zeros(n)
        x[0] = 0.8
        x[1:] = math.sqrt((1 - 0.64) / (n - 1))
        from noisytopk import SpectralPair

        return SpectralPair(
            lambda1=lam1,
            lambda2=lam2,
            x=ScoreVector(x, "eigenvector"),
            converged=True,
            degenerate=False,
            disconnected=False,
            iterations=10,
            residual=0.0,
        )

    def test_zero_noise_collapse(self):
        n = 100
        pair = self._pair(15.0, 2.0, n)
        eb = evec_bound(pair, spectral_norm_a=15.0, x_inf=0.8, n=n, params=NoiseParams(0.0, 0.0))
        assert eb.b1 == 0.0
        assert eb.b3 == 0.0
        assert eb.b2 == pytest.approx(math.sqrt(math.log(n)), abs=1e-12)
        assert eb.gap_condition_ok
        gap = 13.0
        assert eb.eps_n == pytest.approx(2 * eb.b2 * 0.8 / (gap - 4 * eb.b2), abs=1e-12)

    def test_gap_violation_flags_infinite(self):
        pair = self._pair(5.0, 4.9)
        eb = evec_bound(pair, spectral_norm_a=5.0, x_inf=0.8, n=100, params=NoiseParams(0.05, 0.05))
        assert not eb.gap_condition_ok
        assert math.isinf(eb.eps_n)

    def test_envelopes_nonnegative_on_grid(self):
        pair = self._pair(20.0, 1.0)
        for a in np.linspace(0, 1, 6):
            for b in np.linspace(0, 1, 6):
                eb = evec_bound(pair, 20.0, 0.8, 100, NoiseParams(float(a), float(b)))
                assert eb.b1 >= 0 and eb.b2 >= 0 and eb.b3 >= 0
                variance_like = (a + b) - (a - b) ** 2
                explicit = a * (1 - a) + b * (1 - b) + 2 * a * b
                assert variance_like == pytest.approx(explicit, abs=1e-12)

    def test_small_n_allowed(self):
        pair = self._pair(10.0, 1.0, n=2)
        eb = evec_bound(pair, 10.0, 0.8, 2, NoiseParams(0.0, 0.0))
        assert eb.b2 == pytest.approx(math.sqrt(math.log(2)))


class TestEvecGapCheck:
    def test_star_hub_gap_clears_small_bound(self):
        pair = spectral_top2(STAR, tol=1e-10, max_iter=10000)
        bound = EvecBound(b1=0.0, b2=0.0, b3=0.0, eps_n=0.1, gap_condition_ok=True)
        assert evec_gap_check(pair, k=1, bound=bound)

    def test_infinite_bound_fails(self):
        pair = spectral_top2(STAR, tol=1e-10, max_iter=10000)
        bound = EvecBound(b1=1.0, b2=1.0, b3=1.0, eps_n=math.inf, gap_condition_ok=False)
        assert not evec_gap_check(pair, k=1, bound=bound)

    def test_tied_entries_fail_for_any_positive_bound(self):
        pair = spectral_top2(K4, tol=1e-10, max_iter=10000)
        bound = EvecBound(b1=0.0, b2=0.0, b3=0.0, eps_n=0.01, gap_condition_ok=True)
        assert not evec_gap_check(pair, k=2, bound=bound)


class TestClassifyRegime:
    def _sep(self, boundary_ok, bulk_ok, one_gap_ok):
        return SeparationReport(
            k=2, i_star=4, delta_bdry=1.0, delta_bulk=2.0, l_k=1.0, l_bdry=1.0,
            sigma_bar_bdry=1.0, bdry_required=1.0, bulk_required=1.0,
            one_gap_required=1.0, boundary_ok=boundary_ok, bulk_ok=bulk_ok,
            one_gap_ok=one_gap_ok, snr=1.0, success_prob_budget=0.9,
        )

    def _inf(self, bulk, bdry):
        return InfeasibilityReport(
            k=2, i_star=4, delta_bulk_threshold=1.0, delta_bdry_threshold=1.0,
            delta_bdry_bar=1.0, bulk_infeasible=bulk, bdry_infeasible=bdry,
        )

    def test_branches(self):
        assert classify_regime(self._sep(True, True, False), self._inf(False, False)) == "recoverable-likely"
        assert classify_regime(self._sep(False, False, True), self._inf(False, False)) == "recoverable-likely"
        assert classify_regime(self._sep(False, True, False), self._inf(False, True)) == "infeasible-boundary"
        assert classify_regime(self._sep(False, True, False), self._inf(True, False)) == "infeasible-bulk"
        assert classify_regime(self._sep(False, True, False), self._inf(False, False)) == "indeterminate"


class TestBoundReport:
    def test_json_ready_and_labeled(self):
        g = generate_er(80, 0.2, seed=6)
        report = bound_report(g, k=5, params=NoiseParams(0.05, 0.05))
        text = json.dumps(report)
        assert "leading-order" in report["note"]
        parsed = json.loads(text)
        assert parsed["k"] == 5
        assert parsed["regime"] in {
            "recoverable-likely",
            "infeasible-boundary",
            "infeasible-bulk",
            "indeterminate",
        }
        assert "c_upper" in parsed["tail_envelope"]
        assert parsed["evec"]["converged"] is True

    def test_non_finite_serialized_as_strings(self):
        # a tied cutoff at zero noise gives snr = inf
        g = _graph(6, [[0, 1], [0, 2], [0, 3], [1, 2], [4, 5], [1, 3]])
        report = bound_report(g, k=2, params=NoiseParams(0.0, 0.0), include_evec=False)
        assert report["evec"] is None
        text = json.dumps(report)
        parsed = json.loads(text)
        assert isinstance(parsed["separation"]["snr"], (str, float))

    def test_non_finite_stay_floats(self):
        g = _graph(6, [[0, 1], [0, 2], [0, 3], [1, 2], [4, 5], [1, 3]])
        report = bound_report(g, k=2, params=NoiseParams(0.0, 0.0), include_evec=False)
        assert report["separation"]["snr"] == math.inf

    def test_skip_evec(self):
        g = generate_er(40, 0.3, seed=2)
        report = bound_report(g, k=4, params=NoiseParams(0.02, 0.02), include_evec=False)
        assert report["evec"] is None
