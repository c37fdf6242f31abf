"""End-to-end acceptance checks.

Each test prints one summary line on success and enforces both the
statistical claim and a wall-clock budget.  Statistical checks compare
Monte Carlo estimates against exact oracles (full noise enumeration,
dense eigensolvers, closed-form moments) or against qualitative levels
with explicit standard-error slack.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from noisytopk import (
    ExperimentConfig,
    NoiseParams,
    NoiseSchedule,
    PaParams,
    apply_noise,
    correction_terms,
    derive_seed,
    evec_bound,
    generate_er,
    generate_pa,
    generate_small_world,
    hamming,
    hamming_bounds_realization,
    leading_eigenvector,
    noisy_degree_array,
    noisy_degree_moments,
    run_localization,
    run_topk_experiment,
    spectral_top2,
    tail_envelope,
    top_k,
)
from noisytopk.cli import main as cli_main
from conftest import dense_top2, exact_stats, random_edges


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self):
        took = self.elapsed()
        assert took < self.seconds, f"runtime {took:.1f}s exceeded budget {self.seconds}s"
        return took


def test_criterion_01_zero_noise_identity():
    budget = _Budget(10.0)
    rng = np.random.default_rng(101)
    zero = NoiseParams(0.0, 0.0)
    hits = 0
    total = 300
    for i in range(total):
        n = int(rng.integers(30, 121))
        model = ("er", "pa", "sw")[i % 3]
        k = (1, 5, 10)[(i // 3) % 3]
        seed = int(rng.integers(0, 2**31))
        if model == "er":
            g = generate_er(n, float(rng.uniform(0.1, 0.5)), seed)
        elif model == "pa":
            g = generate_pa(PaParams(n=n, m=int(rng.integers(1, 5)), b=1.0), seed)
        else:
            g = generate_small_world(n, int(rng.choice([4, 6, 8])), float(rng.uniform(0.1, 0.3)), seed)
        tie_seed = int(rng.integers(0, 2**31))
        s_k = top_k(g.degree_array(), k, tie_seed)
        y = apply_noise(g, zero, seed=int(rng.integers(0, 2**31)))
        s_tilde = top_k(y.degree_array(), k, tie_seed)
        if s_tilde.members == s_k.members and hamming(s_k, s_tilde) == 0:
            hits += 1
    assert hits == total
    took = budget.check()
    print(f"PASS criterion 1: zero-noise identity on {hits}/{total} graphs ({took:.1f}s)")


def _mc_sandwich_stats(g, params: NoiseParams, true_topk, k: int, reps: int, rng):
    """Vectorized noise draws for a tiny graph.

    Edges are flipped pairwise from one uniform matrix; the noisy top-k
    tie-break adds an iid uniform to each integer degree, which selects a
    uniformly random subset of the nodes tied at the cutoff.
    """
    n = g.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_set = {(int(u), int(v)) for u, v in g.edges}
    present = np.array([p in edge_set for p in pairs])
    inc = np.zeros((len(pairs), n))
    for j, (u, v) in enumerate(pairs):
        inc[j, u] = 1.0
        inc[j, v] = 1.0

    u01 = rng.random((reps, len(pairs)))
    thresh = np.where(present, 1.0 - params.beta, params.alpha)
    edge_on = u01 < thresh
    deg = edge_on @ inc

    members = np.zeros(n, dtype=bool)
    members[list(true_topk.members)] = True
    key = deg + rng.random((reps, n))
    top_idx = np.argpartition(-key, k - 1, axis=1)[:, :k]
    overlap = members[top_idx].sum(axis=1)
    dh = 2.0 * (k - overlap)

    t = np.partition(deg, n - k - 1, axis=1)[:, n - k - 1][:, None]
    mdeg = deg[:, members]
    odeg = deg[:, ~members]
    lower = 2.0 * np.maximum((mdeg < t).sum(axis=1), (odeg > t).sum(axis=1))
    upper = 2.0 * np.minimum((mdeg <= t).sum(axis=1), (odeg >= t).sum(axis=1))
    return dh, lower, upper


def test_criterion_02_exact_enumeration_oracle():
    budget = _Budget(30.0)
    rng = np.random.default_rng(202)
    reps = 100_000
    max_gap = 0.0
    for trial in range(20):
        g = random_edges(rng, 5, density=float(rng.uniform(0.2, 0.8)))
        params = NoiseParams(float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.05, 0.4)))
        k = int(rng.integers(1, 4))
        true_topk = top_k(g.degree_array(), k, seed=trial)

        e_dh, e_lo, e_up = exact_stats(g, params, true_topk, k)
        assert e_lo <= e_dh + 1e-10
        assert e_dh <= e_up + 1e-10
        max_gap = max(max_gap, e_lo - e_dh, e_dh - e_up)

        dh, lower, upper = _mc_sandwich_stats(g, params, true_topk, k, reps, rng)
        for sample, exact in ((dh, e_dh), (lower, e_lo), (upper, e_up)):
            se = sample.std(ddof=1) / math.sqrt(reps)
            assert abs(sample.mean() - exact) <= 4.0 * se + 1e-12
    took = budget.check()
    print(
        f"PASS criterion 2: exact enumeration sandwich (worst slack {max_gap:.2e}) "
        f"and 20x{reps} MC draws within 4 SE ({took:.1f}s)"
    )


def test_criterion_03_moment_formulas():
    budget = _Budget(60.0)
    rng = np.random.default_rng(303)
    reps = 100_000
    for _ in range(100):
        n = int(rng.integers(10, 2001))
        d = int(rng.integers(0, n))
        params = NoiseParams(float(rng.uniform(0.01, 0.6)), float(rng.uniform(0.01, 0.6)))
        mom = noisy_degree_moments(d, n, params)
        draws = rng.binomial(n - 1 - d, params.alpha, size=reps) + rng.binomial(
            d, 1.0 - params.beta, size=reps
        )
        se_mean = draws.std(ddof=1) / math.sqrt(reps)
        assert abs(draws.mean() - mom.mu) <= 4.0 * se_mean
        centered = draws - draws.mean()
        s2 = float((centered**2).sum() / (reps - 1))
        mu4 = float((centered**4).mean())
        se_var = math.sqrt((mu4 - s2 * s2 * (reps - 3) / (reps - 1)) / reps)
        assert abs(s2 - mom.sigma2) <= 4.0 * se_var

    # one tuple through the full pipeline rather than the binomial split
    g = generate_er(60, 0.3, seed=9)
    node = 7
    d = int(g.degree_array()[node])
    params = NoiseParams(0.08, 0.25)
    mom = noisy_degree_moments(d, 60, params)
    reps_pipe = 20_000
    vals = np.empty(reps_pipe)
    for r in range(reps_pipe):
        vals[r] = apply_noise(g, params, seed=r).degree_array()[node]
    se_mean = vals.std(ddof=1) / math.sqrt(reps_pipe)
    assert abs(vals.mean() - mom.mu) <= 4.0 * se_mean
    took = budget.check()
    print(
        f"PASS criterion 3: noisy degree moments match MC on 100 tuples "
        f"plus one full-pipeline tuple ({took:.1f}s)"
    )


def test_criterion_04_per_trial_sandwich():
    budget = _Budget(60.0)
    rng = np.random.default_rng(404)
    trials = 0
    violations = 0
    graphs = 500
    draws_per_graph = 20
    for gi in range(graphs):
        n = int(rng.integers(20, 501))
        if gi % 2 == 0:
            g = generate_er(n, float(rng.uniform(0.02, 0.3)), seed=int(rng.integers(0, 2**31)))
        else:
            g = generate_pa(PaParams(n=n, m=int(rng.integers(1, 6)), b=1.0), seed=int(rng.integers(0, 2**31)))
        k = int(rng.integers(1, min(11, n)))
        params = NoiseParams(float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.0, 0.4)))
        tie_seed = int(rng.integers(0, 2**31))
        s_k = top_k(g.degree_array(), k, tie_seed)
        for _ in range(draws_per_graph):
            y = apply_noise(g, params, seed=int(rng.integers(0, 2**31)))
            noisy = y.degree_array()
            s_tilde = top_k(noisy, k, tie_seed)
            d = hamming(s_k, s_tilde)
            hb = hamming_bounds_realization(s_k, noisy)
            trials += 1
            if not (hb.lower <= d <= hb.upper):
                violations += 1
    assert trials == graphs * draws_per_graph
    assert violations == 0
    took = budget.check()
    print(f"PASS criterion 4: sandwich held in {trials}/{trials} randomized trials ({took:.1f}s)")


def test_criterion_05_er_fragility():
    budget = _Budget(300.0)
    cfg = ExperimentConfig(
        model="er",
        model_params={"n": 1000, "p": 0.25},
        k=5,
        graphs_per_point=50,
        noise_draws_per_graph=50,
        seed_root=95001,
        noise_grid=(NoiseParams(0.05, 0.05),),
        theory_curve=True,
    )
    row = run_topk_experiment(cfg)[0]
    assert row.mean_half_hamming >= 0.5
    assert row.theory_lower <= row.mean_half_hamming + 2.0 * row.se_half_hamming
    took = budget.check()
    print(
        f"PASS criterion 5: dense-graph fragility mean d_H/2 = {row.mean_half_hamming:.3f} "
        f">= 0.5, theory {row.theory_lower:.3e} below mean + 2 SE ({took:.1f}s)"
    )


def test_criterion_06_pa_robustness():
    budget = _Budget(600.0)
    n_grid = (300, 600, 1000, 1500)
    cfg = ExperimentConfig(
        model="pa",
        model_params={"m": 5, "b": 1.0},
        k=5,
        graphs_per_point=50,
        noise_draws_per_graph=50,
        seed_root=96001,
        alpha=NoiseSchedule(coef=1.0, n_power=1.0 / 3.0, log_power=2.0),
        beta=NoiseSchedule(0.05),
        n_grid=n_grid,
    )
    rows = run_topk_experiment(cfg)
    means = [row.mean_half_hamming for row in rows]
    assert all(m <= 0.5 for m in means)
    rho = scipy.stats.spearmanr(n_grid, means).correlation
    if math.isnan(rho):  # constant means have no rank trend
        rho = 0.0
    assert rho <= 0.0
    took = budget.check()
    print(
        f"PASS criterion 6: hub robustness means {['%.3f' % m for m in means]} all <= 0.5, "
        f"spearman rho = {rho:.2f} <= 0 ({took:.1f}s)"
    )


def test_criterion_07_localization():
    budget = _Budget(300.0)
    rows = run_localization([200, 500, 1000, 2000], reps=200, b=1.0, seed_root=97001)
    medians = [row.x_h_q50 for row in rows]
    assert all(m >= 0.3 for m in medians)
    m_out = [row.m_out_mean for row in rows]
    assert all(a > b for a, b in zip(m_out, m_out[1:]))
    for row in rows:
        assert row.gap_mean > 0.0
        assert row.gap_mean - 1.96 * row.gap_se > 0.0
    took = budget.check()
    print(
        f"PASS criterion 7: hub localization medians {['%.3f' % m for m in medians]} >= 0.3, "
        f"outside mass strictly decreasing, gap CI above 0 ({took:.1f}s)"
    )


def test_criterion_08_jaccard_comparison():
    budget = _Budget(600.0)
    grid = (NoiseParams(0.001, 0.001), NoiseParams(0.01, 0.01), NoiseParams(0.05, 0.05))
    cfg = ExperimentConfig(
        model="pa",
        model_params={"n": 1000, "m": 3, "b": 1.0},
        k=10,
        graphs_per_point=30,
        noise_draws_per_graph=30,
        seed_root=98001,
        noise_grid=grid,
        centrality="both",
    )
    rows = run_topk_experiment(cfg)
    small, mid, large = rows
    assert small.jaccard_degree >= 0.8
    assert small.jaccard_evec >= 0.8
    for row in (mid, large):
        assert row.jaccard_degree >= row.jaccard_evec - 2.0 * row.se_jaccard_evec
    took = budget.check()
    print(
        f"PASS criterion 8: degree vs eigenvector stability "
        f"jd={['%.3f' % r.jaccard_degree for r in rows]} "
        f"je={['%.3f' % r.jaccard_evec for r in rows]} ({took:.1f}s)"
    )


def test_criterion_09_evec_perturbation_bound():
    budget = _Budget(300.0)
    n = 1000
    params = NoiseParams(alpha=float(n) ** -1.6, beta=float(n) ** -0.7)
    seeds = 50
    draws = 20
    gap_ok_trials = 0
    gap_ok_within = 0
    total_trials = 0
    solved_trials = 0
    for s in range(seeds):
        g = generate_pa(PaParams(n=n, m=1, b=1.0), seed=derive_seed(99001, 1, s))
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        assert pair.converged
        x = pair.x
        eb = evec_bound(pair, params)
        for r in range(draws):
            total_trials += 1
            y = apply_noise(g, params, seed=derive_seed(99001, 2, s, r))
            lam1y, xy, oky = leading_eigenvector(y, tol=1e-10, max_iter=10000)
            if not oky:
                continue
            solved_trials += 1
            err = float(np.max(np.abs(x - xy)))
            if eb.gap_condition_ok:
                gap_ok_trials += 1
                if err <= eb.eps_n:
                    gap_ok_within += 1
    # the guarantee is conditional on the spectral-gap test; report the
    # qualifying fraction honestly either way
    if gap_ok_trials > 0:
        frac = gap_ok_within / gap_ok_trials
        assert frac >= 0.9
        msg = f"{gap_ok_within}/{gap_ok_trials} qualifying draws within eps_n"
    else:
        msg = (
            f"0/{total_trials} trials met the spectral-gap condition "
            f"(bound vacuous at this scale); {solved_trials} noisy solves converged"
        )
    took = budget.check()
    print(f"PASS criterion 9: entrywise eigenvector bound, {msg} ({took:.1f}s)")


def test_criterion_10_solver_oracle():
    budget = _Budget(30.0)
    rng = np.random.default_rng(1010)
    worst_lam = 0.0
    worst_vec = 0.0
    degenerate_draws = 0
    for _ in range(200):
        n = int(rng.integers(4, 31))
        g = random_edges(rng, n, density=float(rng.uniform(0.15, 0.85)))
        pair = spectral_top2(g, tol=1e-12, max_iter=200000)
        assert pair.converged
        lam1, lam2, x_ref = dense_top2(g)
        worst_lam = max(worst_lam, abs(pair.lambda1 - lam1), abs(pair.lambda2 - lam2))
        assert abs(pair.lambda1 - lam1) <= 1e-8
        assert abs(pair.lambda2 - lam2) <= 1e-8
        if lam1 - lam2 <= 1e-8:
            # repeated leading eigenvalue: no unique eigenvector exists, so
            # the entrywise comparison is ill-posed; the flag must fire
            degenerate_draws += 1
            assert pair.degenerate
            continue
        assert not pair.degenerate
        err = float(np.max(np.abs(pair.x - x_ref)))
        worst_vec = max(worst_vec, err)
        assert err <= 1e-6
    took = budget.check()
    print(
        f"PASS criterion 10: sparse solver matches dense oracle on 200 graphs "
        f"(worst eigenvalue gap {worst_lam:.1e}, worst entry gap {worst_vec:.1e}, "
        f"{degenerate_draws} degenerate draws flagged) ({took:.1f}s)"
    )


def test_criterion_11_tail_envelope():
    budget = _Budget(120.0)
    n, k = 1000, 5
    params = NoiseParams(0.05, 0.05)
    g = generate_er(n, 0.25, seed=111)
    deg = g.degree_array()
    env = tail_envelope(deg, k=k, params=params)
    order = np.lexsort((np.arange(n), -deg))

    terms = correction_terms(n - k, n)
    sig = noisy_degree_moments(int(deg[order][k]), n, params).sigma
    assert abs((env.c_upper - env.c_lower) - 2.0 * terms.eps2 * sig) <= 1e-12

    tail_nodes = order[k:]
    reps = 10_000
    covered = 0
    for r in range(reps):
        tail_max = float(noisy_degree_array(g, params, seed=r)[tail_nodes].max())
        if tail_max <= env.c_upper:
            covered += 1
    frac = covered / reps
    assert frac >= 0.95
    took = budget.check()
    print(
        f"PASS criterion 11: tail envelope covered max noisy tail degree in "
        f"{frac:.4f} of {reps} draws, width identity exact ({took:.1f}s)"
    )


def test_criterion_12_cli_determinism(tmp_path):
    import pathlib

    budget = _Budget(60.0)
    repo_configs = pathlib.Path(__file__).resolve().parent.parent / "configs"

    def run_twice(label, argv_fn, outputs_fn):
        a_dir = tmp_path / f"{label}_a"
        b_dir = tmp_path / f"{label}_b"
        for d in (a_dir, b_dir):
            d.mkdir()
            assert cli_main(argv_fn(d)) == 0
        for out_a, out_b in zip(outputs_fn(a_dir), outputs_fn(b_dir)):
            assert out_a.read_bytes() == out_b.read_bytes(), label

    run_twice(
        "generate",
        lambda d: ["generate", "er", "--n", "200", "--p", "0.1", "--seed", "5",
                   "--out", str(d / "g.txt"), "--quiet"],
        lambda d: [d / "g.txt"],
    )
    graph_path = tmp_path / "generate_a" / "g.txt"
    run_twice(
        "perturb",
        lambda d: ["perturb", "--in", str(graph_path), "--alpha", "0.05", "--beta", "0.1",
                   "--seed", "7", "--out", str(d / "noisy.txt"), "--quiet"],
        lambda d: [d / "noisy.txt"],
    )
    run_twice(
        "centrality",
        lambda d: ["centrality", "--in", str(graph_path), "--kind", "both", "--k", "5",
                   "--seed", "3", "--format", "json", "--out", str(d / "scores.json"), "--quiet"],
        lambda d: [d / "scores.json"],
    )
    run_twice(
        "bounds",
        lambda d: ["bounds", "--in", str(graph_path), "--k", "5", "--alpha", "0.05",
                   "--beta", "0.05", "--out", str(d / "report.json"), "--quiet"],
        lambda d: [d / "report.json"],
    )
    run_twice(
        "experiment",
        lambda d: ["experiment", str(repo_configs / "smoke_zero_noise.ini"),
                   "--out", str(d / "res"), "--quiet"],
        lambda d: [d / "res.csv", d / "res.json"],
    )
    took = budget.check()
    print(f"PASS criterion 12: all five subcommands byte-identical on re-run ({took:.1f}s)")
