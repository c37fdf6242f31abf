import math

import numpy as np
import pytest

from noisytopk import (
    Graph,
    NoiseParams,
    apply_noise,
    generate_er,
)
from conftest import exact_noise_distribution


def _graph(n, edges):
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestNoiseParams:
    def test_bounds(self):
        NoiseParams(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            NoiseParams(alpha=-0.1, beta=0.5)
        with pytest.raises(ValueError):
            NoiseParams(alpha=0.5, beta=1.1)


class TestApplyNoise:
    def test_zero_noise_is_identity(self):
        for seed in range(20):
            g = generate_er(30, 0.3, seed=seed)
            y = apply_noise(g, NoiseParams(0.0, 0.0), seed=seed + 1000)
            assert np.array_equal(y.edges, g.edges)

    def test_alpha_one_completes_empty_graph(self):
        y = apply_noise(_graph(5, []), NoiseParams(1.0, 0.0), seed=3)
        assert y.num_edges == 10

    def test_beta_one_erases_everything(self):
        g = generate_er(12, 0.8, seed=1)
        y = apply_noise(g, NoiseParams(0.0, 1.0), seed=2)
        assert y.num_edges == 0

    def test_deterministic_for_seed(self):
        g = generate_er(40, 0.2, seed=0)
        params = NoiseParams(0.1, 0.2)
        a = apply_noise(g, params, seed=5)
        b = apply_noise(g, params, seed=5)
        assert np.array_equal(a.edges, b.edges)
        c = apply_noise(g, params, seed=6)
        assert not np.array_equal(a.edges, c.edges)

    def test_output_is_valid_graph(self):
        g = generate_er(25, 0.3, seed=2)
        y = apply_noise(g, NoiseParams(0.3, 0.3), seed=9)
        assert np.all(y.edges[:, 0] < y.edges[:, 1])
        assert np.all(y.edges >= 0) and np.all(y.edges < 25)

    def test_marginal_flip_rates(self):
        # strong-law check from the model: over R draws the empirical add
        # and delete rates stay within 4 SE of alpha and beta
        g = generate_er(250, 0.1, seed=13)
        alpha, beta = 0.01, 0.02
        params = NoiseParams(alpha, beta)
        present = g.edge_linear_indices()
        n_pairs = 250 * 249 // 2
        n_present = present.size
        n_absent = n_pairs - n_present
        reps = 10_000
        added = deleted = 0
        for r in range(reps):
            y = apply_noise(g, params, seed=r)
            kept = np.intersect1d(present, y.edge_linear_indices(), assume_unique=True).size
            deleted += n_present - kept
            added += y.num_edges - kept
        add_rate = added / (reps * n_absent)
        del_rate = deleted / (reps * n_present)
        se_add = math.sqrt(alpha * (1 - alpha) / (reps * n_absent))
        se_del = math.sqrt(beta * (1 - beta) / (reps * n_present))
        assert abs(add_rate - alpha) <= 4 * se_add
        assert abs(del_rate - beta) <= 4 * se_del


class TestExactDistribution:
    def test_single_edge_graph(self):
        g = _graph(2, [[0, 1]])
        out = {tuple(map(tuple, y.edges)): p for y, p in exact_noise_distribution(g, NoiseParams(0.3, 0.4))}
        assert out[((0, 1),)] == pytest.approx(0.6)
        assert out[()] == pytest.approx(0.4)

    def test_empty_two_node_graph(self):
        g = _graph(2, [])
        out = {y.num_edges: p for y, p in exact_noise_distribution(g, NoiseParams(0.3, 0.0))}
        assert out[1] == pytest.approx(0.3)
        assert out[0] == pytest.approx(0.7)

    def test_triangle_survival_probability(self):
        g = _graph(3, [[0, 1], [0, 2], [1, 2]])
        triangle_prob = None
        total = 0.0
        count = 0
        for y, p in exact_noise_distribution(g, NoiseParams(0.1, 0.2)):
            count += 1
            total += p
            if y.num_edges == 3:
                triangle_prob = p
        assert count == 8
        assert abs(total - 1.0) <= 1e-12
        assert triangle_prob == pytest.approx(0.8**3)

    def test_probabilities_sum_to_one(self):
        g = generate_er(5, 0.5, seed=21)
        total = sum(p for _, p in exact_noise_distribution(g, NoiseParams(0.25, 0.35)))
        assert abs(total - 1.0) <= 1e-12

    def test_rejects_large_graphs(self):
        with pytest.raises(ValueError):
            list(exact_noise_distribution(generate_er(8, 0.5, seed=0), NoiseParams(0.1, 0.1)))

    def test_monte_carlo_histogram_matches_exact(self):
        g = _graph(3, [[0, 1], [1, 2]])
        params = NoiseParams(0.2, 0.3)
        exact = {
            frozenset(map(tuple, y.edges)): p
            for y, p in exact_noise_distribution(g, params)
        }
        reps = 20_000
        counts = {key: 0 for key in exact}
        for r in range(reps):
            y = apply_noise(g, params, seed=r)
            counts[frozenset(map(tuple, y.edges))] += 1
        for key, p in exact.items():
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(counts[key] / reps - p) <= 5 * se
