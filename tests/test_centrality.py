import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csgraph

from noisytopk import centrality
from noisytopk import (
    Graph,
    SpectralPair,
    TopKSet,
    generate_er,
    hamming,
    leading_eigenvector,
    spectral_top2,
    top_k,
)
from conftest import dense_top2, graphs_with_isolated_nodes, jaccard, random_edges


def _graph(n, edges):
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


def _scores(values):
    return np.asarray(values, dtype=float)


STAR = _graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
K4 = _graph(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])


def _pair(x):
    return SpectralPair(
        lambda1=2.0,
        lambda2=1.0,
        x=np.asarray(x),
        converged=True,
        degenerate=False,
        disconnected=False,
        iterations=1,
        residual=0.0,
    )


class TestSpectralPair:
    def test_eigenvector_requires_unit_norm(self):
        with pytest.raises(ValueError):
            _pair([1.0, 1.0])

    def test_eigenvector_rejects_negative_entries(self):
        bad = np.array([-0.6, 0.8])
        with pytest.raises(ValueError):
            _pair(bad)


class TestDegreeScores:
    """Degree scores are the plain int64 array that top_k ranks."""

    def test_star(self):
        deg = STAR.degree_array()
        assert deg.tolist() == [4, 1, 1, 1, 1]
        assert top_k(deg, 1, seed=0).members == frozenset({0})

    def test_empty(self):
        assert _graph(3, []).degree_array().tolist() == [0, 0, 0]


class TestTopK:
    def test_no_ties(self):
        got = top_k(_scores([5, 4, 3, 2, 1]), 2, seed=0)
        assert got.members == frozenset({0, 1})
        assert got.tie_broken is False

    def test_all_tied_k_equals_n(self):
        got = top_k(_scores([3, 3, 3]), 3, seed=0)
        assert got.members == frozenset({0, 1, 2})
        assert got.tie_broken is True

    def test_tie_at_cutoff_uniform(self):
        # scores [3,3,3], k=2: each 2-subset should appear ~1/3 of the time
        counts = {}
        reps = 30_000
        for seed in range(reps):
            got = top_k(_scores([3, 3, 3]), 2, seed=seed)
            assert got.tie_broken is True
            counts[got.members] = counts.get(got.members, 0) + 1
        assert len(counts) == 3
        chi2 = sum((c - reps / 3) ** 2 / (reps / 3) for c in counts.values())
        # chi-square with 2 dof, p = 0.001 cutoff
        assert chi2 <= 13.82

    def test_partial_tie_uniform(self):
        # cutoff value 3 is shared by nodes 1,2,3; one slot remains
        counts = {1: 0, 2: 0, 3: 0}
        reps = 30_000
        for seed in range(reps):
            got = top_k(_scores([5, 3, 3, 3, 1]), 2, seed=seed)
            assert 0 in got.members
            chosen = next(iter(got.members - {0}))
            counts[chosen] += 1
        chi2 = sum((c - reps / 3) ** 2 / (reps / 3) for c in counts.values())
        assert chi2 <= 13.82

    def test_shared_cutoff_value_flagged_even_when_forced(self):
        # both nodes at the cutoff value land inside, so the set is forced,
        # but the flag reports the shared cutoff value (as in the all-equal
        # k=n case, which is also forced yet flagged)
        got = top_k(_scores([7, 7, 3, 1]), 2, seed=0)
        assert got.members == frozenset({0, 1})
        assert got.tie_broken is True

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            raw = rng.integers(0, 6, size=12).astype(float)
            a = top_k(_scores(raw), 4, seed=trial)
            b = top_k(_scores(2.0 * raw + 1.0), 4, seed=trial)
            assert a.members == b.members
            assert a.tie_broken == b.tie_broken

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            top_k(_scores([1.0, math.nan]), 1, seed=0)

    def test_rejects_empty_and_2d(self):
        for bad in (np.array([]), np.ones((2, 2))):
            with pytest.raises(ValueError):
                top_k(bad, 1, seed=0)

    def test_negative_seed_is_rejected_with_or_without_a_tie(self):
        for scores in ([3, 2, 1, 0], [3, 2, 2, 0]):
            with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
                top_k(_scores(scores), 2, seed=-1)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            top_k(_scores([1, 2]), 0, seed=0)
        with pytest.raises(ValueError):
            top_k(_scores([1, 2]), 3, seed=0)

    def test_min_member_score_dominates_outsiders(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            vals = rng.integers(0, 5, size=10).astype(float)
            got = top_k(_scores(vals), 4, seed=trial)
            inside = min(vals[i] for i in got.members)
            outside = max(vals[i] for i in range(10) if i not in got.members)
            assert inside >= outside
            if inside == outside:
                assert got.tie_broken


class TestSetMetrics:
    def _sets(self, a, b):
        k = len(a)
        return (
            TopKSet(k=k, members=frozenset(a), tie_broken=False),
            TopKSet(k=k, members=frozenset(b), tie_broken=False),
        )

    def test_hamming_examples(self):
        a, b = self._sets({1, 2, 3}, {2, 3, 4})
        assert hamming(a, b) == 2
        a, b = self._sets({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})
        assert hamming(a, b) == 10
        a, b = self._sets({1, 2}, {1, 2})
        assert hamming(a, b) == 0

    def test_jaccard_examples(self):
        a, b = self._sets({1, 2, 3, 4}, {3, 4, 5, 6})
        assert jaccard(a, b) == pytest.approx(2 / 6)
        a, b = self._sets({1, 2}, {1, 2})
        assert jaccard(a, b) == 1.0
        a, b = self._sets({1, 2}, {3, 4})
        assert jaccard(a, b) == 0.0

    def test_hamming_rejects_mismatched_k(self):
        a = TopKSet(k=2, members=frozenset({1, 2}), tie_broken=False)
        b = TopKSet(k=3, members=frozenset({1, 2, 3}), tie_broken=False)
        with pytest.raises(ValueError):
            hamming(a, b)

    def test_cross_consistency_identities(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            pool = list(range(12))
            a = frozenset(rng.choice(pool, size=k, replace=False).tolist())
            b = frozenset(rng.choice(pool, size=k, replace=False).tolist())
            sa = TopKSet(k=k, members=a, tie_broken=False)
            sb = TopKSet(k=k, members=b, tie_broken=False)
            inter = len(a & b)
            assert hamming(sa, sb) == 2 * (k - inter)
            assert jaccard(sa, sb) == pytest.approx(
                inter / (2 * k - inter) if 2 * k - inter else 1.0
            )


class TestLeadingEigenvector:
    def test_star_closed_form(self):
        lam, x, converged = leading_eigenvector(STAR, tol=1e-10, max_iter=10000)
        assert converged
        assert lam == pytest.approx(2.0, abs=1e-8)
        assert x[0] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert np.allclose(x[1:], 1 / (2 * math.sqrt(2)), atol=1e-6)

    def test_complete_graph(self):
        lam, x, converged = leading_eigenvector(K4, tol=1e-10, max_iter=10000)
        assert converged
        assert lam == pytest.approx(3.0, abs=1e-8)
        assert np.allclose(x, 0.5, atol=1e-6)

    def test_path_three_nodes(self):
        lam, x, converged = leading_eigenvector(_graph(3, [[0, 1], [1, 2]]), tol=1e-10, max_iter=10000)
        assert lam == pytest.approx(math.sqrt(2), abs=1e-8)
        assert x[1] == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_two_nodes_take_the_dense_solve(self):
        k2 = _graph(2, [[0, 1]])
        lam, x, converged = leading_eigenvector(k2, tol=1e-10, max_iter=10000)
        assert converged
        assert lam == pytest.approx(np.linalg.eigvalsh(k2.adjacency_csr().toarray())[-1], abs=1e-12)
        assert np.allclose(x, 1 / math.sqrt(2), atol=1e-12)

    def test_connected_graph_entries_positive(self):
        g = generate_er(30, 0.4, seed=5)
        lam, x, converged = leading_eigenvector(g, tol=1e-10, max_iter=10000)
        assert converged
        assert np.all(x > 0)

    def test_repeated_leading_eigenvalue_gives_nonnegative_vector(self):
        # three disjoint K4s share lambda1 = 3; Lanczos may mix them with
        # opposite signs, and both solvers must still return a Perron vector
        edges = [[b + i, b + j] for b in (0, 4, 8) for i in range(4) for j in range(i + 1, 4)]
        g = _graph(13, edges)
        adj = g.adjacency_csr()
        lam, x, converged = leading_eigenvector(g, tol=1e-10, max_iter=10000)
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        assert converged and pair.converged
        assert pair.degenerate
        for lam1, vec in ((lam, x), (pair.lambda1, pair.x)):
            assert lam1 == pytest.approx(3.0, abs=1e-10)
            assert np.all(vec >= 0.0)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(adj @ vec - lam1 * vec) <= 1e-10


class TestSpectralTop2:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_er_converges_to_oracle(self, seed):
        g = generate_er(1000, 0.25, seed=seed)
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        ref = np.linalg.eigvalsh(g.adjacency_csr().toarray())
        assert pair.converged
        assert pair.residual <= 1e-10 * pair.lambda1
        assert pair.lambda1 == pytest.approx(ref[-1], abs=1e-8)
        assert pair.lambda2 == pytest.approx(ref[-2], abs=1e-8)

    def test_complete_graph_second_eigenvalue(self):
        pair = spectral_top2(K4, tol=1e-10, max_iter=10000)
        assert pair.lambda1 == pytest.approx(3.0, abs=1e-8)
        assert pair.lambda2 == pytest.approx(-1.0, abs=1e-8)
        assert not pair.degenerate

    def test_star_second_eigenvalue_zero(self):
        pair = spectral_top2(STAR, tol=1e-10, max_iter=10000)
        assert pair.lambda1 == pytest.approx(2.0, abs=1e-8)
        assert pair.lambda2 == pytest.approx(0.0, abs=1e-7)

    def test_empty_graph_degenerate(self):
        pair = spectral_top2(_graph(4, []), tol=1e-10, max_iter=100)
        assert pair.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert pair.degenerate

    @pytest.mark.parametrize(
        "n, edges, disconnected",
        [(2, [[0, 1]], False), (3, [[0, 1], [1, 2]], False), (3, [[0, 1]], True)],
        ids=["K2", "P3", "K2+isolated"],
    )
    def test_at_most_three_nodes_take_the_dense_solve(self, n, edges, disconnected):
        g = _graph(n, edges)
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        ref = np.linalg.eigvalsh(g.adjacency_csr().toarray())
        assert pair.converged
        assert pair.iterations == 0
        assert pair.lambda1 == pytest.approx(ref[-1], abs=1e-12)
        assert pair.lambda2 == pytest.approx(ref[-2], abs=1e-12)
        assert pair.disconnected == disconnected

    def test_disconnected_diagnostic(self):
        g = _graph(6, [[0, 1], [1, 2], [0, 2], [3, 4]])
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        assert pair.disconnected
        assert pair.lambda1 == pytest.approx(2.0, abs=1e-8)

    def test_residual_invariant(self):
        g = generate_er(40, 0.2, seed=9)
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        adj = g.adjacency_csr()
        residual = np.linalg.norm(adj @ pair.x - pair.lambda1 * pair.x)
        assert residual <= 1e-10 * max(1.0, abs(pair.lambda1))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            n = int(rng.integers(4, 31))
            g = random_edges(rng, n, density=float(rng.uniform(0.1, 0.8)))
            lam1, lam2, x_ref = dense_top2(g)
            pair = spectral_top2(g, tol=1e-10, max_iter=10000)
            assert pair.lambda1 == pytest.approx(lam1, abs=1e-8)
            assert pair.lambda2 == pytest.approx(lam2, abs=1e-8)
            if not pair.degenerate:
                assert np.max(np.abs(pair.x - x_ref)) <= 1e-6

    def test_sign_convention(self):
        g = generate_er(20, 0.3, seed=77)
        pair = spectral_top2(g, tol=1e-10, max_iter=10000)
        assert pair.x[np.argmax(np.abs(pair.x))] > 0


class TestConnectedComponents:
    @settings(max_examples=200, deadline=None)
    @given(g=graphs_with_isolated_nodes())
    def test_match_the_undirected_count_and_partition(self, g):
        adj = g.adjacency_csr()
        count, labels = centrality.connected_components(adj)
        ref_count, ref_labels = csgraph.connected_components(adj, directed=False)
        assert count == ref_count
        # equal partitions: each label pairs with exactly one reference label
        assert len(set(zip(labels.tolist(), ref_labels.tolist()))) == count == len(set(labels.tolist()))
