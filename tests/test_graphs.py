import copy
import hashlib
import io
import itertools
import math
import pickle
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisytopk import (
    Graph,
    NoiseParams,
    PaParams,
    generate_er,
    generate_pa,
    generate_small_world,
    load_edge_list,
    pair_index,
    save_edge_list,
)
from noisytopk import experiments, graphs
from conftest import (
    coo_adjacency,
    dense_pa,
    graphs_with_isolated_nodes,
    hill_tail_exponent,
    pair_from_index,
    scalar_pa,
)


def _graph(n, edges):
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestPairIndexing:
    @pytest.mark.parametrize("n", [2, 3, 5, 17])
    def test_roundtrip_covers_all_pairs(self, n):
        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                idx = pair_index(n, u, v)
                assert 0 <= idx < n * (n - 1) // 2
                assert idx not in seen
                seen.add(idx)
                uu, vv = pair_from_index(n, np.array([idx]))
                assert (uu[0], vv[0]) == (u, v)
        assert len(seen) == n * (n - 1) // 2

    def test_lexicographic_order(self):
        n = 6
        idx = [pair_index(n, u, v) for u in range(n) for v in range(u + 1, n)]
        assert idx == sorted(idx)


@st.composite
def _edge_sets(draw):
    """(n, canonical edge array, the same edges shuffled and with random orientations)."""
    n = draw(st.integers(2, 30))
    lin = draw(st.sets(st.integers(0, n * (n - 1) // 2 - 1), max_size=60))
    canon = np.column_stack(pair_from_index(n, np.array(sorted(lin), dtype=np.int64))).reshape(-1, 2)
    order = draw(st.permutations(range(len(lin))))
    flip = np.array(draw(st.lists(st.booleans(), min_size=len(lin), max_size=len(lin))), dtype=bool)
    mixed = canon[list(order)]
    mixed = np.where(flip[:, None], mixed[:, ::-1], mixed)
    return n, canon, mixed


class TestGraphType:
    @settings(max_examples=150, deadline=None)
    @given(case=_edge_sets())
    def test_any_row_order_and_orientation_canonicalizes(self, case):
        n, canon, mixed = case
        a, b = Graph(n, canon), Graph(n, mixed)
        assert np.array_equal(a.edges, canon)
        assert np.array_equal(b.edges, canon)
        assert np.array_equal(Graph(n, mixed.astype(float)).edges, canon)
        assert np.array_equal(b.edge_linear_indices(), a.edge_linear_indices())
        assert np.array_equal(a.edge_linear_indices(), pair_index(n, canon[:, 0], canon[:, 1]))

    @settings(max_examples=150, deadline=None)
    @given(case=_edge_sets(), kind=st.sampled_from(["duplicate", "self-loop", "out-of-range"]), data=st.data())
    def test_bad_row_is_rejected(self, case, kind, data):
        n, _, mixed = case
        if kind == "duplicate":
            assume(len(mixed) > 0)
            u, v = mixed[data.draw(st.integers(0, len(mixed) - 1))]
            bad = data.draw(st.sampled_from([(u, v), (v, u)]))
        elif kind == "self-loop":
            i = data.draw(st.integers(0, n - 1))
            bad = (i, i)
        else:
            i = data.draw(st.integers(0, n - 1))
            bad = data.draw(st.sampled_from([(i, n), (n + 5, i), (-1, i)]))
        rows = np.insert(mixed, data.draw(st.integers(0, len(mixed))), bad, axis=0)
        with pytest.raises(ValueError):
            Graph(n, rows)

    def test_canonicalizes_unsorted_and_swapped_edges(self):
        g = _graph(4, [[2, 1], [0, 3], [0, 1]])
        assert [tuple(e) for e in g.edges] == [(0, 1), (0, 3), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            _graph(3, [[1, 1]])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            _graph(3, [[0, 1], [1, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _graph(3, [[0, 3]])
        with pytest.raises(ValueError):
            _graph(3, [[-1, 2]])

    def test_rejects_non_integral_endpoints(self):
        with pytest.raises(ValueError, match="integers"):
            Graph(3, [[0.5, 1.7]])
        with pytest.raises(ValueError, match="integers"):
            Graph(3, np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError, match="integers"):
            Graph(3, np.array([[True, False]]))
        assert Graph(3, np.array([[0.0, 2.0]])).edges.tolist() == [[0, 2]]

    def test_neighbors_rejects_unknown_node(self):
        g = _graph(5, [[0, 1]])
        assert g.neighbors(1).tolist() == [0]
        for node in (99, 5, -1, 1.5):
            with pytest.raises(ValueError, match=rf"node {node} is not in range\(5\)"):
                g.neighbors(node)

    def test_degree_array_sums_to_twice_edges(self):
        g = _graph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [1, 3]])
        star = _graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
        for graph in (g, star):
            assert graph.degree_array().sum() == 2 * graph.num_edges
        assert star.degree_array().tolist() == [4, 1, 1, 1, 1]

    def test_edges_immutable(self):
        g = _graph(3, [[0, 1]])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_attributes_cannot_be_set_or_deleted(self):
        g = _graph(3, [[0, 1]])
        for name in ("n", "edges", "_lin", "_cols", "weights"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(g, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            del g.n
        assert g.n == 3 and g.edges.tolist() == [[0, 1]] and not hasattr(g, "weights")

    @pytest.mark.parametrize(
        "clone",
        [lambda g: pickle.loads(pickle.dumps(g, protocol=2)), lambda g: pickle.loads(pickle.dumps(g, protocol=-1))]
        + [copy.copy, copy.deepcopy],
        ids=["pickle-2", "pickle-highest", "copy", "deepcopy"],
    )
    def test_pickled_and_copied_graphs_are_rebuilt_read_only(self, clone):
        g = generate_er(50, 0.3, seed=1)
        adj, _, _ = g.adjacency_csr(), g.degree_array(), g._absent_pairs()
        assert {"_adj", "_deg", "_absent"} <= vars(g).keys()  # every cache of the original is filled
        h = clone(g)
        assert type(h) is Graph and h.n == g.n
        assert sorted(vars(h)) == ["_cols", "_indptr", "_lin", "n"]  # no cache travels
        for name in ("_lin", "_indptr", "_cols"):
            assert not getattr(h, name).flags.writeable, name
        assert np.array_equal(h.edge_linear_indices(), g.edge_linear_indices())
        assert np.array_equal(h.edges, g.edges) and np.array_equal(h.degree_array(), g.degree_array())
        assert not h.degree_array().flags.writeable
        h_adj = h.adjacency_csr()
        for got, want in ((h_adj.data, adj.data), (h_adj.indices, adj.indices), (h_adj.indptr, adj.indptr)):
            assert not got.flags.writeable and np.array_equal(got, want)
        with pytest.raises(AttributeError, match="immutable"):
            h.n = 3

    @pytest.mark.parametrize(
        ("n", "p", "dtype"),
        [(1, 0.5, np.uint8), (256, 0.3, np.uint8), (257, 0.3, np.uint16)]
        + [(65_536, 1e-8, np.uint16), (65_537, 1e-8, np.uint32)],
    )
    def test_edges_are_decoded_on_read_and_stored_nowhere(self, n, p, dtype):
        # the columns take the narrowest unsigned dtype that holds n - 1
        g = generate_er(n, p, seed=2)
        assert g._cols.dtype == dtype and (g.num_edges > 0) == (n > 1)
        stored = dict(vars(g))
        edges = g.edges
        assert edges.dtype == np.int64 and not edges.flags.writeable
        assert np.array_equal(edges, np.column_stack(pair_from_index(n, g.edge_linear_indices())).reshape(-1, 2))
        assert np.all(edges[:, 0] < edges[:, 1]) and np.array_equal(np.lexsort(edges.T[::-1]), np.arange(g.num_edges))
        assert g.edges is not edges and np.array_equal(g.edges, edges)  # decoded again on each read
        assert vars(g).keys() == stored.keys() and all(vars(g)[key] is value for key, value in stored.items())

    def test_adjacency_built_once_and_read_only(self):
        g = _graph(4, [[0, 1], [1, 2], [2, 3]])
        adj = g.adjacency_csr()
        assert g.adjacency_csr() is adj
        with pytest.raises(ValueError):
            adj.data[0] = 5.0

    @settings(max_examples=200, deadline=None)
    @given(g=graphs_with_isolated_nodes())
    def test_adjacency_equals_the_coo_build(self, g):
        adj, ref = g.adjacency_csr(), coo_adjacency(g)
        assert adj.format == "csr" and adj.shape == ref.shape and adj.has_canonical_format
        for got, want in ((adj.indptr, ref.indptr), (adj.indices, ref.indices), (adj.data, ref.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_empty_graph(self):
        g = _graph(3, [])
        assert g.num_edges == 0
        assert g.degree_array().tolist() == [0, 0, 0]


class TestErdosRenyi:
    def test_p_zero_empty_p_one_complete(self):
        assert generate_er(8, 0.0, seed=1).num_edges == 0
        assert generate_er(8, 1.0, seed=1).num_edges == 8 * 7 // 2

    def test_deterministic_for_seed(self):
        a = generate_er(40, 0.3, seed=9)
        b = generate_er(40, 0.3, seed=9)
        assert np.array_equal(a.edges, b.edges)
        c = generate_er(40, 0.3, seed=10)
        assert not np.array_equal(a.edges, c.edges)

    def test_edge_count_matches_binomial_mean(self):
        n, p, reps = 60, 0.25, 200
        n_pairs = n * (n - 1) // 2
        counts = [generate_er(n, p, seed=s).num_edges for s in range(reps)]
        se = math.sqrt(n_pairs * p * (1 - p) / reps)
        assert abs(np.mean(counts) - n_pairs * p) <= 4 * se

    def test_negative_seed_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            generate_er(10, 0.3, seed=-1)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            generate_er(5, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_er(5, -0.1, seed=0)


def _exact_pa_law(n: int, m: int, b: float) -> dict[bytes, float]:
    """Probability of every PA graph on n nodes, keyed by its linear pair indices' bytes.

    Each arrival t takes m of the nodes below t one after another, each with probability deg + b over
    the weight of the nodes not yet taken, degrees frozen at the start of the step: a sum over orders.
    """
    paths = {(): (1.0, [m] * (m + 1))}  # the arrivals' target sets so far -> (probability, degrees)
    for t in range(m + 1, n):
        grown: dict = {}
        for sets, (p, deg) in paths.items():
            for order in itertools.permutations(range(t), m):
                q, left = p, sum(deg) + b * t
                for j in order:
                    q, left = q * (deg[j] + b) / left, left - deg[j] - b
                key = (*sets, frozenset(order))
                new_deg = [d + (j in order) for j, d in enumerate(deg)] + [m]
                grown[key] = (grown.get(key, (0.0,))[0] + q, new_deg)
        paths = grown
    law = {}
    for sets, (p, _) in paths.items():
        edges = [*itertools.combinations(range(m + 1), 2), *((j, t) for t, s in enumerate(sets, m + 1) for j in s)]
        law[Graph(n, edges).edge_linear_indices().tobytes()] = p
    return law


class TestPreferentialAttachment:
    def test_seed_clique_only(self):
        g = generate_pa(PaParams(n=4, m=3, b=1.0), seed=0)
        assert g.num_edges == 3 * 4 // 2

    def test_m1_gives_tree(self):
        g = generate_pa(PaParams(n=3, m=1, b=1.0), seed=5)
        assert g.num_edges == 2
        for n in (10, 50):
            t = generate_pa(PaParams(n=n, m=1, b=1.0), seed=n)
            assert t.num_edges == n - 1
            # connectivity: breadth-first reach from node 0
            seen = {0}
            frontier = [0]
            while frontier:
                node = frontier.pop()
                for nb in t.neighbors(node):
                    if nb not in seen:
                        seen.add(nb)
                        frontier.append(nb)
            assert len(seen) == n

    def test_edge_count_formula(self):
        n, m = 50, 4
        g = generate_pa(PaParams(n=n, m=m, b=0.5), seed=3)
        assert g.num_edges == m * (m + 1) // 2 + (n - m - 1) * m

    def test_deterministic_for_seed(self):
        a = generate_pa(PaParams(n=80, m=3, b=1.0), seed=7)
        b = generate_pa(PaParams(n=80, m=3, b=1.0), seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PaParams(n=5, m=5, b=1.0)
        with pytest.raises(ValueError):
            PaParams(n=5, m=0, b=1.0)
        with pytest.raises(ValueError):
            PaParams(n=5, m=1, b=-1.0)
        for name, n, m in [("m", 10, 2.0), ("m", 10, True), ("n", 10.0, 2), ("n", np.True_, 1), ("m", 10, "2")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                PaParams(n=n, m=m, b=1.0)
        params = PaParams(n=np.int64(10), m=np.int32(1), b=1.0)  # numpy integers are stored as Python ints
        assert (type(params.n), type(params.m)) == (int, int) and generate_pa(params, 0).num_edges == 9

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan, 1e307])
    def test_rejects_non_finite_total_weight(self, b):
        # an infinite total weight sent every draw to one node and looped forever
        with pytest.raises(ValueError, match="finite"):
            PaParams(n=100, m=2, b=b)

    # trees (m = 1) keep the Fenwick stream of versions 1 and 2, which the cumulative-sum scan draws too;
    # powers of two and their neighbours put the Fenwick descent's top bit on its edge
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 300), st.sampled_from([2**e + d for e in range(1, 9) for d in (-1, 0, 1)])),
        b=st.sampled_from([-0.75, -0.5, 0.0, 0.5, 1.0, 2.25, 3.5]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_cumsum_oracle(self, n, b, seed):
        params = PaParams(n=max(n, 2), m=1, b=b)
        assert np.array_equal(generate_pa(params, seed).edges, dense_pa(params, seed).edges)

    @pytest.mark.parametrize("seed", [0, 20201])
    def test_matches_cumsum_oracle_at_ten_thousand_nodes(self, seed):
        params = PaParams(n=10_000, m=1, b=1.0)
        assert np.array_equal(generate_pa(params, seed).edges, dense_pa(params, seed).edges)

    # m >= 2: the blocks drawn at once in numpy give the one-uniform-at-a-time loop's graph bit for bit;
    # the pinned digests alone would miss a draw that drifts at another size, offset or seed
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(2, 12),
        n=st.integers(0, 2500),
        b=st.one_of(st.floats(-1, 4, exclude_min=True), st.integers(0, 4)),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_scalar_oracle(self, m, n, b, seed):
        params = PaParams(n=max(n, m + 1), m=m, b=b)
        assert np.array_equal(generate_pa(params, seed).edges, scalar_pa(params, seed).edges)

    # n = m + 1 and m + 2; m close to n; the first block (one step at n = 8 m**2 + 1); b = -0.99; and
    # n = 10**4, m = 5.  At (10_000, 5, 1.0, 2) and (3000, 5, -0.99, 0) a block's first step repeats a target.
    @pytest.mark.parametrize(
        "n, m, b, seed",
        [
            (3, 2, 1.0, 0),
            (4, 2, 1.0, 1),
            (13, 12, 0.5, 2),
            (14, 12, -0.99, 3),
            (40, 37, 2.0, 4),
            (201, 5, 1.0, 5),
            (202, 5, 1.0, 6),
            (3000, 5, -0.99, 0),
            (2500, 12, -0.99, 0),
            (10_000, 5, 1.0, 2),
        ],
    )
    def test_matches_scalar_oracle_at_edge_cases(self, n, m, b, seed):
        params = PaParams(n=n, m=m, b=b)
        assert np.array_equal(generate_pa(params, seed).edges, scalar_pa(params, seed).edges)

    # the blocks compute in float64, so an offset of a narrower numpy type draws as the float it holds
    @pytest.mark.parametrize("b", [np.float32(0.3), np.float16(-0.5)])
    def test_numpy_offset_draws_as_its_float(self, b):
        as_float = scalar_pa(PaParams(2000, 5, float(b)), 0)
        assert np.array_equal(generate_pa(PaParams(2000, 5, b), 0).edges, as_float.edges)

    # the graph does not depend on the block schedule: blocks from the first arrival, where repeats are
    # common, and blocks of one step, where every repeat is the first step of its block
    @pytest.mark.parametrize("one_by_one, block", [(0, (1, 1)), (0, (1, 4)), (0, (64, 4096)), (8, (2, 3))])
    @pytest.mark.parametrize("n, m, b", [(400, 2, -0.99), (600, 5, 1.0), (300, 12, 0.25)])
    def test_any_block_schedule_gives_the_oracle_graph(self, monkeypatch, one_by_one, block, n, m, b):
        monkeypatch.setattr(graphs, "_PA_ONE_BY_ONE", one_by_one)
        monkeypatch.setattr(graphs, "_PA_BLOCK", block)
        for seed in range(3):
            params = PaParams(n=n, m=m, b=b)
            assert np.array_equal(generate_pa(params, seed).edges, scalar_pa(params, seed).edges), seed

    # m >= 2 draws another stream than the scan, so its law is checked instead: every graph on n = m + 3
    # nodes against its exact probability under sequential weighted draws without replacement
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("b", [-0.5, 0.0, 1.0, 2.25])
    def test_every_small_graph_has_its_exact_probability(self, m, b):
        n, reps = m + 3, 4000
        law = _exact_pa_law(n, m, b)
        assert len(law) == math.comb(m + 1, m) * math.comb(m + 2, m) and math.isclose(sum(law.values()), 1.0)
        counts = dict.fromkeys(law, 0)
        for seed in range(reps):
            counts[generate_pa(PaParams(n, m, b), seed).edge_linear_indices().tobytes()] += 1  # KeyError off the law
        for key, p in law.items():
            assert abs(counts[key] / reps - p) <= 4 * math.sqrt(p * (1 - p) / reps), (m, b, key, counts[key], p)

    # a small graph's law barely depends on b, so the attachment weights are checked on longer graphs too:
    # at each arrival the degree sum of the m = 2 targets, against its exact conditional mean given the
    # degrees before the arrival; the deviations are martingale differences, so their sum is about normal
    @pytest.mark.parametrize("b", [-0.5, 0.0, 1.0, 2.25])
    def test_targets_degree_sum_has_its_exact_conditional_mean(self, b):
        n, dev, var = 40, 0.0, 0.0
        for seed in range(300):
            u, v = generate_pa(PaParams(n, 2, b), seed).edges.T
            deg = np.bincount(np.concatenate([u[v <= 2], v[v <= 2]]), minlength=n).astype(float)
            for t in range(3, n):
                d = deg[:t]
                w = d + b
                pair = (w / w.sum())[:, None] * w / (w.sum() - w)[:, None]  # first i, then j
                np.fill_diagonal(pair, 0.0)
                x = d[:, None] + d  # degree sum of targets {i, j}; pair sums to one over i != j
                mean = (pair * x).sum()
                var += (pair * x * x).sum() - mean**2
                dev += d[u[v == t]].sum() - mean
                deg[u[v == t]] += 1
                deg[t] = 2
        assert abs(dev) <= 4 * math.sqrt(var), (b, dev / math.sqrt(var))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 200),
        m=st.integers(1, 8),
        b=st.sampled_from([-0.75, -0.5, 0.0, 0.5, 1.0, 2.25, 3.5]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_each_arrival_has_m_distinct_earlier_targets(self, n, m, b, seed):
        params = PaParams(n=max(n, m + 1), m=m, b=b)
        n = params.n
        g = generate_pa(params, seed)
        v = g.edges[:, 1]  # canonical rows, u < v: each arrival v is the larger end of its edges
        assert g.num_edges == math.comb(m + 1, 2) + (n - m - 1) * m
        assert np.array_equal(np.bincount(v, minlength=n)[m + 1 :], np.full(n - m - 1, m))
        assert np.sum(v <= m) == math.comb(m + 1, 2)  # the seed clique
        assert np.array_equal(generate_pa(params, seed).edge_linear_indices(), g.edge_linear_indices())

    # SHA-256 of the little-endian edge bytes, pinned without the oracle.  The trees are stream versions 1
    # to 3, on which criterion 7 depends (the first is criterion 7's first n=2000 tree, seed
    # derive_seed(97001, 1, 3, 0)); m >= 2 is stream version 3, on which every bundled PA output depends
    # (n=2000, m=3 and n=10**4, m=5 are the benchmark's sizes)
    @pytest.mark.parametrize(
        "n, m, b, seed, digest",
        [
            (2000, 1, 1.0, 5259533341410379210, "6ce1e3dbb6f5f130892d63dde835920917eafab321f07584ef2ea260b489458c"),
            (2000, 1, 1.0, 0, "00a67de62e99ce688abdd79bb9b6a15cbdbe0c1af06d08250930631d7d2a265f"),
            (2000, 3, 1.0, 0, "3d8349622a683a5a28b655e7ac3b01032b5b95ae53109fd52edb6ff71f045815"),
            (10_000, 5, 1.0, 0, "0b875ddbdba6bd51bfa766a670143ef17f5aae86a59522e6fbb7fc0c4e2c50f0"),
            (257, 2, 0.5, 3, "e01c552b3e641b17552d9491cb552b1bd72676f119201ab822d302063a513a04"),
            (300, 2, 0.5, 3, "d8d9a3331d607fc1376116c7f169007116bf110f859296e47eaa1438963b5936"),
            (257, 2, -0.5, 3, "e3955e2d34ed3ef5d3b55c8ecd8561d22fe67297c0c2da00c94f884d6e850aeb"),
            (300, 2, -0.5, 3, "82f404d14c1b45ba02bcdb3a32e569b24cd0b2bcfa2c97e67359404ff9f7da16"),
        ],
    )
    def test_stream_is_pinned(self, n, m, b, seed, digest):
        edges = generate_pa(PaParams(n=n, m=m, b=b), seed).edges
        assert hashlib.sha256(edges.astype("<i8").tobytes()).hexdigest() == digest

    def test_hundred_thousand_nodes_is_fast(self):
        # a cumulative-sum scan per arrival is O(n**2): about 45 s at this size on a 2-core x86 VM
        n, m = 100_000, 2
        start = time.perf_counter()
        g = generate_pa(PaParams(n=n, m=m, b=1.0), seed=3)
        elapsed = time.perf_counter() - start
        assert g.num_edges == m * (m + 1) // 2 + (n - m - 1) * m
        assert elapsed < 10.0, f"generate_pa took {elapsed:.1f}s at n={n}"

    def test_power_law_tail_exponent(self):
        # linear attachment with offset b has CCDF exponent 3 + b/m
        estimates = []
        for seed in range(50):
            g = generate_pa(PaParams(n=5000, m=5, b=1.0), seed=seed)
            d = np.sort(g.degree_array())[::-1]
            estimates.append(hill_tail_exponent(d, top_fraction=0.05))
        assert 2.5 <= float(np.mean(estimates)) <= 3.5


class TestSmallWorld:
    def test_no_rewire_is_ring(self):
        g = generate_small_world(10, 2, 0.0, seed=0)
        assert g.num_edges == 10
        assert g.degree_array().tolist() == [2] * 10
        assert all(abs(int(u) - int(v)) in (1, 9) for u, v in g.edges)

    def test_edge_count_preserved(self):
        g = generate_small_world(250, 24, 0.1, seed=11)
        assert g.num_edges == 250 * 24 // 2
        assert 2 * g.num_edges / 250 == 24.0

    def test_rewiring_creates_degree_variance(self):
        g = generate_small_world(250, 24, 0.1, seed=11)
        assert g.degree_array().var() > 0

    def test_deterministic_for_seed(self):
        a = generate_small_world(60, 6, 0.3, seed=2)
        b = generate_small_world(60, 6, 0.3, seed=2)
        assert np.array_equal(a.edges, b.edges)

    def test_rejects_odd_or_large_ring(self):
        with pytest.raises(ValueError):
            generate_small_world(10, 3, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_small_world(10, 10, 0.1, seed=0)

    def test_saturated_nodes_keep_their_lattice_edges(self):
        # a ring of degree 4 on 5 nodes is complete: no node has a legal rewiring target left
        g = generate_small_world(5, 4, 1.0, seed=3)
        assert g.edges.tolist() == [[u, v] for u in range(5) for v in range(u + 1, 5)]


class TestDegrees:
    def test_empty_graph(self):
        assert _graph(3, []).degree_array().tolist() == [0, 0, 0]

    def test_path(self):
        assert _graph(3, [[0, 1], [1, 2]]).degree_array().tolist() == [1, 2, 1]

    def test_star(self):
        assert _graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]]).degree_array().tolist() == [4, 1, 1, 1, 1]

    def test_order_sorts_ties_by_node_id(self, monkeypatch):
        # figure1 ranks nodes by true degree; on an all-ties graph that is node id order
        tied = _graph(4, [[0, 1], [2, 3]])
        monkeypatch.setattr(experiments, "make_graph", lambda *args: tied)
        profile = experiments.run_figure1_profile(n=4, mean_degree=2, noise=NoiseParams(0.0, 0.0), seed=0)
        for entry in profile["models"].values():
            assert [r[1] for r in entry["rows"]] == [0, 1, 2, 3]

    def test_generators_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            for g in (
                generate_er(30, rng.uniform(0.05, 0.6), seed=seed),
                generate_pa(PaParams(n=30, m=2, b=1.0), seed=seed),
                generate_small_world(30, 4, 0.2, seed=seed),
            ):
                assert np.all(g.edges[:, 0] < g.edges[:, 1])
                assert g.degree_array().sum() == 2 * g.num_edges


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = generate_er(25, 0.3, seed=4)
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        h = load_edge_list(path)
        assert h.n == g.n
        assert np.array_equal(h.edges, g.edges)

    def test_header_format(self, tmp_path):
        g = _graph(4, [[0, 2], [1, 3]])
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# n=4"
        assert lines[1:] == ["0 2", "1 3"]

    @pytest.mark.parametrize(
        "g",
        [
            _graph(5, []),
            _graph(2, [[0, 1]]),
            generate_er(300, 0.5, seed=3),
            generate_er(400, 0.9, seed=3),
            _graph(200_001, [[0, 100_000], [7, 123_456], [100_001, 200_000]]),
        ],
        ids=["empty", "one-edge", "dense-er", "more-rows-than-one-write", "ids-above-1e5"],
    )
    def test_bytes_equal_savetxt(self, tmp_path, g):
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        ref = io.StringIO()
        np.savetxt(ref, g.edges, fmt="%d")
        assert path.read_bytes() == f"# n={g.n}\n{ref.getvalue()}".encode("ascii")

    def test_load_rejects_bad_order(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# n=3\n2 1\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_empty_edge_list_loads_without_warning(self, tmp_path):
        path = tmp_path / "empty.edges"
        save_edge_list(_graph(3, []), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_edge_list(path)
        assert g.n == 3 and g.num_edges == 0

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0 1\n\n1 2 3\n", 4),
            ("0 1\n1 x\n", 3),
            ("0 1 2\n", 2),
            ("0 1\n\n\n2 9\n", 5),
            ("0 1\n-1 2\n", 3),
        ],
    )
    def test_load_error_names_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "bad.edges"
        path.write_text("# n=4\n" + body)
        with pytest.raises(ValueError, match=rf"bad\.edges\W*:{line}:"):
            load_edge_list(path)

    def test_duplicate_row_is_named(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# n=4\n0 1\n1 2\n0 1\n")
        with pytest.raises(ValueError, match=r"bad\.edges\W*:4: duplicate edge \(0, 1\)"):
            load_edge_list(path)

    def test_zero_node_header_names_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# n=0\n")
        with pytest.raises(ValueError, match=r"bad\.edges.*need at least one node"):
            load_edge_list(path)

    def test_unparsable_header_names_file(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# n=abc\n0 1\n")
        with pytest.raises(ValueError, match=r"bad\.edges.*# n=abc"):
            load_edge_list(path)
