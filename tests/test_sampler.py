"""The geometric-skip edge-flip sampler behind generate_er and apply_noise.

Its law is checked against the exact enumeration and against the dense
per-pair oracle in conftest; its edge cases and its cost are checked
directly, and the pairs it adds are checked against the complement of the
edges on graphs with and without the dense graphs' absent-pair table.  Its
gaps must equal numpy's Generator.geometric bit for bit, and its endpoint
counter must equal a bincount of the decoded pairs.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisytopk import (
    Graph,
    NoiseParams,
    PaParams,
    apply_noise,
    generate_er,
    generate_pa,
    noisy_degree_array,
    pair_index,
)
from noisytopk.graphs import _absent_pair_indices, _flip_picks, _layout, _picked_counts, _skip_positions
from conftest import (
    dense_noise,
    edge_set,
    exact_noise_distribution,
    geometric_skip_positions,
    pair_from_index,
    random_edges,
)


def _graph(n, edges):
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


def _complete(n):
    return _graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _is_canonical(g: Graph) -> bool:
    lin = g.edge_linear_indices()
    return (
        bool(np.all(g.edges[:, 0] < g.edges[:, 1]))
        and bool(np.all(np.diff(lin) > 0))
        and np.array_equal(lin, pair_index(g.n, g.edges[:, 0], g.edges[:, 1]))
    )


TOY_GRAPHS = {
    "empty-4": _graph(4, []),
    "complete-4": _complete(4),
    "path-4": _graph(4, [[0, 1], [1, 2], [2, 3]]),
    "star-5": _graph(5, [[0, 1], [0, 2], [0, 3], [0, 4]]),
}


@pytest.mark.parametrize("name", sorted(TOY_GRAPHS))
def test_histogram_matches_exact_distribution(name):
    g = TOY_GRAPHS[name]
    params = NoiseParams(0.3, 0.2)
    exact = {frozenset(map(tuple, y.edges.tolist())): p for y, p in exact_noise_distribution(g, params)}
    reps = 6000
    counts = dict.fromkeys(exact, 0)
    for r in range(reps):
        counts[frozenset(map(tuple, apply_noise(g, params, seed=r).edges.tolist()))] += 1
    for key, p in exact.items():
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(counts[key] / reps - p) <= 5 * se + 1.0 / reps, (sorted(key), counts[key] / reps, p)


@pytest.mark.parametrize(("n", "density", "alpha", "beta"), [(60, 0.3, 0.05, 0.1), (120, 0.05, 0.002, 0.5)])
def test_agrees_with_dense_oracle_in_law(n, density, alpha, beta):
    g = random_edges(np.random.default_rng(n), n, density)
    params = NoiseParams(alpha, beta)
    reps = 1500
    oracle_rng = np.random.default_rng(7)
    ours = np.array([apply_noise(g, params, seed=r).num_edges for r in range(reps)], dtype=float)
    dense = np.array([dense_noise(g, params, oracle_rng).num_edges for _ in range(reps)], dtype=float)
    se = math.sqrt(ours.var(ddof=1) / reps + dense.var(ddof=1) / reps)
    assert abs(ours.mean() - dense.mean()) <= 4 * se
    n_pairs = n * (n - 1) // 2
    expected = g.num_edges * (1 - beta) + (n_pairs - g.num_edges) * alpha
    assert abs(ours.mean() - expected) <= 4 * ours.std(ddof=1) / math.sqrt(reps)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_degenerate_rates_are_deterministic(alpha, beta):
    g = generate_er(30, 0.3, seed=4)
    y = apply_noise(g, NoiseParams(alpha, beta), seed=11)
    present = edge_set(g)
    absent = edge_set(_complete(30)) - present
    want = (present if beta == 0.0 else set()) | (absent if alpha == 1.0 else set())
    assert edge_set(y) == want
    assert _is_canonical(y)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
def test_one_and_two_node_graphs(alpha, beta):
    params = NoiseParams(alpha, beta)
    assert apply_noise(_graph(1, []), params, seed=0).num_edges == 0
    assert generate_er(1, alpha, seed=0).num_edges == 0
    for edges in ([], [[0, 1]]):
        for seed in range(10):
            y = apply_noise(_graph(2, edges), params, seed=seed)
            assert y.num_edges in (0, 1) and _is_canonical(y)
            if (edges and beta == 0.0) or (not edges and alpha == 1.0):
                assert y.num_edges == 1
            if (edges and beta == 1.0) or (not edges and alpha == 0.0):
                assert y.num_edges == 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    density=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    beta=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_output_is_canonical_and_flips_only_what_it_may(n, density, alpha, beta, seed):
    g = random_edges(np.random.default_rng(seed % 1000), n, density)
    present = edge_set(g)
    kept_only = apply_noise(g, NoiseParams(0.0, beta), seed)
    added_only = apply_noise(g, NoiseParams(alpha, 0.0), seed)
    both = apply_noise(g, NoiseParams(alpha, beta), seed)
    assert _is_canonical(kept_only) and _is_canonical(added_only) and _is_canonical(both)
    assert edge_set(kept_only) <= present
    assert edge_set(added_only) >= present


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200_000),
    data=st.data(),
)
def test_pair_index_round_trip(n, data):
    n_pairs = n * (n - 1) // 2
    idx = np.array(
        data.draw(st.lists(st.integers(min_value=0, max_value=max(n_pairs - 1, 0)), max_size=50 if n_pairs else 0)),
        dtype=np.int64,
    )
    u, v = pair_from_index(n, idx)
    assert np.all((0 <= u) & (u < v) & (v < n))
    assert np.array_equal(pair_index(n, u, v), idx)
    # a graph decodes its sorted run of indices from the row layout it stores
    lin = np.unique(idx)
    edges = Graph._from_sorted(n, lin).edges
    assert edges.shape == (lin.size, 2)
    assert np.array_equal(edges, np.column_stack(pair_from_index(n, lin)))


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=5000),
    q=st.sampled_from([0.0, 1e-12, 1e-3, 0.2, 0.5, 0.99, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_skip_positions_are_sorted_distinct_and_in_range(size, q, seed):
    pos = _skip_positions(np.random.default_rng(seed), size, q)
    assert pos.dtype == np.int64
    assert np.all(np.diff(pos) > 0)
    assert pos.size == 0 or (pos[0] >= 0 and pos[-1] < size)
    if q == 1.0:
        assert np.array_equal(pos, np.arange(size))
    if q == 0.0:
        assert pos.size == 0


BELOW_THIRD = float(np.nextafter(1 / 3, 0))


@settings(max_examples=300, deadline=None)
@given(
    q=st.one_of(
        st.floats(min_value=1e-12, max_value=BELOW_THIRD),
        # the last two overflow a gap unless it is clipped at size + 1
        st.sampled_from([1e-12, BELOW_THIRD, 1 / 3, 0.5, 1.0, 1e-300, 5e-324]),
    ),
    size=st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=0, max_value=200_000)),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_skip_positions_equal_the_geometric_oracle_bit_for_bit(q, size, seed):
    # below 1/3 the gaps come from the exponential stream as in numpy's inversion branch of geometric
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _skip_positions(rng, size, q)
    want = geometric_skip_positions(oracle_rng, size, q)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), "numpy's Generator.geometric no longer matches its inversion formula"
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=300)),
    density=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 0.9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_endpoint_counts_equal_a_bincount_of_the_decoded_pairs(n, density, seed):
    n_pairs = n * (n - 1) // 2
    lin = np.flatnonzero(np.random.default_rng(seed).random(n_pairs) < density).astype(np.int64)
    got = _picked_counts(n, *_layout(n, lin))
    assert got.dtype == np.int64
    assert np.array_equal(got, np.bincount(np.concatenate(pair_from_index(n, lin)), minlength=n))


def test_endpoint_counts_on_a_few_pairs_of_a_large_graph():
    n = 100_000
    lin = np.unique(np.random.default_rng(2).integers(0, n * (n - 1) // 2, 50))
    want = np.bincount(np.concatenate(pair_from_index(n, lin)), minlength=n)
    assert np.array_equal(_picked_counts(n, *_layout(n, lin)), want)
    assert np.array_equal(_picked_counts(n, *_layout(n, lin[:0])), np.zeros(n, dtype=np.int64))


def test_large_sparse_graph_needs_no_per_pair_array():
    # P is about 5e9 here: a per-pair array would take tens of gigabytes
    n = 100_000
    path = _graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
    started = time.perf_counter()
    y = apply_noise(path, NoiseParams(1e-7, 0.01), seed=3)
    took = time.perf_counter() - started
    assert took < 5.0
    assert _is_canonical(y)
    expected = (n - 1) * 0.99 + (n * (n - 1) // 2 - (n - 1)) * 1e-7
    assert abs(y.num_edges - expected) <= 4 * math.sqrt(expected)


RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def dense_and_sparse_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32))
    kind = draw(st.sampled_from(["er", "pa", "boundary", "tiny", "empty", "complete"]))
    if kind == "er":
        return generate_er(draw(st.integers(1, 80)), draw(st.floats(min_value=0.0, max_value=1.0)), seed)
    if kind == "pa":
        n = draw(st.integers(2, 80))
        return generate_pa(PaParams(n, draw(st.integers(1, min(n - 1, 5))), 1.0), seed)
    if kind == "boundary":
        # P - m = 6m exactly when m = P / 7; one edge fewer puts the graph on the sparse side
        n = draw(st.sampled_from([7, 8, 14, 15, 21, 22, 28, 29]))
        n_pairs = n * (n - 1) // 2
        m = n_pairs // 7 + draw(st.sampled_from([-1, 0]))
        lin = np.sort(np.random.default_rng(seed).choice(n_pairs, m, replace=False))
        return Graph(n, np.column_stack(pair_from_index(n, lin)))
    n = draw(st.integers(1, 2)) if kind == "tiny" else draw(st.integers(1, 40))
    return _complete(n) if kind == "complete" else _graph(n, [])


def _decode_rows(n, firsts, cols):
    """The linear pair indices of a row layout: each row's first position (n + 1 of them) and each pair's column."""
    rows = np.repeat(np.arange(n), np.diff(firsts))
    return pair_index(n, rows, cols)


@settings(max_examples=300, deadline=None)
@given(g=dense_and_sparse_graphs(), alpha=RATES, beta=RATES, seed=st.integers(min_value=0, max_value=2**63))
def test_added_pairs_are_the_absent_pairs_of_the_drawn_ranks(g, alpha, beta, seed):
    lin = g.edge_linear_indices()
    n_pairs, m = g.n * (g.n - 1) // 2, lin.size
    deleted, ranks = _flip_picks(g, alpha, beta, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    assert np.array_equal(deleted, _skip_positions(rng, m, beta))
    assert np.array_equal(ranks, _skip_positions(rng, n_pairs - m, alpha))
    added = _absent_pair_indices(g, ranks)
    assert added.dtype == np.int64
    absent = np.setdiff1d(np.arange(n_pairs), lin)
    assert np.array_equal(added, absent[ranks])
    table = g._absent_pairs()
    assert (table is not None) == (n_pairs - m <= 6 * m)
    if table is not None:
        assert np.array_equal(_decode_rows(g.n, *table), absent)
        assert table[1].nbytes <= 1.5 * lin.nbytes and table[0].nbytes == 8 * (g.n + 1)


def test_dense_graph_builds_its_absent_pair_table_once():
    g = generate_er(300, 0.25, seed=5)
    noisy_degree_array(g, NoiseParams(0.0, 0.05), seed=0)
    assert "_absent" not in g.__dict__  # a draw that adds no pair needs no table
    noisy_degree_array(g, NoiseParams(0.05, 0.05), seed=1)
    table = g.__dict__["_absent"]
    for seed in range(2, 6):
        noisy_degree_array(g, NoiseParams(0.03, 0.05), seed)
        apply_noise(g, NoiseParams(0.01, 0.2), seed)
        assert g.__dict__["_absent"] is table and g._absent_pairs() is table
    firsts, cols = table
    assert cols.dtype == np.uint16 and firsts.dtype == np.int64
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    n_pairs, lin = g.n * (g.n - 1) // 2, g.edge_linear_indices()
    assert n_pairs - lin.size <= 6 * lin.size
    assert np.array_equal(_decode_rows(g.n, firsts, cols), np.setdiff1d(np.arange(n_pairs), lin))
    assert cols.nbytes <= 1.5 * lin.nbytes and firsts.nbytes == 8 * (g.n + 1)


def test_sparse_graph_builds_no_absent_pair_table():
    g = generate_pa(PaParams(10_000, 5, 1.0), seed=3)
    noisy_degree_array(g, NoiseParams(1e-3, 0.05), seed=1)
    assert "_absent" not in g.__dict__
    assert g._absent_pairs() is None


def test_dense_graph_stores_ten_bytes_an_edge_and_two_an_absent_pair():
    # after every reader of its layout has run; the cached adjacency matrix is scipy's and not counted
    n = 1000
    g = generate_er(n, 0.25, seed=7)
    noisy_degree_array(g, NoiseParams(0.02, 0.1), seed=1)
    apply_noise(g, NoiseParams(0.02, 0.1), seed=2)
    g.degree_array()
    adj = g.adjacency_csr()
    arrays = [a for v in vars(g).values() for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    assert len(arrays) == 6  # _lin, _indptr, _cols, _deg and the two of the absent-pair table
    assert all(a.ndim == 1 for a in [*arrays, adj.data, adj.indices, adj.indptr])  # no (m, 2) array
    m, n_pairs = g.num_edges, n * (n - 1) // 2
    assert g._absent_pairs()[1].nbytes == 2 * (n_pairs - m)
    assert sum(a.nbytes for a in arrays) <= 10 * m + 2 * (n_pairs - m) + 24 * (n + 1)
    # what the arrays keep alive, spare room of the buffers they view included
    assert sum((a if a.base is None else a.base).nbytes for a in arrays) <= 2 * 2**20
