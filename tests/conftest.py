"""Shared oracles and helpers for the test suite.

The dense eigensolver, the dense per-pair noise sampler, the skip sampler
on numpy's geometric, the cumulative-sum preferential attachment loop, the
one-uniform-at-a-time preferential attachment loop for m >= 2, the exact
noise enumeration and its statistics, the pair-index decoder, the
COO adjacency build, the rank-by-rank i_star scan, the set-based top-k
Jaccard and the quadrature normal CDF are independent reference
implementations; library code must match them, never the other way around.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Iterator

import numpy as np
import scipy.integrate
import scipy.linalg
from hypothesis import strategies as st
from scipy import sparse

from noisytopk import (
    Graph,
    NoiseParams,
    PaParams,
    TopKSet,
    hamming_bounds_realization,
)
from noisytopk.bounds import _ranked
from noisytopk.graphs import _stream_rng

# exact enumeration is exponential in the pair count; keep it to toy sizes
MAX_EXACT_PAIRS = 20


def pair_from_index(n: int, idx):
    """Invert noisytopk.pair_index: linear indices back to (u, v) arrays."""
    idx = np.asarray(idx, dtype=np.int64)
    r = np.arange(n, dtype=np.int64)
    row_starts = r * (2 * n - r - 1) // 2
    u = np.searchsorted(row_starts, idx, side="right") - 1
    v = idx - row_starts[u] + u + 1
    return u, v


def edge_set(g: Graph) -> set[tuple[int, int]]:
    """The edges of g as a set of (u, v) tuples, u < v."""
    return set(zip(g.edges[:, 0].tolist(), g.edges[:, 1].tolist()))


def exact_noise_distribution(a: Graph, params: NoiseParams) -> Iterator[tuple[Graph, float]]:
    """Enumerate every possible observation of a with its exact probability.

    Yields (graph, probability) pairs over all 2**P outcomes, P = C(n, 2).
    Probabilities sum to 1 up to floating point roundoff.  Refuses graphs
    with more than MAX_EXACT_PAIRS pairs.
    """
    n = a.n
    n_pairs = n * (n - 1) // 2
    if n_pairs > MAX_EXACT_PAIRS:
        raise ValueError(
            f"exact enumeration needs C(n,2) <= {MAX_EXACT_PAIRS}, got {n_pairs}"
        )
    alpha, beta = params.alpha, params.beta

    present = np.zeros(n_pairs, dtype=bool)
    present[a.edge_linear_indices()] = True

    total = 1 << n_pairs
    outcomes = np.arange(total, dtype=np.int64)
    probs = np.ones(total, dtype=np.float64)
    for p in range(n_pairs):
        edge, no_edge = (1.0 - beta, beta) if present[p] else (alpha, 1.0 - alpha)
        probs *= np.where((outcomes >> p) & 1, edge, no_edge)

    for o in range(total):
        idx = np.flatnonzero((o >> np.arange(n_pairs, dtype=np.int64)) & 1)
        yield Graph._from_sorted(n, idx), float(probs[o])


def geometric_skip_positions(rng: np.random.Generator, size: int, q: float) -> np.ndarray:
    """Reference skip sampler: noisytopk.graphs._skip_positions with its gaps from rng.geometric.

    The library computes the gaps for q < 1/3 from the standard-exponential
    stream, as numpy's own inversion branch of Generator.geometric does; this
    oracle calls geometric itself, so a numpy that changes that branch shows
    up as a mismatch here rather than as a silent change of random stream.
    """
    runs = [np.empty(0, dtype=np.int64)]
    last = -1
    while q > 0.0 and last < size - 1:
        expected = (size - 1 - last) * q
        gaps = np.minimum(rng.geometric(q, int(expected + 4.0 * expected**0.5) + 16), size + 1)
        picks = last + np.cumsum(gaps)
        runs.append(picks[picks < size])
        last = int(picks[-1])
    return np.concatenate(runs)


def dense_top2(g: Graph):
    """Reference (lambda1, lambda2, x) from a dense symmetric eigensolver.

    x is sign-aligned so its largest-magnitude entry is positive, matching
    the library convention.
    """
    a = np.zeros((g.n, g.n), dtype=float)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    vals, vecs = scipy.linalg.eigh(a)
    lam1 = float(vals[-1])
    lam2 = float(vals[-2]) if g.n >= 2 else lam1
    x = vecs[:, -1]
    pivot = np.argmax(np.abs(x))
    if x[pivot] < 0:
        x = -x
    return lam1, lam2, x


def dense_noise(g: Graph, params: NoiseParams, rng: np.random.Generator) -> Graph:
    """Reference noise draw: one uniform per node pair in lexicographic order.

    A present edge survives when its uniform is >= beta, an absent pair
    becomes an edge when its uniform is < alpha.  This costs O(n**2) time
    and memory, so it only checks the library's sampler in law.
    """
    n = g.n
    u = rng.random(n * (n - 1) // 2)
    present = g.edge_linear_indices()
    added = u < params.alpha
    added[present] = False
    lin = np.sort(np.concatenate([present[u[present] >= params.beta], np.flatnonzero(added)]))
    return Graph(n, np.column_stack(pair_from_index(n, lin)))


def dense_pa(params: PaParams, seed: int) -> Graph:
    """Reference preferential attachment trees: a fresh cumulative sum of deg + b per arrival.

    Draws one scalar uniform per attempt from the same stream as
    generate_pa and takes the first node whose cumulative weight exceeds
    u * total, rejecting repeats within a step.  That is generate_pa's stream
    for m = 1, which it is the oracle for; for m >= 2 it is stream version 2,
    which generate_pa left for the list of earlier targets in version 3
    (scalar_pa is the oracle for m >= 2).
    This costs O(n**2), so it only checks the library's sampler on small and
    medium n.
    """
    n, m, b = params.n, params.m, params.b
    rng = _stream_rng(seed, "pa")
    us, vs = np.triu_indices(m + 1, k=1)
    src, dst = [us.astype(np.int64)], [vs.astype(np.int64)]
    deg = np.zeros(n, dtype=np.int64)
    deg[: m + 1] = m
    for t in range(m + 1, n):
        cum = np.cumsum(deg[:t] + b, dtype=np.float64)
        chosen: list[int] = []
        while len(chosen) < m:
            j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            if j not in chosen:
                chosen.append(j)
        targets = np.array(chosen, dtype=np.int64)
        deg[targets] += 1
        deg[t] = m
        src.append(targets)
        dst.append(np.full(m, t, dtype=np.int64))
    return Graph(n, np.column_stack([np.concatenate(src), np.concatenate(dst)]))


def scalar_pa(params: PaParams, seed: int) -> Graph:
    """Reference preferential attachment for m >= 2: stream version 3 drawn one uniform at a time.

    A node's weight deg + b is the m + b it arrived with plus its picks so far, so a
    uniform over the total weight falls on the list of earlier picks, and takes the
    pick at that position, or on a node below t, each weighing m + b; a repeat within
    a step draws again.  This is the plain loop that generate_pa's blocks must match
    bit for bit, at O(1) Python work per draw.
    """
    n, m, b = params.n, params.m, params.b
    rng = _stream_rng(seed, "pa")
    draws = chain.from_iterable(rng.random(min((n - m - 1) * m, 4096)).tolist() for _ in repeat(None))
    targets: list[int] = []
    base = m + b
    for t in range(m + 1, n):
        total = (size := len(targets)) + base * t
        chosen: list[int] = []
        while len(chosen) < m:  # rejecting repeats samples without replacement
            x = next(draws) * total
            j = targets[int(x)] if x < size else min(int((x - size) / base), t - 1)  # min: rounding at the top
            if j not in chosen:
                chosen.append(j)
        targets += chosen
    rest = np.column_stack([np.array(targets, dtype=np.int64), np.repeat(np.arange(m + 1, n), m)])
    return Graph(n, np.concatenate([np.column_stack(np.triu_indices(m + 1, k=1)), rest]))


def expected_hamming_given_outcome(noisy_degrees, true_set: frozenset, k: int) -> float:
    """E[d_H | Y] under uniform tie-breaking of the noisy top-k cutoff.

    With t the (k+1)-th largest noisy score, every node above t is always
    selected and the remaining slots are a uniform subset of the nodes
    tied at t, so |selected ∩ S_k| has a hypergeometric mean.
    """
    s = np.asarray(noisy_degrees, dtype=float)
    n = s.size
    t = np.partition(s, n - k - 1)[n - k - 1]
    members = np.zeros(n, dtype=bool)
    members[list(true_set)] = True
    above = s > t
    tied = s == t
    slots = k - int(above.sum())
    mean_overlap = float(np.count_nonzero(above & members))
    n_tied = int(tied.sum())
    if slots > 0 and n_tied > 0:
        mean_overlap += slots * np.count_nonzero(tied & members) / n_tied
    return 2.0 * k - 2.0 * mean_overlap


def jaccard(a: TopKSet, b: TopKSet) -> float:
    """Intersection over union of two top-k sets, in [0, 1], from their member sets."""
    if not a.members or not b.members:
        raise ValueError("jaccard needs non-empty sets")
    return len(a.members & b.members) / len(a.members | b.members)


def exact_stats(g: Graph, params: NoiseParams, true_topk, k: int):
    """Exact (E[d_H], E[lower], E[upper]) via full noise enumeration."""
    e_dh = e_lo = e_up = 0.0
    total = 0.0
    for outcome, prob in exact_noise_distribution(g, params):
        deg = outcome.degree_array()
        e_dh += prob * expected_hamming_given_outcome(deg, true_topk.members, k)
        hb = hamming_bounds_realization(true_topk, outcome.degree_array())
        e_lo += prob * hb.lower
        e_up += prob * hb.upper
        total += prob
    assert abs(total - 1.0) <= 1e-12
    return e_dh, e_lo, e_up


def normal_cdf_quadrature(x: float) -> float:
    """Phi(x) by adaptive quadrature of the Gaussian density."""
    if x >= 0:
        tail, _ = scipy.integrate.quad(
            lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), x, math.inf
        )
        return 1.0 - tail
    tail, _ = scipy.integrate.quad(
        lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi), -math.inf, x
    )
    return tail


def random_edges(rng: np.random.Generator, n: int, density: float = 0.4) -> Graph:
    """A random simple graph for oracle comparisons, direct pair sampling."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < density
    edges = [pair for pair, flag in zip(pairs, keep) if flag]
    return Graph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


def hill_tail_exponent(degrees_sorted_desc, top_fraction: float = 0.05) -> float:
    """Hill estimate of the CCDF tail exponent from the largest degrees.

    Uses the top `top_fraction` of the sample: exponent = 1 + 1/gamma with
    gamma the mean log-ratio against the cutoff order statistic.
    """
    d = np.asarray(degrees_sorted_desc, dtype=float)
    m = max(2, int(top_fraction * d.size))
    cutoff = d[m]
    ratios = np.log(d[:m] / cutoff)
    gamma = float(ratios.mean())
    return 1.0 + 1.0 / gamma


def coo_adjacency(g: Graph) -> sparse.csr_matrix:
    """The symmetric CSR adjacency of g built from both orientations of every edge in COO form."""
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    return sparse.csr_matrix((np.ones(2 * g.num_edges), (rows, cols)), shape=(g.n, g.n))


@st.composite
def graphs_with_isolated_nodes(draw):
    """Graphs on 1..40 nodes: edgeless, a complete graph on some of the nodes, or random pairs."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if kind == "complete":
        u, v = np.triu_indices(draw(st.integers(1, n)), k=1)
        return Graph(n, np.column_stack([u, v]))
    n_pairs = n * (n - 1) // 2
    lin = draw(st.sets(st.integers(0, n_pairs - 1), max_size=80)) if kind == "random" and n_pairs else set()
    return Graph(n, np.column_stack(pair_from_index(n, np.array(sorted(lin), dtype=np.int64))).reshape(-1, 2))


def default_i_star_scan(degrees, k: int, params: NoiseParams) -> int:
    """bounds.default_i_star as a scan of the ranks k+1..n-2 in increasing order with math.log."""
    d_sorted, contraction, mom = _ranked(degrees, k, params)
    n = d_sorted.size
    degree, sigma = d_sorted.tolist(), mom.sigma.tolist()
    for i in range(k + 1, n - 1):
        need = 2.0 * math.sqrt(2.0 * math.log(n - i + 1)) * sigma[i - 1] / contraction
        if degree[k - 1] - degree[i - 1] >= need:
            return i
    return k + 1
