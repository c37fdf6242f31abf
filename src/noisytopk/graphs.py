"""Random graph generators, edge-flip noise and the shared immutable graph container.

Graphs are simple and undirected, nodes are 0..n-1, and edges are stored
once in canonical form: an (m, 2) int64 array with edges[:, 0] < edges[:, 1]
and rows sorted lexicographically.  All generators are pure functions of
their parameters and an explicit integer seed.

An observed graph Y is derived from a latent graph A by flipping each
node pair independently: an absent pair appears with probability alpha,
a present edge disappears with probability beta.  One skip sampler draws
the flips, over the present edges and over the absent pairs, so a draw
costs time and memory in proportion to the edges of A and Y rather than to
the n(n-1)/2 pairs; generate_er is the flips of the empty graph.
Realizations are reproducible bit-for-bit for a fixed seed, each consumer
on a stream of its own (see STREAM_VERSION).  Where only degrees are read,
noisy_degree_array counts the endpoints of the same flips without building
Y and is bit-identical to apply_noise(a, params, seed).degree_array().
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "Graph",
    "PaParams",
    "generate_er",
    "generate_pa",
    "generate_small_world",
    "save_edge_list",
    "load_edge_list",
    "pair_index",
    "NoiseParams",
    "apply_noise",
    "noisy_degree_array",
]


def pair_index(n: int, u, v):
    """Linear index of the unordered pair (u, v), u < v, in lexicographic order."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def _integers(values, what: str) -> np.ndarray:
    """values as int64: integers and integral floats load; bool, fractional, non-finite or non-numeric entries raise."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf" or (a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.floor(a)))):
        raise ValueError(f"{what} must be integers")
    return a.astype(np.int64, copy=False)


def _row_counts(n: int, lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted linear indices: the count in each row u, and the offset by which u's indices exceed their column."""
    r = np.arange(n, dtype=np.int64)
    row_starts = r * (2 * n - r - 1) // 2
    return np.diff(np.searchsorted(lin, row_starts), append=lin.size), row_starts - r - 1


def _edges_from_sorted(n: int, lin: np.ndarray) -> np.ndarray:
    """The (m, 2) edge array of sorted linear indices, decoded by counting the indices of each row."""
    counts, offsets = _row_counts(n, lin)
    edges = np.empty((lin.size, 2), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(n, dtype=np.int64), counts)
    # written in place: a second full-size temporary made dense draws about a third slower
    np.subtract(lin, np.repeat(offsets, counts), out=edges[:, 1])
    return edges


def _endpoint_counts(n: int, lin: np.ndarray) -> np.ndarray:
    """How many of the pairs with sorted linear indices lin touch each node (int64), decoding no pair."""
    counts, offsets = _row_counts(n, lin)
    return counts + np.bincount(lin - np.repeat(offsets, counts), minlength=n)


# Version of the random streams behind every seeded function.  Version 2 gives each
# consumer of a seed its own SeedSequence spawn key (PA keeps the root one, as in
# version 1), so equal seeds never correlate a graph with its noise; flips use skips.
STREAM_VERSION = 2
_SPAWN_KEYS = {"pa": (), "er": (1,), "sw": (2,), "noise": (3,), "tiebreak": (4,)}


def _check_seed(seed: int) -> None:
    """Reject a seed that is not a non-negative integer, naming it (SeedSequence's own error does not)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _stream_rng(seed: int, consumer: str) -> np.random.Generator:
    """The generator one consumer ('er', 'pa', 'sw', 'noise', 'tiebreak') draws from for seed."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_SPAWN_KEYS[consumer]))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with a canonical edge array.

    The constructor accepts edges in any row order and orientation,
    canonicalizes them, and rejects non-integral or out-of-range endpoints,
    self-loops, and duplicate pairs.  The stored arrays (edges, and their linear pair
    indices) are read-only so instances can be shared across threads and processes.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        e = _integers(self.edges, "edge endpoints")
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        lin = np.sort(pair_index(self.n, lo, hi))
        if np.any(np.diff(lin) == 0):
            raise ValueError("duplicate edges are not allowed")
        self._freeze(lin)

    def _freeze(self, lin: np.ndarray) -> None:
        """Store the sorted linear pair indices lin and the edge array decoded from them, both read-only."""
        edges = _edges_from_sorted(self.n, lin)
        edges.flags.writeable = False
        lin.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_lin", lin)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def degree_array(self) -> np.ndarray:
        """Degree of every node, indexed by node id (counted on the first call, read-only)."""
        if (deg := self.__dict__.get("_deg")) is None:
            object.__setattr__(self, "_deg", deg := _endpoint_counts(self.n, self._lin))
            deg.flags.writeable = False
        return deg

    def edge_linear_indices(self) -> np.ndarray:
        """Lexicographic linear index of every edge (sorted ascending, read-only)."""
        return self._lin

    def _absent_linear_indices(self) -> np.ndarray | None:
        """Sorted int32 linear indices of the absent pairs (built on the first call, read-only), or None
        unless they fit in the 24 bytes per edge that edges and _lin take (P - m <= 6m) and P < 2**31."""
        n_pairs, m = self.n * (self.n - 1) // 2, self.num_edges
        if n_pairs - m > 6 * m or n_pairs >= 2**31:
            return None
        if (table := self.__dict__.get("_absent")) is None:
            table, filled, starts = np.empty(n_pairs - m, dtype=np.int32), 0, range(0, n_pairs, 1 << 16)
            cuts = np.searchsorted(self._lin, [*starts, n_pairs])
            for i, start in enumerate(starts):  # 2**16 pairs at a time, so no temporary outgrows one chunk
                absent = np.ones(min(1 << 16, n_pairs - start), dtype=bool)
                absent[self._lin[cuts[i] : cuts[i + 1]] - start] = False
                idx = np.flatnonzero(absent)
                np.add(idx, start, out=table[filled : filled + idx.size], casting="unsafe")
                filled += idx.size
            table.flags.writeable = False
            object.__setattr__(self, "_absent", table)
        return table

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Symmetric adjacency matrix in CSR form (float64; built on the first call, read-only)."""
        if (adj := self.__dict__.get("_adj")) is None:
            from scipy import sparse  # on first use: the degree, noise and I/O paths never load scipy

            # the sorted pair indices are the upper triangle in CSR order already: no COO sort
            indptr = np.zeros(self.n + 1, dtype=np.int32)
            np.cumsum(_row_counts(self.n, self._lin)[0], out=indptr[1:])
            upper = sparse.csr_matrix(
                (np.ones(self.num_edges), self.edges[:, 1].astype(np.int32), indptr), shape=(self.n, self.n)
            )
            adj = upper + upper.T
            for arr in (adj.data, adj.indices, adj.indptr):
                arr.flags.writeable = False
            object.__setattr__(self, "_adj", adj)
        return adj

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i."""
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.n):
            raise ValueError(f"node {i} is not in range({self.n})")
        e = self.edges
        return np.sort(np.concatenate([e[e[:, 0] == i, 1], e[e[:, 1] == i, 0]]))

    @classmethod
    def _from_sorted(cls, n: int, lin: np.ndarray) -> "Graph":
        """The graph of the strictly increasing int64 linear pair indices lin, which the caller vouches for."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        g._freeze(lin)
        return g


@dataclass(frozen=True)
class PaParams:
    """Preferential attachment parameters: n nodes, m edges per arrival, offset b."""

    n: int
    m: int
    b: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if self.n < self.m + 1:
            raise ValueError(f"need n >= m+1, got n={self.n}, m={self.m}")
        # an infinite total weight would send every draw to one node and reject it forever
        if not (self.b > -1 and np.isfinite(self.n * (2 * self.m + self.b))):
            raise ValueError(f"attachment offset must exceed -1 and keep n*(2m+b) finite, got {self.b}")


def generate_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each of the n(n-1)/2 pairs is an edge with prob p.

    The edges are the picks of geometric skips (from exponentials for p < 1/3) over the
    pairs in lexicographic order, so the cost grows with the edge count, not with n**2,
    and the realization is reproducible bit-for-bit for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return _flip_pairs(Graph(n, np.empty((0, 2), dtype=np.int64)), p, 0.0, _stream_rng(seed, "er"))


def _skip_positions(rng: np.random.Generator, size: int, q: float) -> np.ndarray:
    """Sorted positions in range(size), each picked independently with probability q.

    Draws the geometric gaps between picks (Batagelj & Brandes, Phys. Rev. E 71, 2005), so the cost
    grows with the picks, not with size; for q < 1/3 a gap is ceil(E / -log1p(-q)) of an exponential E.
    """
    runs = [np.empty(0, dtype=np.int64)]
    last = -1
    while q > 0.0 and last < size - 1:
        count = int((expected := (size - 1 - last) * q) + 4.0 * expected**0.5) + 16
        if q < 1 / 3:  # numpy's own inversion in geometric, divided as there: a reciprocal rounds differently
            gaps = rng.standard_exponential(count)
            with np.errstate(over="ignore"):  # an infinite gap at q near 1e-308 is clipped below
                np.ceil(np.divide(gaps, -math.log1p(-q), out=gaps), out=gaps)
        else:
            gaps = rng.geometric(q, count)
        # a gap past size ends the run either way; clipping keeps the sum from overflowing
        gaps = np.minimum(gaps, size + 1, out=gaps).astype(np.int64, copy=False)
        picks = last + np.cumsum(gaps)
        runs.append(picks[picks < size])
        last = int(picks[-1])
    return np.concatenate(runs)


def _flip_picks(a: Graph, alpha: float, beta: float, rng: np.random.Generator):
    """The pairs one flip of every node pair of a changes: (deleted positions into its edges, added linear indices).

    Deleted edges are skip picks among the m present ones (beta), added pairs are skip picks among the
    ranks of the absent pairs (alpha), both sorted, so a draw costs O(m + alpha * n**2), not O(n**2).
    A dense graph pays once for an O(n**2) int32 table of its absent pairs, and a rank is then one
    gather; on a sparse graph each draw binary-searches the present indices instead.
    """
    present = a.edge_linear_indices()
    m = present.size
    deleted = _skip_positions(rng, m, beta)
    ranks = _skip_positions(rng, a.n * (a.n - 1) // 2 - m, alpha)
    if ranks.size and (absent := a._absent_linear_indices()) is not None:  # alpha = 0 builds no table
        return deleted, absent[ranks].astype(np.int64)
    # the absent pair of rank r lies past every present index whose own absent-rank is <= r
    return deleted, ranks + np.searchsorted(present - np.arange(m), ranks, side="right")


def _flip_pairs(a: Graph, alpha: float, beta: float, rng: np.random.Generator) -> Graph:
    """The graph after the flips of :func:`_flip_picks` on a."""
    deleted, added = _flip_picks(a, alpha, beta, rng)
    # a stable sort is timsort, which finds the two sorted runs and merges them in linear time
    lin = np.sort(np.concatenate([np.delete(a.edge_linear_indices(), deleted), added]), kind="stable")
    return Graph._from_sorted(a.n, lin)


@dataclass(frozen=True)
class NoiseParams:
    """Flip probabilities: alpha adds absent pairs, beta deletes present edges."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")


def apply_noise(a: Graph, params: NoiseParams, seed: int) -> Graph:
    """One noisy observation of the latent graph a; with alpha = beta = 0 the output equals a exactly."""
    return _flip_pairs(a, params.alpha, params.beta, _stream_rng(seed, "noise"))


def noisy_degree_array(a: Graph, params: NoiseParams, seed: int) -> np.ndarray:
    """The degrees of apply_noise(a, params, seed), from its flips alone: no noisy Graph is built."""
    deleted, added = _flip_picks(a, params.alpha, params.beta, _stream_rng(seed, "noise"))
    return a.degree_array() + _endpoint_counts(a.n, added) - _endpoint_counts(a.n, a.edge_linear_indices()[deleted])


def generate_pa(params: PaParams, seed: int) -> Graph:
    """Preferential attachment graph with affine attachment weight deg + b.

    Starts from a complete graph on m+1 seed nodes.  Each later node t
    attaches to m distinct existing nodes, sampled sequentially without
    replacement with probability proportional to degree + b, where degrees
    are frozen at the start of step t (edges added within the step do not
    update the weights).  Each draw descends a Fenwick tree of the weights
    (Fenwick 1994), so a graph costs O(n * m * log n).  Every node weighs m + b
    in it from the start, which is exact: step t reads only slots of nodes
    below t, all arrived with degree m.  For b a multiple of a power of two
    every partial sum is exact and the realization equals a cumulative-sum
    scan's; otherwise a uniform within rounding of a weight boundary can pick
    another node than a scan or a tree summed in another order would.

    Args:
        params: node count n, edges per new node m, attachment offset b > -1.
        seed: RNG seed.

    Returns:
        Graph on n nodes with C(m+1, 2) + (n - m - 1) * m edges.
    """
    n, m, b = params.n, params.m, params.b
    rng = _stream_rng(seed, "pa")
    # Fenwick slot i sums the weights of nodes i - (i & -i) .. i - 1, so no arrival updates the tree
    tree = [(m + b) * (i & -i) for i in range(n + 1)]
    powers = [1 << e for e in range(n.bit_length() - 1, -1, -1)]
    total, uniforms, targets = (m + 1) * (m + b), [], []
    for t in range(m + 1, n):
        levels = powers[len(powers) - t.bit_length() :]  # every higher level would fail k < t
        chosen: list[int] = []
        while len(chosen) < m:  # rejecting repeats samples without replacement
            if not uniforms:
                uniforms = rng.random(4096).tolist()
                uniforms.reverse()
            x, j, acc = uniforms.pop() * total, 0, 0.0
            for step in levels:  # compare exact prefix sums with x (subtracting from x would round); stay below t
                if (k := j + step) < t and (s := acc + tree[k]) <= x:
                    j, acc = k, s
            if j not in chosen:
                chosen.append(j)
        for k in chosen:
            k += 1
            while k <= n:
                tree[k] += 1.0
                k += k & -k
        total += 2 * m + b
        targets += chosen
    rest = np.column_stack([np.array(targets, dtype=np.int64), np.repeat(np.arange(m + 1, n), m)])
    return Graph(n, np.concatenate([np.column_stack(np.triu_indices(m + 1, k=1)), rest]))


def generate_small_world(n: int, k_ring: int, rewire_p: float, seed: int) -> Graph:
    """Watts-Strogatz ring lattice with single-endpoint rewiring.

    Each node starts connected to its k_ring/2 nearest neighbors on each
    side of a ring.  Lattice edges are then visited in a fixed order
    (ring distance outer, node id inner) and independently rewired with
    probability rewire_p: the far endpoint is replaced by a uniformly
    random node, redrawing on self-loops and existing edges.  The edge
    count is never changed by rewiring.
    """
    if n < 3:
        raise ValueError(f"need at least three nodes, got n={n}")
    if k_ring < 2 or k_ring % 2 != 0:
        raise ValueError(f"k_ring must be a positive even integer, got {k_ring}")
    if k_ring >= n:
        raise ValueError(f"need k_ring < n, got k_ring={k_ring}, n={n}")
    if not 0.0 <= rewire_p <= 1.0:
        raise ValueError(f"rewiring probability must lie in [0, 1], got {rewire_p}")

    rng = _stream_rng(seed, "sw")
    adj: list[set[int]] = [set() for _ in range(n)]
    for j in range(1, k_ring // 2 + 1):
        for i in range(n):
            v = (i + j) % n
            adj[i].add(v)
            adj[v].add(i)

    for j in range(1, k_ring // 2 + 1):
        for i in range(n):
            if rng.random() >= rewire_p:
                continue
            if len(adj[i]) >= n - 1:
                continue  # no legal target left, keep the lattice edge
            v = (i + j) % n
            w = int(rng.integers(n))
            while w == i or w in adj[i]:
                w = int(rng.integers(n))
            adj[i].discard(v)
            adj[v].discard(i)
            adj[i].add(w)
            adj[w].add(i)

    edges = [(i, v) for i in range(n) for v in adj[i] if i < v]
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def save_edge_list(g: Graph, path) -> None:
    """Write g as a text edge list: header line '# n=<N>', then 'u v' rows, u < v."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# n={g.n}\n")
        # the bytes of np.savetxt(fh, g.edges, fmt="%d") from one formatting call per 2**16 rows, not one
        # per row; the blocks bound the Python ints and the text held at once
        for start in range(0, g.num_edges, 1 << 16):
            block = g.edges[start : start + (1 << 16)].ravel().tolist()
            fh.write(("%d %d\n" * (len(block) // 2)) % tuple(block))


def load_edge_list(path) -> Graph:
    """Read a graph written by :func:`save_edge_list`, validating the format."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# n="):
            raise ValueError(f"missing '# n=<N>' header in {path!r}")
        try:
            n = int(header[4:])
        except ValueError as exc:
            raise ValueError(f"{path!r}:1: unparsable node count in header {header!r}") from exc
        with warnings.catch_warnings():
            # a header with no edge rows is a valid empty graph
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                edges = np.loadtxt(fh, dtype=np.int64, ndmin=2, comments=None)
            except ValueError:
                edges = None
    if edges is not None and edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges is None or edges.shape[1] != 2:
        _raise_first_bad_line(path, n)
    u, v = edges[:, 0], edges[:, 1]
    if not np.all((0 <= u) & (u < v) & (v < n)):
        _raise_first_bad_line(path, n)
    try:
        return Graph(n, edges)
    except ValueError as exc:  # the rows are in range, so a row repeats or n < 1
        _raise_first_bad_line(path, n, str(exc))


def _raise_first_bad_line(path, n: int, reason: str = "malformed edge list") -> NoReturn:
    """Re-scan a rejected edge list and name the file and line of its first bad row."""
    seen = set()
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                u, v = map(int, parts)
            except ValueError:
                raise ValueError(f"{path!r}:{lineno}: expected 'u v', got {line.strip()!r}") from None
            if not 0 <= u < v < n:
                raise ValueError(f"{path!r}:{lineno}: bad edge ({u}, {v}) for n={n}")
            if (u, v) in seen:
                raise ValueError(f"{path!r}:{lineno}: duplicate edge ({u}, {v})")
            seen.add((u, v))
    raise ValueError(f"{path!r}: {reason}")
