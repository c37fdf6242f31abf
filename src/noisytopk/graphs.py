"""Random graph generators and the shared immutable graph container.

Graphs are simple and undirected, nodes are 0..n-1, and edges are stored
once in canonical form: an (m, 2) int64 array with edges[:, 0] < edges[:, 1]
and rows sorted lexicographically.  All generators are pure functions of
their parameters and an explicit integer seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
from scipy import sparse

__all__ = [
    "Graph",
    "DegreeSequence",
    "PaParams",
    "generate_er",
    "generate_pa",
    "generate_small_world",
    "degrees",
    "save_edge_list",
    "load_edge_list",
]


def pair_index(n: int, u, v):
    """Linear index of the unordered pair (u, v), u < v, in lexicographic order."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_from_index(n: int, idx):
    """Invert :func:`pair_index`: linear indices back to (u, v) arrays."""
    idx = np.asarray(idx, dtype=np.int64)
    r = np.arange(n, dtype=np.int64)
    row_starts = r * (2 * n - r - 1) // 2
    u = np.searchsorted(row_starts, idx, side="right") - 1
    v = idx - row_starts[u] + u + 1
    return u, v


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with a canonical edge array.

    The constructor accepts edges in any row order and orientation,
    canonicalizes them, and rejects self-loops, duplicate pairs, and
    out-of-range endpoints.  The stored array is made read-only so
    instances can be shared across threads and processes.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        e = np.asarray(self.edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise ValueError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ValueError("self-loops are not allowed")
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        lin = pair_index(self.n, lo, hi)
        if lin.size and np.any(np.diff(lin) <= 0):
            order = np.argsort(lin, kind="stable")
            lin_sorted = lin[order]
            if np.any(np.diff(lin_sorted) == 0):
                raise ValueError("duplicate edges are not allowed")
            e = np.column_stack([lo[order], hi[order]])
        else:
            e = np.column_stack([lo, hi])
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def degree_array(self) -> np.ndarray:
        """Degree of every node, indexed by node id."""
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def edge_linear_indices(self) -> np.ndarray:
        """Lexicographic linear index of every edge (sorted ascending)."""
        return pair_index(self.n, self.edges[:, 0], self.edges[:, 1])

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edges}

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Symmetric adjacency matrix in CSR form (float64)."""
        m = self.num_edges
        if m == 0:
            return sparse.csr_matrix((self.n, self.n), dtype=np.float64)
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        data = np.ones(2 * m, dtype=np.float64)
        return sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i."""
        e = self.edges
        out = np.concatenate([e[e[:, 0] == i, 1], e[e[:, 1] == i, 0]])
        out.sort()
        return out

    @classmethod
    def _from_canonical(cls, n: int, edges: np.ndarray) -> "Graph":
        # fast path for generators: caller guarantees canonical form
        g = object.__new__(cls)
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        edges.flags.writeable = False
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees by node id plus the node order that sorts them non-increasingly.

    ``degrees[order]`` is non-increasing; nodes with equal degree appear in
    ascending id order so the ranking is reproducible.
    """

    degrees: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.degrees, dtype=np.int64)
        o = np.asarray(self.order, dtype=np.int64)
        if d.shape != o.shape or d.ndim != 1:
            raise ValueError("degrees and order must be 1-d arrays of equal length")
        if np.any(np.diff(d[o]) > 0):
            raise ValueError("order does not sort degrees non-increasingly")
        d.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "degrees", d)
        object.__setattr__(self, "order", o)

    def sorted_degrees(self) -> np.ndarray:
        return self.degrees[self.order]


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
        if not self.b > -1:
            raise ValueError(f"attachment offset must exceed -1, got {self.b}")


def generate_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each of the n(n-1)/2 pairs is an edge with prob p.

    One uniform is drawn per pair in lexicographic pair order, so the
    realization is reproducible bit-for-bit for a fixed seed.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    return _flip_pairs(n, np.empty(0, dtype=np.int64), p, 0.0, seed)


def _flip_pairs(n: int, present: np.ndarray, alpha: float, beta: float, seed: int) -> Graph:
    """Flip every node pair independently, one uniform per pair in lexicographic order.

    present holds the sorted linear indices of the starting edges.  A
    present edge survives when its uniform is >= beta; an absent pair
    becomes an edge when its uniform is < alpha.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(n * (n - 1) // 2)
    kept = present[u[present] >= beta]
    added_mask = u < alpha
    added_mask[present] = False
    lin = np.sort(np.concatenate([kept, np.flatnonzero(added_mask)]))
    uu, vv = pair_from_index(n, lin)
    return Graph._from_canonical(n, np.column_stack([uu, vv]))


def generate_pa(params: PaParams, seed: int) -> Graph:
    """Preferential attachment graph with affine attachment weight deg + b.

    Starts from a complete graph on m+1 seed nodes.  Each later node t
    attaches to m distinct existing nodes, sampled sequentially without
    replacement with probability proportional to degree + b, where degrees
    are frozen at the start of step t (edges added within the step do not
    update the weights).

    Args:
        params: node count n, edges per new node m, attachment offset b > -1.
        seed: RNG seed.

    Returns:
        Graph on n nodes with C(m+1, 2) + (n - m - 1) * m edges.
    """
    n, m, b = params.n, params.m, params.b
    rng = np.random.default_rng(seed)

    us, vs = np.triu_indices(m + 1, k=1)
    src = [us.astype(np.int64)]
    dst = [vs.astype(np.int64)]
    deg = np.zeros(n, dtype=np.int64)
    deg[: m + 1] = m

    for t in range(m + 1, n):
        # weights frozen at step start; rejection keeps the draw
        # conditioned on "not already chosen", i.e. sequential sampling
        # without replacement
        cum = np.cumsum(deg[:t] + b, dtype=np.float64)
        total = cum[-1]
        chosen: list[int] = []
        taken: set[int] = set()
        while len(chosen) < m:
            j = int(np.searchsorted(cum, rng.random() * total, side="right"))
            if j not in taken:
                taken.add(j)
                chosen.append(j)
        targets = np.array(chosen, dtype=np.int64)
        deg[targets] += 1
        deg[t] = m
        src.append(targets)
        dst.append(np.full(m, t, dtype=np.int64))

    edges = np.column_stack([np.concatenate(src), np.concatenate(dst)])
    return Graph(n, edges)


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

    rng = np.random.default_rng(seed)
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

    src = []
    dst = []
    for i in range(n):
        for v in adj[i]:
            if i < v:
                src.append(i)
                dst.append(v)
    edges = np.column_stack([np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)])
    return Graph(n, edges)


def degrees(g: Graph) -> DegreeSequence:
    """Degree sequence of g with a deterministic non-increasing node order."""
    d = g.degree_array()
    order = np.lexsort((np.arange(g.n), -d))
    return DegreeSequence(degrees=d, order=order)


def save_edge_list(g: Graph, path) -> None:
    """Write g as a text edge list: header line '# n=<N>', then 'u v' rows, u < v."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# n={g.n}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def load_edge_list(path) -> Graph:
    """Read a graph written by :func:`save_edge_list`, validating the format."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# n="):
            raise ValueError(f"missing '# n=<N>' header in {path!r}")
        try:
            n = int(header[4:])
        except ValueError as exc:
            raise ValueError(f"unparsable node count in header {header!r}") from exc
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
    return Graph(n, edges)


def _raise_first_bad_line(path, n: int) -> NoReturn:
    """Re-scan a rejected edge list and name the file and line of its first bad row."""
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
    raise ValueError(f"{path!r}: malformed edge list")
