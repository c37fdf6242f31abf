"""Centrality scores, top-k extraction, and the Hamming distance between top-k sets.

Scores are plain 1-d arrays (int64 degrees or a float eigenvector).
Eigenvector centrality comes from one ARPACK Lanczos solve (scipy's eigsh)
for the algebraically largest eigenvalues, so bipartite spectra (lambda_min
equal to -lambda_1, e.g. trees) need no shift and the second eigenvalue is
the algebraic one rather than the most negative.  scipy is imported on the
first eigensolve or component count, so degree-only work never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _check_seed, _stream_rng

__all__ = [
    "TopKSet",
    "SpectralPair",
    "spectral_top2",
    "leading_eigenvector",
    "top_k",
    "hamming",
]

# eigenvector entries may dip below zero by roundoff; anything below -CLAMP is an error
NEGATIVE_CLAMP = 1e-9


def _scores(scores, ndim: int = 1) -> np.ndarray:
    """scores as an array, checked to be ndim-d, non-empty and finite."""
    s = np.asarray(scores)
    if s.ndim != ndim or s.size == 0 or not np.all(np.isfinite(s)):
        raise ValueError(f"scores must be a non-empty finite {ndim}-d array, got shape {s.shape}")
    return s


@dataclass(frozen=True)
class TopKSet:
    """A selected set of k nodes; tie_broken means the cutoff value was shared."""

    k: int
    members: frozenset
    tie_broken: bool

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if len(self.members) != self.k:
            raise ValueError(f"expected {self.k} members, got {len(self.members)}")


@dataclass(frozen=True)
class SpectralPair:
    """Leading eigenpair plus the second eigenvalue and solver diagnostics."""

    lambda1: float
    lambda2: float
    x: np.ndarray
    converged: bool
    degenerate: bool
    disconnected: bool
    iterations: int
    residual: float

    def __post_init__(self):
        if self.lambda2 > self.lambda1:
            raise ValueError("lambda2 cannot exceed lambda1")
        x = _scores(np.asarray(self.x, dtype=np.float64))
        if np.any(x < -NEGATIVE_CLAMP):
            raise ValueError("eigenvector scores must be nonnegative up to roundoff")
        norm = float(np.linalg.norm(x))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"eigenvector scores must have unit l2 norm, got {norm}")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)


def _top_eigenpairs(adj, k: int, tol: float, max_iter: int):
    """Top-k algebraic adjacency eigenvalues and a nonnegative leading eigenvector.

    One ARPACK Lanczos call (eigsh, which='LA') from a fixed-seed start
    vector; a dense solve covers the sizes ARPACK cannot take (n <= k+1).
    The leading vector is returned as |x| / ||x||: for a nonnegative
    symmetric matrix |x| is a lambda1-eigenvector whenever x is, which
    fixes the sign and, when lambda1 is repeated across components, turns
    Lanczos's mixed-sign vector into a valid Perron vector.

    Returns (vals, x, converged, matvecs, residual): vals descending,
    residual the largest ||A v - lambda v|| over the k pairs.  When ARPACK
    exhausts its budget, |v0| and its (nonnegative) Rayleigh quotient stand
    in, with converged False.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = adj.shape[0]
    if adj.nnz == 0:
        # ARPACK rejects the zero operator; every unit vector is an eigenvector
        return np.zeros(k), np.full(n, 1.0 / np.sqrt(n)), True, 0, 0.0
    converged = True
    matvecs = 0
    if n <= k + 1:
        vals, vecs = np.linalg.eigh(adj.toarray())
    else:
        def matvec(z: np.ndarray) -> np.ndarray:
            nonlocal matvecs
            matvecs += 1
            return adj @ z

        # generic fixed-seed start: symmetric graphs (stars, rings) can leave
        # the all-ones direction orthogonal to eigenvectors that are wanted
        v0 = np.random.default_rng(0x9E3779B97F4A7C15).standard_normal(n)
        op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
        try:
            vals, vecs = eigsh(op, k=k, which="LA", v0=v0, tol=tol, maxiter=max_iter)
        except ArpackNoConvergence:
            converged = False
            x0 = np.abs(v0) / np.linalg.norm(v0)
            vals, vecs = np.full(k, float(x0 @ (adj @ x0))), np.repeat(x0[:, None], k, axis=1)
    order = np.argsort(vals)[::-1][:k]
    vals, vecs = vals[order], vecs[:, order]
    x = np.abs(vecs[:, 0])
    x /= np.linalg.norm(x)
    vecs[:, 0] = x
    residual = float(np.max(np.linalg.norm(adj @ vecs - vecs * vals, axis=0)))
    return vals, x, converged, matvecs, residual


def connected_components(adj) -> tuple[int, np.ndarray]:
    """scipy's (count, labels) of the connected components of a symmetric adjacency matrix.

    For a symmetric matrix the strong components are the connected components, and scipy
    finds them without the transpose that directed=False builds.
    """
    from scipy.sparse import csgraph

    return csgraph.connected_components(adj, directed=True, connection="strong")


def leading_eigenvector(
    g: Graph, tol: float = 1e-10, max_iter: int = 10000
) -> tuple[float, np.ndarray, bool]:
    """Leading eigenvalue and unit eigenvector of the adjacency matrix.

    Fast path used by the simulation harness when the second eigenvalue
    is not needed.  Returns (lambda1, x, converged); x is nonnegative.
    tol and max_iter are ARPACK's relative Ritz-value accuracy and
    restart budget.
    """
    if g.n < 2:
        raise ValueError(f"need at least two nodes, got n={g.n}")
    vals, x, converged, _, _ = _top_eigenpairs(g.adjacency_csr(), 1, tol, max_iter)
    return float(vals[0]), x, converged


def spectral_top2(g: Graph, tol: float = 1e-10, max_iter: int = 10000) -> SpectralPair:
    """Top two adjacency eigenvalues and the leading eigenvector of g.

    Args:
        g: graph on at least two nodes.
        tol: ARPACK's relative accuracy of the Ritz values.
        max_iter: ARPACK's budget of Lanczos restarts.

    Returns:
        SpectralPair; converged is False when ARPACK exhausted its budget,
        degenerate is True when the top two eigenvalues agree to 1e-8,
        disconnected reports a component diagnostic (not an error), and
        iterations counts matrix-vector products.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"need at least two nodes, got n={n}")
    adj = g.adjacency_csr()
    n_comp, _ = connected_components(adj)
    vals, x, converged, matvecs, residual = _top_eigenpairs(adj, 2, tol, max_iter)
    lam1, lam2 = float(vals[0]), float(vals[1])
    return SpectralPair(
        lambda1=lam1,
        lambda2=lam2,
        x=x,
        converged=converged,
        degenerate=bool(lam1 - lam2 <= 1e-8),
        disconnected=bool(n_comp > 1),
        iterations=matvecs,
        residual=residual,
    )


def top_k(scores, k: int, seed: int) -> TopKSet:
    """The k nodes with the largest scores; cutoff ties break uniformly at random.

    Nodes scoring strictly above the k-th largest value are always
    included; the remaining slots are filled by a uniform random choice
    (driven by seed) among the nodes exactly at the cutoff value.
    """
    s = _scores(scores)
    _check_seed(seed)
    if not 1 <= k <= s.size:
        raise ValueError(f"need 1 <= k <= {s.size}, got k={k}")
    chosen, tie_broken = _top_k_rows(s[None, :], k, seed)
    return TopKSet(k=k, members=frozenset(np.flatnonzero(chosen[0]).tolist()), tie_broken=bool(tie_broken[0]))


def _top_k_rows(scores: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`top_k` of every row of a 2-d score block: (rows x n membership mask, whether each cutoff is shared).

    Each row whose cutoff ties outnumber its free slots chooses them on a fresh tie-break stream of seed.
    """
    n = scores.shape[1]
    cutoff = np.partition(scores, n - k, axis=1)[:, n - k, None]
    chosen, tied = scores > cutoff, scores == cutoff
    slots, n_tied = k - np.count_nonzero(chosen, axis=1), np.count_nonzero(tied, axis=1)
    for r in np.flatnonzero(n_tied > slots):
        pick = _stream_rng(seed, "tiebreak").choice(np.flatnonzero(tied[r]), size=int(slots[r]), replace=False)
        chosen[r, pick] = True
    np.logical_or(chosen, tied, out=chosen, where=(n_tied == slots)[:, None])  # rows where every tied node fits
    return chosen, n_tied > 1


def hamming(a: TopKSet, b: TopKSet) -> int:
    """Symmetric-difference size between two equally sized top-k sets."""
    if a.k != b.k:
        raise ValueError(f"sets have different k: {a.k} vs {b.k}")
    return len(a.members.symmetric_difference(b.members))
