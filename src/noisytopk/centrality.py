"""Centrality scores, top-k extraction, and set-overlap metrics.

Scores are plain 1-d arrays (int64 degrees or a float eigenvector).
Eigenvector centrality comes from one ARPACK Lanczos solve (scipy's eigsh)
for the algebraically largest eigenvalues, so bipartite spectra (lambda_min
equal to -lambda_1, e.g. trees) need no shift and the second eigenvalue is
the algebraic one rather than the most negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .graphs import Graph, _check_seed, _stream_rng

__all__ = [
    "TopKSet",
    "SpectralPair",
    "spectral_top2",
    "leading_eigenvector",
    "top_k",
    "hamming",
    "jaccard",
]

# eigenvector entries may dip below zero by roundoff; anything below -CLAMP is an error
NEGATIVE_CLAMP = 1e-9


def _scores(scores) -> np.ndarray:
    """scores as an array, checked to be 1-d, non-empty and finite."""
    s = np.asarray(scores)
    if s.ndim != 1 or s.size == 0 or not np.all(np.isfinite(s)):
        raise ValueError(f"scores must be a non-empty finite 1-d array, got shape {s.shape}")
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
    n_comp, _ = connected_components(adj, directed=False)
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
    n = s.size
    _check_seed(seed)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    cutoff = np.partition(s, n - k)[n - k]
    above = np.flatnonzero(s > cutoff)
    tied = np.flatnonzero(s == cutoff)
    slots = k - above.size
    tie_broken = bool(tied.size > 1)
    if slots == tied.size:
        chosen = tied
    else:
        chosen = _stream_rng(seed, "tiebreak").choice(tied, size=slots, replace=False)
    members = frozenset(int(i) for i in above) | frozenset(int(i) for i in chosen)
    return TopKSet(k=k, members=members, tie_broken=tie_broken)


def hamming(a: TopKSet, b: TopKSet) -> int:
    """Symmetric-difference size between two equally sized top-k sets."""
    if a.k != b.k:
        raise ValueError(f"sets have different k: {a.k} vs {b.k}")
    return len(a.members.symmetric_difference(b.members))


def jaccard(a: TopKSet, b: TopKSet) -> float:
    """Intersection-over-union of two top-k sets, in [0, 1]."""
    if not a.members or not b.members:
        raise ValueError("jaccard needs non-empty sets")
    inter = len(a.members & b.members)
    union = len(a.members | b.members)
    return inter / union
