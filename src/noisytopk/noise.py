"""Independent edge-flip observation noise.

An observed graph Y is derived from a latent graph A by flipping each
node pair independently: an absent pair appears with probability alpha,
a present edge disappears with probability beta.  The flipped pairs are
drawn by geometric skips over the present edges and over the absent
pairs, so a draw costs time and memory in proportion to the edges of A
and Y rather than to the n(n-1)/2 pairs.  A dense A pays once for an
O(n**2) int32 table of its absent pairs, so that no draw on it needs a
binary search; a sparse A binary-searches on every draw.  Realizations
are reproducible bit-for-bit for a fixed seed, on a stream of their own
(see graphs.STREAM_VERSION).  Where only degrees are read,
noisy_degree_array takes the same flips without building Y and is
bit-identical to apply_noise(a, params, seed).degree_array().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Graph, _edges_from_sorted, _flip_pairs, _flip_picks, _stream_rng

__all__ = ["NoiseParams", "apply_noise", "noisy_degree_array", "exact_noise_distribution"]

# exact enumeration is exponential in the pair count; keep it to toy sizes
MAX_EXACT_PAIRS = 20


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
    """One noisy observation of the latent graph a.

    Present edges survive independently with probability 1 - beta; absent
    pairs turn into edges independently with probability alpha.  With
    alpha = beta = 0 the output equals the input exactly.
    """
    rng = _stream_rng(seed, "noise")
    return _flip_pairs(a, params.alpha, params.beta, rng)


def noisy_degree_array(a: Graph, params: NoiseParams, seed: int) -> np.ndarray:
    """The degrees of apply_noise(a, params, seed), from its flips alone: no noisy Graph is built."""
    rng = _stream_rng(seed, "noise")
    deleted, added = _flip_picks(a, params.alpha, params.beta, rng)
    gained = np.bincount(_edges_from_sorted(a.n, added).ravel(), minlength=a.n)
    return a.degree_array() + gained - np.bincount(a.edges[deleted].ravel(), minlength=a.n)


def exact_noise_distribution(
    a: Graph, params: NoiseParams
) -> Iterator[tuple[Graph, float]]:
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
        yield Graph._from_canonical(n, _edges_from_sorted(n, idx), idx), float(probs[o])
