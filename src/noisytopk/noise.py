"""Independent edge-flip observation noise.

An observed graph Y is derived from a latent graph A by flipping each
node pair independently: an absent pair appears with probability alpha,
a present edge disappears with probability beta.  The flipped pairs are
drawn by geometric skips (from exponentials for a rate below 1/3) over the
present edges and over the absent pairs, so a draw costs time and memory in
proportion to the edges of A and Y rather than to the n(n-1)/2 pairs.  A
dense A pays once for an O(n**2) int32 table of its absent pairs, so that no
draw on it needs a binary search; a sparse A binary-searches on every draw.
Realizations are reproducible bit-for-bit for a fixed seed, on a stream of
their own (see graphs.STREAM_VERSION).  Where only degrees are read,
noisy_degree_array counts the endpoints of the same flips without building
Y and is bit-identical to apply_noise(a, params, seed).degree_array().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _endpoint_counts, _flip_pairs, _flip_picks, _stream_rng

__all__ = ["NoiseParams", "apply_noise", "noisy_degree_array"]


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
    return _flip_pairs(a, params.alpha, params.beta, _stream_rng(seed, "noise"))


def noisy_degree_array(a: Graph, params: NoiseParams, seed: int) -> np.ndarray:
    """The degrees of apply_noise(a, params, seed), from its flips alone: no noisy Graph is built."""
    deleted, added = _flip_picks(a, params.alpha, params.beta, _stream_rng(seed, "noise"))
    return a.degree_array() + _endpoint_counts(a.n, added) - _endpoint_counts(a.n, a.edge_linear_indices()[deleted])

