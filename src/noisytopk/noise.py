"""Independent edge-flip observation noise.

An observed graph Y is derived from a latent graph A by flipping each
node pair independently: an absent pair appears with probability alpha,
a present edge disappears with probability beta.  One uniform variate is
consumed per pair in lexicographic pair order, which makes realizations
reproducible for a fixed seed regardless of the edge content of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Graph, _flip_pairs, pair_from_index

__all__ = ["NoiseParams", "apply_noise", "exact_noise_distribution"]

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
    return _flip_pairs(a.n, a.edge_linear_indices(), params.alpha, params.beta, seed)


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
        bit = (outcomes >> p) & 1
        if present[p]:
            probs *= np.where(bit == 1, 1.0 - beta, beta)
        else:
            probs *= np.where(bit == 1, alpha, 1.0 - alpha)

    all_u, all_v = pair_from_index(n, np.arange(n_pairs, dtype=np.int64))
    for o in range(total):
        sel = (o >> np.arange(n_pairs, dtype=np.int64)) & 1
        idx = np.flatnonzero(sel)
        edges = np.column_stack([all_u[idx], all_v[idx]])
        yield Graph._from_canonical(n, edges), float(probs[o])
