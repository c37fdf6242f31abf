"""Top-k identification from noisy network observations.

Generate random graphs (Erdos-Renyi, preferential attachment, small
world), perturb them with independent edge flips, score nodes by degree
or eigenvector centrality, and evaluate recovery guarantees,
infeasibility thresholds, and Hamming-distance envelopes, with a Monte
Carlo harness that reproduces the reference simulations.

Each module's __all__ declares its public names; the package re-exports them.
"""

from . import bounds, centrality, experiments, graphs
from .bounds import *
from .centrality import *
from .experiments import *
from .graphs import *

__version__ = "0.1.0"

__all__ = graphs.__all__ + centrality.__all__ + bounds.__all__ + experiments.__all__
