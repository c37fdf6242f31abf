"""The degree-only noise draw, noisy_degree_array.

It takes the flips of apply_noise from the same sampler and stream, so its
output must equal apply_noise(...).degree_array() bit for bit; the harness
must take it whenever only degrees are read.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisytopk import (
    ExperimentConfig,
    Graph,
    NoiseParams,
    PaParams,
    apply_noise,
    generate_er,
    generate_pa,
    noisy_degree_array,
    run_topk_experiment,
)
from conftest import random_edges

RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def _complete(n):
    u, v = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([u, v]))


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    kind = draw(st.sampled_from(["er", "pa", "hand", "empty", "complete"]))
    if kind == "er":
        return generate_er(n, draw(st.floats(min_value=0.0, max_value=1.0)), seed)
    if kind == "pa" and n >= 2:
        m = draw(st.integers(min_value=1, max_value=min(n - 1, 5)))
        return generate_pa(PaParams(n, m, draw(st.sampled_from([-0.5, 0.0, 1.0, 2.25]))), seed)
    if kind == "hand":
        return random_edges(np.random.default_rng(seed), n, draw(st.floats(min_value=0.0, max_value=1.0)))
    return _complete(n) if kind == "complete" else Graph(n, np.empty((0, 2), dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(g=graphs(), alpha=RATES, beta=RATES, seed=st.integers(min_value=0, max_value=2**63))
def test_equals_the_noisy_graphs_degrees(g, alpha, beta, seed):
    params = NoiseParams(alpha, beta)
    got = noisy_degree_array(g, params, seed)
    want = apply_noise(g, params, seed).degree_array()
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_tiny_graphs_at_extreme_rates(n, alpha, beta):
    params = NoiseParams(alpha, beta)
    for g in (Graph(n, np.empty((0, 2), dtype=np.int64)), _complete(n)):
        for seed in range(5):
            assert np.array_equal(noisy_degree_array(g, params, seed), apply_noise(g, params, seed).degree_array())


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_memoized_degree_array_is_read_only_and_exact(n, density, seed):
    g = random_edges(np.random.default_rng(seed), n, density)
    deg = g.degree_array()
    assert deg is g.degree_array()
    assert not deg.flags.writeable
    with pytest.raises(ValueError):
        deg[0] = deg[0] + 1
    assert np.array_equal(deg, np.bincount(g.edges.ravel(), minlength=n))
    # a fresh draw is the caller's to change; the latent degrees it started from are not touched
    before = deg.copy()
    noisy = noisy_degree_array(g, NoiseParams(0.3, 0.3), seed)
    noisy += 1
    assert np.array_equal(g.degree_array(), before)


def test_edge_count_follows_the_noise_law():
    # dense ER: over R draws the mean of sum/2 stays within 4 SE of m(1-beta) + (P-m)alpha
    n, alpha, beta, reps = 400, 0.03, 0.05, 2000
    g = generate_er(n, 0.25, seed=17)
    m, pairs = g.num_edges, n * (n - 1) // 2
    params = NoiseParams(alpha, beta)
    edges = np.array([noisy_degree_array(g, params, seed=r).sum() / 2 for r in range(reps)])
    expected = m * (1 - beta) + (pairs - m) * alpha
    se = math.sqrt((m * beta * (1 - beta) + (pairs - m) * alpha * (1 - alpha)) / reps)
    assert abs(edges.mean() - expected) <= 4 * se


def test_degree_harness_never_builds_a_noisy_graph(monkeypatch):
    import noisytopk.experiments as experiments

    def refuse(*args, **kwargs):
        raise AssertionError("degree centrality built a noisy Graph")

    monkeypatch.setattr(experiments, "apply_noise", refuse)
    cfg = ExperimentConfig(
        model="er",
        model_params={"p": 0.3, "n": 60},
        k=4,
        graphs_per_point=2,
        noise_draws_per_graph=5,
        seed_root=3,
        noise_grid=(NoiseParams(0.05, 0.1), NoiseParams(0.2, 0.0)),
        centrality="degree",
    )
    rows = run_topk_experiment(cfg)
    assert [r.n_draws for r in rows] == [10, 10]
    experiments.run_figure1_profile(60, 6, NoiseParams(0.05, 0.05), seed=1)
