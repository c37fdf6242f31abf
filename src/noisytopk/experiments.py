"""Monte Carlo harness for noisy top-k recovery studies.

Every study follows the same two-level design: latent graphs are drawn
per grid point, several noisy observations are drawn per graph, and
per-graph means are aggregated into grid-point means whose standard
errors come from the spread of the per-graph means (which propagates
both the between-graph and within-graph variance of the estimator).

Seeds are derived from a single root by a documented 64-bit mixer, so
results are reproducible bit-for-bit for a fixed root regardless of how
many workers execute the trials.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .bounds import _fields, er_expected_hamming_lower_bound, hamming_bounds_realization
from .centrality import TopKSet, _top_k_rows, connected_components, leading_eigenvector, top_k
from .graphs import (Graph, NoiseParams, PaParams, apply_noise, generate_er, generate_pa, generate_small_world,
                     noisy_degree_array)

__all__ = [
    "MODELS",
    "make_graph",
    "NoiseSchedule",
    "ExperimentConfig",
    "SummaryRow",
    "LocalizationRow",
    "derive_seed",
    "run_topk_experiment",
    "run_localization",
    "run_figure1_profile",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# stream tags keep graph generation, noise draws, and tie-breaking on
# non-overlapping seed sequences
STREAM_GRAPH = 1
STREAM_NOISE = 2
STREAM_TIEBREAK = 3

# entries of one draws x n block of noisy scores that a latent graph's draws are scored in
_BLOCK_ENTRIES = 1 << 20

# each graph model's keys besides n, named as the generator's arguments: key -> (parser, default or ... if required)
MODELS = {
    "er": {"p": (float, ...)},
    "pa": {"m": (int, ...), "b": (float, 1.0)},
    "sw": {"k_ring": (int, ...), "rewire_p": (float, ...)},
}


def _mix64(x: int) -> int:
    """One splitmix64 finalization round."""
    x &= _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed_root: int, *parts: int) -> int:
    """Derive a 64-bit seed from a root and a tuple of non-negative indices.

    Chains splitmix64 finalization over the parts:
    x_0 = mix(root), x_{j+1} = mix(x_j XOR mix(part_j + 1)).  Distinct
    index tuples give independent-behaving streams for practical purposes.
    """
    if not 0 <= seed_root <= _MASK64:  # masking would give -1 the stream of 2**64 - 1
        raise ValueError(f"seed root must lie in 0..2**64-1, got {seed_root}")
    x = _mix64(seed_root)
    for p in parts:
        if p < 0:
            raise ValueError(f"seed parts must be non-negative, got {p}")
        x = _mix64(x ^ _mix64(p + 1))
    return x


@dataclass(frozen=True)
class NoiseSchedule:
    """Flip rate as a function of n: rate(n) = coef * n**(-n_power) * ln(n)**(-log_power)."""

    coef: float
    n_power: float = 0.0
    log_power: float = 0.0

    def __post_init__(self):
        if self.coef < 0:
            raise ValueError(f"coef must be nonnegative, got {self.coef}")

    def rate(self, n: int) -> float:
        # a zero power gives a factor of exactly 1.0, which leaves coef unchanged
        return self.coef * float(n) ** (-self.n_power) * math.log(n) ** (-self.log_power)


@dataclass
class ExperimentConfig:
    """Grid study configuration.

    Exactly one of n_grid (vary the graph size; alpha/beta schedules give
    the noise at each n) and noise_grid (fixed n from model_params['n'],
    vary the flip rates) must be non-empty.
    """

    model: str
    model_params: dict
    k: int
    graphs_per_point: int
    noise_draws_per_graph: int
    seed_root: int
    alpha: NoiseSchedule | None = None
    beta: NoiseSchedule | None = None
    n_grid: tuple[int, ...] = ()
    noise_grid: tuple[NoiseParams, ...] = ()
    centrality: str = "degree"
    theory_curve: bool = False

    def __post_init__(self):
        # the model's keys besides n, checked and parsed once, before any graph is drawn
        self._graph_values = _model_values(self.model, {k: v for k, v in self.model_params.items() if k != "n"})
        derive_seed(self.seed_root)  # a root out of range fails here, not in the first worker
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.graphs_per_point < 1 or self.noise_draws_per_graph < 1:
            raise ValueError("graphs_per_point and noise_draws_per_graph must be positive")
        if self.centrality not in ("degree", "both"):
            raise ValueError(f"centrality must be 'degree' or 'both', got {self.centrality!r}")
        self.n_grid = tuple(int(v) for v in self.n_grid)
        self.noise_grid = tuple(self.noise_grid)
        if bool(self.n_grid) == bool(self.noise_grid):
            raise ValueError("exactly one of n_grid and noise_grid must be non-empty")
        if self.n_grid:
            if any(v < 2 for v in self.n_grid):
                raise ValueError("grid sizes must be at least 2")
            if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
                raise ValueError("n_grid must be strictly increasing")
            if self.alpha is None or self.beta is None:
                raise ValueError("n_grid mode needs alpha and beta schedules")
        if ("n" in self.model_params) == bool(self.n_grid):
            raise ValueError("model_params['n'] is required with noise_grid and not allowed with n_grid")
        n_min = self.n_grid[0] if self.n_grid else int(self.model_params["n"])
        if self.k >= n_min:
            raise ValueError(f"need k < n at every grid point, got k={self.k}, smallest n={n_min}")
        if self.model == "pa":  # fail before any graph is drawn, not in the first worker
            PaParams(n=n_min, **self._graph_values)
        if self.theory_curve and self.model != "er":
            raise ValueError("theory_curve is defined for the er model only")

    def cells(self) -> list[tuple[float, int, NoiseParams]]:
        """(x_value, n, noise) for every grid point, in grid order."""
        out = []
        if self.n_grid:
            for n in self.n_grid:
                noise = NoiseParams(self.alpha.rate(n), self.beta.rate(n))
                out.append((float(n), n, noise))
        else:
            n = int(self.model_params["n"])
            for noise in self.noise_grid:
                out.append((noise.alpha, n, noise))
        return out


@dataclass
class SummaryRow:
    """One grid point of a top-k study; bound columns are on the d_H/2 scale, and each se_ field is the standard
    error of the mean in the field just before it."""

    x_value: float
    n: int
    alpha: float
    beta: float
    mean_half_hamming: float
    se_half_hamming: float
    mean_lower_bound: float
    se_lower_bound: float
    mean_upper_bound: float
    se_upper_bound: float
    exp_lower_bound: float
    se_exp_lower_bound: float
    exp_upper_bound: float
    se_exp_upper_bound: float
    theory_lower: float
    exact_recovery_rate: float
    se_exact_recovery: float
    jaccard_degree: float
    se_jaccard_degree: float
    jaccard_evec: float
    se_jaccard_evec: float
    n_graphs: int
    n_draws: int
    n_excluded: int
    n_disconnected: int


# each SummaryRow mean over the per-graph values of _run_one_graph, with the se_ field that follows it
_MEANS = tuple((a.name, b.name) for a, b in zip(fields(SummaryRow), fields(SummaryRow)[1:]) if b.name.startswith("se_"))
# the SummaryRow counts summed over the graphs of a grid point
_COUNTS = ("n_excluded", "n_disconnected")


@dataclass
class LocalizationRow:
    """One grid point of the hub-localization study on PA trees."""

    n: int
    reps_used: int
    x_h_mean: float
    x_h_se: float
    x_h_q10: float
    x_h_q50: float
    x_h_q90: float
    m_out_mean: float
    m_out_se: float
    m_out_q10: float
    m_out_q50: float
    m_out_q90: float
    gap_mean: float
    gap_se: float
    gap_q10: float
    gap_q50: float
    gap_q90: float
    n_excluded: int
    n_hub_ties: int


def _model_values(model: str, params: dict) -> dict:
    """params checked against MODELS[model], parsed, with the defaults filled in."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {', '.join(MODELS)}")
    table = MODELS[model]
    if extra := [key for key in params if key not in table]:
        raise ValueError(f"{model} does not take {', '.join(extra)}; its parameters are {', '.join(table)}")
    if missing := [key for key, (_, default) in table.items() if default is ... and key not in params]:
        raise ValueError(f"{model} needs {', '.join(missing)}")
    return {key: parse(params[key]) if key in params else default for key, (parse, default) in table.items()}


def make_graph(model: str, params: dict, n: int, seed: int) -> Graph:
    """One graph on n nodes of a MODELS model; a missing or foreign key in params raises ValueError before any draw."""
    values = _model_values(model, params)
    if model == "er":
        return generate_er(n, values["p"], seed)
    if model == "pa":
        return generate_pa(PaParams(n=n, **values), seed)
    return generate_small_world(n, values["k_ring"], values["rewire_p"], seed)


def _score_block(s_k: TopKSet, block: np.ndarray, tie_seed: int):
    """(d_H, Jaccard, Hamming sandwich) of each row's top-k against s_k, for a draws x n block of noisy scores."""
    hits = np.count_nonzero(_top_k_rows(block, s_k.k, tie_seed)[0][:, sorted(s_k.members)], axis=1)
    dh, hb = 2 * (s_k.k - hits), hamming_bounds_realization(s_k, block)
    # the sandwich holds deterministically for every draw; a violation is a bug
    if (bad := np.flatnonzero((hb.lower > dh) | (dh > hb.upper))).size:
        r = bad[0]
        raise RuntimeError(f"Hamming sandwich violated: {hb.lower[r]} <= {dh[r]} <= {hb.upper[r]} fails")
    return dh, hits / (2 * s_k.k - hits), hb


def _run_one_graph(cfg: ExperimentConfig, cell_idx: int, n: int, noise: NoiseParams, graph_idx: int) -> dict:
    """All noise draws for one latent graph; returns its value of every _MEANS mean and _COUNTS count."""
    k = cfg.k
    draws = cfg.noise_draws_per_graph
    graph_seed = derive_seed(cfg.seed_root, STREAM_GRAPH, cell_idx, graph_idx)
    tie_seed = derive_seed(cfg.seed_root, STREAM_TIEBREAK, cell_idx, graph_idx)
    g = make_graph(cfg.model, cfg._graph_values, n, graph_seed)

    s_k = top_k(g.degree_array(), k, tie_seed)

    want_evec = cfg.centrality == "both"
    s_k_evec = None  # stays None when the latent solve does not converge
    if want_evec:
        _, x, ok = leading_eigenvector(g)
        if ok:
            s_k_evec = top_k(x, k, tie_seed)

    dh, jac_deg = np.empty(draws), np.empty(draws)
    sandwich = np.empty((6, draws), dtype=np.int64)  # lower, upper and the four counts of every draw
    jac_evec_sum, jac_evec_cnt, n_disconnected = 0.0, 0, 0

    step = max(1, _BLOCK_ENTRIES // n)  # draws per block
    for first in range(0, draws, step):
        span = slice(first, min(first + step, draws))
        block = np.empty((span.stop - first, n), dtype=np.int64)
        evecs = []  # the block's converged noisy eigenvectors, in draw order
        for i, r in enumerate(range(first, span.stop)):
            seed = derive_seed(cfg.seed_root, STREAM_NOISE, cell_idx, graph_idx, r)
            if not want_evec:  # degree centrality needs only the noisy degrees
                block[i] = noisy_degree_array(g, noise, seed)
                continue
            y = apply_noise(g, noise, seed)
            block[i] = y.degree_array()
            n_comp, _ = connected_components(y.adjacency_csr())
            if n_comp > 1:
                n_disconnected += 1
            # without a latent eigenvector no Jaccard can use a noisy one, so none is solved
            if s_k_evec is not None and (solved := leading_eigenvector(y))[2]:
                evecs.append(solved[1])
        dh[span], jac_deg[span], hb = _score_block(s_k, block, tie_seed)
        sandwich[:, span] = hb[:2] + hb[3:]
        if evecs:
            # summed one by one in draw order: a pairwise or compensated sum rounds differently
            for jac in _score_block(s_k_evec, np.array(evecs), tie_seed)[1].tolist():
                jac_evec_sum += jac
            jac_evec_cnt += len(evecs)

    lower, upper = sandwich[:2]  # integers, so their float means are exact in any summation order
    in_below, in_at_most, out_above, out_at_least = sandwich[2:].sum(axis=1).tolist()
    return {
        "mean_half_hamming": float(dh.mean() / 2.0),
        "mean_lower_bound": float(lower.mean() / 2.0),
        "mean_upper_bound": float(upper.mean() / 2.0),
        "exp_lower_bound": max(in_below, out_above) / draws,
        "exp_upper_bound": min(in_at_most, out_at_least) / draws,
        "exact_recovery_rate": float(np.mean(dh == 0)),
        "jaccard_degree": float(jac_deg.mean()),
        "jaccard_evec": (jac_evec_sum / jac_evec_cnt) if jac_evec_cnt else math.nan,
        "n_excluded": draws - jac_evec_cnt if want_evec else 0,  # draws without an eigenvector Jaccard
        "n_disconnected": n_disconnected,
    }


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    vals = values[~np.isnan(values)]
    if vals.size == 0:
        return math.nan, math.nan
    mean = float(vals.mean())
    if vals.size < 2:
        return mean, math.nan
    return mean, float(vals.std(ddof=1) / math.sqrt(vals.size))


def _aggregate_cell(
    cfg: ExperimentConfig, x_value: float, n: int, noise: NoiseParams, per_graph: list[dict]
) -> SummaryRow:
    stats = {name: int(sum(pg[name] for pg in per_graph)) for name in _COUNTS}
    for name, se_name in _MEANS:
        stats[name], stats[se_name] = _mean_se(np.array([pg[name] for pg in per_graph], dtype=np.float64))

    theory = math.nan
    if cfg.theory_curve:  # ExperimentConfig allows it for the er model only
        try:
            theory = er_expected_hamming_lower_bound(n, float(cfg.model_params["p"]), noise, cfg.k)
        except ValueError:
            theory = math.nan

    return SummaryRow(
        x_value=float(x_value),
        n=int(n),
        alpha=float(noise.alpha),
        beta=float(noise.beta),
        theory_lower=theory,
        n_graphs=len(per_graph),
        n_draws=len(per_graph) * cfg.noise_draws_per_graph,
        **stats,
    )


def run_topk_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[SummaryRow]:
    """Run the configured grid study and return one SummaryRow per grid point.

    threads > 1 maps the graphs over a pool of at most one process per
    graph; the result is bit-identical to the serial run because every
    trial's seed depends only on (seed_root, cell, graph, draw) and both
    maps return the results in job order, which is grid order.
    """
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    cells = cfg.cells()
    per_cell = cfg.graphs_per_point
    jobs = [(cell_idx, n, noise, g) for cell_idx, (_, n, noise) in enumerate(cells) for g in range(per_cell)]
    run = partial(_run_one_graph, cfg)
    # a fork-started pool launches every worker at once, so ask for no more than there are jobs
    if (workers := min(threads, len(jobs))) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, *zip(*jobs)))
    else:
        results = list(map(run, *zip(*jobs)))
    return [
        _aggregate_cell(cfg, x, n, noise, results[cell_idx * per_cell : (cell_idx + 1) * per_cell])
        for cell_idx, (x, n, noise) in enumerate(cells)
    ]


def run_localization(
    n_grid,
    reps: int = 200,
    b: float = 1.0,
    seed_root: int = 0,
) -> list[LocalizationRow]:
    """Hub-localization diagnostics of the leading eigenvector on PA trees (m=1).

    Per network: h is the maximum-degree vertex (ties resolved to the
    smallest id and counted in n_hub_ties), x_h its eigenvector entry,
    m_out the eigenvector mass outside h and its neighborhood, and gap
    the margin x_h - max over neighbors of h.  Non-converged solves are
    excluded and counted; the trees are connected by construction, so
    the leading eigenpair is never degenerate.
    """
    n_grid = [int(n) for n in n_grid]
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    for n in n_grid:  # fail before the first tree is drawn, not at the first bad size
        PaParams(n=n, m=1, b=b)
    rows = []
    for cell_idx, n in enumerate(n_grid):
        values = {"x_h": [], "m_out": [], "gap": []}  # of each tree whose solve converged
        n_ties = 0
        for rep in range(reps):
            seed = derive_seed(seed_root, STREAM_GRAPH, cell_idx, rep)
            g = make_graph("pa", {"m": 1, "b": b}, n, seed)
            deg = g.degree_array()
            h = int(np.argmax(deg))
            if int(np.count_nonzero(deg == deg[h])) > 1:
                n_ties += 1
            _, x, ok = leading_eigenvector(g)
            if not ok:
                continue
            nb = g.neighbors(h)
            outside = np.ones(n, dtype=bool)
            outside[h] = False
            outside[nb] = False
            values["x_h"].append(float(x[h]))
            values["m_out"].append(float(np.sum(x[outside] ** 2)))
            values["gap"].append(float(x[h] - x[nb].max()))

        stats = {}  # LocalizationRow names each statistic of a quantity f"{quantity}_{statistic}"
        for quantity, vals in values.items():
            arr = np.asarray(vals, dtype=np.float64)
            quantiles = np.quantile(arr, [0.1, 0.5, 0.9]).tolist() if arr.size else [math.nan] * 3
            names = (f"{quantity}_{stat}" for stat in ("mean", "se", "q10", "q50", "q90"))
            stats.update(zip(names, (*_mean_se(arr), *quantiles), strict=True))
        used = len(values["x_h"])
        rows.append(LocalizationRow(n=n, reps_used=used, n_excluded=reps - used, n_hub_ties=n_ties, **stats))
    return rows


def run_figure1_profile(
    n: int,
    mean_degree: int,
    noise: NoiseParams,
    seed: int,
    rewire_p: float = 0.1,
    pa_m: int | None = None,
    pa_b: float = 1.0,
) -> dict:
    """Ordered degree profiles before and after noise for matched ER/SW/PA graphs.

    All three models are parameterized to hit the requested mean degree
    as closely as their constraints allow: ER takes p = mean/(n-1), SW
    rounds down to an even ring degree, PA uses m = round(mean/2) whose
    mean degree is about 2m.  Each model's table ranks nodes by original
    degree and reports the noisy degree of the same node.
    """
    if not 2 <= mean_degree < n:
        raise ValueError(f"need 2 <= mean_degree < n, got mean_degree={mean_degree}, n={n}")
    if pa_m is None:
        pa_m = max(1, int(round(mean_degree / 2)))
    PaParams(n=n, m=pa_m, b=pa_b)  # fail before the ER and SW graphs are drawn, not at the third graph
    models = {  # the MODELS keys of each graph
        "er": {"p": mean_degree / (n - 1)},
        "sw": {"k_ring": 2 * (mean_degree // 2), "rewire_p": rewire_p},
        "pa": {"m": pa_m, "b": pa_b},
    }
    out: dict = {"n": n, "mean_degree": mean_degree, **_fields(noise), "models": {}}
    for idx, (name, params) in enumerate(models.items()):
        g = make_graph(name, params, n, derive_seed(seed, STREAM_GRAPH, idx))
        noisy_deg = noisy_degree_array(g, noise, derive_seed(seed, STREAM_NOISE, idx))
        deg = g.degree_array()
        rows = [
            (rank + 1, int(node), int(deg[node]), int(noisy_deg[node]))
            for rank, node in enumerate(np.lexsort((np.arange(n), -deg)))  # ties in ascending node id
        ]
        achieved = 2.0 * g.num_edges / n
        entry = {"achieved_mean_degree": achieved, "rows": rows}
        if name == "pa":
            entry["mean_degree_note"] = (
                f"pa m={pa_m} gives mean degree ~{achieved:.2f}, "
                f"requested {mean_degree}"
            )
        if name == "sw":
            entry.update(params)
        out["models"][name] = entry
    return out

