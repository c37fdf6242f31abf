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
import csv
import json
import math
import subprocess
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

from .bounds import er_expected_hamming_lower_bound, hamming_bounds_realization
from .centrality import ScoreVector, degree_scores, hamming, jaccard, leading_eigenvector, top_k
from .graphs import Graph, PaParams, degrees, generate_er, generate_pa, generate_small_world
from .noise import NoiseParams, apply_noise

__all__ = [
    "NoiseSchedule",
    "ExperimentConfig",
    "SummaryRow",
    "LocalizationRow",
    "derive_seed",
    "run_topk_experiment",
    "run_localization",
    "run_jaccard_comparison",
    "run_figure1_profile",
    "write_summary_csv",
    "write_localization_csv",
    "write_figure1_csv",
    "write_csv",
    "write_json_mirror",
    "json_text",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# stream tags keep graph generation, noise draws, and tie-breaking on
# non-overlapping seed sequences
STREAM_GRAPH = 1
STREAM_NOISE = 2
STREAM_TIEBREAK = 3


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
    x = _mix64(seed_root & _MASK64)
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

    @classmethod
    def constant(cls, value: float) -> "NoiseSchedule":
        return cls(coef=value)

    def rate(self, n: int) -> float:
        out = self.coef
        if self.n_power != 0.0:
            out *= float(n) ** (-self.n_power)
        if self.log_power != 0.0:
            out *= math.log(n) ** (-self.log_power)
        return out


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
        if self.model not in ("er", "pa", "sw"):
            raise ValueError(f"unknown model {self.model!r}")
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
        else:
            if "n" not in self.model_params:
                raise ValueError("noise_grid mode needs model_params['n']")
        n_min = self.n_grid[0] if self.n_grid else int(self.model_params["n"])
        if self.k >= n_min:
            raise ValueError(f"need k < n at every grid point, got k={self.k}, smallest n={n_min}")
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
    """One grid point of a top-k study; bound columns are on the d_H/2 scale."""

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


def _make_graph(model: str, params: dict, n: int, seed: int) -> Graph:
    if model == "er":
        return generate_er(n, float(params["p"]), seed)
    if model == "pa":
        return generate_pa(PaParams(n=n, m=int(params["m"]), b=float(params.get("b", 1.0))), seed)
    if model == "sw":
        return generate_small_world(n, int(params["k_ring"]), float(params["rewire_p"]), seed)
    raise ValueError(f"unknown model {model!r}")


def _run_one_graph(cfg: ExperimentConfig, cell_idx: int, n: int, noise: NoiseParams, graph_idx: int) -> dict:
    """All noise draws for one latent graph; returns per-graph aggregates."""
    k = cfg.k
    draws = cfg.noise_draws_per_graph
    graph_seed = derive_seed(cfg.seed_root, STREAM_GRAPH, cell_idx, graph_idx)
    tie_seed = derive_seed(cfg.seed_root, STREAM_TIEBREAK, cell_idx, graph_idx)
    g = _make_graph(cfg.model, cfg.model_params, n, graph_seed)

    true_scores = degree_scores(g)
    s_k = top_k(true_scores, k, tie_seed)

    want_evec = cfg.centrality == "both"
    evec_true_ok = False
    s_k_evec = None
    if want_evec:
        lam1, x, ok = leading_eigenvector(g)
        if ok:
            evec_true_ok = True
            s_k_evec = top_k(ScoreVector(x, "eigenvector"), k, tie_seed)

    dh = np.empty(draws)
    lower = np.empty(draws)
    upper = np.empty(draws)
    jac_deg = np.empty(draws)
    jac_evec_sum = 0.0
    jac_evec_cnt = 0
    n_excluded = 0
    n_disconnected = 0
    in_below = in_at_most = out_above = out_at_least = 0

    for r in range(draws):
        y = apply_noise(g, noise, derive_seed(cfg.seed_root, STREAM_NOISE, cell_idx, graph_idx, r))
        noisy = degree_scores(y)
        s_tilde = top_k(noisy, k, tie_seed)
        d = hamming(s_k, s_tilde)
        hb = hamming_bounds_realization(s_k, noisy, k)
        # the sandwich holds deterministically for every draw; a violation is a bug
        if not hb.lower <= d <= hb.upper:
            raise RuntimeError(f"Hamming sandwich violated: {hb.lower} <= {d} <= {hb.upper} fails")
        dh[r] = d
        lower[r] = hb.lower
        upper[r] = hb.upper
        jac_deg[r] = jaccard(s_k, s_tilde)
        in_below += hb.in_below
        in_at_most += hb.in_at_most
        out_above += hb.out_above
        out_at_least += hb.out_at_least

        if want_evec:
            n_comp, _ = connected_components(y.adjacency_csr(), directed=False)
            if n_comp > 1:
                n_disconnected += 1
            lam1y, xy, oky = leading_eigenvector(y)
            if evec_true_ok and oky:
                s_tilde_evec = top_k(ScoreVector(xy, "eigenvector"), k, tie_seed)
                jac_evec_sum += jaccard(s_k_evec, s_tilde_evec)
                jac_evec_cnt += 1
            else:
                n_excluded += 1

    return {
        "half_hamming": float(dh.mean() / 2.0),
        "lower": float(lower.mean() / 2.0),
        "upper": float(upper.mean() / 2.0),
        "exp_lower": max(in_below, out_above) / draws,
        "exp_upper": min(in_at_most, out_at_least) / draws,
        "exact": float(np.mean(dh == 0)),
        "jaccard_degree": float(jac_deg.mean()),
        "jaccard_evec": (jac_evec_sum / jac_evec_cnt) if jac_evec_cnt else math.nan,
        "n_excluded": n_excluded,
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
    def col(name: str) -> np.ndarray:
        return np.array([pg[name] for pg in per_graph], dtype=np.float64)

    mean_dh, se_dh = _mean_se(col("half_hamming"))
    mean_lo, se_lo = _mean_se(col("lower"))
    mean_up, se_up = _mean_se(col("upper"))
    mean_elo, se_elo = _mean_se(col("exp_lower"))
    mean_eup, se_eup = _mean_se(col("exp_upper"))
    mean_ex, se_ex = _mean_se(col("exact"))
    mean_jd, se_jd = _mean_se(col("jaccard_degree"))
    mean_je, se_je = _mean_se(col("jaccard_evec"))

    theory = math.nan
    if cfg.theory_curve and cfg.model == "er":
        try:
            theory = er_expected_hamming_lower_bound(n, float(cfg.model_params["p"]), noise, cfg.k)
        except ValueError:
            theory = math.nan

    return SummaryRow(
        x_value=float(x_value),
        n=int(n),
        alpha=float(noise.alpha),
        beta=float(noise.beta),
        mean_half_hamming=mean_dh,
        se_half_hamming=se_dh,
        mean_lower_bound=mean_lo,
        se_lower_bound=se_lo,
        mean_upper_bound=mean_up,
        se_upper_bound=se_up,
        exp_lower_bound=mean_elo,
        se_exp_lower_bound=se_elo,
        exp_upper_bound=mean_eup,
        se_exp_upper_bound=se_eup,
        theory_lower=theory,
        exact_recovery_rate=mean_ex,
        se_exact_recovery=se_ex,
        jaccard_degree=mean_jd,
        se_jaccard_degree=se_jd,
        jaccard_evec=mean_je,
        se_jaccard_evec=se_je,
        n_graphs=len(per_graph),
        n_draws=len(per_graph) * cfg.noise_draws_per_graph,
        n_excluded=int(sum(pg["n_excluded"] for pg in per_graph)),
        n_disconnected=int(sum(pg["n_disconnected"] for pg in per_graph)),
    )


def run_topk_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[SummaryRow]:
    """Run the configured grid study and return one SummaryRow per grid point.

    threads > 1 distributes whole graphs over a process pool; the result
    is bit-identical to the serial run because every trial's seed depends
    only on (seed_root, cell, graph, draw) and the aggregation order is
    fixed by the grid.
    """
    cells = cfg.cells()
    jobs = [
        (cell_idx, x, n, noise, graph_idx)
        for cell_idx, (x, n, noise) in enumerate(cells)
        for graph_idx in range(cfg.graphs_per_point)
    ]
    results: dict[tuple[int, int], dict] = {}
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            futs = {
                pool.submit(_run_one_graph, cfg, cell_idx, n, noise, graph_idx): (cell_idx, graph_idx)
                for cell_idx, _, n, noise, graph_idx in jobs
            }
            for fut in concurrent.futures.as_completed(futs):
                results[futs[fut]] = fut.result()
    else:
        for cell_idx, _, n, noise, graph_idx in jobs:
            results[(cell_idx, graph_idx)] = _run_one_graph(cfg, cell_idx, n, noise, graph_idx)

    rows = []
    for cell_idx, (x, n, noise) in enumerate(cells):
        per_graph = [results[(cell_idx, gi)] for gi in range(cfg.graphs_per_point)]
        rows.append(_aggregate_cell(cfg, x, n, noise, per_graph))
    return rows


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
    rows = []
    for cell_idx, n in enumerate(n_grid):
        n = int(n)
        x_h_vals, m_out_vals, gap_vals = [], [], []
        n_excluded = 0
        n_ties = 0
        for rep in range(reps):
            seed = derive_seed(seed_root, STREAM_GRAPH, cell_idx, rep)
            g = generate_pa(PaParams(n=n, m=1, b=b), seed)
            deg = g.degree_array()
            h = int(np.argmax(deg))
            if int(np.count_nonzero(deg == deg[h])) > 1:
                n_ties += 1
            lam1, x, ok = leading_eigenvector(g)
            if not ok:
                n_excluded += 1
                continue
            nb = g.neighbors(h)
            outside = np.ones(n, dtype=bool)
            outside[h] = False
            outside[nb] = False
            x_h_vals.append(float(x[h]))
            m_out_vals.append(float(np.sum(x[outside] ** 2)))
            gap_vals.append(float(x[h] - x[nb].max()))

        def stats(vals: list[float]):
            arr = np.asarray(vals, dtype=np.float64)
            if arr.size == 0:
                return math.nan, math.nan, math.nan, math.nan, math.nan
            mean, se = _mean_se(arr)
            q10, q50, q90 = (float(v) for v in np.quantile(arr, [0.1, 0.5, 0.9]))
            return mean, se, q10, q50, q90

        xh = stats(x_h_vals)
        mo = stats(m_out_vals)
        gp = stats(gap_vals)
        rows.append(
            LocalizationRow(
                n=n,
                reps_used=len(x_h_vals),
                x_h_mean=xh[0], x_h_se=xh[1], x_h_q10=xh[2], x_h_q50=xh[3], x_h_q90=xh[4],
                m_out_mean=mo[0], m_out_se=mo[1], m_out_q10=mo[2], m_out_q50=mo[3], m_out_q90=mo[4],
                gap_mean=gp[0], gap_se=gp[1], gap_q10=gp[2], gap_q50=gp[3], gap_q90=gp[4],
                n_excluded=n_excluded,
                n_hub_ties=n_ties,
            )
        )
    return rows


def run_jaccard_comparison(
    n: int,
    m: int,
    k: int,
    noise_grid,
    graphs: int,
    draws: int,
    seed_root: int,
    b: float = 1.0,
    threads: int = 1,
) -> list[SummaryRow]:
    """Degree vs eigenvector top-k stability on PA graphs across noise levels."""
    cfg = ExperimentConfig(
        model="pa",
        model_params={"n": n, "m": m, "b": b},
        k=k,
        graphs_per_point=graphs,
        noise_draws_per_graph=draws,
        seed_root=seed_root,
        noise_grid=tuple(noise_grid),
        centrality="both",
    )
    return run_topk_experiment(cfg, threads=threads)


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
    if not 1 <= mean_degree < n:
        raise ValueError(f"need 1 <= mean_degree < n, got {mean_degree}, n={n}")
    if pa_m is None:
        pa_m = max(1, int(round(mean_degree / 2)))
    k_ring = 2 * (mean_degree // 2)
    models = {
        "er": generate_er(n, mean_degree / (n - 1), derive_seed(seed, STREAM_GRAPH, 0)),
        "sw": generate_small_world(n, k_ring, rewire_p, derive_seed(seed, STREAM_GRAPH, 1)),
        "pa": generate_pa(PaParams(n=n, m=pa_m, b=pa_b), derive_seed(seed, STREAM_GRAPH, 2)),
    }
    out: dict = {
        "n": n,
        "mean_degree": mean_degree,
        "alpha": noise.alpha,
        "beta": noise.beta,
        "models": {},
    }
    for idx, (name, g) in enumerate(models.items()):
        y = apply_noise(g, noise, derive_seed(seed, STREAM_NOISE, idx))
        dseq = degrees(g)
        noisy_deg = y.degree_array()
        order = dseq.order
        rows = [
            (rank + 1, int(node), int(dseq.degrees[node]), int(noisy_deg[node]))
            for rank, node in enumerate(order)
        ]
        achieved = 2.0 * g.num_edges / n
        entry = {
            "achieved_mean_degree": achieved,
            "rows": rows,
        }
        if name == "pa":
            entry["mean_degree_note"] = (
                f"pa m={pa_m} gives mean degree ~{achieved:.2f}, "
                f"requested {mean_degree}"
            )
        if name == "sw":
            entry["k_ring"] = k_ring
            entry["rewire_p"] = rewire_p
        out["models"][name] = entry
    return out


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a header and row sequences as CSV; floats keep every digit (repr)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def _rows_to_csv(rows, path) -> None:
    names = [f.name for f in fields(rows[0])]
    write_csv(path, names, ([getattr(row, name) for name in names] for row in rows))


def write_summary_csv(rows: list[SummaryRow], path) -> None:
    """Write SummaryRow records; header names match the dataclass fields."""
    if not rows:
        raise ValueError("no rows to write")
    _rows_to_csv(rows, path)


def write_localization_csv(rows: list[LocalizationRow], path) -> None:
    if not rows:
        raise ValueError("no rows to write")
    _rows_to_csv(rows, path)


def write_figure1_csv(profile: dict, path) -> None:
    """Flatten a figure profile into (model, rank, node, true_degree, noisy_degree)."""
    write_csv(
        path,
        ["model", "rank", "node", "true_degree", "noisy_degree"],
        ((name, *row) for name, entry in profile["models"].items() for row in entry["rows"]),
    )


def _json_sanitize(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {key: _json_sanitize(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(val) for val in obj]
    return obj


def json_text(doc) -> str:
    """Strict JSON text of doc with sorted keys; non-finite floats become 'nan'/'inf'/'-inf'."""
    return json.dumps(_json_sanitize(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def git_describe() -> str:
    """Best-effort source version string; 'unknown' outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def write_json_mirror(path, meta: dict, rows) -> None:
    """JSON companion to a CSV: {'meta': ..., 'rows': [...]} with stable keys.

    Non-finite floats become the strings 'nan'/'inf'/'-inf' so the file
    is strict JSON.
    """
    if rows and hasattr(rows[0], "__dataclass_fields__"):
        names = [f.name for f in fields(rows[0])]
        rows = [{name: getattr(row, name) for name in names} for row in rows]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json_text({"meta": meta, "rows": rows}))
