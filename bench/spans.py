"""Outside-in span tracer for the noisytopk benchmark.

The tracer replaces public functions of the package with timing wrappers,
each under the name its caller looks it up by (for example
``noisytopk.experiments.apply_noise``), so nothing inside ``src/`` changes.
Spans are kept in memory: name, start, end, parent span and the request
(one benchmark call) that caused them.  A span's self time is its duration
minus the durations of the wrapped spans it encloses.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from typing import NamedTuple

# (module the caller lives in, attribute the caller looks up, span name)
TARGETS = (
    ("noisytopk.experiments", "apply_noise", "noise.apply_noise"),
    ("noisytopk.experiments", "generate_er", "graphs.generate"),
    ("noisytopk.experiments", "generate_pa", "graphs.generate"),
    ("noisytopk.experiments", "generate_small_world", "graphs.generate"),
    ("noisytopk.cli", "load_edge_list", "graphs.load_edge_list"),
    ("noisytopk.experiments", "degree_scores", "centrality.degree_scores"),
    ("noisytopk.experiments", "top_k", "centrality.top_k"),
    ("noisytopk.experiments", "leading_eigenvector", "centrality.leading_eigenvector"),
    ("noisytopk.bounds", "spectral_top2", "centrality.spectral_top2"),
    ("noisytopk.experiments", "hamming_bounds_realization", "bounds.hamming_bounds"),
    ("noisytopk.cli", "bound_report", "bounds.bound_report"),
    ("noisytopk.cli", "run_topk_experiment", "experiments.harness"),
    ("noisytopk.cli", "run_jaccard_comparison", "experiments.harness"),
    ("noisytopk.experiments", "connected_components", "experiments.connected_components"),
    ("noisytopk.cli", "write_summary_csv", "experiments.write"),
    ("noisytopk.cli", "write_json_mirror", "experiments.write"),
    ("noisytopk.cli", "git_describe", "experiments.write"),
)
ROOT_SPAN = "cli.main"

# a cell's mean noisy edge count must lie this many standard errors from the law
LAW_Z_LIMIT = 4.0

# spans reported as <name>_ms (median duration per call), <name>_self_s and <name>_calls
_TIMED = (
    "noise.apply_noise",
    "graphs.generate",
    "graphs.load_edge_list",
    "centrality.degree_scores",
    "centrality.top_k",
    "centrality.leading_eigenvector",
    "centrality.spectral_top2",
    "bounds.hamming_bounds",
    "experiments.connected_components",
)


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a request's root span
    request: int
    name: str
    start: float
    end: float
    self_s: float  # duration minus the wrapped spans it encloses

    @property
    def duration(self) -> float:
        return self.end - self.start


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = -1
        self.noise_cells: dict[tuple, dict[int, tuple[int, int]]] = {}
        self.evec_nonconverged = 0
        self.top2_nonconverged = 0
        self.top2_iterations: list[int] = []

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if self._saved:
            return
        observers = {
            "noise.apply_noise": self._observe_noise,
            "centrality.leading_eigenvector": self._observe_evec,
            "centrality.spectral_top2": self._observe_top2,
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # the package no longer routes this call here
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        frame = [len(self.spans), 0.0]  # [span id, time covered by children]
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[frame[0]] = Span(frame[0], parent, self.request, name, start, end, duration - frame[1])

    # ----------------------------------------------------------- observers

    def _observe_noise(self, args, kwargs, result) -> None:
        a = args[0] if len(args) > 0 else kwargs.get("a")
        params = args[1] if len(args) > 1 else kwargs.get("params")
        seed = args[2] if len(args) > 2 else kwargs.get("seed")
        m = getattr(a, "num_edges", None)
        out = getattr(result, "num_edges", None)
        if m is None or out is None or params is None:
            return
        # repeated calls redo the same seeded draws; each distinct draw counts once
        self.noise_cells.setdefault((a.n, params.alpha, params.beta), {})[seed] = (m, out)

    def _observe_evec(self, args, kwargs, result) -> None:
        if isinstance(result, tuple) and len(result) == 3 and not result[2]:
            self.evec_nonconverged += 1

    def _observe_top2(self, args, kwargs, result) -> None:
        if not getattr(result, "converged", True):
            self.top2_nonconverged += 1
        iterations = getattr(result, "iterations", None)
        if iterations is not None:
            self.top2_iterations.append(int(iterations))

    # ---------------------------------------------------------- aggregation

    def noise_law(self) -> list[dict]:
        """Per harness cell: mean noisy edge count against m(1-beta) + (P-m)alpha.

        The standard error comes from the law itself: each draw's edge count
        has variance m beta(1-beta) + (P-m) alpha(1-alpha).
        """
        cells = []
        for (n, alpha, beta), by_seed in sorted(self.noise_cells.items()):
            draws = list(by_seed.values())
            pairs = n * (n - 1) // 2
            expected = sum(m * (1 - beta) + (pairs - m) * alpha for m, _ in draws) / len(draws)
            variance = sum(m * beta * (1 - beta) + (pairs - m) * alpha * (1 - alpha) for m, _ in draws)
            mean = sum(out for _, out in draws) / len(draws)
            se = math.sqrt(variance) / len(draws)
            z = (mean - expected) / se if se > 0 else (0.0 if mean == expected else math.inf)
            cells.append({
                "n": n, "alpha": alpha, "beta": beta, "draws": len(draws),
                "mean_out_edges": mean, "expected": expected, "se": se, "z": z,
                "ok": abs(z) <= LAW_Z_LIMIT,
            })
        return cells

    def metrics(self, traced_s: float, untraced_unit_s: float, traced_unit_s: float) -> dict:
        """Every per-layer metric of BENCHMARK.json, from the spans of the traced requests.

        traced_s is the summed wall time of the traced calls; the two unit
        times are medians of matched untraced and traced requests.
        """
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def durations(name):
            return [s.duration for s in by_name.get(name, [])]

        def self_times(name):
            return [s.self_s for s in by_name.get(name, [])]

        def per_request(name):
            totals: dict[int, float] = {}
            for s in by_name.get(name, []):
                totals[s.request] = totals.get(s.request, 0.0) + s.duration
            return list(totals.values())

        out: dict[str, float] = {}
        for name in _TIMED:
            out[f"{name}_ms"] = _median(durations(name)) * 1e3
            out[f"{name}_self_s"] = sum(self_times(name))
            out[f"{name}_calls"] = len(by_name.get(name, []))

        out["noise.apply_noise_share"] = out["noise.apply_noise_self_s"] / traced_s if traced_s > 0 else 0.0
        draws = [outs for cell in self.noise_cells.values() for _, outs in cell.values()]
        out["noise.out_edges_mean"] = sum(draws) / len(draws) if draws else 0.0
        out["centrality.leading_eigenvector_nonconverged"] = self.evec_nonconverged
        out["centrality.spectral_top2_iterations"] = (
            sum(self.top2_iterations) / len(self.top2_iterations) if self.top2_iterations else 0.0
        )
        out["centrality.spectral_top2_nonconverged"] = self.top2_nonconverged

        out["bounds.bound_report_self_ms"] = _median(self_times("bounds.bound_report")) * 1e3
        out["bounds.bound_report_self_s"] = sum(self_times("bounds.bound_report"))
        out["bounds.bound_report_calls"] = len(by_name.get("bounds.bound_report", []))
        out["experiments.harness_self_s"] = sum(self_times("experiments.harness"))
        out["experiments.harness_calls"] = len(by_name.get("experiments.harness", []))
        # CSV + JSON mirror + git describe, summed per experiment call
        out["experiments.write_ms"] = _median(per_request("experiments.write")) * 1e3
        out["experiments.write_self_s"] = sum(self_times("experiments.write"))
        out["experiments.write_calls"] = len(by_name.get("experiments.write", []))
        out["cli.self_ms"] = _median(self_times(ROOT_SPAN)) * 1e3
        out["cli.self_s"] = sum(self_times(ROOT_SPAN))
        out["cli.calls"] = len(by_name.get(ROOT_SPAN, []))

        out["trace.overhead_ratio"] = traced_unit_s / untraced_unit_s if untraced_unit_s > 0 else 0.0
        accounted = sum(s.self_s for s in self.spans)
        out["trace.accounted_share"] = accounted / traced_s if traced_s > 0 else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [s._asdict() for s in self.spans]
