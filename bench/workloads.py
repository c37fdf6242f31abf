"""Workload inputs and output checks for the noisytopk benchmark.

Every input is generated from the workload seed and handed to the program
only as files: an INI config for the Monte Carlo harness workloads, and
edge-list files for bounds-cli.  The checks read the program's output
files and never the random stream, so a sampler that draws differently
still passes them.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REGIMES = ("recoverable-likely", "infeasible-boundary", "infeasible-bulk", "indeterminate")
ORACLE_RTOL = 1e-8

# harness workloads: INI text with {graphs}, {draws}, {seed_root} filled in per run.
# Full and smoke sizes share every setting except the graph sizes and counts.
HARNESS = {
    "er-dense-degree": {
        "ini": """[run]
type = topk
name = bench_er_dense_degree

[model]
kind = er
n = {n}
p = 0.25

[noise]
alpha_grid = 0.01 0.03 0.05
beta_grid = 0.05

[mc]
k = 5
graphs = {graphs}
draws = {draws}
seed_root = {seed_root}
centrality = degree
theory_curve = true
""",
        "full": {"n": 1000, "graphs": 2, "draws": 25},
        "smoke": {"n": 60, "graphs": 2, "draws": 3},
    },
    "pa-growth-degree": {
        "ini": """[run]
type = topk
name = bench_pa_growth_degree

[model]
kind = pa
m = 5
b = 1.0

[grid]
n_grid = {n_grid}

[noise]
alpha_coef = 1.0
alpha_n_power = 0.3333333333333333
alpha_log_power = 2.0
beta = 0.05

[mc]
k = 5
graphs = {graphs}
draws = {draws}
seed_root = {seed_root}
centrality = degree
""",
        "full": {"n_grid": "1000 3000 10000", "graphs": 1, "draws": 5},
        "smoke": {"n_grid": "50 100 200", "graphs": 1, "draws": 2},
    },
    "pa-jaccard-evec": {
        "ini": """[run]
type = jaccard
name = bench_pa_jaccard_evec

[model]
n = {n}
m = 3
b = 1.0

[noise]
alpha_grid = 0.001 0.01 0.05
beta_grid = 0.001 0.01 0.05

[mc]
k = 10
graphs = {graphs}
draws = {draws}
seed_root = {seed_root}
""",
        "full": {"n": 1000, "graphs": 10, "draws": 3},
        "smoke": {"n": 80, "graphs": 2, "draws": 3},
    },
}
HARNESS_CELLS = 3  # every harness grid above has three cells

# bounds-cli: (label, `noisytopk generate` arguments) at full and smoke size
BOUNDS_GRAPHS = {
    "full": (
        ("er-dense", ["er", "--n", "1000", "--p", "0.25"]),
        ("er-sparse", ["er", "--n", "1000", "--p", "0.02"]),
        ("pa", ["pa", "--n", "2000", "--m", "3"]),
        ("pa-tree", ["pa", "--n", "2000", "--m", "1"]),
        ("sw", ["sw", "--n", "2000", "--k-ring", "10", "--rewire-p", "0.1"]),
    ),
    "smoke": (
        ("er-dense", ["er", "--n", "60", "--p", "0.25"]),
        ("er-sparse", ["er", "--n", "100", "--p", "0.05"]),
        ("pa", ["pa", "--n", "120", "--m", "3"]),
        ("pa-tree", ["pa", "--n", "120", "--m", "1"]),
        ("sw", ["sw", "--n", "120", "--k-ring", "10", "--rewire-p", "0.1"]),
    ),
}
BOUNDS_SEEDS = 4  # fresh graph seeds per kind
BOUNDS_ARGS = ["--k", "5", "--alpha", "0.05", "--beta", "0.05"]

WORKLOADS = (*HARNESS, "bounds-cli")


@dataclass
class Call:
    """One closed-loop call into the program: its argv and the files it writes."""

    argv: list[str]
    outputs: list[Path]
    label: str
    expected_ops: int


@dataclass
class Outcome:
    """What one call's outputs say once checked.

    completed counts operations the program carried out and reported
    (a non-converged solve is completed but failed); errors are wrong
    outputs, which make the run incorrect.
    """

    attempted: int
    completed: int
    failed: int
    errors: list[str] = field(default_factory=list)

    @classmethod
    def lost(cls, ops: int, errors: list[str]) -> "Outcome":
        return cls(ops, 0, ops, errors)


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so the stream is the same in every process
    return random.Random(f"{workload}/{seed}")


def build_inputs(workload: str, seed: int, smoke: bool, workdir: Path) -> None:
    """Write the workload's input files into workdir.

    bounds-cli generates its graphs with the program's own `generate`
    subcommand, so that generator time lands in set-up.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    size = "smoke" if smoke else "full"
    rng = _rng(workload, seed)
    if workload in HARNESS:
        spec = HARNESS[workload]
        text = spec["ini"].format(seed_root=rng.randrange(2**31), **spec[size])
        (workdir / "workload.ini").write_text(text, encoding="ascii")
        return
    from noisytopk.cli import main

    for label, gen_args in BOUNDS_GRAPHS[size]:
        for j in range(BOUNDS_SEEDS):
            path = workdir / f"{label}-{j}.txt"
            argv = ["generate", *gen_args, "--seed", str(rng.randrange(2**31)), "--out", str(path), "--quiet"]
            if main(argv) != 0:
                raise RuntimeError(f"noisytopk {' '.join(argv)} failed")


def write_oracle(workload: str, workdir: Path) -> None:
    """Dense lambda1 of every bounds-cli graph, from numpy.linalg.eigvalsh.

    The edge lists are parsed here, not by the program, so the oracle
    shares no code with what it checks.
    """
    if workload != "bounds-cli":
        return
    import numpy as np

    oracle = {}
    for path in sorted(workdir.glob("*.txt")):
        with open(path, encoding="ascii") as fh:
            n = int(fh.readline().strip()[len("# n="):])
            edges = np.loadtxt(fh, dtype=np.int64, ndmin=2)
        dense = np.zeros((n, n))
        dense[edges[:, 0], edges[:, 1]] = 1.0
        dense[edges[:, 1], edges[:, 0]] = 1.0
        oracle[path.stem] = float(np.linalg.eigvalsh(dense)[-1])
    (workdir / "oracle.json").write_text(json.dumps(oracle, indent=1), encoding="ascii")


def unit(workload: str, smoke: bool, workdir: Path) -> list[Call]:
    """The calls of one unit of work; the closed loop repeats the unit.

    A harness unit is one `noisytopk experiment` call.  The bounds-cli unit
    is one pass of `noisytopk bounds` over every graph, so that each unit
    does the same mix of work and a run stops only between passes.
    """
    out_dir = workdir / "out"
    out_dir.mkdir(exist_ok=True)
    if workload in HARNESS:
        spec = HARNESS[workload]["smoke" if smoke else "full"]
        base = out_dir / "experiment"
        argv = ["experiment", str(workdir / "workload.ini"), "--out", str(base), "--threads", "1", "--quiet"]
        draws = HARNESS_CELLS * spec["graphs"] * spec["draws"]
        outputs = [base.with_suffix(".csv"), base.with_suffix(".json")]
        return [Call(argv, outputs, workload, draws)]
    calls = []
    for path in sorted(workdir.glob("*.txt")):
        report = out_dir / f"{path.stem}.json"
        argv = ["bounds", "--in", str(path), *BOUNDS_ARGS, "--out", str(report), "--quiet"]
        calls.append(Call(argv, [report], path.stem, 1))
    return calls


def check(workload: str, smoke: bool, workdir: Path, call: Call, returned) -> Outcome:
    """Correctness gate for one call; returned is its exit code or exception."""
    if returned != 0:
        return Outcome.lost(call.expected_ops, [])
    try:
        if workload in HARNESS:
            return _check_harness(workload, smoke, call)
        return _check_report(workdir, call)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome.lost(call.expected_ops, [f"{call.label}: unreadable output: {exc!r}"])


def _check_harness(workload: str, smoke: bool, call: Call) -> Outcome:
    spec = HARNESS[workload]["smoke" if smoke else "full"]
    csv_path, json_path = call.outputs
    with open(csv_path, newline="", encoding="ascii") as fh:
        csv_rows = list(csv.DictReader(fh))
    with open(json_path, encoding="ascii") as fh:
        json_rows = json.load(fh)["rows"]

    errors = []
    if len(csv_rows) != HARNESS_CELLS or len(json_rows) != HARNESS_CELLS:
        errors.append(f"expected {HARNESS_CELLS} rows, got csv {len(csv_rows)} json {len(json_rows)}")
    excluded = 0
    for i, (crow, jrow) in enumerate(zip(csv_rows, json_rows)):
        if set(crow) != set(jrow):
            errors.append(f"row {i}: csv and json columns differ")
            continue
        for key, text in crow.items():
            # the JSON mirror writes non-finite floats as "nan"/"inf"/"-inf"; float() reads both forms
            a, b = float(text), float(jrow[key])
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                errors.append(f"row {i}: {key} is {text} in csv but {jrow[key]} in json")
        lo, mid, hi = (float(jrow[k]) for k in ("mean_lower_bound", "mean_half_hamming", "mean_upper_bound"))
        if not lo <= mid <= hi:
            errors.append(f"row {i}: sandwich {lo} <= {mid} <= {hi} fails")
        n_draws = int(jrow["n_draws"])
        if n_draws != spec["graphs"] * spec["draws"]:
            errors.append(f"row {i}: n_draws {n_draws} != {spec['graphs']} x {spec['draws']}")
        n_excluded = int(jrow["n_excluded"])
        if not 0 <= n_excluded <= n_draws:
            errors.append(f"row {i}: n_excluded {n_excluded} outside [0, {n_draws}]")
        excluded += n_excluded
        for key in ("jaccard_degree", "jaccard_evec"):
            value = float(jrow[key])
            no_evec = key == "jaccard_evec" and (workload != "pa-jaccard-evec" or n_excluded == n_draws)
            if not (0.0 <= value <= 1.0 or (math.isnan(value) and no_evec)):
                errors.append(f"row {i}: {key} = {value} outside [0, 1]")
    if errors:
        return Outcome.lost(call.expected_ops, errors)
    return Outcome(call.expected_ops, call.expected_ops, excluded)


def _check_report(workdir: Path, call: Call) -> Outcome:
    (report_path,) = call.outputs
    report = json.loads(report_path.read_text(encoding="ascii"))
    oracle = json.loads((workdir / "oracle.json").read_text(encoding="ascii"))[call.label]
    errors = []
    if report.get("regime") not in REGIMES:
        errors.append(f"{call.label}: regime {report.get('regime')!r} is not one of {REGIMES}")
    evec = report.get("evec")
    if not isinstance(evec, dict):
        errors.append(f"{call.label}: report has no eigenvector section")
        return Outcome.lost(1, errors)
    converged = evec.get("converged") is True
    if converged and not abs(evec["lambda1"] - oracle) <= ORACLE_RTOL * abs(oracle):
        errors.append(f"{call.label}: lambda1 {evec['lambda1']!r} vs dense oracle {oracle!r}")
    if errors:
        return Outcome.lost(1, errors)
    return Outcome(1, 1, 0 if converged else 1)
