#!/usr/bin/env python3
"""Benchmark of the noisytopk command line program.

Run from the root of a source checkout:

    python3 bench/run.py --workload er-dense-degree --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20      # every workload, one table
    python3 bench/run.py --workload all --smoke --seconds 1        # toy sizes, every check

Each run is a single-process closed loop: one caller invokes
``noisytopk.cli.main`` in-process and waits for each call, with the
harness at ``--threads 1`` and every BLAS thread variable pinned to 1.
Set-up (import of ``noisytopk`` plus writing the input files) is timed
in fresh interpreters, several times, and reported as a median.  Every
call's outputs pass a correctness gate outside the timed region.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, measured by ``spans.py``
on units that alternate with untraced ones, so that the tracing
overhead is measured too.  BENCHMARK.json names both sets.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
record (environment, output digest, samples, failures with their base)
is written to ``.bench_work/results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from spans import ROOT_SPAN, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# nothing above imports numpy; the pins reach this process and every child
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# git, run for the environment record and by the program itself, must not
# look for a repository above the checkout
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, failed set-up)."""


def import_program():
    """Import noisytopk from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import noisytopk.cli

    if Path(noisytopk.__file__).resolve().parent != SRC / "noisytopk":
        raise BenchError(f"imported noisytopk from {noisytopk.__file__}, not from {SRC}")
    return noisytopk.cli


def setup_probe(args) -> None:
    """Child process: time the import plus input writing from a fresh interpreter."""
    workdir = Path(args.workdir)
    start = time.perf_counter()
    import_program()
    W.build_inputs(args.workload, args.seed, args.smoke, workdir)
    elapsed = time.perf_counter() - start
    if args.oracle:
        W.write_oracle(args.workload, workdir)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(args, workdir: Path) -> tuple[list[float], Path]:
    """Median-able set-up samples; the first probe's files are the run's inputs."""
    samples = []
    repeats = 1 if args.smoke else SETUP_REPEATS
    for i in range(repeats):
        target = workdir / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(target)]
        if args.smoke:
            cmd.append("--smoke")
        if i == 0:
            cmd.append("--oracle")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        if i > 0:
            shutil.rmtree(target)
    return samples, workdir / "setup0"


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "git_describe": git_describe(),
    }


def run_call(cli, call: W.Call, tracer: Tracer | None):
    """One timed call; returns (seconds, exit code or exception)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                returned = cli.main(call.argv)
            else:
                returned = tracer.call(ROOT_SPAN, cli.main, call.argv)
    except Exception as exc:  # a raising call is a failed operation, not a benchmark crash
        returned = exc
    return time.perf_counter() - start, returned


def digest_of(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def measure(args, cli, inputs: Path) -> dict:
    """Closed loop over whole units until --seconds have passed."""
    calls = W.unit(args.workload, args.smoke, inputs)
    tracer = Tracer() if args.trace else None
    m = {
        "call_s": [], "traced_units": [], "untraced_units": [],
        "attempted": 0, "completed": 0, "failed": 0,
        "errors": [],  # wrong outputs: the run is not correct
        "failures": [],  # calls that exited non-zero or raised
        "digest": None, "tracer": tracer,
    }
    first_outputs: dict[Path, bytes] = {}
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced units, so overhead is measured on equal work
        traced = bool(args.trace) and len(m["untraced_units"]) > len(m["traced_units"])
        unit_s = 0.0
        for call in calls:
            if traced:
                tracer.request = len(m["traced_units"])
                tracer.install()
            seconds, returned = run_call(cli, call, tracer if traced else None)
            if traced:
                tracer.uninstall()  # the gate reads outputs untraced
            unit_s += seconds
            m["call_s"].append(seconds)
            if returned != 0:
                m["failures"].append(f"{call.label}: returned {returned!r}")
            outcome = W.check(args.workload, args.smoke, inputs, call, returned)
            for path in call.outputs:
                data = path.read_bytes() if path.exists() else b""
                if first_outputs.setdefault(path, data) != data:
                    mismatch = f"{call.label}: {path.name} differs from the first call's"
                    outcome = W.Outcome.lost(outcome.attempted, outcome.errors + [mismatch])
            m["attempted"] += outcome.attempted
            m["completed"] += outcome.completed
            m["failed"] += outcome.failed
            m["errors"].extend(outcome.errors)
        if m["digest"] is None:
            m["digest"] = digest_of(path for call in calls for path in call.outputs)
        (m["traced_units"] if traced else m["untraced_units"]).append(unit_s)
        if time.perf_counter() - start >= args.seconds and (not args.trace or m["traced_units"]):
            return m


def run(args) -> int:
    cli_start = time.perf_counter()
    if not (SRC / "noisytopk" / "__init__.py").is_file():
        raise BenchError(f"no noisytopk package under {SRC}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    try:
        setup_samples, inputs = measure_setup(args, workdir)
        cli = import_program()
        env = environment(args.seed)
        m = measure(args, cli, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = list(m["errors"])
    attempted, failed = m["attempted"], m["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "loop": "closed, 1 caller, harness threads=1", "env": env, "digest": m["digest"],
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "completed": m["completed"], "setup_samples_s": setup_samples, "call_samples_s": m["call_s"],
        "errors": m["errors"][:50], "failures": m["failures"][:50],
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, 1 caller, threads=1")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"digest {m['digest']}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted!r}")
    for e in m["errors"][:10]:
        print(f"wrong output: {e}")
    for e in m["failures"][:10]:
        print(f"failed call: {e}")

    if args.trace:
        tracer = m["tracer"]
        law = tracer.noise_law()
        record["noise_law"] = law
        for cell in law:
            if not cell["ok"]:
                wrong.append(f"noise law: cell n={cell['n']} alpha={cell['alpha']} beta={cell['beta']} z={cell['z']}")
            print(f"noise law n={cell['n']} alpha={cell['alpha']!r} beta={cell['beta']!r}: "
                  f"mean {cell['mean_out_edges']!r} expected {cell['expected']!r} z={cell['z']:.3f}")
        metrics = tracer.metrics(
            traced_s=sum(m["traced_units"]),
            untraced_unit_s=statistics.median(m["untraced_units"]),
            traced_unit_s=statistics.median(m["traced_units"]),
        )
        spans_path = results / f"{tag}-spans.json"
        spans_path.write_text(json.dumps(tracer.span_records()), encoding="ascii")
        record["spans_file"] = spans_path.name
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": m["completed"] / sum(m["call_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        latency = "report_ms_p50" if args.workload == "bounds-cli" else "experiment_ms_p50"
        print(f"{latency} {statistics.median(m['call_s']) * 1e3!r} ms over {len(m['call_s'])} calls")
        print(f"ops_per_s: {m['completed']} {'reports' if args.workload == 'bounds-cli' else 'draws'} "
              f"completed in {sum(m['call_s'])!r} s of calls; setup_s median of {len(setup_samples)}")
    # BENCHMARK.json names every metric, its unit and the order it is reported in
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")

    record["metrics"] = metrics
    record["correct"] = not wrong
    record["wall_s"] = time.perf_counter() - cli_start
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="ascii")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one table of metrics by name and unit."""
    summary = {}
    ok = True
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark failed\n{proc.stderr.strip()[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        summary[workload] = result
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']}")
        for line in lines[:-1]:
            if line.startswith(("digest ", "failed_ratio ", "report_ms_p50 ", "experiment_ms_p50 ")):
                print(f"  {line}")
        for name, metric in result["metrics"].items():
            print(f"  {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes; every check still runs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
