"""Command line interface.

Subcommands generate, perturb, centrality, bounds and experiment keep one
contract, set in main: exit 0 on success; 2 on a usage or value error (a
flag's type or range, an unused flag, a bad rate, --k or config value); 3 on
a runtime failure (a missing --out directory, an I/O error, an eigensolve
that exhausts --max-iter).  --quiet hides the "wrote ..." line alone.  Check
order: parser, --out's directory, graph-dependent --k and --i-star, eigensolve.

Experiment configs use configparser syntax with the keys in KEYS.  Outputs
depend on the inputs alone: wall time and the source version go to stdout.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import _fields, bound_report, evec_report
from .centrality import spectral_top2, top_k
from .experiments import (
    MODELS,
    ExperimentConfig,
    NoiseSchedule,
    make_graph,
    run_figure1_profile,
    run_localization,
    run_topk_experiment,
)
from .graphs import STREAM_VERSION, NoiseParams, apply_noise, load_edge_list, save_edge_list

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _add_common(sub: argparse.ArgumentParser, out_required: bool = False) -> None:
    sub.add_argument("--out", type=str, required=out_required, help="output path (or base path)")
    sub.add_argument("--quiet", action="store_true", help="do not print the 'wrote ...' line")


# defaults of the flags some runs do not use; such a subcommand registers them as None and calls _reject_unused
_DEFAULTS = {"seed": 0, "tol": 1e-10, "max_iter": 10000, "format": "csv"}


def _seed(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text}")
    return int(text)


def _add_seed(sub: argparse.ArgumentParser, what: str) -> None:
    sub.add_argument("--seed", type=_seed, default=_DEFAULTS["seed"], help=f"{what} seed (default 0)")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return value


def _add_solver(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=_nonnegative_float,
                     help="ARPACK relative accuracy of the eigenvalues (default 1e-10; 0 means machine precision)")
    sub.add_argument("--max-iter", type=_positive_int,
                     help="ARPACK budget of Lanczos restarts; exhausting it exits 3 (default 10000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisytopk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"noisytopk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("generate", help="write a random graph as an edge list")
    p_gen.add_argument("model", choices=tuple(MODELS))
    p_gen.add_argument("--n", type=int, required=True, help="number of nodes")
    for model, table in MODELS.items():
        for key, (parse, default) in table.items():
            need = "required" if default is ... else f"default {default}"
            p_gen.add_argument(f"--{key.replace('_', '-')}", type=parse, help=f"{model} only, {need}")
    _add_seed(p_gen, "RNG")
    _add_common(p_gen, out_required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_prt = subs.add_parser("perturb", help="apply edge-flip noise to an edge list")
    p_prt.add_argument("--in", dest="input", type=str, required=True, help="input edge list")
    p_prt.add_argument("--alpha", type=float, required=True, help="addition probability")
    p_prt.add_argument("--beta", type=float, required=True, help="deletion probability")
    _add_seed(p_prt, "RNG")
    _add_common(p_prt, out_required=True)
    p_prt.set_defaults(func=cmd_perturb)

    p_cen = subs.add_parser("centrality", help="degree / eigenvector scores of an edge list")
    p_cen.add_argument("--in", dest="input", type=str, required=True, help="input edge list")
    p_cen.add_argument("--kind", choices=("degree", "eigenvector", "both"), default="both")
    p_cen.add_argument("--k", type=int, default=None, help="also report the top-k node sets")
    p_cen.add_argument("--format", choices=("csv", "json"), help="format of the --out table (default csv)")
    _add_seed(p_cen, "top-k tie-break")
    _add_solver(p_cen)
    _add_common(p_cen)
    p_cen.set_defaults(func=cmd_centrality, **dict.fromkeys(_DEFAULTS))

    p_bnd = subs.add_parser("bounds", help="recovery / infeasibility report for an edge list")
    p_bnd.add_argument("--in", dest="input", type=str, required=True, help="input edge list")
    p_bnd.add_argument("--k", type=int, required=True)
    p_bnd.add_argument("--alpha", type=float, required=True)
    p_bnd.add_argument("--beta", type=float, required=True)
    p_bnd.add_argument("--delta", type=float, default=0.05, help="failure budget (default 0.05)")
    p_bnd.add_argument("--c1", type=float, default=0.5, help="boundary threshold constant in (0,1)")
    p_bnd.add_argument("--c-of-n", type=float, default=None, help="slack constant (default ln ln n, min 1)")
    p_bnd.add_argument("--i-star", type=int, default=None, help="bulk split rank (default: auto)")
    p_bnd.add_argument("--no-evec", action="store_true", help="skip the eigenvector bound")
    _add_solver(p_bnd)
    _add_common(p_bnd)
    p_bnd.set_defaults(func=cmd_bounds)

    p_exp = subs.add_parser("experiment", help="run a Monte Carlo study from a config file")
    p_exp.add_argument("config", type=str, help="key=value config file with sections")
    p_exp.add_argument("--threads", type=_positive_int, default=1, help="worker processes for the harness (default 1)")
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def _reject_unused(args, run: str, **uses: bool) -> None:
    """Exit 2 naming each given flag that uses marks unused by the run; fill the absent flags from _DEFAULTS."""
    if unused := [f"--{key.replace('_', '-')}" for key, use in uses.items() if not use and vars(args)[key] is not None]:
        raise ValueError(f"{run} does not use {', '.join(unused)}")
    vars(args).update({key: _DEFAULTS[key] for key in uses if vars(args)[key] is None})


def cmd_generate(args) -> None:
    # every model's flags are registered; make_graph rejects those of another model
    given = {key: getattr(args, key) for table in MODELS.values() for key in table if getattr(args, key) is not None}
    g = make_graph(args.model, given, args.n, args.seed)
    save_edge_list(g, args.out)
    if not args.quiet:
        print(f"wrote {args.out}: n={g.n} edges={g.num_edges} mean_degree={2 * g.num_edges / g.n:.4f}")


def cmd_perturb(args) -> None:
    params = NoiseParams(alpha=args.alpha, beta=args.beta)  # a bad rate exits before the graph is read
    g = load_edge_list(args.input)
    y = apply_noise(g, params, args.seed)
    save_edge_list(y, args.out)
    if not args.quiet:  # the flip counts serve the progress line alone
        kept = np.intersect1d(g.edge_linear_indices(), y.edge_linear_indices(), assume_unique=True).size
        print(f"wrote {args.out}: edges={y.num_edges} added={y.num_edges - kept} deleted={g.num_edges - kept}")


class _NotConverged(Exception):
    """An eigensolve that exhausted --max-iter; main exits 3 on it, as on an I/O error."""


def _solve_top2(g, args):
    pair = spectral_top2(g, tol=args.tol, max_iter=args.max_iter)
    if not pair.converged:
        raise _NotConverged(f"eigenvector solve did not converge in {args.max_iter} Lanczos restarts "
                            f"(residual {pair.residual:.3e})")
    return pair


def cmd_centrality(args) -> None:
    evec = args.kind != "degree"
    _reject_unused(args, f"centrality --kind {args.kind}",
                   seed=args.k is not None, tol=evec, max_iter=evec, format=args.out is not None)
    g = load_edge_list(args.input)
    if args.k is not None and not 1 <= args.k <= g.n:  # checked before the eigensolve, as bounds does
        raise ValueError(f"--k must lie in 1..n = {g.n}, got {args.k}")
    scores = {"degree": g.degree_array()}
    report: dict = {"n": g.n, "num_edges": g.num_edges}

    if evec:
        pair = _solve_top2(g, args)
        scores["eigenvector"] = pair.x
        report.update(_fields(pair, "x", "converged", "residual"))
        if args.k is not None:
            report["topk_eigenvector"] = sorted(top_k(pair.x, args.k, args.seed).members)
    if args.kind != "eigenvector" and args.k is not None:
        report["topk_degree"] = sorted(top_k(scores["degree"], args.k, args.seed).members)

    if args.out is not None:  # one row per node, so the table is built only to be written
        columns = (col.astype(float).tolist() for col in scores.values())
        rows = [dict(zip(("node", *scores), row)) for row in zip(range(g.n), *columns)]
        if args.format == "json":
            write_json_mirror(args.out, report, rows)
        else:
            write_summary_csv(rows, args.out)
        if not args.quiet:
            print(f"wrote {args.out}")
    for key, val in report.items():
        print(f"{key}: {val}")


def cmd_bounds(args) -> None:
    _reject_unused(args, "bounds --no-evec", tol=not args.no_evec, max_iter=not args.no_evec)
    params = NoiseParams(alpha=args.alpha, beta=args.beta)  # a bad rate exits before the graph is read
    g = load_edge_list(args.input)
    report = bound_report(
        g.degree_array(), k=args.k, params=params, delta=args.delta, c1=args.c1, c_of_n=args.c_of_n, i_star=args.i_star
    )
    if not args.no_evec:
        report["evec"] = evec_report(_solve_top2(g, args), args.k, params)
    text = _json_text(report)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"wrote {args.out}: regime={report['regime']}")


# ------------------------------------------------------- experiment config


def _list_of(parse):
    return lambda text: tuple(parse(tok) for tok in text.split())


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# Every key a config may hold, per [run] type: key -> (section, parser,
# default), where a default of ... marks a required key.  Key names are
# unique within a type.  _read_config rejects anything else in the file.
_COMMON = {"type": ("run", str, ...), "name": ("run", str, None), "seed_root": ("mc", int, 0)}
_HARNESS = {"k": ("mc", int, ...), "graphs": ("mc", int, ...), "draws": ("mc", int, ...)}
_MODELS = {
    model: {key: ("model", parse, default) for key, (parse, default) in table.items()}
    for model, table in MODELS.items()
}
# a harness grid varies the flip rates at fixed n, or n under per-size rate schedules
_NOISE_SWEEP = {"n": ("model", int, ...), "alpha_grid": ("noise", _list_of(float), ...),
                "beta_grid": ("noise", _list_of(float), ...)}
_SIZE_SWEEP = {
    "n_grid": ("grid", _list_of(int), ...),
    **{rate + part: ("noise", float, None) for rate in ("alpha", "beta") for part in ("", "_coef")},
    **{rate + part: ("noise", float, 0.0) for rate in ("alpha", "beta") for part in ("_n_power", "_log_power")},
}
KEYS = {
    # plus the keys of its [model] kind and of its grid (with or without [grid] n_grid)
    "topk": {**_HARNESS, "kind": ("model", str, ...), "centrality": ("mc", str, "degree"),
             "theory_curve": ("mc", _boolean, False)},
    # topk on PA with both centralities over a noise grid: _JACCARD fixes the rest
    "jaccard": {**_HARNESS, **_MODELS["pa"], **_NOISE_SWEEP},
    "localization": {"n_grid": ("grid", _list_of(int), ...), "b": _MODELS["pa"]["b"], "reps": ("mc", int, 200)},
    "figure1": {"n": ("model", int, ...), "mean_degree": ("model", int, ...), "rewire_p": ("model", float, 0.1),
                "pa_m": ("model", int, None), "pa_b": _MODELS["pa"]["b"],
                "alpha": ("noise", float, ...), "beta": ("noise", float, ...)},
}
_JACCARD = {"kind": "pa", "centrality": "both", "theory_curve": False}


def _read_config(path: str) -> tuple[str, dict, configparser.ConfigParser]:
    """Check a config file against KEYS; return its type, its values by key and the parser."""
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise OSError(f"cannot read config file {path!r}")
    if cp.defaults():
        # configparser copies [DEFAULT] keys into every section
        raise ValueError(f"{path}: [DEFAULT] {', '.join(cp.defaults())} is not read; give each key its own section")
    run_type = cp.get("run", "type", fallback=None)
    if run_type not in KEYS:
        raise ValueError(f"{path}: [run] type must be one of {', '.join(KEYS)}, got {run_type!r}")
    keys = {**_COMMON, **KEYS[run_type]}
    where = f"type = {run_type}"
    if run_type == "topk":
        kind = cp.get("model", "kind", fallback=None)
        if kind not in _MODELS:
            raise ValueError(f"{path}: [model] kind must be one of {', '.join(_MODELS)}, got {kind!r}")
        size_sweep = cp.has_option("grid", "n_grid")
        keys |= {**_MODELS[kind], **(_SIZE_SWEEP if size_sweep else _NOISE_SWEEP)}
        where += f", kind = {kind}, {'with' if size_sweep else 'without'} [grid] n_grid"
        for rate in ("alpha", "beta") if size_sweep else ():
            given = sorted(key for key in _SIZE_SWEEP if key.startswith(rate) and cp.has_option("noise", key))
            if given != [rate] and (rate in given or f"{rate}_coef" not in given):
                raise ValueError(f"{path}: [noise] takes {rate} alone or {rate}_coef with optional "
                                 f"{rate}_n_power and {rate}_log_power, got {', '.join(given) or 'none'}")

    for sec in cp.sections():
        for key in cp.options(sec):
            if keys.get(key, (None,))[0] != sec:
                raise ValueError(f"{path}: [{sec}] {key} is not read by {where}")
        if not cp.options(sec):
            raise ValueError(f"{path}: empty section [{sec}] is not read by {where}")
    values = dict(_JACCARD) if run_type == "jaccard" else {}
    for key, (sec, parse, default) in keys.items():
        if not cp.has_option(sec, key):
            if default is ...:
                raise ValueError(f"{path}: [{sec}] {key} is missing")
            values[key] = default
            continue
        try:
            values[key] = parse(cp.get(sec, key))
        except ValueError as exc:
            raise ValueError(f"{path}: [{sec}] {key}: {exc}") from None
    return run_type, values, cp


def _schedule(v: dict, rate: str) -> NoiseSchedule:
    # _read_config lets through a constant rate or a coefficient with its powers, not both
    coef = v[rate] if v[f"{rate}_coef"] is None else v[f"{rate}_coef"]
    return NoiseSchedule(coef, v[f"{rate}_n_power"], v[f"{rate}_log_power"])


def _noise_grid(alphas: tuple[float, ...], betas: tuple[float, ...]) -> tuple[NoiseParams, ...]:
    if len(betas) == 1:
        betas = betas * len(alphas)
    if len(betas) != len(alphas):
        raise ValueError("alpha_grid and beta_grid lengths differ")
    return tuple(NoiseParams(a, b) for a, b in zip(alphas, betas))


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


def cmd_experiment(args) -> None:
    run_type, v, cp = _read_config(args.config)
    if args.threads > 1 and run_type in ("localization", "figure1"):  # only the topk harness maps over workers
        raise ValueError(f"{args.config}: --threads applies to topk and jaccard runs, not to a {run_type} run")
    model = v.get("kind", "all" if run_type == "figure1" else "pa")
    base = args.out or f"{run_type}_{model}_{datetime.now(timezone.utc).strftime('%Y%m%dT%H%M%SZ')}"
    csv_path, json_path = f"{base}.csv", f"{base}.json"

    started = time.monotonic()
    try:
        if run_type == "localization":
            found = run_localization(v["n_grid"], reps=v["reps"], b=v["b"], seed_root=v["seed_root"])
            table = rows = [asdict(row) for row in found]
        elif run_type == "figure1":
            profile = run_figure1_profile(
                n=v["n"], mean_degree=v["mean_degree"], noise=NoiseParams(alpha=v["alpha"], beta=v["beta"]),
                seed=v["seed_root"], rewire_p=v["rewire_p"], pa_m=v["pa_m"], pa_b=v["pa_b"],
            )
            rows = [{"model": name, **entry} for name, entry in profile["models"].items()]
            table = [dict(zip(("model", "rank", "node", "true_degree", "noisy_degree"), (name, *line)))
                     for name, entry in profile["models"].items() for line in entry["rows"]]
        else:
            size_sweep = "n_grid" in v
            cfg = ExperimentConfig(
                model=v["kind"],
                model_params={key: v[key] for key in ("n", *_MODELS[v["kind"]]) if key in v},
                k=v["k"],
                graphs_per_point=v["graphs"],
                noise_draws_per_graph=v["draws"],
                seed_root=v["seed_root"],
                alpha=_schedule(v, "alpha") if size_sweep else None,
                beta=_schedule(v, "beta") if size_sweep else None,
                n_grid=v["n_grid"] if size_sweep else (),
                noise_grid=() if size_sweep else _noise_grid(v["alpha_grid"], v["beta_grid"]),
                centrality=v["centrality"],
                theory_curve=v["theory_curve"],
            )
            table = rows = [asdict(row) for row in run_topk_experiment(cfg, threads=args.threads)]
        write_summary_csv(table, csv_path)
    except ValueError as exc:
        # the study rejects values the key table cannot check on its own
        raise ValueError(f"{args.config}: {exc}") from None
    meta = {
        "experiment": run_type,
        "config": {sec: dict(cp.items(sec)) for sec in cp.sections()},
        "seed_root": v["seed_root"],
        "package_version": __version__,
        "stream_version": STREAM_VERSION,
    }
    write_json_mirror(json_path, meta, rows)

    elapsed = time.monotonic() - started
    if not args.quiet:  # the source version goes to stdout only, so the outputs depend on the config alone
        print(f"wrote {csv_path} and {json_path} (wall time {elapsed:.2f}s, source {git_describe()})")


# ---------------------------------------------------------------- output


def write_summary_csv(records: list[dict], path) -> None:
    """Write records as CSV headed by the first record's keys; floats keep every digit (repr)."""
    if not records:
        raise ValueError("no rows to write")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in record.values()] for record in records)


def _json_text(doc) -> str:
    """Strict JSON text of doc with sorted keys; non-finite floats become 'nan'/'inf'/'-inf'."""

    def sanitize(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
        if isinstance(obj, dict):
            return {key: sanitize(val) for key, val in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(val) for val in obj]
        return obj

    return json.dumps(sanitize(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_mirror(path, meta: dict, records: list[dict]) -> None:
    """JSON companion to a CSV: {'meta': ..., 'rows': [...]} as _json_text writes it."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_json_text({"meta": meta, "rows": records}))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None and not os.path.isdir(folder := os.path.dirname(args.out) or "."):
            raise FileNotFoundError(f"output directory {folder!r} does not exist")
        args.func(args)
    except (ValueError, configparser.Error, OSError, _NotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, (OSError, _NotConverged)) else EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
