"""Command line interface.

Subcommands: generate, perturb, centrality, bounds, experiment.
Exit codes: 0 success, 2 usage or validation error, 3 runtime failure
(I/O problems, exhausted solver budgets).

Experiment runs are driven by a flat key=value config file with sections
(configparser syntax); see the bundled files under configs/ for the
schema.  Data outputs are deterministic for a fixed seed: wall time is
printed to stdout, never written into the output files.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .bounds import bound_report
from .centrality import degree_scores, spectral_top2, top_k
from .experiments import (
    ExperimentConfig,
    NoiseSchedule,
    git_describe,
    json_text,
    run_figure1_profile,
    run_jaccard_comparison,
    run_localization,
    run_topk_experiment,
    write_figure1_csv,
    write_csv,
    write_json_mirror,
    write_localization_csv,
    write_summary_csv,
)
from .graphs import PaParams, generate_er, generate_pa, generate_small_world, load_edge_list, save_edge_list
from .noise import NoiseParams, apply_noise

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _add_common(sub: argparse.ArgumentParser, out_required: bool = False) -> None:
    sub.add_argument("--out", type=str, required=out_required, help="output path (or base path)")
    sub.add_argument("--quiet", action="store_true", help="suppress progress chatter")


def _add_seed(sub: argparse.ArgumentParser, what: str) -> None:
    sub.add_argument("--seed", type=int, default=0, help=f"{what} seed (default 0)")


def _add_solver(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tol", type=float, default=1e-10,
        help="ARPACK relative accuracy of the eigenvalues (default 1e-10; 0 means machine precision)",
    )
    sub.add_argument(
        "--max-iter", type=int, default=10000,
        help="ARPACK budget of Lanczos restarts; exhausting it exits 3 (default 10000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisytopk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"noisytopk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("generate", help="write a random graph as an edge list")
    p_gen.add_argument("model", choices=("er", "pa", "sw"))
    p_gen.add_argument("--n", type=int, required=True, help="number of nodes")
    p_gen.add_argument("--p", type=float, default=None, help="er: edge probability")
    p_gen.add_argument("--m", type=int, default=None, help="pa: edges per new node")
    p_gen.add_argument("--b", type=float, default=1.0, help="pa: attachment offset (default 1)")
    p_gen.add_argument("--k-ring", type=int, default=None, help="sw: ring degree (even)")
    p_gen.add_argument("--rewire-p", type=float, default=None, help="sw: rewiring probability")
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
    p_cen.add_argument("--format", choices=("csv", "json"), default="csv", help="format of the --out table")
    _add_seed(p_cen, "top-k tie-break")
    _add_solver(p_cen)
    _add_common(p_cen)
    p_cen.set_defaults(func=cmd_centrality)

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
    p_exp.add_argument("--threads", type=int, default=1, help="worker processes for the harness (default 1)")
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_generate(args) -> int:
    if args.model == "er":
        if args.p is None:
            raise ValueError("er needs --p")
        g = generate_er(args.n, args.p, args.seed)
    elif args.model == "pa":
        if args.m is None:
            raise ValueError("pa needs --m")
        g = generate_pa(PaParams(n=args.n, m=args.m, b=args.b), args.seed)
    else:
        if args.k_ring is None or args.rewire_p is None:
            raise ValueError("sw needs --k-ring and --rewire-p")
        g = generate_small_world(args.n, args.k_ring, args.rewire_p, args.seed)
    save_edge_list(g, args.out)
    _say(args, f"wrote {args.out}: n={g.n} edges={g.num_edges} mean_degree={2 * g.num_edges / g.n:.4f}")
    return EXIT_OK


def cmd_perturb(args) -> int:
    g = load_edge_list(args.input)
    y = apply_noise(g, NoiseParams(alpha=args.alpha, beta=args.beta), args.seed)
    save_edge_list(y, args.out)
    added = len(y.edge_set() - g.edge_set())
    deleted = len(g.edge_set() - y.edge_set())
    _say(args, f"wrote {args.out}: edges={y.num_edges} added={added} deleted={deleted}")
    return EXIT_OK


def _nonconverged(args, residual: float) -> int:
    print(
        f"error: eigenvector solve did not converge in {args.max_iter} Lanczos restarts "
        f"(residual {residual:.3e})",
        file=sys.stderr,
    )
    return EXIT_RUNTIME


def cmd_centrality(args) -> int:
    g = load_edge_list(args.input)
    deg = degree_scores(g)
    rows = [{"node": i, "degree": float(deg.scores[i])} for i in range(g.n)]
    report: dict = {"n": g.n, "num_edges": g.num_edges}

    if args.kind in ("eigenvector", "both"):
        pair = spectral_top2(g, tol=args.tol, max_iter=args.max_iter)
        if not pair.converged:
            return _nonconverged(args, pair.residual)
        for i in range(g.n):
            rows[i]["eigenvector"] = float(pair.x.scores[i])
        report.update(
            lambda1=pair.lambda1,
            lambda2=pair.lambda2,
            degenerate=pair.degenerate,
            disconnected=pair.disconnected,
            iterations=pair.iterations,
        )
        if args.k is not None:
            report["topk_eigenvector"] = sorted(top_k(pair.x, args.k, args.seed).members)
    if args.kind in ("degree", "both") and args.k is not None:
        report["topk_degree"] = sorted(top_k(deg, args.k, args.seed).members)

    if args.out is None:
        for key, val in report.items():
            _say(args, f"{key}: {val}")
        return EXIT_OK
    if args.format == "json":
        write_json_mirror(args.out, report, rows)
    else:
        names = list(rows[0])
        write_csv(args.out, names, ([row[name] for name in names] for row in rows))
    _say(args, f"wrote {args.out}")
    for key, val in report.items():
        if not isinstance(val, list):
            _say(args, f"{key}: {val}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    g = load_edge_list(args.input)
    report = bound_report(
        g,
        k=args.k,
        params=NoiseParams(alpha=args.alpha, beta=args.beta),
        delta=args.delta,
        c1=args.c1,
        c_of_n=args.c_of_n,
        i_star=args.i_star,
        include_evec=not args.no_evec,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    if report["evec"] is not None and not report["evec"]["converged"]:
        return _nonconverged(args, report["evec"]["residual"])
    text = json_text(report)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        _say(args, f"wrote {args.out}: regime={report['regime']}")
    return EXIT_OK


# ------------------------------------------------------- experiment config


def _cfg_get(cp: configparser.ConfigParser, section: str, key: str, default=None, required=False):
    if cp.has_option(section, key):
        return cp.get(section, key)
    if required:
        raise ValueError(f"config is missing [{section}] {key}")
    return default


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split()]


def _schedule_from_cfg(cp: configparser.ConfigParser, which: str) -> NoiseSchedule:
    flat = _cfg_get(cp, "noise", which)
    if flat is not None:
        return NoiseSchedule.constant(float(flat))
    coef = _cfg_get(cp, "noise", f"{which}_coef")
    if coef is None:
        raise ValueError(f"config needs [noise] {which} or {which}_coef")
    return NoiseSchedule(
        coef=float(coef),
        n_power=float(_cfg_get(cp, "noise", f"{which}_n_power", 0.0)),
        log_power=float(_cfg_get(cp, "noise", f"{which}_log_power", 0.0)),
    )


def _noise_grid_from_cfg(cp: configparser.ConfigParser) -> tuple[NoiseParams, ...]:
    alphas = _floats(_cfg_get(cp, "noise", "alpha_grid", required=True))
    beta_text = _cfg_get(cp, "noise", "beta_grid", required=True)
    betas = _floats(beta_text)
    if len(betas) == 1:
        betas = betas * len(alphas)
    if len(betas) != len(alphas):
        raise ValueError("alpha_grid and beta_grid lengths differ")
    return tuple(NoiseParams(a, b) for a, b in zip(alphas, betas))


def _model_params_from_cfg(cp: configparser.ConfigParser, kind: str, need_n: bool) -> dict:
    out: dict = {}
    if kind == "er":
        out["p"] = float(_cfg_get(cp, "model", "p", required=True))
    elif kind == "pa":
        out["m"] = int(_cfg_get(cp, "model", "m", required=True))
        out["b"] = float(_cfg_get(cp, "model", "b", 1.0))
    elif kind == "sw":
        out["k_ring"] = int(_cfg_get(cp, "model", "k_ring", required=True))
        out["rewire_p"] = float(_cfg_get(cp, "model", "rewire_p", required=True))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    if need_n:
        out["n"] = int(_cfg_get(cp, "model", "n", required=True))
    return out


def _experiment_outputs(args, run_type: str, model: str) -> tuple[str, str]:
    if args.out:
        base = args.out
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        base = f"{run_type}_{model}_{stamp}"
    return f"{base}.csv", f"{base}.json"


def cmd_experiment(args) -> int:
    cp = configparser.ConfigParser()
    read = cp.read(args.config)
    if not read:
        raise OSError(f"cannot read config file {args.config!r}")
    run_type = _cfg_get(cp, "run", "type", required=True)
    seed_root = int(_cfg_get(cp, "mc", "seed_root", 0))

    started = time.monotonic()
    if run_type == "topk":
        kind = _cfg_get(cp, "model", "kind", required=True)
        n_grid_text = _cfg_get(cp, "grid", "n_grid")
        vary_n = n_grid_text is not None
        cfg = ExperimentConfig(
            model=kind,
            model_params=_model_params_from_cfg(cp, kind, need_n=not vary_n),
            k=int(_cfg_get(cp, "mc", "k", required=True)),
            graphs_per_point=int(_cfg_get(cp, "mc", "graphs", required=True)),
            noise_draws_per_graph=int(_cfg_get(cp, "mc", "draws", required=True)),
            seed_root=seed_root,
            alpha=_schedule_from_cfg(cp, "alpha") if vary_n else None,
            beta=_schedule_from_cfg(cp, "beta") if vary_n else None,
            n_grid=tuple(int(v) for v in n_grid_text.split()) if vary_n else (),
            noise_grid=() if vary_n else _noise_grid_from_cfg(cp),
            centrality=_cfg_get(cp, "mc", "centrality", "degree"),
            theory_curve=cp.getboolean("mc", "theory_curve", fallback=False),
        )
        rows = run_topk_experiment(cfg, threads=args.threads)
        csv_path, json_path = _experiment_outputs(args, run_type, kind)
        write_summary_csv(rows, csv_path)
    elif run_type == "localization":
        n_grid = [int(v) for v in _cfg_get(cp, "grid", "n_grid", required=True).split()]
        rows = run_localization(
            n_grid,
            reps=int(_cfg_get(cp, "mc", "reps", 200)),
            b=float(_cfg_get(cp, "model", "b", 1.0)),
            seed_root=seed_root,
        )
        csv_path, json_path = _experiment_outputs(args, run_type, "pa")
        write_localization_csv(rows, csv_path)
    elif run_type == "jaccard":
        rows = run_jaccard_comparison(
            n=int(_cfg_get(cp, "model", "n", required=True)),
            m=int(_cfg_get(cp, "model", "m", required=True)),
            k=int(_cfg_get(cp, "mc", "k", required=True)),
            noise_grid=_noise_grid_from_cfg(cp),
            graphs=int(_cfg_get(cp, "mc", "graphs", required=True)),
            draws=int(_cfg_get(cp, "mc", "draws", required=True)),
            seed_root=seed_root,
            b=float(_cfg_get(cp, "model", "b", 1.0)),
            threads=args.threads,
        )
        csv_path, json_path = _experiment_outputs(args, run_type, "pa")
        write_summary_csv(rows, csv_path)
    elif run_type == "figure1":
        profile = run_figure1_profile(
            n=int(_cfg_get(cp, "model", "n", required=True)),
            mean_degree=int(_cfg_get(cp, "model", "mean_degree", required=True)),
            noise=NoiseParams(
                alpha=float(_cfg_get(cp, "noise", "alpha", required=True)),
                beta=float(_cfg_get(cp, "noise", "beta", required=True)),
            ),
            seed=seed_root,
            rewire_p=float(_cfg_get(cp, "model", "rewire_p", 0.1)),
            pa_m=(lambda v: int(v) if v is not None else None)(_cfg_get(cp, "model", "pa_m")),
            pa_b=float(_cfg_get(cp, "model", "pa_b", 1.0)),
        )
        csv_path, json_path = _experiment_outputs(args, run_type, "all")
        write_figure1_csv(profile, csv_path)
        rows = [{"model": name, **entry} for name, entry in profile["models"].items()]
    else:
        raise ValueError(f"unknown experiment type {run_type!r}")
    meta = {
        "experiment": run_type,
        "config": {sec: dict(cp.items(sec)) for sec in cp.sections()},
        "seed_root": seed_root,
        "package_version": __version__,
        "git_describe": git_describe(),
    }
    write_json_mirror(json_path, meta, rows)

    elapsed = time.monotonic() - started
    _say(args, f"wrote {csv_path} and {json_path} (wall time {elapsed:.2f}s)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
