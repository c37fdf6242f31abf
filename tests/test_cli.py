import argparse
import ast
import configparser
import csv
import importlib.util
import inspect
import itertools
import json
import math
import os
import string
import struct
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisytopk import (
    ExperimentConfig,
    LocalizationRow,
    NoiseSchedule,
    SummaryRow,
    __version__,
    cli,
    experiments,
    run_localization,
    run_topk_experiment,
)
from noisytopk.cli import _json_text, build_parser, main, write_json_mirror, write_summary_csv
from noisytopk.experiments import MODELS
from noisytopk.graphs import STREAM_VERSION, load_edge_list
from conftest import edge_set

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _write_graph(tmp_path, name="g.txt", n=30, p=0.3, seed=1):
    path = tmp_path / name
    code = main(
        ["generate", "er", "--n", str(n), "--p", str(p), "--seed", str(seed),
         "--out", str(path), "--quiet"]
    )
    assert code == 0
    return path


# Runs in a fresh interpreter: after each step, is scipy.sparse loaded (and did the command succeed)?
_COLD_START = """
import json, sys
from pathlib import Path
d = Path(sys.argv[1])
steps = []
def step(name, code=0):
    steps.append([name, code, "scipy.sparse" in sys.modules])
import noisytopk, noisytopk.cli
from noisytopk.cli import main
step("import")
step("generate", main(["generate", "er", "--n", "30", "--p", "0.3", "--out", str(d / "g.txt"), "--quiet"]))
step("perturb", main(["perturb", "--in", str(d / "g.txt"), "--alpha", "0.1", "--beta", "0.1",
                      "--out", str(d / "y.txt"), "--quiet"]))
(d / "cfg.ini").write_text("[run]\\ntype = topk\\n[model]\\nkind = er\\nn = 20\\np = 0.3\\n[noise]\\n"
                          "alpha_grid = 0.05\\nbeta_grid = 0.05\\n[mc]\\nk = 3\\ngraphs = 2\\ndraws = 2\\n"
                          "centrality = degree\\n")
step("experiment", main(["experiment", str(d / "cfg.ini"), "--out", str(d / "res"), "--threads", "1", "--quiet"]))
step("centrality", main(["centrality", "--in", str(d / "g.txt"), "--kind", "eigenvector", "--k", "3",
                         "--out", str(d / "c.txt"), "--quiet"]))
print(json.dumps(steps))
"""


class TestColdStart:
    def test_scipy_loads_only_for_the_eigensolve(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [
            ["import", 0, False],
            ["generate", 0, False],
            ["perturb", 0, False],
            ["experiment", 0, False],
            ["centrality", 0, True],
        ]


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# every option each subcommand registers, apart from --help
OPTIONS = {
    "generate": {"--n", "--p", "--m", "--b", "--k-ring", "--rewire-p", "--seed", "--out", "--quiet"},
    "perturb": {"--in", "--alpha", "--beta", "--seed", "--out", "--quiet"},
    "centrality": {"--in", "--kind", "--k", "--format", "--seed", "--tol", "--max-iter", "--out", "--quiet"},
    "bounds": {
        "--in", "--k", "--alpha", "--beta", "--delta", "--c1", "--c-of-n", "--i-star", "--no-evec",
        "--tol", "--max-iter", "--out", "--quiet",
    },
    "experiment": {"--threads", "--out", "--quiet"},
}


class TestOptionSurface:
    @staticmethod
    def _subcommands():
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_subcommands(self):
        assert set(self._subcommands()) == set(OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_set(self, command):
        sub = self._subcommands()[command]
        registered = {opt for action in sub._actions for opt in action.option_strings}
        assert registered - {"-h", "--help"} == OPTIONS[command]

    def test_generate_model_flags_follow_the_model_table(self):
        sub = self._subcommands()["generate"]
        registered = {opt for action in sub._actions for opt in action.option_strings}
        model_flags = registered - {"-h", "--help", "--n", "--seed", "--out", "--quiet"}
        assert model_flags == {f"--{key.replace('_', '-')}" for table in MODELS.values() for key in table}

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--in", "{d}/g.txt", "--k", "3", "--alpha", "0", "--beta", "0", "--seed", "1"],
            ["experiment", "{d}/cfg.ini", "--format", "json"],
            ["generate", "er", "--n", "10", "--p", "0.5", "--out", "{d}/g.txt", "--threads", "2"],
            ["generate", "er", "--n", "10", "--p", "0.5"],
            ["perturb", "--in", "{d}/g.txt", "--alpha", "0.1", "--beta", "0.1"],
            ["experiment", "{d}/cfg.ini", "--threads", "0"],
            ["experiment", "{d}/cfg.ini", "--threads", "-2"],
            ["experiment", "{d}/cfg.ini", "--threads", "two"],
            # solver flags are checked when parsed, also where no eigensolve runs
            ["centrality", "--in", "{d}/g.txt", "--kind", "degree", "--max-iter", "-3"],
            ["centrality", "--in", "{d}/g.txt", "--max-iter", "0"],
            ["bounds", "--in", "{d}/g.txt", "--k", "3", "--alpha", "0", "--beta", "0", "--tol", "-1"],
            ["bounds", "--in", "{d}/g.txt", "--k", "3", "--alpha", "0", "--beta", "0", "--tol", "nan"],
        ],
    )
    def test_unregistered_or_missing_flag_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(d=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert not (tmp_path / "g.txt").exists()

    # centrality registers --seed, --tol and --max-iter for the runs that use them; any other run refuses them
    @pytest.mark.parametrize(
        "flags, unused",
        [
            (["--kind", "degree", "--tol", "5", "--max-iter", "7", "--seed", "4"], "--seed, --tol, --max-iter"),
            (["--kind", "degree", "--k", "3", "--tol", "1e-8"], "--tol"),
            (["--kind", "degree", "--k", "3", "--max-iter", "50"], "--max-iter"),
            (["--kind", "both", "--seed", "1"], "--seed"),
            (["--kind", "eigenvector", "--seed", "0"], "--seed"),
        ],
    )
    def test_centrality_flag_the_run_does_not_use_is_usage_error(self, tmp_path, capsys, flags, unused):
        src, dst = _write_graph(tmp_path), tmp_path / "scores.csv"
        assert main(["centrality", "--in", str(src), *flags, "--out", str(dst)]) == 2
        assert capsys.readouterr().err.endswith(f"does not use {unused}\n")
        assert not dst.exists()


def _subsets(flags: dict) -> list[dict]:
    return [dict(combo) for size in range(len(flags) + 1) for combo in itertools.combinations(flags.items(), size)]


# the flags that a run of centrality or bounds may leave unused, at their default values
CENTRALITY_DEFAULTS = {"--seed": "0", "--tol": "1e-10", "--max-iter": "10000", "--format": "csv"}
BOUNDS_DEFAULTS = {"--tol": "1e-10", "--max-iter": "10000"}


class TestUnusedFlags:
    """Every combination of the conditional flags: a run exits 2 exactly when a given flag goes unused."""

    @pytest.fixture(scope="class")
    def graph(self, tmp_path_factory):
        return _write_graph(tmp_path_factory.mktemp("unused"))

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        """Run argv; return its exit code, stdout, stderr, the bytes written to --out and the spied calls."""
        calls = []
        for name in ("load_edge_list", "spectral_top2"):
            def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)

        def run(argv, out):
            calls.clear()
            code = main(argv)
            captured = capsys.readouterr()
            written = out.read_bytes() if out is not None and out.exists() else None
            if written is not None:
                out.unlink()
            return code, captured.out, captured.err, written, list(calls)

        return run

    @staticmethod
    def _check(run, argv, given, used, out):
        base = run(argv, out)
        got = run([*argv, *(tok for item in given.items() for tok in item)], out)
        if unused := [flag for flag in given if not used[flag]]:
            assert got[0] == 2
            assert got[2].endswith(f"does not use {', '.join(unused)}\n")
            assert (got[3], got[4]) == (None, [])  # no file written, no graph read
        else:
            assert base[0] == 0
            assert got == base

    @pytest.mark.parametrize("given", _subsets(CENTRALITY_DEFAULTS), ids=lambda given: "+".join(given) or "none")
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("k", [None, "3"], ids=["no-k", "k"])
    @pytest.mark.parametrize("kind", ["degree", "eigenvector", "both"])
    def test_centrality(self, graph, run, tmp_path, kind, k, out, given):
        dst = tmp_path / "scores.csv" if out else None
        argv = ["centrality", "--in", str(graph), "--kind", kind, *(["--k", k] if k else []),
                *(["--out", str(dst)] if out else [])]
        used = {"--seed": k is not None, "--tol": kind != "degree", "--max-iter": kind != "degree", "--format": out}
        self._check(run, argv, given, used, dst)
        if k and not given:  # the top-k sets reach stdout with or without a CSV table, so --k and --seed are used
            assert "topk_" in run(argv, dst)[1]

    @pytest.mark.parametrize("given", _subsets(BOUNDS_DEFAULTS), ids=lambda given: "+".join(given) or "none")
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("no_evec", [False, True], ids=["evec", "no-evec"])
    def test_bounds(self, graph, run, tmp_path, no_evec, out, given):
        dst = tmp_path / "report.json" if out else None
        argv = ["bounds", "--in", str(graph), "--k", "3", "--alpha", "0.05", "--beta", "0.05",
                *(["--no-evec"] if no_evec else []), *(["--out", str(dst)] if out else [])]
        self._check(run, argv, given, dict.fromkeys(BOUNDS_DEFAULTS, not no_evec), dst)


class TestGenerate:
    def test_writes_edge_list(self, tmp_path):
        path = _write_graph(tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# n=30"
        for line in lines[1:]:
            u, v = map(int, line.split())
            assert 0 <= u < v < 30

    def test_deterministic_for_seed(self, tmp_path):
        a = _write_graph(tmp_path, "a.txt", seed=7)
        b = _write_graph(tmp_path, "b.txt", seed=7)
        c = _write_graph(tmp_path, "c.txt", seed=8)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_er_needs_p(self, tmp_path, capsys):
        code = main(["generate", "er", "--n", "20", "--out", str(tmp_path / "g.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_sw_flags(self, tmp_path):
        out = tmp_path / "sw.txt"
        code = main(
            ["generate", "sw", "--n", "40", "--k-ring", "4", "--rewire-p", "0.1", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 40 * 4 // 2

    def test_pa_flags(self, tmp_path):
        out = tmp_path / "pa.txt"
        code = main(["generate", "pa", "--n", "25", "--m", "2", "--b", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_pa_infinite_offset_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "pa.txt"
        code = main(["generate", "pa", "--n", "10", "--m", "2", "--b", "inf", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("pa", ["--m", "2", "--p", "0.9"]),
            ("pa", ["--m", "2", "--k-ring", "4"]),
            ("er", ["--p", "0.3", "--m", "2"]),
            ("er", ["--p", "0.3", "--b", "1"]),
            ("sw", ["--k-ring", "4", "--rewire-p", "0.1", "--m", "2"]),
        ],
    )
    def test_other_models_flag_is_usage_error(self, tmp_path, capsys, model, flags):
        out = tmp_path / "g.txt"
        assert main(["generate", model, "--n", "20", *flags, "--out", str(out)]) == 2
        assert f"{model} does not take" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_parameter_value(self, tmp_path, capsys):
        code = main(["generate", "er", "--n", "20", "--p", "1.5", "--out", str(tmp_path / "g.txt")])
        assert code == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "er", "--n", "10", "--p", "0.3", "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestPerturb:
    def test_flip_counts_reported(self, tmp_path, capsys):
        src = _write_graph(tmp_path)
        out = tmp_path / "noisy.txt"
        code = main(
            ["perturb", "--in", str(src), "--alpha", "0.05", "--beta", "0.1",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "added" in text and "deleted" in text
        assert out.exists()

    @staticmethod
    def _counts(text):
        fields = dict(tok.split("=") for tok in text.split() if "=" in tok)
        return int(fields["added"]), int(fields["deleted"])

    def test_flip_counts_match_edge_set_differences(self, tmp_path, capsys):
        src = _write_graph(tmp_path, n=25, p=0.4)
        out = tmp_path / "noisy.txt"
        capsys.readouterr()
        code = main(["perturb", "--in", str(src), "--alpha", "0.2", "--beta", "0.3", "--seed", "4", "--out", str(out)])
        assert code == 0
        g, y = edge_set(load_edge_list(src)), edge_set(load_edge_list(out))
        added, deleted = self._counts(capsys.readouterr().out)
        assert (added, deleted) == (len(y - g), len(g - y))
        assert added > 0 and deleted > 0

    def test_default_seeds_give_the_model_flip_rates(self, tmp_path, capsys):
        # generate and perturb both default to --seed 0; their draws must not be correlated
        n, alpha, beta = 400, 0.05, 0.05
        src = tmp_path / "g.txt"
        assert main(["generate", "er", "--n", str(n), "--p", "0.3", "--out", str(src), "--quiet"]) == 0
        capsys.readouterr()
        code = main(["perturb", "--in", str(src), "--alpha", str(alpha), "--beta", str(beta),
                     "--out", str(tmp_path / "noisy.txt")])
        assert code == 0
        added, deleted = self._counts(capsys.readouterr().out)
        n_present = load_edge_list(src).num_edges
        n_absent = n * (n - 1) // 2 - n_present
        assert abs(added / n_absent - alpha) <= 4 * math.sqrt(alpha * (1 - alpha) / n_absent)
        assert abs(deleted / n_present - beta) <= 4 * math.sqrt(beta * (1 - beta) / n_present)

    def test_zero_noise_is_identity(self, tmp_path):
        src = _write_graph(tmp_path)
        out = tmp_path / "same.txt"
        code = main(["perturb", "--in", str(src), "--alpha", "0", "--beta", "0", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == src.read_bytes()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(
            ["perturb", "--in", str(tmp_path / "absent.txt"), "--alpha", "0.1", "--beta", "0.1",
             "--out", str(tmp_path / "noisy.txt")]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestCentrality:
    def test_stdout_summary(self, tmp_path, capsys):
        src = _write_graph(tmp_path)
        code = main(["centrality", "--in", str(src), "--kind", "degree", "--k", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n: 30" in out
        assert "topk_degree" in out

    def test_stdout_keys_in_order(self, tmp_path, capsys):
        src = _write_graph(tmp_path)
        assert main(["centrality", "--in", str(src), "--k", "4"]) == 0
        keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == [
            "n", "num_edges", "lambda1", "lambda2", "degenerate", "disconnected", "iterations",
            "topk_eigenvector", "topk_degree",
        ]

    def test_json_with_topk(self, tmp_path):
        src = _write_graph(tmp_path)
        dst = tmp_path / "scores.json"
        code = main(
            ["centrality", "--in", str(src), "--kind", "both", "--k", "5",
             "--format", "json", "--out", str(dst)]
        )
        assert code == 0
        doc = json.loads(dst.read_text())
        assert len(doc["meta"]["topk_degree"]) == 5
        assert len(doc["meta"]["topk_eigenvector"]) == 5
        assert len(doc["rows"]) == 30
        assert {"node", "degree", "eigenvector"} <= set(doc["rows"][0])

    def test_out_file(self, tmp_path):
        src = _write_graph(tmp_path)
        dst = tmp_path / "scores.csv"
        code = main(["centrality", "--in", str(src), "--out", str(dst)])
        assert code == 0
        with open(dst, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 30


    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "0"],
            ["--k", "31"],  # n = 30
            ["--k", "-2"],
            ["--kind", "eigenvector", "--tol", "1e-8", "--seed", "3"],  # --seed without --k
            ["--k", "30", "--seed", "3", "--tol", "1e-8", "--max-iter", "500"],  # valid: the solve runs once
        ],
    )
    def test_arguments_are_checked_before_the_eigensolve(self, tmp_path, monkeypatch, flags):
        src = _write_graph(tmp_path)
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        solve = cli.spectral_top2
        monkeypatch.setattr(cli, "spectral_top2", spy)
        code = main(["centrality", "--in", str(src), *flags, "--quiet", "--out", str(tmp_path / "scores.csv")])
        valid = "30" in flags
        assert (code, calls) == ((0, [{"tol": 1e-8, "max_iter": 500}]) if valid else (2, []))
        assert (tmp_path / "scores.csv").exists() == valid


class TestBounds:
    def test_report_to_stdout(self, tmp_path, capsys):
        src = _write_graph(tmp_path)
        code = main(["bounds", "--in", str(src), "--k", "3", "--alpha", "0.05", "--beta", "0.05"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 3
        assert doc["regime"] in {
            "recoverable-likely", "infeasible-boundary", "infeasible-bulk", "indeterminate"
        }

    def test_no_evec_and_out(self, tmp_path):
        src = _write_graph(tmp_path)
        dst = tmp_path / "report.json"
        code = main(
            ["bounds", "--in", str(src), "--k", "3", "--alpha", "0.02", "--beta", "0.02",
             "--no-evec", "--out", str(dst)]
        )
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["evec"] is None

    def test_non_finite_written_as_strict_json(self, tmp_path):
        # a tied cutoff at zero noise gives snr = inf
        src = tmp_path / "tied.txt"
        src.write_text("# n=6\n0 1\n0 2\n0 3\n1 2\n1 3\n4 5\n")
        dst = tmp_path / "report.json"
        code = main(
            ["bounds", "--in", str(src), "--k", "2", "--alpha", "0", "--beta", "0",
             "--no-evec", "--out", str(dst), "--quiet"]
        )
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(dst.read_text(), parse_constant=reject)
        assert doc["separation"]["snr"] == "inf"

    @pytest.mark.parametrize(
        "n, flags, message",
        [
            (10, ["--k", "8"], "need 1 <= k <= n - 3, got k=8, n=10"),
            (30, ["--k", "3", "--i-star", "29"], "need k < i_star <= n - 2, got k=3, i_star=29, n=30"),
        ],
    )
    def test_rank_domain_error_names_k_i_star_and_n(self, tmp_path, capsys, n, flags, message):
        src = _write_graph(tmp_path, n=n, p=0.5)
        code = main(["bounds", "--in", str(src), *flags, "--alpha", "0.05", "--beta", "0.05"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_noise_is_usage_error(self, tmp_path, capsys):
        src = _write_graph(tmp_path)
        code = main(["bounds", "--in", str(src), "--k", "3", "--alpha", "0.7", "--beta", "0.5"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k", "0"],
            ["--i-star", "2"],
            ["--delta", "1.5"],
            ["--c1", "0"],
            ["--c-of-n", "-1"],
            ["--alpha", "0.6", "--beta", "0.5"],
            [],  # valid: the solve runs once
        ],
    )
    def test_arguments_are_checked_before_the_eigensolve(self, tmp_path, monkeypatch, flags):
        src = _write_graph(tmp_path)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        solve = cli.spectral_top2
        monkeypatch.setattr(cli, "spectral_top2", spy)
        argv = ["bounds", "--in", str(src), "--k", "3", "--alpha", "0.05", "--beta", "0.05", *flags, "--quiet"]
        code = main([*argv, "--out", str(tmp_path / "report.json")])
        assert (code, len(calls)) == ((2, 0) if flags else (0, 1))

    def test_exhausted_solver_budget_is_runtime_error(self, tmp_path, capsys):
        src = _write_graph(tmp_path, n=200, p=0.25)
        dst = tmp_path / "report.json"
        for command in (
            ["bounds", "--in", str(src), "--k", "3", "--alpha", "0.05", "--beta", "0.05"],
            ["centrality", "--in", str(src), "--kind", "both"],
        ):
            code = main([*command, "--max-iter", "1", "--out", str(dst)])
            assert code == 3
            assert "residual" in capsys.readouterr().err
            assert not dst.exists()


@pytest.mark.parametrize("command", [["perturb", "--out", "{d}/y.txt"], ["bounds", "--k", "3", "--out", "{d}/y.txt"]])
@pytest.mark.parametrize("rates", [["--alpha", "2", "--beta", "0"], ["--alpha", "0", "--beta", "-0.1"]])
def test_bad_rate_exits_before_the_graph_is_read(tmp_path, monkeypatch, capsys, command, rates):
    reads = []
    monkeypatch.setattr(cli, "load_edge_list", reads.append)
    argv = [arg.format(d=tmp_path) for arg in command]
    assert main([*argv, "--in", str(tmp_path / "absent.txt"), *rates]) == 2  # not 3 for the missing file
    assert "must lie in [0, 1]" in capsys.readouterr().err
    assert reads == [] and not (tmp_path / "y.txt").exists()


def test_quiet_perturb_writes_the_same_graph(tmp_path, capsys):
    src = _write_graph(tmp_path)
    for name, quiet in (("loud.txt", []), ("quiet.txt", ["--quiet"])):
        assert main(["perturb", "--in", str(src), "--alpha", "0.1", "--beta", "0.2", "--out", str(tmp_path / name),
                     *quiet]) == 0
    assert capsys.readouterr().out.count("\n") == 1  # the progress line of the loud run alone
    assert (tmp_path / "loud.txt").read_bytes() == (tmp_path / "quiet.txt").read_bytes()


# runs of every subcommand, before --out; {d} is a directory that holds the edge list g.txt and the config cfg.ini
CONTRACT_RUNS = {
    "generate": ["generate", "er", "--n", "30", "--p", "0.3", "--seed", "2"],
    "perturb": ["perturb", "--in", "{d}/g.txt", "--alpha", "0.1", "--beta", "0.1", "--seed", "2"],
    "centrality-csv": ["centrality", "--in", "{d}/g.txt", "--k", "3", "--seed", "2"],
    "centrality-json": ["centrality", "--in", "{d}/g.txt", "--kind", "eigenvector", "--k", "3", "--format", "json"],
    "bounds": ["bounds", "--in", "{d}/g.txt", "--k", "3", "--alpha", "0.05", "--beta", "0.05"],
    "experiment": ["experiment", "{d}/cfg.ini"],
}
CONTRACT_CONFIG = ("[run]\ntype = topk\n[model]\nkind = er\nn = 20\np = 0.3\n[noise]\nalpha_grid = 0.05\n"
                   "beta_grid = 0.05\n[mc]\nk = 3\ngraphs = 2\ndraws = 2\n")


class TestContract:
    """What main decides for every subcommand: exit codes, what --quiet hides and which checks come first."""

    @pytest.fixture
    def inputs(self, tmp_path):
        _write_graph(tmp_path)
        (tmp_path / "cfg.ini").write_text(CONTRACT_CONFIG)
        return tmp_path

    @pytest.fixture
    def calls(self, monkeypatch):
        """The names of the input readers, generators and solvers that a run calls."""
        calls = []
        for name in ("load_edge_list", "make_graph", "_read_config", "run_topk_experiment", "spectral_top2"):
            def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        return calls

    @staticmethod
    def _argv(run, d, *extra):
        return [arg.format(d=d) for arg in CONTRACT_RUNS[run]] + list(extra)

    def test_runs_cover_every_subcommand(self):
        assert {argv[0] for argv in CONTRACT_RUNS.values()} == set(TestOptionSurface._subcommands())

    @pytest.mark.parametrize("run", sorted(CONTRACT_RUNS))
    def test_quiet_hides_the_wrote_line_alone(self, inputs, capsys, run):
        stdout = {}
        for mode in ("loud", "quiet"):
            (inputs / mode).mkdir()
            capsys.readouterr()
            assert main(self._argv(run, inputs, "--out", str(inputs / mode / "out"),
                                   *(["--quiet"] if mode == "quiet" else []))) == 0
            stdout[mode] = capsys.readouterr().out.splitlines()
        wrote = [line for line in stdout["loud"] if line.startswith("wrote ")]
        assert len(wrote) == 1 and str(inputs / "loud" / "out") in wrote[0]
        assert [line for line in stdout["loud"] if line not in wrote] == stdout["quiet"]
        loud, quiet = (sorted(p.name for p in (inputs / mode).iterdir()) for mode in ("loud", "quiet"))
        assert loud == quiet and loud
        for name in loud:
            assert (inputs / "loud" / name).read_bytes() == (inputs / "quiet" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["degree", "eigenvector", "both"])
    def test_quiet_centrality_prints_its_report(self, inputs, capsys, kind):
        argv = ["centrality", "--in", str(inputs / "g.txt"), "--kind", kind, "--k", "3"]
        assert main(argv) == 0
        loud = capsys.readouterr().out
        assert main([*argv, "--quiet"]) == 0
        assert capsys.readouterr().out == loud
        assert loud.count("topk_") == (2 if kind == "both" else 1)

    @pytest.mark.parametrize("run", sorted(CONTRACT_RUNS))
    def test_missing_output_directory_exits_3_before_any_work(self, inputs, capsys, calls, run):
        missing = inputs / "missing"
        assert main(self._argv(run, inputs, "--out", str(missing / "out"), "--quiet")) == 3
        assert capsys.readouterr().err == f"error: output directory {str(missing)!r} does not exist\n"
        assert calls == [] and not missing.exists()

    @pytest.mark.parametrize("command", sorted(
        name for name, sub in TestOptionSurface._subcommands().items()
        if "--seed" in {opt for action in sub._actions for opt in action.option_strings}
    ))
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_a_parse_error(self, tmp_path, capsys, calls, command, seed):
        run = next(run for run, argv in CONTRACT_RUNS.items() if argv[0] == command)
        argv = self._argv(run, tmp_path / "absent", "--seed", seed, "--out", str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            main(argv)  # the input does not exist, so a read would exit 3
        assert exc.value.code == 2
        assert f"argument --seed: seed must be a non-negative integer, got {seed}\n" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(TestOptionSurface._subcommands()))
    def test_subcommand_returns_nothing(self, command):
        func = TestOptionSurface._subcommands()[command].get_default("func")
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        assert func.__name__ == f"cmd_{command}"
        assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Return) and node.value] == []


class TestExperiment:
    def test_bundled_noise_grid_has_five_cells(self):
        import configparser

        cp = configparser.ConfigParser()
        assert cp.read(CONFIGS / "er_setting2.ini")
        alphas = cp.get("noise", "alpha_grid").split()
        assert len(alphas) == 5

    def test_scaled_bundled_run_writes_five_rows(self, tmp_path, capsys):
        import configparser

        cp = configparser.ConfigParser()
        cp.read(CONFIGS / "er_setting2.ini")
        cp.set("model", "n", "60")
        cp.set("mc", "graphs", "2")
        cp.set("mc", "draws", "2")
        cfg_path = tmp_path / "scaled.ini"
        with open(cfg_path, "w") as fh:
            cp.write(fh)
        base = tmp_path / "res"
        code = main(["experiment", str(cfg_path), "--out", str(base)])
        assert code == 0
        with open(base.with_suffix(".csv"), newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 5
        assert [r["alpha"] for r in records] == ["0.01", "0.02", "0.03", "0.04", "0.05"]
        doc = json.loads(base.with_suffix(".json").read_text())
        assert len(doc["rows"]) == 5
        assert doc["meta"]["experiment"] == "topk"
        assert doc["meta"]["stream_version"] == STREAM_VERSION

    def test_smoke_config_recovers_exactly(self, tmp_path):
        base = tmp_path / "smoke"
        code = main(
            ["experiment", str(CONFIGS / "smoke_zero_noise.ini"), "--out", str(base), "--quiet"]
        )
        assert code == 0
        with open(base.with_suffix(".csv"), newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["exact_recovery_rate"] == "1.0"
        assert row["mean_half_hamming"] == "0.0"
        assert row["jaccard_degree"] == "1.0"
        assert row["jaccard_evec"] == "1.0"

    def test_pa_infinite_offset_fails_before_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "pa_inf.ini"
        cfg_path.write_text(
            "[run]\ntype = topk\n[model]\nkind = pa\nm = 2\nb = inf\n[grid]\nn_grid = 20 40\n"
            "[noise]\nalpha = 0.05\nbeta = 0.05\n[mc]\nk = 2\ngraphs = 1\ndraws = 1\n"
        )
        base = tmp_path / "res"
        code = main(["experiment", str(cfg_path), "--out", str(base)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not base.with_suffix(".csv").exists()
        assert not base.with_suffix(".json").exists()

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["experiment", str(tmp_path / "absent.ini")])
        assert code == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        base_a = tmp_path / "a"
        base_b = tmp_path / "b"
        for base in (base_a, base_b):
            code = main(
                ["experiment", str(CONFIGS / "smoke_zero_noise.ini"), "--out", str(base), "--quiet"]
            )
            assert code == 0
        assert base_a.with_suffix(".csv").read_bytes() == base_b.with_suffix(".csv").read_bytes()
        ja = json.loads(base_a.with_suffix(".json").read_text())
        jb = json.loads(base_b.with_suffix(".json").read_text())
        assert ja["rows"] == jb["rows"]

    def test_json_meta_depends_on_the_config_alone(self, tmp_path, capsys, monkeypatch):
        def no_git():
            raise AssertionError("--quiet must not ask git for the source version")

        monkeypatch.setattr(cli, "git_describe", no_git)
        base = tmp_path / "smoke"
        code = main(["experiment", str(CONFIGS / "smoke_zero_noise.ini"), "--out", str(base), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
        meta = json.loads(base.with_suffix(".json").read_text())["meta"]
        assert set(meta) == {"experiment", "config", "seed_root", "package_version", "stream_version"}

    def test_source_version_goes_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "git_describe", lambda: "v0-test")
        base = tmp_path / "smoke"
        assert main(["experiment", str(CONFIGS / "smoke_zero_noise.ini"), "--out", str(base)]) == 0
        assert "source v0-test)" in capsys.readouterr().out
        assert "v0-test" not in base.with_suffix(".json").read_text()

    def test_threads_flag_matches_serial(self, tmp_path):
        base_a = tmp_path / "serial"
        base_b = tmp_path / "parallel"
        for base, threads in ((base_a, "1"), (base_b, "3")):
            code = main(
                ["experiment", str(CONFIGS / "smoke_zero_noise.ini"),
                 "--out", str(base), "--threads", threads, "--quiet"]
            )
            assert code == 0
        assert base_a.with_suffix(".csv").read_bytes() == base_b.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize("name", ["localization_pa.ini", "figure1.ini"])
    def test_threads_are_refused_where_the_run_is_serial(self, tmp_path, capsys, monkeypatch, name):
        path, base = _edited_config(tmp_path, name, []), tmp_path / "res"
        for study in ("run_localization", "run_figure1_profile"):
            monkeypatch.setattr(cli, study, _no_study)
        assert main(["experiment", str(path), "--threads", "2", "--out", str(base)]) == 2
        assert f"error: {path}: --threads applies to topk and jaccard runs" in capsys.readouterr().err
        assert not base.with_suffix(".csv").exists() and not base.with_suffix(".json").exists()
        monkeypatch.undo()
        assert main(["experiment", str(path), "--threads", "1", "--out", str(base), "--quiet"]) == 0
        assert base.with_suffix(".csv").exists() and base.with_suffix(".json").exists()


class TestWriters:
    def _summary_row(self):
        return SummaryRow(
            x_value=0.1 + 0.2,
            n=100,
            alpha=0.1,
            beta=0.05,
            mean_half_hamming=1.5,
            se_half_hamming=0.1,
            mean_lower_bound=1.0,
            se_lower_bound=0.05,
            mean_upper_bound=2.0,
            se_upper_bound=0.07,
            exp_lower_bound=1.1,
            se_exp_lower_bound=0.02,
            exp_upper_bound=1.9,
            se_exp_upper_bound=0.03,
            theory_lower=math.nan,
            exact_recovery_rate=0.5,
            se_exact_recovery=0.01,
            jaccard_degree=0.9,
            se_jaccard_degree=0.02,
            jaccard_evec=math.nan,
            se_jaccard_evec=math.nan,
            n_graphs=10,
            n_draws=100,
            n_excluded=0,
            n_disconnected=1,
        )

    def test_summary_csv_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        cfg = ExperimentConfig(
            model="er", model_params={"p": 0.3}, k=2, graphs_per_point=2, noise_draws_per_graph=2, seed_root=11,
            alpha=NoiseSchedule(0.05), beta=NoiseSchedule(0.05), n_grid=(20, 40),
        )
        write_summary_csv([asdict(row) for row in run_topk_experiment(cfg)], path)
        assert path.read_text().splitlines()[0].split(",") == [
            "x_value", "n", "alpha", "beta",
            "mean_half_hamming", "se_half_hamming",
            "mean_lower_bound", "se_lower_bound",
            "mean_upper_bound", "se_upper_bound",
            "exp_lower_bound", "se_exp_lower_bound",
            "exp_upper_bound", "se_exp_upper_bound",
            "theory_lower",
            "exact_recovery_rate", "se_exact_recovery",
            "jaccard_degree", "se_jaccard_degree",
            "jaccard_evec", "se_jaccard_evec",
            "n_graphs", "n_draws", "n_excluded", "n_disconnected",
        ]  # fmt: skip

    def test_localization_csv_header(self, tmp_path):
        path = tmp_path / "loc.csv"
        write_summary_csv([asdict(row) for row in run_localization([30], reps=3, seed_root=1)], path)
        assert path.read_text().splitlines()[0].split(",") == [
            "n", "reps_used",
            "x_h_mean", "x_h_se", "x_h_q10", "x_h_q50", "x_h_q90",
            "m_out_mean", "m_out_se", "m_out_q10", "m_out_q50", "m_out_q90",
            "gap_mean", "gap_se", "gap_q10", "gap_q50", "gap_q90",
            "n_excluded", "n_hub_ties",
        ]  # fmt: skip

    def test_summary_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        row = self._summary_row()
        write_summary_csv([asdict(row)], path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        rec = records[0]
        assert list(rec) == [f for f in row.__dataclass_fields__]
        # repr-formatted floats survive the text roundtrip exactly
        assert float(rec["x_value"]) == 0.1 + 0.2
        assert rec["x_value"] == "0.30000000000000004"
        assert math.isnan(float(rec["theory_lower"]))
        assert rec["n"] == "100"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_summary_csv([], tmp_path / "empty.csv")

    def test_localization_csv(self, tmp_path):
        rows = run_localization([30], reps=5, seed_root=1)
        path = tmp_path / "loc.csv"
        write_summary_csv([asdict(row) for row in rows], path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        assert list(records[0]) == [f for f in LocalizationRow.__dataclass_fields__]

    def test_figure1_csv(self, tmp_path):
        cfg_path = tmp_path / "fig.ini"
        cfg_path.write_text(
            "[run]\ntype = figure1\n[model]\nn = 30\nmean_degree = 4\n"
            "[noise]\nalpha = 0.0\nbeta = 0.0\n[mc]\nseed_root = 3\n"
        )
        base = tmp_path / "fig"
        assert main(["experiment", str(cfg_path), "--out", str(base), "--quiet"]) == 0
        with open(base.with_suffix(".csv"), newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 90
        assert list(records[0]) == ["model", "rank", "node", "true_degree", "noisy_degree"]
        assert {r["model"] for r in records} == {"er", "sw", "pa"}

    def test_json_mirror(self, tmp_path):
        path = tmp_path / "rows.json"
        meta = {"experiment": "topk", "alpha": math.inf, "note": None}
        write_json_mirror(path, meta, [asdict(self._summary_row())])
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["meta"]["experiment"] == "topk"
        assert doc["meta"]["alpha"] == "inf"
        assert doc["rows"][0]["theory_lower"] == "nan"
        assert doc["rows"][0]["n"] == 100
        text = path.read_text()
        assert text.index('"meta"') < text.index('"rows"')

    def test_json_mirror_plain_dict_rows(self, tmp_path):
        path = tmp_path / "plain.json"
        write_json_mirror(path, {"experiment": "figure1"}, [{"model": "er", "v": 1.0}])
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["rows"] == [{"model": "er", "v": 1.0}]


_CELLS = st.one_of(
    st.integers(-(2**63), 2**63),
    st.text(string.ascii_letters + string.digits + ' ,"-.', max_size=8),
    st.floats(allow_nan=False),  # includes -0.0, the infinities and subnormals
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.5e-308]),
)


@st.composite
def _records(draw):
    keys = draw(st.lists(st.text(string.ascii_letters + "_", min_size=1, max_size=6), min_size=1, max_size=5,
                         unique=True))
    rows = draw(st.lists(st.lists(_CELLS, min_size=len(keys), max_size=len(keys)), min_size=1, max_size=4))
    return [dict(zip(keys, row)) for row in rows]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestWriterProperties:
    @settings(max_examples=60, deadline=None)
    @given(records=_records())
    def test_csv_keeps_keys_and_every_float_bit(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        write_summary_csv(records, path)
        with open(path, newline="", encoding="ascii") as fh:
            header, *lines = list(csv.reader(fh))
        assert header == list(records[0])
        assert len(lines) == len(records)
        for record, line in zip(records, lines):
            for value, text in zip(record.values(), line, strict=True):
                if isinstance(value, float):
                    assert _bits(float(text)) == _bits(value)
                else:
                    assert text == str(value)

    @settings(max_examples=60, deadline=None)
    @given(records=_records())
    def test_json_is_strict_sorted_and_names_non_finite_floats(self, records):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        def sorted_keys(node):
            if isinstance(node, dict):
                return list(node) == sorted(node) and all(map(sorted_keys, node.values()))
            return all(map(sorted_keys, node)) if isinstance(node, list) else True

        doc = json.loads(_json_text({"meta": {"z": math.nan, "a": -math.inf}, "rows": records}), parse_constant=reject)
        assert sorted_keys(doc)
        assert doc["meta"] == {"a": "-inf", "z": "nan"}
        for record, loaded in zip(records, doc["rows"], strict=True):
            assert loaded.keys() == record.keys()
            for key, value in record.items():
                if isinstance(value, float) and not math.isfinite(value):
                    assert loaded[key] == ("nan" if math.isnan(value) else "inf" if value > 0 else "-inf")
                elif isinstance(value, float):
                    assert _bits(loaded[key]) == _bits(value)
                else:
                    assert loaded[key] == value


def _no_study(*args, **kwargs):
    raise AssertionError("the study ran before --threads was checked")


# small sizes for every bundled config, keeping each one's keys and grid shape
_SCALED = {
    ("model", "n"): "60",
    ("grid", "n_grid"): "30 40",
    ("mc", "graphs"): "2",
    ("mc", "draws"): "2",
    ("mc", "reps"): "3",
}


def _edited_config(tmp_path, name, edits, file_name="cfg.ini"):
    """Write configs/<name> scaled down, then with (section, key, value) edits; a value of None removes the key."""
    cp = configparser.ConfigParser()
    assert cp.read(CONFIGS / name)
    for (sec, key), val in _SCALED.items():
        if cp.has_option(sec, key):
            cp.set(sec, key, val)
    for sec, key, val in edits:
        if val is None:
            assert cp.remove_option(sec, key)
            continue
        if sec != cp.default_section and not cp.has_section(sec):
            cp.add_section(sec)
        cp.set(sec, key, val)
    path = tmp_path / file_name
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def _rename(sec, key, new_key, value):
    return [(sec, key, None), (sec, new_key, value)]


class TestConfigKeys:
    @pytest.mark.parametrize(
        "name, edits, section, key",
        [
            ("smoke_zero_noise.ini", _rename("run", "name", "nmae", "x"), "run", "nmae"),
            ("pa_setting1.ini", _rename("model", "b", "bb", "1.0"), "model", "bb"),
            ("pa_setting1.ini", _rename("grid", "n_grid", "n_grdi", "30 40"), "grid", "n_grdi"),
            ("er_setting3.ini", _rename("noise", "alpha_log_power", "alpha_log_powr", "1.0"), "noise", "alpha_log_powr"),
            ("smoke_zero_noise.ini", _rename("mc", "seed_root", "seeed_root", "1"), "mc", "seeed_root"),
            ("smoke_zero_noise.ini", _rename("mc", "centrality", "centralty", "both"), "mc", "centralty"),
            ("smoke_zero_noise.ini", [("model", "m", "3")], "model", "m"),
            ("pa_setting2.ini", [("mc", "reps", "3")], "mc", "reps"),
            ("jaccard_pa.ini", [("model", "kind", "er")], "model", "kind"),
            ("smoke_zero_noise.ini", [("extra", "foo", "1")], "extra", "foo"),
            ("er_setting3.ini", [("noise", "alpha", "0.1")], "noise", "alpha_coef"),
            ("er_setting1.ini", [("model", "n", "999")], "model", "n"),
            ("er_setting1.ini", [("noise", "alpha_grid", "0.01 0.02")], "noise", "alpha_grid"),
            ("smoke_zero_noise.ini", [("mc", "seed_root", None), ("DEFAULT", "seed_root", "3")], "DEFAULT", "seed_root"),
            ("smoke_zero_noise.ini", [("run", "type", "sweep")], "run", "type"),
            ("smoke_zero_noise.ini", [("model", "kind", "ba")], "model", "kind"),
            ("smoke_zero_noise.ini", [("extra", "foo", "1"), ("extra", "foo", None)], "extra", "empty section"),
            ("smoke_zero_noise.ini", [("mc", "k", None)], "mc", "k is missing"),
            ("smoke_zero_noise.ini", [("mc", "graphs", "two")], "mc", "graphs"),
            ("er_setting2.ini", [("mc", "theory_curve", "maybe")], "mc", "theory_curve"),
        ],
    )
    def test_unread_or_conflicting_key_is_rejected(self, tmp_path, capsys, name, edits, section, key):
        path = _edited_config(tmp_path, name, edits)
        base = tmp_path / "res"
        code = main(["experiment", str(path), "--out", str(base)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"[{section}]" in err and key in err
        assert not base.with_suffix(".csv").exists()
        assert not base.with_suffix(".json").exists()

    @pytest.mark.parametrize("name", ["smoke_zero_noise.ini", "localization_pa.ini", "figure1.ini"])
    @pytest.mark.parametrize("root", ["-1", str(2**64)])
    def test_seed_root_outside_64_bits_names_the_file(self, tmp_path, capsys, monkeypatch, name, root):
        draws = []
        for gen in ("generate_er", "generate_pa", "generate_small_world"):
            monkeypatch.setattr(experiments, gen, lambda *args, _gen=gen, **kwargs: draws.append(_gen))
        path = _edited_config(tmp_path, name, [("mc", "seed_root", root)])
        assert main(["experiment", str(path), "--out", str(tmp_path / "res")]) == 2
        assert f"error: {path}: seed root must lie in 0..2**64-1, got {root}" in capsys.readouterr().err
        assert draws == [] and list(tmp_path.iterdir()) == [path]

    def test_study_error_names_the_file(self, tmp_path, capsys):
        # k = n passes the key table; the study itself rejects it
        path = _edited_config(tmp_path, "smoke_zero_noise.ini", [("mc", "k", "60")])
        base = tmp_path / "res"
        assert main(["experiment", str(path), "--out", str(base)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: need k < n" in err
        assert not base.with_suffix(".csv").exists()
        assert not base.with_suffix(".json").exists()

    def test_grid_lengths_that_differ_name_the_file(self, tmp_path, capsys):
        path = _edited_config(tmp_path, "er_setting2.ini", [("noise", "beta_grid", "0.05 0.05")])
        base = tmp_path / "res"
        assert main(["experiment", str(path), "--out", str(base)]) == 2
        assert f"error: {path}: alpha_grid and beta_grid lengths differ" in capsys.readouterr().err
        assert not base.with_suffix(".csv").exists()
        assert not base.with_suffix(".json").exists()

    def test_worker_error_names_the_file(self, tmp_path, capsys):
        # p = 1.5 passes the key table; generate_er rejects it inside a worker process
        path = _edited_config(tmp_path, "smoke_zero_noise.ini", [("model", "p", "1.5")])
        base = tmp_path / "res"
        assert main(["experiment", str(path), "--threads", "2", "--out", str(base)]) == 2
        assert f"error: {path}: edge probability" in capsys.readouterr().err
        assert not base.with_suffix(".csv").exists()
        assert not base.with_suffix(".json").exists()

    def test_duplicate_key_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.ini"
        path.write_text((CONFIGS / "smoke_zero_noise.ini").read_text() + "k = 4\n")
        assert main(["experiment", str(path), "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'mc'" in err and "'k'" in err
        assert not (tmp_path / "res.csv").exists()

    def test_jaccard_is_topk_on_pa_with_both_centralities(self, tmp_path):
        jaccard = _edited_config(tmp_path, "jaccard_pa.ini", [], "jaccard.ini")
        twin_edits = [("run", "type", "topk"), ("model", "kind", "pa"), ("mc", "centrality", "both")]
        twin = _edited_config(tmp_path, "jaccard_pa.ini", twin_edits, "twin.ini")
        for path in (jaccard, twin):
            assert main(["experiment", str(path), "--out", str(path.with_suffix("")), "--quiet"]) == 0
        assert jaccard.with_suffix(".csv").read_bytes() == twin.with_suffix(".csv").read_bytes()
        docs = [json.loads(path.with_suffix(".json").read_text()) for path in (jaccard, twin)]
        assert docs[0]["rows"] == docs[1]["rows"]
        assert [doc["meta"]["experiment"] for doc in docs] == ["jaccard", "topk"]


def _bench_module(name: str):
    """bench/<name>.py loaded read only, without installing anything it defines."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file executes
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bench_harness():
    """The benchmark's harness workloads: name -> INI text and sizes (bench/workloads.py, read only)."""
    return _bench_module("workloads").HARNESS


def test_bench_span_targets_resolve():
    # the tracer skips a target the package no longer has, so a moved function would drop its span unnoticed;
    # these three are known to be unresolved until the benchmark's targets are updated
    unresolved = {
        (module, attr) for module, attr, _ in _bench_module("spans").TARGETS
        if getattr(importlib.import_module(module), attr, None) is None
    }
    assert unresolved == {
        ("noisytopk.experiments", "degree_scores"),
        ("noisytopk.bounds", "spectral_top2"),
        ("noisytopk.cli", "run_jaccard_comparison"),
    }


class TestEveryConfigRuns:
    """The stricter config reader must accept every bundled config and every benchmark workload."""

    @pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.ini")))
    def test_bundled_config_scaled_down(self, tmp_path, name):
        path = _edited_config(tmp_path, name, [])
        base = tmp_path / "res"
        assert main(["experiment", str(path), "--out", str(base), "--quiet"]) == 0
        assert base.with_suffix(".csv").exists() and base.with_suffix(".json").exists()

    @pytest.mark.parametrize("workload", sorted(_bench_harness()))
    def test_bench_workload_at_smoke_size(self, tmp_path, workload):
        spec = _bench_harness()[workload]
        path = tmp_path / f"{workload}.ini"
        path.write_text(spec["ini"].format(**spec["smoke"], seed_root=1))
        base = tmp_path / "res"
        assert main(["experiment", str(path), "--out", str(base), "--quiet"]) == 0
        assert base.with_suffix(".csv").exists() and base.with_suffix(".json").exists()
