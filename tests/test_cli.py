import argparse
import configparser
import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from noisytopk import __version__, cli
from noisytopk.cli import build_parser, main
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
        ],
    )
    def test_unregistered_or_missing_flag_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(d=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert not (tmp_path / "g.txt").exists()


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
        assert main(["generate", "er", "--n", "10", "--p", "0.3", "--seed", "-1", "--out", str(out)]) == 2
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

    def test_exhausted_solver_budget_is_runtime_error(self, tmp_path, capsys):
        src = _write_graph(tmp_path, n=200, p=0.25)
        dst = tmp_path / "report.json"
        code = main(
            ["bounds", "--in", str(src), "--k", "3", "--alpha", "0.05", "--beta", "0.05",
             "--max-iter", "1", "--out", str(dst)]
        )
        assert code == 3
        assert "residual" in capsys.readouterr().err
        assert not dst.exists()


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

    def test_study_error_names_the_file(self, tmp_path, capsys):
        # k = n passes the key table; the study itself rejects it
        path = _edited_config(tmp_path, "smoke_zero_noise.ini", [("mc", "k", "60")])
        base = tmp_path / "res"
        assert main(["experiment", str(path), "--out", str(base)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: need k < n" in err
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


def _bench_harness():
    """The benchmark's harness workloads: name -> INI text and sizes (bench/workloads.py, read only)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file executes
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.HARNESS


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
