import argparse
import csv
import json
from pathlib import Path

import pytest

from noisytopk import __version__
from noisytopk.cli import build_parser, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--in", "{d}/g.txt", "--k", "3", "--alpha", "0", "--beta", "0", "--seed", "1"],
            ["experiment", "{d}/cfg.ini", "--format", "json"],
            ["generate", "er", "--n", "10", "--p", "0.5", "--out", "{d}/g.txt", "--threads", "2"],
            ["generate", "er", "--n", "10", "--p", "0.5"],
            ["perturb", "--in", "{d}/g.txt", "--alpha", "0.1", "--beta", "0.1"],
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

    def test_invalid_parameter_value(self, tmp_path, capsys):
        code = main(["generate", "er", "--n", "20", "--p", "1.5", "--out", str(tmp_path / "g.txt")])
        assert code == 2


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
