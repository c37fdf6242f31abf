import csv
import json
import math

import numpy as np
import pytest

from noisytopk import (
    ExperimentConfig,
    LocalizationRow,
    NoiseParams,
    NoiseSchedule,
    SummaryRow,
    derive_seed,
    run_figure1_profile,
    run_localization,
    run_topk_experiment,
    write_figure1_csv,
    write_json_mirror,
    write_summary_csv,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)

    def test_distinct_parts_and_order(self):
        seen = {
            derive_seed(7),
            derive_seed(7, 0),
            derive_seed(7, 1),
            derive_seed(7, 0, 0),
            derive_seed(7, 0, 1),
            derive_seed(7, 1, 0),
            derive_seed(8, 0, 0),
        }
        assert len(seen) == 7

    def test_range(self):
        for root in (0, 1, 2**63, 2**64 - 1):
            s = derive_seed(root, 5, 9)
            assert 0 <= s < 2**64

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(7, -1)

    def test_no_collisions_over_small_grid(self):
        seeds = {
            derive_seed(3, a, b, c)
            for a in range(8)
            for b in range(8)
            for c in range(8)
        }
        assert len(seeds) == 8 * 8 * 8


class TestNoiseSchedule:
    def test_constant(self):
        sched = NoiseSchedule(0.07)
        assert sched.rate(10) == 0.07
        assert sched.rate(10**6) == 0.07

    def test_decay_formula(self):
        sched = NoiseSchedule(coef=2.0, n_power=0.5, log_power=1.0)
        n = 400
        assert sched.rate(n) == pytest.approx(2.0 * n**-0.5 / math.log(n), rel=1e-12)

    def test_negative_coef_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(coef=-0.1)


def _base_cfg(**over):
    kw = dict(
        model="er",
        model_params={"p": 0.3},
        k=2,
        graphs_per_point=2,
        noise_draws_per_graph=2,
        seed_root=11,
        alpha=NoiseSchedule(0.05),
        beta=NoiseSchedule(0.05),
        n_grid=(20, 40),
    )
    kw.update(over)
    return ExperimentConfig(**kw)


class TestExperimentConfig:
    def test_valid(self):
        cfg = _base_cfg()
        assert cfg.cells()[0][:2] == (20.0, 20)

    def test_both_grids_rejected(self):
        with pytest.raises(ValueError):
            _base_cfg(noise_grid=(NoiseParams(0.1, 0.1),))

    def test_neither_grid_rejected(self):
        with pytest.raises(ValueError):
            _base_cfg(n_grid=())

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            _base_cfg(model="grid")

    def test_n_grid_needs_schedules(self):
        with pytest.raises(ValueError):
            _base_cfg(alpha=None)

    def test_noise_grid_needs_n(self):
        with pytest.raises(ValueError):
            _base_cfg(n_grid=(), noise_grid=(NoiseParams(0.1, 0.1),))
        cfg = _base_cfg(
            n_grid=(), noise_grid=(NoiseParams(0.1, 0.1),), model_params={"p": 0.3, "n": 30}
        )
        x, n, noise = cfg.cells()[0]
        assert (x, n) == (0.1, 30)
        assert noise == NoiseParams(0.1, 0.1)

    def test_n_grid_must_increase(self):
        with pytest.raises(ValueError):
            _base_cfg(n_grid=(40, 20))

    def test_k_must_be_below_smallest_n(self):
        with pytest.raises(ValueError, match="k < n"):
            _base_cfg(k=5, n_grid=(4, 50))
        with pytest.raises(ValueError, match="k < n"):
            _base_cfg(k=30, n_grid=(), noise_grid=(NoiseParams(0.1, 0.1),), model_params={"p": 0.3, "n": 30})

    def test_theory_curve_er_only(self):
        with pytest.raises(ValueError):
            _base_cfg(model="pa", model_params={"m": 2}, theory_curve=True)

    @pytest.mark.parametrize(
        "model, params, noise_grid, match",
        [
            ("er", {"n": 50}, True, "er needs p"),
            ("sw", {"k_ring": 4}, False, "sw needs rewire_p"),
            ("er", {"n": 50, "p": 0.1, "m": 3}, True, "er does not take m"),
            ("pa", {"m": 2, "k_ring": 4}, False, "pa does not take k_ring"),
            ("er", {"n": 30, "p": 0.3}, False, r"model_params\['n'\]"),
        ],
    )
    def test_model_params_checked_before_any_draw(self, monkeypatch, model, params, noise_grid, match):
        for name in ("generate_er", "generate_pa", "generate_small_world"):
            monkeypatch.setattr(f"noisytopk.experiments.{name}", _no_draws)
        grids = dict(n_grid=(), noise_grid=(NoiseParams(0.1, 0.1),)) if noise_grid else {}
        with pytest.raises(ValueError, match=match):
            _base_cfg(model=model, model_params=params, **grids)

    def test_schedule_drives_cell_noise(self):
        cfg = _base_cfg(alpha=NoiseSchedule(coef=1.0, n_power=1.0), beta=NoiseSchedule(0.0))
        cells = cfg.cells()
        assert cells[0][2].alpha == pytest.approx(1 / 20)
        assert cells[1][2].alpha == pytest.approx(1 / 40)


class TestRunTopkExperiment:
    def test_zero_noise_recovers_exactly(self):
        cfg = ExperimentConfig(
            model="pa",
            model_params={"n": 30, "m": 2, "b": 1.0},
            k=3,
            graphs_per_point=4,
            noise_draws_per_graph=3,
            seed_root=5,
            noise_grid=(NoiseParams(0.0, 0.0),),
            centrality="both",
        )
        rows = run_topk_experiment(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.exact_recovery_rate == 1.0
        assert row.mean_half_hamming == 0.0
        assert row.mean_lower_bound == 0.0
        # the upper bound stays positive when true degrees tie at the
        # cutoff, even though the shared tie-break recovered the set
        assert row.mean_upper_bound >= 0.0
        assert row.jaccard_degree == 1.0
        assert row.jaccard_evec == 1.0
        assert row.n_graphs == 4
        assert row.n_draws == 12

    def test_sandwich_violation_raises(self, monkeypatch):
        import noisytopk.experiments as experiments

        real = experiments.hamming_bounds_realization

        def inverted(s_k, noisy):
            hb = real(s_k, noisy)
            return hb._replace(lower=hb.upper + 1)

        monkeypatch.setattr(experiments, "hamming_bounds_realization", inverted)
        with pytest.raises(RuntimeError, match="sandwich"):
            run_topk_experiment(_base_cfg())

    def test_every_eigensolve_goes_through_leading_eigenvector(self, monkeypatch):
        import noisytopk.experiments as experiments

        real = experiments.leading_eigenvector
        calls = []

        def counted(g, *args, **kwargs):
            calls.append(g.n)
            return real(g, *args, **kwargs)

        monkeypatch.setattr(experiments, "leading_eigenvector", counted)
        run_topk_experiment(_base_cfg(centrality="both", graphs_per_point=3, noise_draws_per_graph=4))
        # two cells of three latent graphs, each with its own solve and four noisy ones
        assert len(calls) == 2 * 3 * (1 + 4)

    @pytest.mark.parametrize("threads", [0, -2])
    def test_non_positive_threads_is_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be a positive integer, got {threads}"):
            run_topk_experiment(_base_cfg(), threads=threads)

    def test_worker_error_reaches_the_caller(self):
        # the model table parses p = 1.5; generate_er rejects it inside a worker
        with pytest.raises(ValueError, match="edge probability"):
            run_topk_experiment(_base_cfg(model_params={"p": 1.5}), threads=2)

    def test_row_per_cell_and_sandwich_means(self):
        cfg = _base_cfg(graphs_per_point=3, noise_draws_per_graph=4)
        rows = run_topk_experiment(cfg)
        assert [r.n for r in rows] == [20, 40]
        for row in rows:
            assert row.mean_lower_bound <= row.mean_half_hamming + 1e-12
            assert row.mean_half_hamming <= row.mean_upper_bound + 1e-12
            assert row.exp_lower_bound <= row.exp_upper_bound + 1e-12
            assert 0.0 <= row.exact_recovery_rate <= 1.0
            assert 0.0 <= row.jaccard_degree <= 1.0
            assert math.isnan(row.jaccard_evec)
            assert math.isnan(row.theory_lower)

    def test_theory_column_filled_for_er(self):
        cfg = ExperimentConfig(
            model="er",
            model_params={"p": 0.3, "n": 40},
            k=2,
            graphs_per_point=2,
            noise_draws_per_graph=2,
            seed_root=3,
            noise_grid=(NoiseParams(0.05, 0.05),),
            theory_curve=True,
        )
        row = run_topk_experiment(cfg)[0]
        assert math.isfinite(row.theory_lower)
        assert row.theory_lower >= 0.0

    def test_threads_give_identical_rows(self):
        cfg = _base_cfg(graphs_per_point=4, noise_draws_per_graph=3)
        serial = run_topk_experiment(cfg, threads=1)
        parallel = run_topk_experiment(cfg, threads=3)
        assert serial == parallel

    def test_pool_has_at_most_one_worker_per_job(self, monkeypatch):
        import noisytopk.experiments as experiments

        asked = []

        class RecordingPool:  # maps in this process, so the test starts none
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = _base_cfg()  # two cells of two graphs: four jobs
        serial = run_topk_experiment(cfg, threads=1)
        assert run_topk_experiment(cfg, threads=64) == serial
        assert asked == [4]
        assert run_topk_experiment(_base_cfg(n_grid=(20,), graphs_per_point=1), threads=64)
        assert asked == [4]  # one job runs without a pool

    def test_threads_give_identical_pa_rows(self):
        cfg = ExperimentConfig(
            model="pa",
            model_params={"m": 3, "b": 1.0},
            k=3,
            graphs_per_point=3,
            noise_draws_per_graph=3,
            seed_root=21,
            alpha=NoiseSchedule(0.05),
            beta=NoiseSchedule(0.05),
            n_grid=(60, 200),
        )
        # repr compares every float bit for bit, NaN included
        assert repr(run_topk_experiment(cfg, threads=2)) == repr(run_topk_experiment(cfg, threads=1))

    def test_pa_params_validated_up_front(self):
        with pytest.raises(ValueError, match="finite"):
            _base_cfg(model="pa", model_params={"m": 2, "b": math.inf})
        with pytest.raises(ValueError, match="n >= m"):
            _base_cfg(model="pa", model_params={"m": 25})

    def test_seed_root_changes_results(self):
        rows_a = run_topk_experiment(_base_cfg(seed_root=1))
        rows_b = run_topk_experiment(_base_cfg(seed_root=2))
        assert rows_a != rows_b
        rows_a2 = run_topk_experiment(_base_cfg(seed_root=1))
        assert rows_a == rows_a2


def _no_draws(*args, **kwargs):
    raise AssertionError("a tree was drawn before the arguments were validated")


class TestRunLocalization:
    def test_fields_and_ranges(self):
        rows = run_localization([40, 80], reps=25, b=1.0, seed_root=9)
        assert [r.n for r in rows] == [40, 80]
        for row in rows:
            assert row.reps_used + row.n_excluded == 25
            assert 0.0 < row.x_h_mean <= 1.0
            assert 0.0 <= row.m_out_mean <= 1.0
            assert row.x_h_q10 <= row.x_h_q50 <= row.x_h_q90
            assert row.m_out_q10 <= row.m_out_q50 <= row.m_out_q90
            assert row.gap_q10 <= row.gap_q50 <= row.gap_q90
            assert row.n_hub_ties >= 0

    def test_deterministic(self):
        a = run_localization([30], reps=10, seed_root=4)
        b = run_localization([30], reps=10, seed_root=4)
        assert a == b

    @pytest.mark.parametrize("reps", [0, -3])
    def test_nonpositive_reps_rejected_before_any_draw(self, monkeypatch, reps):
        monkeypatch.setattr("noisytopk.experiments.generate_pa", _no_draws)
        with pytest.raises(ValueError, match="reps"):
            run_localization([30], reps=reps, seed_root=4)

    def test_every_size_validated_before_any_draw(self, monkeypatch):
        monkeypatch.setattr("noisytopk.experiments.generate_pa", _no_draws)
        with pytest.raises(ValueError, match="n=1"):
            run_localization([200, 1], reps=3, seed_root=4)


class TestRunJaccardComparison:
    def test_grid_rows_and_columns(self):
        grid = (NoiseParams(0.0, 0.0), NoiseParams(0.05, 0.05))
        cfg = ExperimentConfig(
            model="pa",
            model_params={"n": 40, "m": 2, "b": 1.0},
            k=3,
            graphs_per_point=3,
            noise_draws_per_graph=2,
            seed_root=13,
            noise_grid=grid,
            centrality="both",
        )
        rows = run_topk_experiment(cfg)
        assert len(rows) == 2
        assert rows[0].jaccard_degree == 1.0
        assert rows[0].jaccard_evec == 1.0
        for row in rows:
            assert 0.0 <= row.jaccard_degree <= 1.0
            assert 0.0 <= row.jaccard_evec <= 1.0 or math.isnan(row.jaccard_evec)

    def test_threads_give_identical_rows(self):
        cfg = ExperimentConfig(
            model="pa",
            model_params={"n": 60, "m": 2, "b": 1.0},
            k=3,
            graphs_per_point=3,
            noise_draws_per_graph=2,
            seed_root=17,
            noise_grid=(NoiseParams(0.02, 0.05),),
            centrality="both",
        )
        serial = run_topk_experiment(cfg, threads=1)
        assert repr(run_topk_experiment(cfg, threads=2)) == repr(serial)


class TestRunFigure1Profile:
    def test_matched_mean_degrees(self):
        profile = run_figure1_profile(
            n=120, mean_degree=10, noise=NoiseParams(0.01, 0.02), seed=21
        )
        assert set(profile["models"]) == {"er", "sw", "pa"}
        sw = profile["models"]["sw"]
        assert sw["k_ring"] == 10
        assert sw["achieved_mean_degree"] == pytest.approx(10.0)
        er = profile["models"]["er"]
        assert abs(er["achieved_mean_degree"] - 10.0) < 2.0
        pa = profile["models"]["pa"]
        assert "mean_degree_note" in pa
        assert abs(pa["achieved_mean_degree"] - 10.0) < 2.0

    def test_rows_ranked_by_true_degree(self):
        profile = run_figure1_profile(
            n=60, mean_degree=8, noise=NoiseParams(0.05, 0.05), seed=2
        )
        for entry in profile["models"].values():
            rows = entry["rows"]
            assert len(rows) == 60
            assert [r[0] for r in rows] == list(range(1, 61))
            true_deg = [r[2] for r in rows]
            assert all(a >= b for a, b in zip(true_deg, true_deg[1:]))
            # nodes of equal true degree keep ascending node id
            assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]) if a[2] == b[2])
            assert all(r[3] >= 0 for r in rows)

    def test_mean_degree_domain(self):
        with pytest.raises(ValueError):
            run_figure1_profile(n=10, mean_degree=10, noise=NoiseParams(0.0, 0.0), seed=1)
        # a mean degree of 1 leaves small world no ring; the error names the figure1 key
        with pytest.raises(ValueError, match="mean_degree=1"):
            run_figure1_profile(n=50, mean_degree=1, noise=NoiseParams(0.0, 0.0), seed=1)


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

    def test_summary_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        row = self._summary_row()
        write_summary_csv([row], path)
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
        write_summary_csv(rows, path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 1
        assert list(records[0]) == [f for f in LocalizationRow.__dataclass_fields__]

    def test_figure1_csv(self, tmp_path):
        profile = run_figure1_profile(n=30, mean_degree=4, noise=NoiseParams(0.0, 0.0), seed=3)
        path = tmp_path / "fig.csv"
        write_figure1_csv(profile, path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 90
        assert list(records[0]) == ["model", "rank", "node", "true_degree", "noisy_degree"]
        assert {r["model"] for r in records} == {"er", "sw", "pa"}

    def test_json_mirror(self, tmp_path):
        path = tmp_path / "rows.json"
        meta = {"experiment": "topk", "alpha": math.inf, "note": None}
        write_json_mirror(path, meta, [self._summary_row()])
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
