import ast
import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisytopk import (
    ExperimentConfig,
    NoiseParams,
    NoiseSchedule,
    SummaryRow,
    apply_noise,
    derive_seed,
    er_expected_hamming_lower_bound,
    hamming,
    hamming_bounds_realization,
    leading_eigenvector,
    run_figure1_profile,
    run_localization,
    run_topk_experiment,
    top_k,
)
from noisytopk import experiments
from noisytopk.centrality import _top_k_rows
from conftest import jaccard


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

    @pytest.mark.parametrize("root", [-1, 2**64, -(2**64) - 1])
    def test_root_outside_64_bits_rejected(self, root):
        # masking to 64 bits would give -1 the streams of 2**64 - 1
        with pytest.raises(ValueError, match=f"seed root must lie in 0..2\\*\\*64-1, got {root}"):
            derive_seed(root, 5, 9)

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

    @pytest.mark.parametrize("n", [2, 3, 400, 10**6 + 3])
    def test_a_zero_power_leaves_the_rate_bit_exact(self, n):
        assert NoiseSchedule(0.1, n_power=0.5).rate(n) == 0.1 * float(n) ** -0.5
        assert NoiseSchedule(0.1, log_power=1.0).rate(n) == 0.1 * math.log(n) ** -1.0


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

    @pytest.mark.parametrize("root", [-1, 2**64])
    def test_seed_root_outside_64_bits_rejected(self, root):
        with pytest.raises(ValueError, match="seed root"):
            _base_cfg(seed_root=root)

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

    @pytest.mark.parametrize(
        "over, match",
        [
            ({"k": 0}, "k must be positive"),
            ({"graphs_per_point": 0}, "graphs_per_point and noise_draws_per_graph must be positive"),
            ({"centrality": "evec"}, "centrality must be 'degree' or 'both'"),
            ({"n_grid": (1, 5)}, "grid sizes must be at least 2"),
        ],
    )
    def test_out_of_range_value_rejected(self, over, match):
        with pytest.raises(ValueError, match=match):
            _base_cfg(**over)

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

    def test_theory_column_is_nan_where_the_bound_does_not_apply(self):
        # without noise the bound's variance proxy is 0, and the bound raises
        noise_grid = (NoiseParams(0.0, 0.0), NoiseParams(0.05, 0.05))
        cfg = _base_cfg(n_grid=(), noise_grid=noise_grid, model_params={"n": 40, "p": 0.3}, theory_curve=True)
        with pytest.raises(ValueError, match="not positive"):
            er_expected_hamming_lower_bound(40, 0.3, noise_grid[0], cfg.k)
        rows = run_topk_experiment(cfg)
        assert math.isnan(rows[0].theory_lower)
        assert rows[1].theory_lower == er_expected_hamming_lower_bound(40, 0.3, noise_grid[1], cfg.k)

    def test_threads_give_identical_rows(self):
        cfg = _base_cfg(graphs_per_point=4, noise_draws_per_graph=3)
        serial = run_topk_experiment(cfg, threads=1)
        parallel = run_topk_experiment(cfg, threads=3)
        # repr compares every float bit for bit, NaN included
        assert repr(parallel) == repr(serial)

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
        assert repr(run_topk_experiment(cfg, threads=64)) == repr(serial)  # repr: nan columns compare too
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

    @pytest.mark.parametrize("centrality", ["degree", "both"])
    def test_block_size_leaves_the_rows_unchanged(self, monkeypatch, centrality):
        # 40 nodes: blocks of one draw, of two draws with a shorter last one, and of all five
        cfg = _base_cfg(noise_draws_per_graph=5, centrality=centrality)
        rows = {}
        for entries in (40, 80, 1 << 20):
            monkeypatch.setattr(experiments, "_BLOCK_ENTRIES", entries)
            rows[entries] = repr(run_topk_experiment(cfg))  # repr: nan columns compare too
        assert rows[40] == rows[80] == rows[1 << 20]

    def test_pa_params_validated_up_front(self):
        with pytest.raises(ValueError, match="finite"):
            _base_cfg(model="pa", model_params={"m": 2, "b": math.inf})
        with pytest.raises(ValueError, match="n >= m"):
            _base_cfg(model="pa", model_params={"m": 25})

    def test_seed_root_changes_results(self):
        rows_a = run_topk_experiment(_base_cfg(seed_root=1))
        rows_b = run_topk_experiment(_base_cfg(seed_root=2))
        assert repr(rows_a) != repr(rows_b)  # repr: nan columns compare too
        rows_a2 = run_topk_experiment(_base_cfg(seed_root=1))
        assert repr(rows_a) == repr(rows_a2)


def _score_rows(data, n, rows):
    """A rows x n block of int scores in 0..3, which tie at the cutoff often, or of floats that sometimes tie."""
    if data.draw(st.booleans()):
        elements, dtype = st.integers(0, 3), np.int64
    else:
        elements, dtype = st.one_of(st.integers(0, 3).map(float), st.floats(-10.0, 10.0)), np.float64
    return np.array(data.draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=rows, max_size=rows)), dtype)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scored_block_rows_equal_the_scalar_functions(data):
    # every row takes its own tie-break, as one top_k call per draw did
    n = data.draw(st.integers(2, 12))
    block = _score_rows(data, n, data.draw(st.integers(1, 6)))
    k = data.draw(st.integers(1, n - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    s_k = top_k(_score_rows(data, n, 1)[0], k, seed)
    chosen, tie_broken = _top_k_rows(block, k, seed)
    dh, jac, hb = experiments._score_block(s_k, block, seed)
    for r, row in enumerate(block):
        s_tilde = top_k(row, k, seed)
        assert set(np.flatnonzero(chosen[r]).tolist()) == s_tilde.members
        assert tie_broken[r] == s_tilde.tie_broken
        assert (dh[r], jac[r]) == (hamming(s_k, s_tilde), jaccard(s_k, s_tilde))
        assert tuple(field[r] for field in hb) == hamming_bounds_realization(s_k, row)


def _evec_cfg(**over):
    kw = dict(
        model="er",
        model_params={"n": 30, "p": 0.3},
        k=3,
        graphs_per_point=4,
        noise_draws_per_graph=3,
        seed_root=1,
        noise_grid=(NoiseParams(0.05, 0.05),),
        centrality="both",
    )
    kw.update(over)
    return ExperimentConfig(**kw)


def _fail_solves(monkeypatch, fails):
    """Report the leading_eigenvector calls whose 0-based index i has fails(i) as not converged."""
    real = experiments.leading_eigenvector
    calls = itertools.count()

    def solve(g, *args, **kwargs):
        lam, x, ok = real(g, *args, **kwargs)
        return lam, x, ok and not fails(next(calls))

    monkeypatch.setattr(experiments, "leading_eigenvector", solve)


def _fail_latent_solves(monkeypatch, cfg, graphs):
    """Fail the latent solve of each listed graph in a serial run of one cell: a graph solves itself, then its draws
    (none of them once its own solve has failed)."""
    latent = [0]  # the call index of each graph's latent solve
    for _ in range(cfg.graphs_per_point):
        latent.append(latent[-1] + 1 + (0 if len(latent) - 1 in graphs else cfg.noise_draws_per_graph))
    _fail_solves(monkeypatch, lambda i: i in {latent[j] for j in graphs})


class TestAggregateCell:
    def test_per_graph_values_are_the_tables_columns(self):
        for cfg in (_evec_cfg(), _evec_cfg(centrality="degree")):
            values = experiments._run_one_graph(cfg, 0, 30, cfg.noise_grid[0], 0)
            assert sorted(values) == sorted([mean for mean, _ in experiments._MEANS] + list(experiments._COUNTS))
            # summed into the int columns of SummaryRow, so neither a float nor a numpy integer
            assert [type(values[name]) for name in experiments._COUNTS] == [int] * len(experiments._COUNTS)

    def test_eigenvector_jaccard_is_the_per_draw_mean_summed_in_draw_order(self):
        # on these 11 draws numpy's pairwise sum and the exactly rounded math.fsum both give another mean than a sum
        # in draw order
        draws, noise = 11, NoiseParams(0.1, 0.1)
        cfg = _evec_cfg(k=4, noise_draws_per_graph=draws, noise_grid=(noise,))
        values = experiments._run_one_graph(cfg, 0, 30, noise, 3)

        tie_seed = derive_seed(cfg.seed_root, experiments.STREAM_TIEBREAK, 0, 3)
        g = experiments.make_graph("er", {"p": 0.3}, 30, derive_seed(cfg.seed_root, experiments.STREAM_GRAPH, 0, 3))
        _, x, ok = leading_eigenvector(g)
        assert ok
        s_k = top_k(x, cfg.k, tie_seed)
        jaccards = []
        for r in range(draws):
            y = apply_noise(g, noise, derive_seed(cfg.seed_root, experiments.STREAM_NOISE, 0, 3, r))
            _, xy, oky = leading_eigenvector(y)
            if oky:
                jaccards.append(jaccard(s_k, top_k(xy, cfg.k, tie_seed)))
        total = 0.0
        for value in jaccards:
            total += value
        assert len(jaccards) == draws and values["n_excluded"] == 0
        assert values["jaccard_evec"] == total / draws  # bit for bit
        assert values["jaccard_evec"] != float(np.sum(jaccards)) / draws
        assert values["jaccard_evec"] != math.fsum(jaccards) / draws

    @pytest.mark.parametrize("failed, excluded", [(0, 11), (4, 1)], ids=["latent", "one-draw"])
    def test_failed_solves_are_excluded_from_the_eigenvector_jaccard(self, monkeypatch, failed, excluded):
        # the graph solves itself first, then its draws in order
        cfg = _evec_cfg(noise_draws_per_graph=11)
        _fail_solves(monkeypatch, lambda i: i == failed)
        values = experiments._run_one_graph(cfg, 0, 30, cfg.noise_grid[0], 1)
        assert values["n_excluded"] == excluded
        assert math.isnan(values["jaccard_evec"]) == (excluded == 11)

    def test_failed_latent_solve_skips_the_noisy_solves(self, monkeypatch):
        # the noisy graphs are still drawn and their components counted; only their eigenvectors are not solved
        cfg = _evec_cfg(noise_draws_per_graph=11, noise_grid=(NoiseParams(0.01, 0.7),))
        base = experiments._run_one_graph(cfg, 0, 30, cfg.noise_grid[0], 1)
        solves, real_components, components = [], experiments.connected_components, []
        _fail_solves(monkeypatch, lambda i: solves.append(i) or i == 0)
        monkeypatch.setattr(experiments, "connected_components", lambda *a: components.append(0) or real_components(*a))
        values = experiments._run_one_graph(cfg, 0, 30, cfg.noise_grid[0], 1)
        assert solves == [0] and len(components) == 11
        assert base["n_excluded"] == 0 and base["n_disconnected"] > 0
        assert values["n_excluded"] == 11 and math.isnan(values["jaccard_evec"])
        assert {key: repr(v) for key, v in values.items() if key not in ("n_excluded", "jaccard_evec")} == {
            key: repr(v) for key, v in base.items() if key not in ("n_excluded", "jaccard_evec")
        }

    def test_failed_latent_solve_excludes_that_graph_from_the_eigenvector_columns(self, monkeypatch):
        cfg = _evec_cfg()
        others = [experiments._run_one_graph(cfg, 0, 30, cfg.noise_grid[0], j)["jaccard_evec"] for j in (1, 2, 3)]
        base = run_topk_experiment(cfg)[0]
        assert base.n_excluded == 0
        assert base.jaccard_evec != pytest.approx(np.mean(others))  # graph 0 moves the mean

        _fail_latent_solves(monkeypatch, cfg, graphs={0})
        row = run_topk_experiment(cfg)[0]
        assert row.n_excluded == cfg.noise_draws_per_graph
        assert row.jaccard_evec == pytest.approx(np.mean(others), rel=1e-12)
        assert row.se_jaccard_evec == pytest.approx(np.std(others, ddof=1) / math.sqrt(3), rel=1e-12)
        for name in SummaryRow.__dataclass_fields__:
            if name not in ("jaccard_evec", "se_jaccard_evec", "n_excluded"):
                assert repr(getattr(row, name)) == repr(getattr(base, name)), name

    def test_every_latent_solve_failing_leaves_no_eigenvector_mean(self, monkeypatch):
        cfg = _evec_cfg()
        _fail_latent_solves(monkeypatch, cfg, graphs={0, 1, 2, 3})
        row = run_topk_experiment(cfg)[0]
        assert row.n_excluded == 4 * cfg.noise_draws_per_graph
        assert math.isnan(row.jaccard_evec)
        assert math.isnan(row.se_jaccard_evec)
        assert math.isfinite(row.jaccard_degree)

    def test_disconnected_noisy_graphs_are_counted(self, monkeypatch):
        real, components = experiments.connected_components, []

        def record(*args, **kwargs):
            result = real(*args, **kwargs)
            components.append(result[0])
            return result

        monkeypatch.setattr(experiments, "connected_components", record)
        cfg = _evec_cfg(
            model_params={"n": 40, "p": 0.08},
            graphs_per_point=2,
            noise_draws_per_graph=5,
            seed_root=3,
            noise_grid=(NoiseParams(0.0, 0.3),),
        )
        row = run_topk_experiment(cfg)[0]
        assert len(components) == 10
        assert row.n_disconnected == sum(c > 1 for c in components) > 0

    def test_one_graph_per_point_has_no_standard_errors(self):
        row = run_topk_experiment(_evec_cfg(graphs_per_point=1))[0]
        for mean, se in experiments._MEANS:
            assert math.isfinite(getattr(row, mean)), mean
            assert math.isnan(getattr(row, se)), se


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

    @pytest.mark.parametrize("fail_every, used", [(3, 4), (1, 0)])
    def test_non_converged_solves_are_counted_and_left_out(self, monkeypatch, fail_every, used):
        _fail_solves(monkeypatch, lambda i: i % fail_every == 0)
        row = run_localization([30], reps=7, seed_root=4)[0]
        assert (row.reps_used, row.n_excluded) == (used, 7 - used)
        assert math.isnan(row.gap_q50) == (used == 0)

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

    @pytest.fixture
    def generator_calls(self, monkeypatch):
        """The names of the graph generators called, in order, through spies on the three of them."""
        calls = []
        for name in ("generate_er", "generate_pa", "generate_small_world"):
            def spy(*args, _name=name, _real=getattr(experiments, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(experiments, name, spy)
        return calls

    @pytest.mark.parametrize("pa, message", [({"pa_m": 0}, "m must be a positive integer"),
                                             ({"pa_b": -3.0}, "attachment offset")])
    def test_pa_values_fail_before_any_graph(self, generator_calls, pa, message):
        with pytest.raises(ValueError, match=message):
            run_figure1_profile(n=60, mean_degree=8, noise=NoiseParams(0.05, 0.05), seed=2, **pa)
        assert generator_calls == []

    @pytest.mark.parametrize("rewire_p", [1.5, -0.1, math.nan])
    def test_sw_rewiring_fails_before_any_graph(self, generator_calls, rewire_p):
        with pytest.raises(ValueError, match="rewiring probability must lie in"):
            run_figure1_profile(n=60, mean_degree=8, noise=NoiseParams(0.05, 0.05), seed=2, rewire_p=rewire_p)
        assert generator_calls == []


class TestSummarySchema:
    def test_every_summary_field_has_one_source(self):
        # a field is one that _aggregate_cell fills itself, a key _run_one_graph returns, or the se_ field after a mean
        names = [f.name for f in dataclasses.fields(SummaryRow)]
        tree = ast.parse(inspect.getsource(experiments._aggregate_cell))
        calls = (node for node in ast.walk(tree) if isinstance(node, ast.Call))
        row = next(call for call in calls if isinstance(call.func, ast.Name) and call.func.id == "SummaryRow")
        own = {keyword.arg for keyword in row.keywords if keyword.arg is not None}  # not the **stats of the keys
        cfg = _evec_cfg()
        returned = set(experiments._run_one_graph(cfg, 0, 30, cfg.noise_grid[0], 0))
        means = returned - set(experiments._COUNTS)
        for before, name in zip([None, *names], names):
            sources = [name in own, name in returned, name.startswith("se_") and before in means]
            assert sources.count(True) == 1, name
