import numpy as np
import pytest
import yaml

from maoi_edge import baselines, experiments, trends
from maoi_edge.experiments import (
    ORACLE_COLUMNS,
    RESULT_COLUMNS,
    SweepSpec,
    aggregate,
    convergence_grid,
    read_csv,
    run_sweep,
    scenario_for,
    solve_sweep,
    validate_oracle,
    write_aggregate_csv,
    write_convergence_grid_csv,
    write_oracle_csv,
    write_results_csv,
)

FAST = {"energy_budget": 50.0}  # slack budgets converge in a handful of iterations


def fast_spec(**kw):
    defaults = dict(param="device_count", grid=(2.0, 3.0),
                    algorithms=("flc",), seeds=(0,), base_devices=3,
                    overrides=dict(FAST))
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            fast_spec(param="budget")
        with pytest.raises(ValueError):
            fast_spec(grid=())
        with pytest.raises(ValueError):
            fast_spec(seeds=())
        with pytest.raises(ValueError, match="need at least one algorithm"):
            fast_spec(algorithms=())
        with pytest.raises(ValueError):
            fast_spec(algorithms=("sgd",))
        with pytest.raises(ValueError, match="grid repeats 3.0"):
            fast_spec(grid=(3.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="seeds repeats 0"):
            fast_spec(seeds=(0, 0))
        # a bool would build, and run_sweep would write True as the seed
        with pytest.raises(TypeError, match="not a bool"):
            fast_spec(seeds=(True,))
        with pytest.raises(ValueError, match="algorithms repeats 'flc'"):
            fast_spec(algorithms=("flc", "flc"))
        # a count fails when the spec is built, not at its first solve
        with pytest.raises(ValueError, match="base_devices must be an integer >= 1, got 2.5"):
            fast_spec(param="energy_budget", grid=(2.0,), base_devices=2.5)

    @pytest.mark.parametrize("value", [2.5, 0.0, -1.0, float("nan"), float("inf")])
    def test_device_count_grid_must_hold_counts(self, value):
        with pytest.raises(ValueError, match="device_count grid values"):
            fast_spec(grid=(2.0, value))

    @pytest.mark.parametrize("param, value, match", [
        ("energy_budget", -1.0, "energy_budget"),
        ("energy_budget", float("nan"), "energy_budget"),
        ("local_cpu", 1e11, "f_edge >= f_local"),
        ("audio_weight_increment", -0.5, "increment"),
    ])
    def test_bad_grid_value_rejected_when_built(self, param, value, match):
        with pytest.raises(ValueError, match=match):
            fast_spec(param=param, grid=(1.0, value))

    def test_bad_settings_rejected_when_built(self):
        with pytest.raises(ValueError, match="tau_min"):
            fast_spec(overrides={**FAST, "tau_min": -1.0})
        with pytest.raises(ValueError, match="base_devices"):
            fast_spec(param="energy_budget", grid=(2.0,), base_devices=0)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_every_seed_checked_when_built(self, monkeypatch, seed, error):
        monkeypatch.setattr(baselines, "solve", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(error, match="seed|integer"):
            run_sweep(fast_spec(seeds=(0, seed)))

    def test_fractional_grid_allowed_for_other_params(self):
        assert fast_spec(param="energy_budget", grid=(2.5,)).grid == (2.5,)
        assert fast_spec(grid=(1.0, 3)).grid == (1.0, 3)

    def test_scenario_for_each_param(self):
        assert scenario_for(fast_spec(), 4.0, 0).n_devices == 4
        sc = scenario_for(fast_spec(param="energy_budget", grid=(2.0,)), 2.0, 0)
        assert all(p.energy_budget == 2.0 for p in sc.profiles)
        sc = scenario_for(fast_spec(param="local_cpu", grid=(2e9,)), 2e9, 0)
        assert sc.config.f_local == 2e9
        base = scenario_for(fast_spec(param="audio_weight_increment",
                                      grid=(0.0, 1.0)), 0.0, 0)
        bumped = scenario_for(fast_spec(param="audio_weight_increment",
                                        grid=(0.0, 1.0)), 1.0, 0)
        assert bumped.profiles[0].maoi_weights[1] == pytest.approx(
            base.profiles[0].maoi_weights[1] + 1.0)


class TestRunSweep:
    def test_single_cell_single_row(self):
        rows = run_sweep(fast_spec(grid=(2.0,)))
        assert len(rows) == 1

    def test_one_evaluator_per_task(self, monkeypatch):
        from maoi_edge.optimizer import ScenarioEvaluator
        built = []
        original = ScenarioEvaluator.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ScenarioEvaluator, "__init__", counting)
        spec = fast_spec(algorithms=("flc", "fmi", "jso"), seeds=(0, 1))
        rows = run_sweep(spec)
        assert len(rows) == 2 * 3 * 2
        assert len(built) == len(rows)
        assert set(RESULT_COLUMNS) <= set(rows[0])

    def test_cardinality(self):
        rows = run_sweep(fast_spec(grid=(2.0, 3.0, 4.0), seeds=(0, 1, 2),
                                   algorithms=("flc", "fmi")))
        assert len(rows) == 18

    def test_rows_sorted_and_worker_invariant(self):
        spec = fast_spec(grid=(2.0, 3.0), seeds=(0, 1), algorithms=("flc", "fmi"))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial == parallel

    def test_results_csv_roundtrip_and_stability(self, tmp_path):
        rows = run_sweep(fast_spec(seeds=(0, 1)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(rows, p1)
        write_results_csv(run_sweep(fast_spec(seeds=(0, 1))), p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_csv(p1)
        assert len(back) == len(rows)
        assert back[0]["avg_maoi"] == pytest.approx(rows[0]["avg_maoi"])


class TestSolveSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_match_run_sweep_and_decisions_match_solve(self, workers):
        spec = SweepSpec(param="device_count", grid=(4.0, 6.0),
                         algorithms=tuple(baselines.ALGORITHMS), seeds=(0, 1),
                         overrides={"max_outer_iters": 300})
        pairs = solve_sweep(spec, workers=workers)
        assert [row for row, _ in pairs] == run_sweep(spec, workers=workers)
        for row, decision in pairs:
            sc = scenario_for(spec, row["value"], row["seed"])
            expected, _ = baselines.solve(row["algorithm"], sc.devices,
                                          sc.config)
            assert np.array_equal(decision.tau, expected.tau)
            assert np.array_equal(decision.x, expected.x)
            assert np.array_equal(decision.mu, expected.mu)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_must_be_positive(self, workers, monkeypatch):
        monkeypatch.setattr(baselines, "solve", pytest.fail)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            solve_sweep(fast_spec(), workers=workers)


class TestAggregate:
    def test_mean_and_std_over_seeds(self):
        rows = run_sweep(fast_spec(grid=(3.0,), seeds=(0, 1, 2)))
        agg = aggregate(rows)
        assert len(agg) == 1
        vals = [r["avg_maoi"] for r in rows]
        assert agg[0]["avg_maoi_mean"] == pytest.approx(np.mean(vals))
        assert agg[0]["avg_maoi_std"] == pytest.approx(np.std(vals, ddof=1))
        assert agg[0]["n_seeds"] == 3

    def test_weight_sweep_reports_increments(self, tmp_path):
        spec = fast_spec(param="audio_weight_increment", grid=(0.0, 1.5),
                         base_devices=2, seeds=(0, 1))
        agg = aggregate(run_sweep(spec))
        base = next(r for r in agg if r["value"] == 0.0)
        bumped = next(r for r in agg if r["value"] == 1.5)
        assert base["avg_maoi_increment"] == pytest.approx(0.0)
        assert bumped["avg_maoi_increment"] == pytest.approx(
            bumped["avg_maoi_mean"] - base["avg_maoi_mean"])
        path = tmp_path / "agg.csv"
        write_aggregate_csv(agg, path)
        assert "avg_maoi_increment" in path.read_text().splitlines()[0]


class TestConvergenceGrid:
    def test_single_cell(self, tmp_path):
        cells = convergence_grid((2,), (50.0,), seeds=(0,))
        assert len(cells) == 1 and len(cells[0]) == 1
        assert cells[0][0] >= 1
        path = tmp_path / "grid.csv"
        write_convergence_grid_csv((2,), (50.0,), cells, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "energy_budget,D=2"

    def test_bad_budget_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(baselines, "solve", pytest.fail)
        with pytest.raises(ValueError, match="energy_budget"):
            convergence_grid((2,), (50.0, -1.0), seeds=(0,))

    def test_repeated_budget_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(baselines, "solve", pytest.fail)
        with pytest.raises(ValueError, match="energy budget grid repeats 50.0"):
            convergence_grid((2,), (50.0, 20.0, 50.0), seeds=(0,))

    def test_reproducible(self):
        a = convergence_grid((2, 3), (20.0, 50.0), seeds=(0, 1))
        b = convergence_grid((2, 3), (20.0, 50.0), seeds=(0, 1))
        assert a == b


class TestOracleValidation:
    def test_grid_shape_and_exact_rows(self, tmp_path):
        rows = validate_oracle(n_updates=2000, seed=0)
        assert len(rows) == 54  # 3 lambdas x 3 psis x 3 taus x 2 system times
        for r in rows:
            if r["psi"] == 0.0:
                assert r["mc_mean"] == pytest.approx(r["closed_form"], abs=1e-12)
                assert r["bracketed"] == 1
        path = tmp_path / "oracle.csv"
        write_oracle_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(ORACLE_COLUMNS)

    def test_deterministic_for_seed(self):
        a = validate_oracle(n_updates=2000, seed=5)
        b = validate_oracle(n_updates=2000, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), ("3", TypeError)])
    def test_bad_seed_rejected_before_any_simulation(self, seed, error):
        with pytest.raises(error):
            validate_oracle(n_updates=2000, seed=seed)


class TestTrendChecks:
    ROWS = [{"value": v, "algorithm": alg, "m": m}
            for alg, ms in (("jso", (10.0, 5.0, 5.001)), ("flc", (20.0, 20.01, 20.02)))
            for v, m in zip((1, 2, 3), ms)]

    def test_monotone_with_slack(self):
        ok, _ = trends.check_monotone([1, 2, 3], [1.0, 1.5, 2.0], "increasing")
        assert ok
        ok, _ = trends.check_monotone([1, 2, 3], [1.0, 0.99, 2.0], "increasing",
                                      slack=0.05)
        assert ok  # dip within 5% of range
        ok, detail = trends.check_monotone([1, 2, 3], [1.0, 0.2, 2.0],
                                           "increasing", slack=0.05)
        assert not ok and "against increasing" in detail

    def test_dominance(self):
        rows = [
            {"value": 1.0, "algorithm": "jso", "m": 1.0},
            {"value": 1.0, "algorithm": "flc", "m": 2.0},
            {"value": 2.0, "algorithm": "jso", "m": 1.5},
            {"value": 2.0, "algorithm": "flc", "m": 1.4},
        ]
        ok, detail = trends.check_dominance(rows, "m", "jso", ["flc"])
        assert not ok and "exceeds" in detail
        rows[3]["m"] = 1.6
        ok, _ = trends.check_dominance(rows, "m", "jso", ["flc"])
        assert ok

    def test_flat_and_plateau(self):
        rows = [
            {"value": v, "algorithm": "flc", "m": 5.0 + 0.01 * v} for v in (1, 2, 3)
        ] + [
            {"value": v, "algorithm": "jso", "m": 10.0 - 2.0 * v} for v in (1, 2, 3)
        ]
        ok, _ = trends.check_flat(rows, "m", "flc", reference="jso",
                                  within_frac=0.02)
        assert ok
        ok, _ = trends.check_plateau([1, 2, 3], [10.0, 5.0, 5.001])
        assert ok
        ok, _ = trends.check_plateau([1, 2, 3], [10.0, 5.0, 4.0])
        assert not ok

    def test_declarative_evaluation_and_negative_control(self):
        rows = [{"value": v, "algorithm": "jso", "avg_maoi_mean": 10.0 + v}
                for v in (1, 2, 3)]
        report = trends.evaluate_checks(rows, [
            {"type": "monotone", "metric": "avg_maoi_mean", "algorithm": "jso",
             "direction": "increasing", "name": "rises"},
            {"type": "monotone", "metric": "avg_maoi_mean", "algorithm": "jso",
             "direction": "decreasing", "name": "falls"},
        ])
        assert not report.passed
        by_name = {r.name: r for r in report.results}
        assert by_name["rises"].passed
        assert not by_name["falls"].passed
        assert "FAIL" in report.render()

    def test_dominance_defaults_to_every_other_algorithm(self):
        rows = [{"value": 1.0, "algorithm": alg, "m": m}
                for alg, m in (("jso", 1.0), ("flc", 2.0), ("fmi", 0.5))]
        ok, detail = trends.check_dominance(rows, "m", "jso")
        assert not ok and "exceeds fmi" in detail
        report = trends.evaluate_checks(rows, [
            {"type": "dominance", "metric": "m", "reference": "jso"},
            {"type": "dominance", "metric": "m", "reference": "jso", "others": ["flc"]}])
        assert [r.passed for r in report.results] == [False, True]

    @pytest.mark.parametrize("check, bad", [
        ({"type": "monotone", "algorithm": "jso", "direction": "decreasing"},
         {"slak": 1.0}),
        ({"type": "monotone", "algorithm": "jso", "direction": "decreasing"},
         {"slack": "5%"}),
        ({"type": "monotone", "algorithm": "jso", "direction": "decreasing"},
         {"slack": True}),  # YAML's ``slack: yes``
        ({"type": "plateau", "algorithm": "jso"}, {"step": 0.5}),
        ({"type": "plateau", "algorithm": "jso"}, {"step_frac": "1%"}),
        ({"type": "flat", "algorithm": "flc", "reference": "jso"}, {"within": 0.5}),
        ({"type": "flat", "algorithm": "flc", "reference": "jso"}, {"within_frac": [0.5]}),
        ({"type": "dominance", "reference": "jso"}, {"tolerance": 1.0}),
        ({"type": "dominance", "reference": "jso"}, {"tol": "tiny"}),
        ({"type": "dominance", "reference": "jso"}, {"others": "flc"}),
    ])
    def test_bad_parameter_is_a_check_error(self, check, bad):
        spec = {"name": "c", "metric": "m", **check}
        assert trends.evaluate_checks(self.ROWS, [spec]).passed  # the well-formed check
        [result] = trends.evaluate_checks(self.ROWS, [{**spec, **bad}]).results
        assert not result.passed
        assert result.line().startswith("[FAIL] c: check error: ")
        [key] = bad  # a wrong type or an unknown key, named either way
        assert f"{key}: expected " in result.detail or f"fields: ['{key}']" in result.detail

    def test_numeric_string_reads_as_a_number(self):
        # YAML 1.1 reads an unquoted 1e-6 as a string, as it does in configs
        [spec] = yaml.safe_load("- {type: dominance, metric: m, reference: jso, tol: 1e-6}")
        assert spec["tol"] == "1e-6"
        [result] = trends.evaluate_checks(self.ROWS, [spec]).results
        assert result.passed
        # a dip of 0.5 is within a slack of "0.5" of the curve's range of 5
        [result] = trends.evaluate_checks(self.ROWS, [
            {"type": "monotone", "metric": "m", "algorithm": "jso",
             "direction": "decreasing", "slack": "0.5"}]).results
        assert result.passed and "(slack 2.5)" in result.detail

    def test_unknown_check_type_reported(self):
        report = trends.evaluate_checks([], [{"type": "wavelet"}])
        assert not report.passed
