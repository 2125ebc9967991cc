"""Smoke tests of the benchmark: metric names, units and the correctness check.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The workloads here are tiny versions of the real ones, so the tests take
a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_SWEEP = workloads.Workload(
    name="tiny_sweep", why="smoke test", kind="sweep", grid=(2, 3),
    algorithms=("fmi", "jso", "idd"), seeds_per_run=2,
    overrides=dict(workloads.SCALED_ITERATIONS), write_outputs=True)
TINY_ORACLE = workloads.Workload(
    name="tiny_oracle", why="smoke test", kind="oracle", n_updates=2_000)


def units(metrics: dict) -> dict:
    return {name: unit for name, (_value, unit) in metrics.items()}


@pytest.fixture(scope="module")
def sweep_reps(tmp_path_factory):
    prepared = workloads.setup(TINY_SWEEP, 0)
    out = tmp_path_factory.mktemp("sweep")
    untraced = [run.run_rep(prepared, out) for _ in range(2)]
    tracer = Tracer()
    traced = run.run_rep(prepared, out, tracer)
    return untraced, traced, tracer


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_end_to_end_metrics_match_benchmark_json(sweep_reps):
    untraced, _, _ = sweep_reps
    metrics, detail = run.end_to_end_metrics(untraced, [0.25, 0.3])
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert detail["n_ops"] == 2 * 2 * 3


def test_per_layer_metrics_match_benchmark_json(sweep_reps, tmp_path):
    untraced, traced, tracer = sweep_reps
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = run.per_layer_metrics(untraced, traced, tracer)
    assert units(metrics) == expected
    assert metrics["optimizer.sampling_step.calls"][0] > 0
    assert metrics["trace.covered_frac"][0] > 0.9
    tracer.write_sidecar(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start_s"]) == sum(s[0] for s in tracer.stats.values())

    oracle = workloads.setup(TINY_ORACLE, 0)
    plain = [run.run_rep(oracle, tmp_path)]
    oracle_tracer = Tracer()
    oracle_traced = run.run_rep(oracle, tmp_path, oracle_tracer)
    metrics = run.per_layer_metrics(plain, oracle_traced, oracle_tracer)
    assert units(metrics) == expected
    assert metrics["oracle.simulate_avg_maoi.calls"][0] == 54


def test_repetitions_agree_and_pass_the_checks(sweep_reps):
    untraced, traced, _ = sweep_reps
    correct, attempted, failed, problems = run.verdict(untraced + [traced])
    assert (correct, failed, problems) == (True, 0, [])
    assert attempted == 3 * 12


def test_verdict_counts_a_failed_operation_and_a_digest_change(sweep_reps):
    untraced, _, _ = sweep_reps
    bad_op = workloads.Op(kind="solve", seconds=0.1, problems=["tau below tau_min"])
    body = workloads.BodyResult(rows=[], digest="changed", problems=[])
    corrupted = run.Rep(1.0, untraced[0].ops[:-1] + [bad_op], body)
    correct, _, failed, problems = run.verdict([untraced[0], corrupted])
    assert not correct
    assert failed == 1
    assert any("digest" in p for p in problems)


@pytest.fixture(scope="module")
def solved():
    from maoi_edge import baselines, scenario
    from maoi_edge.system_model import total_data_bits
    sc = scenario.generate_scenario(4, 0, dict(workloads.SCALED_ITERATIONS))
    decision, trace = baselines.solve("jso", list(sc.profiles), sc.config)
    payload = [total_data_bits(p) for p in sc.profiles]
    return decision, trace, payload, sc.config


def _check(decision, trace, payload, config, tau=None, x=None):
    return checks.check_solve(
        decision.tau if tau is None else tau, decision.x if x is None else x,
        payload, trace.converged, trace.max_violations[-1], trace.costs, config)


def test_check_solve_accepts_the_solver_decision(solved):
    assert _check(*solved) == []


def test_check_solve_rejects_tau_below_tau_min(solved):
    decision, trace, payload, config = solved
    tau = decision.tau.copy()
    tau[0] = 0.5 * config.tau_min
    assert any("tau_min" in p for p in _check(*solved, tau=tau))


def test_check_solve_rejects_offloading_over_capacity(solved):
    decision, trace, payload, config = solved
    x = np.ones_like(decision.x)
    assert sum(payload) > config.capacity_threshold
    assert any("capacity" in p for p in _check(*solved, x=x))


def test_check_solve_rejects_converged_but_infeasible(solved):
    decision, trace, payload, config = solved
    problems = checks.check_solve(decision.tau, decision.x, payload, True,
                                  2 * config.energy_tol, trace.costs, config)
    assert any("energy" in p for p in problems)


def test_check_oracle_row_rejects_an_unbracketed_point():
    row = {"closed_form": 3.0, "mc_mean": 2.0, "ci_low": 1.9, "ci_high": 2.1,
           "bracketed": 0}
    assert len(checks.check_oracle_row(row)) == 2
    assert checks.check_oracle_row({**row, "closed_form": 2.0, "bracketed": 1}) == []


def test_result_digest_ignores_row_order_but_not_values():
    rows = [{"a": 1.0, "b": 2}, {"a": 0.5, "b": 3}]
    assert checks.result_digest(rows) == checks.result_digest(rows[::-1])
    assert checks.result_digest(rows) != checks.result_digest(
        [{"a": 1.0 + 1e-15, "b": 2}, rows[1]])


@pytest.mark.parametrize("n, pct, index", [(5, 100, 4), (11, 9, 0), (42, 76, 31),
                                           (54, 81, 43), (100, 90, 89)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct, index):
    samples = [float(i) for i in range(n)]
    assert run.tail_percentile(samples) == (pct, samples[index])
    if n > 10:
        assert n - (index + 1) >= 10


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matched_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
