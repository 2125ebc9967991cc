"""Golden outputs: a refactor that keeps the arithmetic keeps these bytes.

The digests pin the exact CSV bytes of a small sweep over every algorithm,
of one solve that runs the Newton path, of one solve at the default
multiplier step and of the oracle validation table;
any change to a formula, an operation order or a reduction shows up as a
new digest.  They hold on
x86_64 with numpy 2.4.6 (Python 3.11); another platform or numpy build
may round differently and needs its own digests.  A change that is meant
to move results updates them and says why.
"""

import hashlib

from maoi_edge import baselines, experiments
from maoi_edge.cli import main

SWEEP_RESULTS_SHA256 = (
    "36cfdb1d86c2c3351df25fbf9e9e7394ce8ab32f277e57982906788bfb4eafb6")
NEWTON_TRACE_SHA256 = (
    "ea81ced5f90331803473981b9a3d71bb2d11bc41ef4d4f50fb909f8969200cc0")
NEWTON_DECISION_SHA256 = (
    "efd8a4f13052d21cdd0de36bc4125a8d3cdd34de7dd09690eb65888fb70ef6c0")
DEFAULT_STEP_TRACE_SHA256 = (
    "9a2063821ea924da66d08db779d7e895ef0066709616a2d5e944deb90f8d4019")
DEFAULT_STEP_DECISION_SHA256 = (
    "4de388a4961a3065f5dd90162a8f565f130bf2598d53b860c2ed3c16704e4353")
ORACLE_TABLE_SHA256 = (
    "cad953e00aa36b8c4d7586061f663bf09751803554d5686d685ab280941e1229")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_results_csv(tmp_path):
    # D 5 and 8 x seeds 0, 1 x all algorithms; 24 of the 28 cells converge
    # within 1500 iterations at the larger step, 100 devices offload in all
    spec = experiments.SweepSpec(
        param="device_count", grid=(5.0, 8.0),
        algorithms=tuple(sorted(baselines.ALGORITHMS)), seeds=(0, 1),
        overrides={"lagrange_step": 0.5, "max_outer_iters": 1500,
                   "capacity_threshold": 2e7})
    rows = experiments.run_sweep(spec)
    assert sum(r["converged"] for r in rows) == 24
    assert sum(r["n_offloaded"] for r in rows) == 100
    experiments.write_results_csv(rows, tmp_path / "results.csv")
    assert sha256(tmp_path / "results.csv") == SWEEP_RESULTS_SHA256


def test_newton_path_solve(tmp_path):
    # low event rates open a convex region, so the sampling block takes its
    # projected Newton path (68 656 Newton iterations in all)
    code = main(["solve", "--devices", "4", "--seed", "1",
                 "--override", "event_rates=[0.05,0.05,0.05]",
                 "--out", str(tmp_path)])
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert sum(int(line.rsplit(",", 1)[1]) for line in trace) == 68_656
    assert sha256(tmp_path / "trace.csv") == NEWTON_TRACE_SHA256
    assert sha256(tmp_path / "decision.csv") == NEWTON_DECISION_SHA256


def test_default_step_solve(tmp_path):
    # the default table's multiplier ramp, which the acceptance sweeps run:
    # 14 019 outer iterations, nearly all under one settled pattern
    code = main(["solve", "--devices", "10", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert len(trace) == 14_019
    assert sha256(tmp_path / "trace.csv") == DEFAULT_STEP_TRACE_SHA256
    assert sha256(tmp_path / "decision.csv") == DEFAULT_STEP_DECISION_SHA256


def test_oracle_validation_table(tmp_path):
    # the closed form the solvers run against 20 000 simulated updates per
    # grid point; the digest pins both columns, so it moves if either does
    rows = experiments.validate_oracle(n_updates=20_000, seed=7)
    assert len(rows) == 54 and all(r["bracketed"] for r in rows)
    experiments.write_oracle_csv(rows, tmp_path / "oracle.csv")
    assert sha256(tmp_path / "oracle.csv") == ORACLE_TABLE_SHA256
