"""maoi-edge benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
``--workload all`` runs every workload, each in a fresh process.

With ``--trace 0`` the run measures the end-to-end metrics: it sets the
workload up several times (import plus scenario generation, each in a
fresh interpreter), then repeats the workload's body until ``--seconds``
is spent (at least twice) and reports medians over the repetitions,
with every time scaled to a reference host speed (see ``Rep``).
With ``--trace 1`` it first repeats the body untraced for half the time,
then runs it once more with every layer boundary traced, reports the
per-layer metrics and writes the spans to
``.perfbench_out/<workload>/spans.npz``.

Every run checks the results: each solve's decision is feasible (tau at
least tau_min, offloaded bits within capacity, converged solves within the
energy tolerance, finite costs), each oracle point is bracketed, and the
digest of the sorted result rows is identical across repetitions.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3            # set-up measurements per run, median reported
MIN_REPS = 2                 # repetitions needed to compare result digests
CHILD_TIMEOUT_S = 170


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least 10 samples beyond it.

    Nearest-rank: percentile p is the ceil(p*n/100)-th smallest sample.
    With 10 or fewer samples no such percentile exists and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = (100 * (n - 10)) // n
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Import plus scenario generation, timed inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Rep:
    """One repetition of a workload's body, with its times at reference speed.

    Each operation is scaled by the median calibration time of the five
    operations around it, which follows the host's speed from second to
    second; the time between operations is scaled by the repetition's
    median.  The calibration kernel's own time is left out of ``wall``.
    """

    def __init__(self, wall: float, ops: list, body) -> None:
        from workloads import REFERENCE_CALIBRATION_S
        self.ops = ops
        self.body = body
        self.raw_wall = wall - sum(op.calibration for op in ops)
        samples = [op.calibration for op in ops]
        if ops and all(t > 0 for t in samples):
            local = [REFERENCE_CALIBRATION_S / statistics.median(samples[max(0, i - 2):i + 3])
                     for i in range(len(ops))]
            self.speed_factor = REFERENCE_CALIBRATION_S / statistics.median(samples)
        else:                           # traced repetitions run no calibration
            local = [1.0] * len(ops)
            self.speed_factor = 1.0
        self.op_seconds = [op.seconds * f for op, f in zip(ops, local)]
        between = self.raw_wall - sum(op.seconds for op in ops)
        self.wall = sum(self.op_seconds) + between * self.speed_factor


def run_rep(prepared, out_dir: Path, tracer=None) -> Rep:
    from workloads import OpRecorder, run_body
    with OpRecorder(calibrate=tracer is None) as recorder:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            body = run_body(prepared, out_dir)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
    return Rep(wall, recorder.ops, body)


def repeat(prepared, out_dir: Path, budget_s: float, min_reps: int) -> list[Rep]:
    """Repeat the body while another repetition fits in the budget."""
    reps: list[Rep] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(prepared, out_dir))
        durations.append(time.perf_counter() - rep_start)
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(durations) > budget_s:
            return reps


def op_latencies(reps: list[Rep], scaled: bool = True) -> list[float]:
    """Each operation's median time over the repetitions."""
    return [statistics.median(r.op_seconds[i] if scaled else r.ops[i].seconds
                              for r in reps)
            for i in range(len(reps[0].ops))]


def verdict(reps: list[Rep]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over all repetitions."""
    problems = []
    attempted = failed = 0
    for k, rep in enumerate(reps):
        attempted += len(rep.ops)
        bad_ops = [op for op in rep.ops if op.problems]
        failed += min(len(rep.ops), len(bad_ops) + len(rep.body.problems))
        problems += [f"rep {k} {op.algorithm} D={op.n_devices}: {p}"
                     for op in bad_ops for p in op.problems]
        problems += [f"rep {k} row: {p}" for p in rep.body.problems]
        if len(rep.ops) != len(reps[0].ops):
            problems.append(f"rep {k} ran {len(rep.ops)} operations, "
                            f"rep 0 ran {len(reps[0].ops)}")
        if rep.body.digest != reps[0].body.digest:
            problems.append(f"rep {k} result digest differs from rep 0")
    if attempted == 0:
        problems.append("no operation ran")
    return not problems, max(attempted, 1), failed, problems


def end_to_end_metrics(reps: list[Rep], setup_samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics; every time is scaled to the reference speed."""
    factor = statistics.median(r.speed_factor for r in reps)
    wall = statistics.median(r.wall for r in reps)
    latencies = op_latencies(reps)
    pct, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": (factor * statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_tail": (tail, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": pct, "n_ops": len(latencies),
                     "n_reps": len(reps),
                     "speed_factors": [r.speed_factor for r in reps],
                     "raw_wall_s": [r.raw_wall for r in reps]}


ALGORITHMS = ("jso", "jso_a", "fmi", "flc", "gmo", "idd", "dbro")
LAYERS = ("scenario", "optimizer", "baselines", "oracle", "experiments", "trends")
CALL_SPANS = ("optimizer.sampling_step", "optimizer.trans_times",
              "optimizer.br_round", "optimizer.best_responses",
              "optimizer.system_cost", "optimizer.energy_violation",
              "optimizer.evaluator_init", "optimizer.achieved_metrics",
              "scenario.generate_scenario", "oracle.simulate_avg_maoi")
SELF_ONLY_SPANS = ("experiments.run_sweep", "experiments.aggregate",
                   "experiments.write_csv", "trends.evaluate_checks")


def oracle_bytes_computed(n_updates: int) -> int:
    """Bytes the simulation's array expressions read and write, from sizes.

    Per update: draw 8 (write), compare 8+1, select 1+8, two slope
    products 2*(8+8), difference 16+8, divide by tau 8+8, mean 8,
    batch means 8.  Cache behaviour is ignored.
    """
    return (8 + 9 + 9 + 32 + 24 + 16 + 8 + 8) * n_updates


def per_layer_metrics(untraced: list[Rep], traced: Rep, tracer) -> dict:
    """Per-layer metrics from the traced repetition; times are raw seconds."""
    solves = [op for op in traced.ops if op.kind == "solve"]
    points = [op for op in traced.ops if op.kind == "oracle_point"]
    iters = sum(op.outer_iters for op in solves)
    wall = statistics.median(r.raw_wall for r in untraced)
    m = {}

    for name in CALL_SPANS:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    for name in SELF_ONLY_SPANS:
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")

    br_calls = tracer.calls("optimizer.br_round")
    m["optimizer.br_round.total_s"] = (tracer.total_s("optimizer.br_round"), "s")
    m["optimizer.br_round.us_per_call"] = (
        1e6 * tracer.total_s("optimizer.br_round") / br_calls if br_calls else 0.0, "us")
    # the outer loop evaluates the system cost once up front and once per
    # iteration; every other call is a trial of the offloading block
    trials = tracer.calls("optimizer.system_cost") - iters - len(solves)
    commits = sum(op.commits for op in solves)
    m["optimizer.br_trials"] = (trials, "count")
    m["optimizer.br_commits"] = (commits, "count")
    m["optimizer.br_useful_ratio"] = (commits / trials if trials > 0 else 0.0, "ratio")
    m["optimizer.newton_iters"] = (sum(op.newton_iters for op in solves), "count")
    m["optimizer.trans_times_per_iter"] = (
        tracer.calls("optimizer.trans_times") / iters if iters else 0.0, "count")
    untraced_solves = [op for r in untraced for op in r.ops if op.kind == "solve"]
    untraced_iters = sum(op.outer_iters for op in untraced_solves)
    m["optimizer.us_per_iter"] = (
        1e6 * sum(op.seconds for op in untraced_solves) / untraced_iters
        if untraced_iters else 0.0, "us")

    latencies = op_latencies(untraced, scaled=False)
    for alg in ALGORITHMS:
        mine = [i for i, op in enumerate(traced.ops) if op.algorithm == alg]
        m[f"baselines.{alg}.solve_s_p50"] = (
            statistics.median(latencies[i] for i in mine) if mine else 0.0, "s")
        m[f"baselines.{alg}.outer_iters"] = (
            sum(traced.ops[i].outer_iters for i in mine), "count")
        m[f"baselines.{alg}.failed"] = (
            sum(not traced.ops[i].converged for i in mine), "count")

    m["oracle.bytes_moved_computed"] = (
        sum(oracle_bytes_computed(op.n_updates) for op in points), "B")
    m["experiments.csv_bytes"] = (traced.body.csv_bytes, "B")

    unconverged = sum(not op.converged for op in solves)
    jso = [r["avg_maoi"] for r in traced.body.rows if r.get("algorithm") == "jso"]
    m["outer_iters"] = (iters, "count")
    m["failed_frac"] = (unconverged / len(solves) if solves else 0.0, "ratio")
    m["jso_avg_maoi"] = (statistics.fmean(jso) if jso else 0.0, "s")
    m["oracle_updates_per_s"] = (sum(op.n_updates for op in points) / wall, "1/s")

    covered = 0.0
    for layer in LAYERS:
        own = sum(s[2] for name, s in tracer.stats.items()
                  if name.startswith(layer + "."))
        m[f"layer.{layer}.self_s"] = (own, "s")
        covered += own
    m["trace.wall_s"] = (traced.raw_wall, "s")
    m["trace.overhead_s"] = (traced.raw_wall - wall, "s")
    m["trace.covered_frac"] = (covered / traced.raw_wall, "ratio")
    m["trace.spans_dropped"] = (tracer.dropped, "count")
    return m


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def emit(workload: str, metrics: dict, detail: dict, correct: bool,
         attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:42s} {value:16.6g} {unit}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    # the set-up clock starts before anything imports numpy or the package
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, setup
    if workload_name not in WORKLOADS:
        print(f"unknown workload {workload_name!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    prepared = setup(WORKLOADS[workload_name], seed)
    setup_samples = [time.perf_counter() - start]
    import maoi_edge
    if Path(maoi_edge.__file__).resolve().parent != SRC / "maoi_edge":
        print(f"imported maoi_edge from {maoi_edge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out_dir = OUT / workload_name
    out_dir.mkdir(parents=True, exist_ok=True)

    if not trace:
        setup_samples += [measure_setup(workload_name, seed)
                          for _ in range(SETUP_SAMPLES - 1)]
        reps = repeat(prepared, out_dir, seconds, MIN_REPS)
        metrics, detail = end_to_end_metrics(reps, setup_samples)
        detail["setup_samples_s"] = setup_samples
    else:
        from spans import Tracer
        untraced = repeat(prepared, out_dir, seconds / 2, 1)
        tracer = Tracer()
        traced = run_rep(prepared, out_dir, tracer)
        reps = untraced + [traced]
        metrics = per_layer_metrics(untraced, traced, tracer)
        tracer.write_sidecar(out_dir / "spans.npz")
        detail = {"spans_file": str((out_dir / "spans.npz").relative_to(ROOT)),
                  "spans_kept": len(tracer.start), "n_reps": len(reps)}

    correct, attempted, failed, problems = verdict(reps)
    solves = [op for op in reps[-1].ops if op.kind == "solve"]
    detail.update({
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "result_digest": reps[0].body.digest,
        "unconverged_solves": sum(not op.converged for op in solves),
        "n_solves": len(solves), "problems": problems[:20],
        "machine": machine_facts(),
    })
    emit(workload_name, metrics, detail, correct, attempted, failed)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; metrics are prefixed by workload."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {out.returncode}",
                  file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "maoi_edge" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
