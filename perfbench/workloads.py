"""The benchmark's workloads and the timed body each one runs.

Every workload goes through the package's public entry points only:
``scenario.generate_scenario``, ``baselines.solve`` (called by
``experiments.run_sweep``), ``experiments.aggregate`` / ``write_*_csv`` /
``validate_oracle`` and ``trends.evaluate_checks``.  The package is
imported lazily, inside ``setup``, so that its import counts as set-up
time.

Solver iteration budget.  On the default table every solve runs ~14k
outer iterations (~2 s) and an unconverged one runs 40k (~7 s), which
would leave a few solves per run.  ``matched_sweep`` therefore raises
the multiplier step 50x (0.01 -> 0.5), so a converged solve takes
200-800 iterations, and caps the loop at 1500 iterations.  Every block
of an outer iteration does the same work as on the default table; only
the number of iterations shrinks.  IDD, which cycles on the default
table, still cycles and ends unconverged at the cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

from checks import check_oracle_row, check_solve, check_sweep_row, result_digest

ALL_ALGORITHMS = ("jso", "jso_a", "fmi", "flc", "gmo", "idd", "dbro")
SCALED_ITERATIONS = {"lagrange_step": 0.5, "max_outer_iters": 1500}

# Every oracle point must be bracketed, so the interval is set for a
# family-wise error of 1e-4 over the whole grid (Bonferroni).  The
# package default z = 2.576 is per point: with a correct closed form it
# misses about one point in two runs of the 54-point grid.
ORACLE_FAMILY_ERROR = 1e-4

TREND_SPEC = (
    {"name": "fmi-maoi-rises-with-d", "type": "monotone", "metric": "avg_maoi_mean",
     "algorithm": "fmi", "direction": "increasing", "slack": 0.05},
    {"name": "fmi-offload-plateau", "type": "plateau", "metric": "n_offloaded_mean",
     "algorithm": "fmi", "step_frac": 0.01},
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                                  # "sweep" or "oracle"
    grid: tuple[int, ...] = ()                 # device counts
    algorithms: tuple[str, ...] = ()
    seeds_per_run: int = 1                     # scenario seeds per device count
    overrides: dict = field(default_factory=dict)
    write_outputs: bool = False                # aggregate, CSVs and trend checks
    n_updates: int = 0                         # oracle updates per grid point


WORKLOADS = {w.name: w for w in (
    Workload(
        name="matched_sweep",
        why="paper's comparison sweep: 7 algorithms at D 5-20; stresses the "
            "outer loop and numpy dispatch, IDD cycles; BR deviator loop idle; "
            "bypasses oracle and trends",
        kind="sweep", grid=(5, 10, 20), algorithms=ALL_ALGORITHMS,
        seeds_per_run=3, overrides=dict(SCALED_ITERATIONS)),
    Workload(
        name="short_solves",
        why="FMI at D 80-320, ~14 iterations per solve; stresses scenario "
            "generation, evaluator set-up, aggregate, CSV writing and trends; "
            "bypasses the oracle",
        kind="sweep", grid=(80, 160, 320), algorithms=("fmi",),
        seeds_per_run=10, write_outputs=True),
    Workload(
        name="oracle_validate",
        why="Monte-Carlo oracle vs closed-form MAoI on the 54-point grid at "
            "1e6 updates per point; stresses oracle and metric; bypasses the "
            "solver entirely",
        kind="oracle", n_updates=1_000_000),
)}


# The host's speed drifts by tens of percent within seconds: other tenants
# slow the CPU itself, so CPU time drifts as much as wall time.  Before each
# operation the recorder times a fixed calibration kernel, and end-to-end
# times are reported at the speed at which the kernel takes
# REFERENCE_CALIBRATION_S (see ``run.Rep``).  The kernel mixes what the
# workloads spend their time on: small-array numpy calls from a Python loop
# (the solvers) and a pass over a large array (the oracle).
REFERENCE_CALIBRATION_S = 0.0025


class Calibration:
    """The fixed kernel whose time tracks the host's current speed."""

    def __init__(self) -> None:
        import numpy as np
        self._np = np
        self._small = np.arange(20.0)
        self._large = np.linspace(0.0, 1.0, 200_000)

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for _ in range(150):
            acc += float((np.exp(-0.1 * self._small) * (self._small + 1.0)).sum())
        acc += float((np.where(self._large < 0.5, 2.0, 1.0) * self._large).mean())
        elapsed = time.perf_counter() - start
        if not acc > 0.0:
            raise RuntimeError("calibration kernel lost its result")
        return elapsed


@dataclass
class Op:
    """One timed operation: a solve or an oracle point."""

    kind: str
    seconds: float
    algorithm: str = ""
    n_devices: int = 0
    outer_iters: int = 0
    converged: bool = True
    commits: int = 0
    newton_iters: int = 0
    n_updates: int = 0
    calibration: float = 0.0        # kernel time just before the operation
    problems: list = field(default_factory=list)


class OpRecorder:
    """Wraps the per-operation entry points to time and check each call.

    ``baselines.solve`` is wrapped (``run_sweep`` calls it through the
    module), and so is ``oracle.simulate_avg_maoi`` (``validate_oracle``
    calls it once per grid point).  Checks run after the clock stops.
    With ``calibrate`` the calibration kernel runs before every operation.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.ops: list[Op] = []
        self._patched: list[tuple[object, str, object]] = []
        self._calibration = Calibration() if calibrate else (lambda: 0.0)

    def __enter__(self) -> "OpRecorder":
        from maoi_edge import baselines, oracle
        from maoi_edge.system_model import total_data_bits
        clock = time.perf_counter
        solve, simulate = baselines.solve, oracle.simulate_avg_maoi

        def timed_solve(name, profiles, config, init=None):
            calibration = self._calibration()
            start = clock()
            decision, trace = solve(name, profiles, config, init)
            seconds = clock() - start
            final = trace.max_violations[-1] if trace.max_violations else float("inf")
            problems = check_solve(decision.tau, decision.x,
                                   [total_data_bits(p) for p in profiles],
                                   trace.converged, final, trace.costs, config)
            self.ops.append(Op(
                kind="solve", seconds=seconds, algorithm=name,
                n_devices=len(profiles), outer_iters=trace.n_iters,
                converged=bool(trace.converged),
                commits=sum(len(c) for c in trace.committed),
                newton_iters=int(sum(trace.newton_iters)),
                calibration=calibration, problems=problems))
            return decision, trace

        def timed_simulate(psi, lam, tau, t_sys, n_updates, seed):
            calibration = self._calibration()
            start = clock()
            stats = simulate(psi, lam, tau, t_sys, n_updates, seed)
            self.ops.append(Op(kind="oracle_point", seconds=clock() - start,
                               n_updates=n_updates, calibration=calibration))
            return stats

        for owner, attr, fn in ((baselines, "solve", timed_solve),
                                (oracle, "simulate_avg_maoi", timed_simulate)):
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


@dataclass
class Prepared:
    """A workload ready to run: its sweep spec or oracle settings."""

    workload: Workload
    seed: int
    spec: object = None
    config: object = None


def scenario_seeds(workload: Workload, seed: int) -> tuple[int, ...]:
    """Disjoint scenario seeds for every benchmark seed."""
    k = workload.seeds_per_run
    return tuple(seed * k + j for j in range(k))


def setup(workload: Workload, seed: int) -> Prepared:
    """Import the package and generate the workload's scenarios."""
    from maoi_edge import experiments, scenario
    prepared = Prepared(workload=workload, seed=seed)
    if workload.kind == "oracle":
        return prepared
    prepared.spec = experiments.SweepSpec(
        param="device_count", grid=tuple(float(d) for d in workload.grid),
        algorithms=workload.algorithms, seeds=scenario_seeds(workload, seed),
        overrides=dict(workload.overrides))
    for d in workload.grid:
        for s in prepared.spec.seeds:
            prepared.config = scenario.generate_scenario(d, s, workload.overrides).config
    return prepared


def oracle_family_z() -> float:
    from maoi_edge import experiments
    n_points = (len(experiments.ORACLE_LAMBDAS) * len(experiments.ORACLE_PSIS)
                * len(experiments.ORACLE_TAUS) * len(experiments.ORACLE_T_SYS))
    return NormalDist().inv_cdf(1.0 - ORACLE_FAMILY_ERROR / n_points / 2.0)


@dataclass
class BodyResult:
    rows: list[dict]
    digest: str
    problems: list[str]
    csv_bytes: int = 0


def run_body(prepared: Prepared, out_dir: Path) -> BodyResult:
    """The timed body: one full pass of the workload."""
    from maoi_edge import experiments, trends
    wl = prepared.workload
    if wl.kind == "oracle":
        rows = experiments.validate_oracle(wl.n_updates, prepared.seed,
                                           z=oracle_family_z())
        path = out_dir / "oracle.csv"
        experiments.write_oracle_csv(rows, path)
        problems = [p for r in rows for p in check_oracle_row(r)]
        return BodyResult(rows, result_digest(rows), problems, path.stat().st_size)
    rows = experiments.run_sweep(prepared.spec, workers=1)
    csv_bytes = 0
    if wl.write_outputs:
        agg = experiments.aggregate(rows)
        experiments.write_results_csv(rows, out_dir / "results.csv")
        experiments.write_aggregate_csv(agg, out_dir / "aggregate.csv")
        report = trends.evaluate_checks(agg, TREND_SPEC)
        csv_bytes = sum((out_dir / n).stat().st_size
                        for n in ("results.csv", "aggregate.csv"))
        # the trend verdicts are results too: they must repeat exactly
        digest = result_digest(rows + [{"trends": report.render()}])
    else:
        digest = result_digest(rows)
    problems = [p for r in rows for p in check_sweep_row(r, prepared.config)]
    return BodyResult(rows, digest, problems, csv_bytes)
