"""Parameter sweeps, aggregation, and validation tables.

Every sweep row is one (grid value, seed, algorithm) solve.  Outputs are
data-only CSVs with a fixed schema, sorted before writing so repeated
runs with the same seeds are byte-identical; timing is logged, never
written into result files.  Every CSV the package writes goes through
``write_csv``.
"""

from __future__ import annotations

import csv
import itertools
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, oracle
from .metric import avg_maoi_modality
from .optimizer import Decision, SolveTrace
from .scenario import (Scenario, check_seed, generate_scenario,
                       with_audio_weight_increment)
from .system_model import check_device_count

log = logging.getLogger(__name__)

SWEEP_PARAMS = ("device_count", "energy_budget", "local_cpu",
                "audio_weight_increment")

METRIC_COLUMNS = (
    "avg_maoi", "avg_aoi",
    "maoi_image", "maoi_audio", "maoi_signal",
    "aoi_image", "aoi_audio", "aoi_signal",
    "max_energy_violation", "n_offloaded", "offload_bits",
)
RESULT_COLUMNS = ("param", "value", "seed", "algorithm") + METRIC_COLUMNS + (
    "converged", "outer_iters")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a parameter grid crossed with seeds and algorithms."""

    param: str
    grid: tuple[float, ...]
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    base_devices: int = 10
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"param must be one of {SWEEP_PARAMS}, got {self.param!r}")
        if not self.grid:
            raise ValueError("sweep grid is empty")
        if self.param == "device_count" and not all(
                float(v).is_integer() and v >= 1 for v in self.grid):
            raise ValueError(f"device_count grid values must be integers >= 1, "
                             f"got {self.grid}")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for seed in self.seeds:
            check_seed(seed)
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        check_device_count(self.base_devices, "base_devices")
        for alg in self.algorithms:
            if alg not in baselines.ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        # a repeat would solve its cells twice and count them as extra seeds
        for name, values in (("grid", self.grid), ("seeds", self.seeds),
                             ("algorithms", self.algorithms)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"sweep {name} repeats {value!r}")
        # settings fail here, before the first solve: one device per grid value
        for value in self.grid:
            scenario_for(self, value, self.seeds[0], devices=1)


def scenario_for(spec: SweepSpec, value: float, seed: int,
                 devices: int | None = None) -> Scenario:
    """Materialize the scenario behind one grid point (``devices`` devices if set)."""
    overrides = dict(spec.overrides)
    if spec.param == "device_count":
        return generate_scenario(devices or int(value), seed, overrides)
    devices = devices or spec.base_devices
    if spec.param == "energy_budget":
        overrides["energy_budget"] = float(value)
        return generate_scenario(devices, seed, overrides)
    if spec.param == "local_cpu":
        overrides["f_local"] = float(value)
        return generate_scenario(devices, seed, overrides)
    base = generate_scenario(devices, seed, overrides)
    return with_audio_weight_increment(base, float(value))


def _execute_task(task: tuple[SweepSpec, float, int, str]) -> tuple[dict, Decision]:
    spec, value, seed, algorithm = task
    sc = scenario_for(spec, value, seed)
    decision, trace = baselines.solve(algorithm, sc.devices, sc.config)
    row = {"param": spec.param, "value": value, "seed": seed,
           "algorithm": algorithm}
    row.update(trace.metrics)
    row["converged"] = int(trace.converged)
    row["outer_iters"] = trace.n_iters
    return row, decision


def solve_sweep(spec: SweepSpec, workers: int = 1) -> list[tuple[dict, Decision]]:
    """Solve every (grid value, seed, algorithm) combination.

    Returns one (``RESULT_COLUMNS`` row, decision) pair per solve, sorted
    by (value, seed, algorithm); the ordering and content depend only on
    the spec, never on worker scheduling.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [(spec, value, seed, alg)
             for value, seed, alg in itertools.product(spec.grid, spec.seeds,
                                                       spec.algorithms)]
    started = time.perf_counter()
    if workers > 1:
        # imported here: the process pool's modules hold ~2 MB that a
        # sequential sweep never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_execute_task, tasks, chunksize=1))
    else:
        pairs = [_execute_task(t) for t in tasks]
    log.info("sweep %s: %d solves in %.1fs", spec.param, len(tasks),
             time.perf_counter() - started)
    pairs.sort(key=lambda p: (p[0]["value"], p[0]["seed"], p[0]["algorithm"]))
    return pairs


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[dict]:
    """The rows of ``solve_sweep``: data-only, in its order."""
    return [row for row, _ in solve_sweep(spec, workers)]


def aggregate(rows: list[dict]) -> list[dict]:
    """Seed-averaged curves: mean and std per (grid value, algorithm)."""
    if not rows:
        raise ValueError("no rows to aggregate")
    param = rows[0]["param"]
    grouped: dict[tuple[float, str], list[dict]] = {}
    for r in rows:
        grouped.setdefault((r["value"], r["algorithm"]), []).append(r)
    out = []
    for (value, alg), members in sorted(grouped.items()):
        agg = {"param": param, "value": value, "algorithm": alg,
               "n_seeds": len(members)}
        for col in METRIC_COLUMNS:
            vals = np.array([m[col] for m in members], dtype=float)
            agg[f"{col}_mean"] = float(vals.mean())
            agg[f"{col}_std"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        iters = np.array([m["outer_iters"] for m in members], dtype=float)
        agg["outer_iters_mean"] = float(iters.mean())
        agg["all_converged"] = int(all(m["converged"] for m in members))
        out.append(agg)
    if param == "audio_weight_increment":
        _add_baseline_increments(out)
    return out


def _add_baseline_increments(agg_rows: list[dict]) -> None:
    """Report weight-sweep means relative to the smallest-increment row."""
    base_value = min(r["value"] for r in agg_rows)
    baseline = {r["algorithm"]: r for r in agg_rows if r["value"] == base_value}
    inc_cols = [c for c in METRIC_COLUMNS if c.startswith(("avg_", "maoi_", "aoi_"))]
    for r in agg_rows:
        ref = baseline[r["algorithm"]]
        for col in inc_cols:
            r[f"{col}_increment"] = r[f"{col}_mean"] - ref[f"{col}_mean"]


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: list[dict], columns: tuple[str, ...] | list[str],
              path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_format(r[c]) for c in columns])


def write_results_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(rows, RESULT_COLUMNS, path)


def aggregate_columns(agg_rows: list[dict]) -> list[str]:
    cols = ["param", "value", "algorithm", "n_seeds"]
    for col in METRIC_COLUMNS:
        cols += [f"{col}_mean", f"{col}_std"]
    cols += ["outer_iters_mean", "all_converged"]
    extra = [k for k in agg_rows[0] if k.endswith("_increment")]
    return cols + sorted(extra)


def write_aggregate_csv(agg_rows: list[dict], path: str | Path) -> None:
    write_csv(agg_rows, aggregate_columns(agg_rows), path)


def write_trace_csv(trace: SolveTrace, path: str | Path) -> None:
    """One row per outer iteration; the committed devices are joined by ``;``."""
    columns = ("iteration", "cost", "max_energy_violation", "committed_device",
               "newton_iters")
    records = zip(itertools.count(1), trace.costs, trace.max_violations,
                  (";".join(map(str, c)) for c in trace.committed),
                  trace.newton_iters)
    write_csv([dict(zip(columns, r)) for r in records], columns, path)


def read_csv(path: str | Path) -> list[dict]:
    """Read a results/aggregate CSV back, restoring numeric types."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for k, v in row.items():
                try:
                    parsed[k] = int(v) if v.isdigit() or (
                        v.startswith("-") and v[1:].isdigit()) else float(v)
                except ValueError:
                    parsed[k] = v
            out.append(parsed)
    return out


# ---------------------------------------------------------------------------
# convergence grid

def convergence_grid(d_grid: tuple[int, ...], e_grid: tuple[float, ...],
                     seeds: tuple[int, ...], algorithm: str = "jso",
                     overrides: dict | None = None,
                     workers: int = 1) -> list[list[float]]:
    """Mean outer iterations per (device count, energy budget) cell."""
    if not d_grid or not e_grid:
        raise ValueError("grids must be non-empty")
    # a repeat would solve its row twice and write it twice
    for i, e_max in enumerate(e_grid):
        if e_max in e_grid[:i]:
            raise ValueError(f"energy budget grid repeats {e_max!r}")
    # every row's spec is checked before the first solve
    specs = [SweepSpec(param="device_count", grid=tuple(float(d) for d in d_grid),
                       algorithms=(algorithm,), seeds=seeds,
                       overrides={**(overrides or {}), "energy_budget": float(e_max)})
             for e_max in e_grid]
    cells = []
    for spec in specs:
        agg = aggregate(run_sweep(spec, workers=workers))
        by_d = {r["value"]: r["outer_iters_mean"] for r in agg}
        cells.append([by_d[float(d)] for d in d_grid])
    return cells


def write_convergence_grid_csv(d_grid, e_grid, cells, path: str | Path) -> None:
    columns = ["energy_budget"] + [f"D={d}" for d in d_grid]
    rows = [dict(zip(columns, [float(e_max)] + list(row)))
            for e_max, row in zip(e_grid, cells)]
    write_csv(rows, columns, path)


# ---------------------------------------------------------------------------
# closed-form vs Monte-Carlo validation

ORACLE_LAMBDAS = (0.2, 0.8, 2.0)
ORACLE_PSIS = (0.0, 1.0, 5.0)
ORACLE_TAUS = (2.0, 5.0, 10.0)
ORACLE_T_SYS = (0.0, 4.0)


def validate_oracle(n_updates: int = 100_000, seed: int = 0,
                    z: float = oracle.Z_99) -> list[dict]:
    """Bracketing table: closed form vs simulation CI on the standard grid."""
    seed = check_seed(seed)
    rows = []
    for i, (lam, psi, tau, t_sys) in enumerate(itertools.product(
            ORACLE_LAMBDAS, ORACLE_PSIS, ORACLE_TAUS, ORACLE_T_SYS)):
        closed = float(avg_maoi_modality(psi, lam, tau, t_sys))
        stats = oracle.simulate_avg_maoi(psi, lam, tau, t_sys, n_updates,
                                         seed=[seed, i])
        lo, hi = stats.ci(z)
        rows.append({
            "lambda": lam, "psi": psi, "tau": tau, "t_sys": t_sys,
            "closed_form": closed, "mc_mean": stats.mean_maoi,
            "mc_std_error": stats.std_error, "ci_low": lo, "ci_high": hi,
            "bracketed": int(stats.brackets(closed, z)),
        })
    return rows


ORACLE_COLUMNS = ("lambda", "psi", "tau", "t_sys", "closed_form", "mc_mean",
                  "mc_std_error", "ci_low", "ci_high", "bracketed")


def write_oracle_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(rows, ORACLE_COLUMNS, path)


__all__ = [
    "SweepSpec", "SWEEP_PARAMS", "METRIC_COLUMNS", "RESULT_COLUMNS",
    "scenario_for", "solve_sweep", "run_sweep", "aggregate", "write_csv",
    "write_results_csv", "write_aggregate_csv", "aggregate_columns",
    "write_trace_csv",
    "read_csv", "convergence_grid", "write_convergence_grid_csv",
    "validate_oracle", "write_oracle_csv", "ORACLE_COLUMNS",
]
