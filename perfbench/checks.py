"""Correctness checks on what the package returns, and the result digest.

The checks use only returned values (decisions, solve traces, sweep and
oracle rows) and the scenario's own constants, so they hold for any
implementation of the solver behind the public entry points.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def check_solve(tau, x, payload_bits, converged: bool, final_violation: float,
                costs, config) -> list[str]:
    """Problems with one solve's decision; an empty list means it is valid.

    ``final_violation`` is the max relative energy overdraw of the
    returned decision; it is bounded only when the solve claims to have
    converged.
    """
    tau = np.asarray(tau, dtype=float)
    x = np.asarray(x)
    problems = []
    if not np.isfinite(tau).all():
        problems.append("non-finite sampling interval")
    elif (tau < config.tau_min).any():
        problems.append(f"tau {tau.min()!r} below tau_min {config.tau_min!r}")
    if not np.isin(x, (0, 1)).all():
        problems.append("offload flag outside {0, 1}")
    offloaded = float(np.asarray(payload_bits, dtype=float) @ x)
    if offloaded > config.capacity_threshold:
        problems.append(f"offloaded {offloaded!r} bits over capacity "
                        f"{config.capacity_threshold!r}")
    if converged and not final_violation <= config.energy_tol:
        problems.append(f"converged with energy violation {final_violation!r} "
                        f"above tolerance {config.energy_tol!r}")
    if not all(math.isfinite(c) for c in costs):
        problems.append("non-finite system cost in the trace")
    return problems


def check_sweep_row(row: dict, config) -> list[str]:
    """Problems with one sweep row, recomputed by the package's reporting."""
    problems = []
    for key, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"non-finite {key}")
    if row["offload_bits"] > config.capacity_threshold:
        problems.append("row offload_bits over capacity")
    if row["converged"] and not row["max_energy_violation"] <= config.energy_tol:
        problems.append("converged row violates the energy tolerance")
    return problems


def check_oracle_row(row: dict) -> list[str]:
    """An oracle point must be finite and bracketed by its confidence interval."""
    problems = []
    if not all(math.isfinite(row[k]) for k in ("closed_form", "mc_mean", "ci_low", "ci_high")):
        problems.append("non-finite oracle value")
    elif not row["ci_low"] <= row["closed_form"] <= row["ci_high"]:
        problems.append(f"closed form {row['closed_form']!r} outside "
                        f"[{row['ci_low']!r}, {row['ci_high']!r}]")
    if not row["bracketed"]:
        problems.append("point reported as not bracketed")
    return problems


def result_digest(rows: list[dict]) -> str:
    """SHA-256 of the rows sorted by their canonical JSON form.

    Floats serialize with ``repr`` precision, so equal digests mean the
    rows are bit-for-bit identical.
    """
    lines = sorted(json.dumps(r, sort_keys=True) for r in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
