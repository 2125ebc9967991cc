"""Comparison schemes: FMI, FLC, GMO, IDD, DBRO and the age-only ablation.

Every baseline shares the outer loop (interval solve, offloading block,
multiplier update, joint stopping rule) and differs only in how it sets
the sampling intervals (FMI) or the offload flags (the rest).  That keeps
comparisons apples-to-apples: observed gaps come from the policy, not
from a different iteration scheme.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .metric import OBJECTIVE_AOI, avg_maoi_modality
from .optimizer import (
    Decision,
    ScenarioEvaluator,
    SolveTrace,
    run_outer_loop,
    solve_jso,
)
from .system_model import DeviceProfile, DeviceTable, SystemConfig

DBRO_MAX_SWEEPS = 200
#: Share of the other devices' received power that IDD assumes interferes.
IDD_ASSUMED_SHARE = 0.5


def solve_fmi(devices: DeviceTable | Sequence[DeviceProfile], config: SystemConfig,
              init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Fixed minimum-energy-feasible interval; offloading/multipliers as usual.

    The interval rule is re-evaluated every iteration, so a device that
    switches branch immediately re-tightens to its new minimum.
    """
    ev = ScenarioEvaluator(devices, config)

    def tau_rule(mu, x):
        return ev.budget_interval(ev.pattern_state(x).energies), 0

    return run_outer_loop(ev, tau_rule, ev.offloading_equilibrium, init)


def solve_flc(devices: DeviceTable | Sequence[DeviceProfile], config: SystemConfig,
              init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Full local computing: offloading disabled, intervals still optimized."""
    ev = ScenarioEvaluator(devices, config)

    def offload_rule(tau, mu, x):
        return np.zeros_like(x), []

    return run_outer_loop(ev, ev.sampling_step, offload_rule, init)


def solve_gmo(devices: DeviceTable | Sequence[DeviceProfile], config: SystemConfig,
              init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Greedy marginal-cost offloading: one irreversible fix per iteration.

    From the initial pattern (all-local by default), each iteration trials
    every still-local device on the edge (capacity permitting) and
    permanently fixes the one with the largest strict system-cost
    decrease; fixed decisions, initial offloaders included, are never
    reverted.
    """
    ev = ScenarioEvaluator(devices, config)

    def offload_rule(tau, mu, x):
        # flags are never reverted, so the incoming pattern is the fixed set
        candidates = np.nonzero((x == 0) & ev.pattern_state(x).admissible)[0]
        best_d, _ = ev.best_flip(tau, mu, x, candidates, np.ones_like(candidates))
        if best_d is None:
            return x, []
        out = x.copy()
        out[best_d] = 1
        return out, [best_d]

    return run_outer_loop(ev, ev.sampling_step, offload_rule, init)


def solve_idd(devices: DeviceTable | Sequence[DeviceProfile], config: SystemConfig,
              init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Independent distributed decisions under an assumed interference level.

    Each device takes its edge branch under the fixed prior
    ``IDD_ASSUMED_SHARE * sum_{j != d} P_j g_j`` instead of the real
    offload pattern, and prices each branch at its own energy-feasible
    interval ``tau = max(tau_min, e / budget)``: the age grows with tau, so
    that is the branch's cheapest interval within budget.  It offloads if
    the edge branch's age there is strictly lower.  The preference reads neither
    the multipliers nor the real pattern, so devices never react to each
    other.  Capacity admission is in device order, which fixes the pattern
    before the first iteration; intervals and multipliers are solved as
    usual.
    """
    ev = ScenarioEvaluator(devices, config)
    assumed = IDD_ASSUMED_SHARE * (ev.rx_power.sum() - ev.rx_power)
    t_off, e_off = ev.edge_branch(ev.trans_times_under(assumed))

    def age_within_budget(t_sys, e):
        tau = ev.budget_interval(e)[:, None]
        return avg_maoi_modality(ev.psi, ev.lam, tau, t_sys).sum(axis=1)

    prefers = age_within_budget(t_off, e_off) < age_within_budget(ev.t_local, ev.e_local)
    pattern = np.zeros(ev.n_devices, dtype=np.int64)
    load = 0.0
    for d in range(ev.n_devices):
        if prefers[d] and load + ev.payload[d] <= config.capacity_threshold:
            pattern[d] = 1
            load += ev.payload[d]
    pattern.flags.writeable = False

    def offload_rule(tau, mu, x):
        return pattern, []

    return run_outer_loop(ev, ev.sampling_step, offload_rule, init)


def solve_dbro(devices: DeviceTable | Sequence[DeviceProfile], config: SystemConfig,
               init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Device-wise best response: sweep in index order, commit immediately.

    Each device optimizes its own cost given the pattern left by its
    predecessors; sweeps repeat until one full pass changes nothing.
    Unlike the joint solver there is no system-level commit rule.
    """
    ev = ScenarioEvaluator(devices, config)

    def offload_rule(tau, mu, x):
        out = x.copy()
        committed = []
        for _ in range(DBRO_MAX_SWEEPS):
            changed = False
            responses = ev.best_responses(tau, mu, out)
            for d in range(ev.n_devices):
                br = int(responses[d])
                if br != out[d]:
                    out[d] = br
                    committed.append(d)
                    changed = True
                    responses = ev.best_responses(tau, mu, out)
            if not changed:
                break
        return out, committed

    return run_outer_loop(ev, ev.sampling_step, offload_rule, init)


def solve_jso_a(devices: DeviceTable | Sequence[DeviceProfile], config: SystemConfig,
                init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """The joint solver with the plain (weight-free) age objective."""
    return solve_jso(devices, config, init, objective=OBJECTIVE_AOI)


#: Algorithm selector used by the CLI and the sweep runner.
ALGORITHMS = {
    "jso": solve_jso,
    "jso_a": solve_jso_a,
    "fmi": solve_fmi,
    "flc": solve_flc,
    "gmo": solve_gmo,
    "idd": solve_idd,
    "dbro": solve_dbro,
}


def solve(name: str, devices: DeviceTable | Sequence[DeviceProfile],
          config: SystemConfig, init: Decision | None = None,
          ) -> tuple[Decision, SolveTrace]:
    """Run the named algorithm; see ``ALGORITHMS`` for valid names."""
    try:
        fn = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"choose from {sorted(ALGORITHMS)}") from None
    return fn(devices, config, init)


__all__ = ["solve_fmi", "solve_flc", "solve_gmo", "solve_idd", "solve_dbro",
           "solve_jso_a", "ALGORITHMS", "solve", "DBRO_MAX_SWEEPS", "IDD_ASSUMED_SHARE"]
