"""The algorithms: JSO, its age-only ablation, and FMI, FLC, GMO, IDD, DBRO.

Each algorithm is a rule builder: given the solve's evaluator, it returns
the ``(tau_rule, offload_rule, settled)`` triple that ``run_outer_loop``
drives.  ``settled(x, cost_loc, cost_off)`` is True on each row of branch
costs where the offloading rule would return ``x`` unchanged and commit
nothing, so the loop can run those iterations in lookahead blocks.  All
share the outer loop (interval solve, offloading block, multiplier
update, joint stopping rule), so observed gaps come from the policy, not
from a different iteration scheme.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .metric import OBJECTIVE_AOI, OBJECTIVE_MAOI, avg_maoi_modality, modality_sum
from .optimizer import (
    Decision,
    OffloadRule,
    ScenarioEvaluator,
    SettledRule,
    SolveTrace,
    TauRule,
    run_outer_loop,
)
from .system_model import DeviceProfile, DeviceTable, SystemConfig

DBRO_MAX_SWEEPS = 200
#: Share of the other devices' received power that IDD assumes interferes.
IDD_ASSUMED_SHARE = 0.5

Rules = tuple[TauRule, OffloadRule, SettledRule]


def jso_rules(ev: ScenarioEvaluator) -> Rules:
    """Full joint solve: Algorithm-1 intervals + best-response offloading.

    The equilibrium commits nothing on a row where no device deviates.
    """
    return ev.sampling_step, ev.offloading_equilibrium, ev.no_deviator


def fmi_rules(ev: ScenarioEvaluator) -> Rules:
    """Fixed minimum-energy-feasible interval; offloading/multipliers as usual.

    The interval rule is re-evaluated every iteration, so a device that
    switches branch immediately re-tightens to its new minimum.
    """
    def tau_rule(mu, x):
        return ev.budget_interval(ev.pattern_state(x).energies), 0

    return tau_rule, ev.offloading_equilibrium, ev.no_deviator


def fixed_pattern_rules(ev: ScenarioEvaluator, pattern: np.ndarray) -> Rules:
    """Algorithm-1 intervals; offloading holds ``pattern`` (made read-only), committing nothing."""
    pattern.flags.writeable = False

    def offload_rule(tau, mu, x):
        return pattern, []

    def settled(x, cost_loc, cost_off):
        return np.full(len(cost_loc), np.array_equal(x, pattern))

    return ev.sampling_step, offload_rule, settled


def flc_rules(ev: ScenarioEvaluator) -> Rules:
    """Full local computing: offloading disabled, intervals still optimized."""
    return fixed_pattern_rules(ev, np.zeros(ev.n_devices, dtype=np.int64))


def gmo_rules(ev: ScenarioEvaluator) -> Rules:
    """Greedy marginal-cost offloading: one irreversible fix per iteration.

    From the initial pattern (all-local by default), each iteration trials
    every still-local device on the edge (capacity permitting) and
    permanently fixes the one with the largest strict system-cost
    decrease; fixed decisions, initial offloaders included, are never
    reverted.
    """
    def candidates(x):
        # flags are never reverted, so the incoming pattern is the fixed set
        return np.nonzero((x == 0) & ev.pattern_state(x).admissible)[0]

    def offload_rule(tau, mu, x):
        still_local = candidates(x)
        best_d, _ = ev.best_flip(tau, mu, x, still_local, np.ones_like(still_local))
        if best_d is None:
            return x, []
        out = x.copy()
        out[best_d] = 1
        return out, [best_d]

    def settled(x, cost_loc, cost_off):
        return np.full(len(cost_loc), len(candidates(x)) == 0)

    return ev.sampling_step, offload_rule, settled


def idd_rules(ev: ScenarioEvaluator) -> Rules:
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
    assumed = IDD_ASSUMED_SHARE * (ev.rx_power.sum() - ev.rx_power)
    t_off, e_off = ev.edge_branch(ev.trans_times_under(assumed))

    def age_within_budget(t_sys, e):
        tau = ev.budget_interval(e)
        return modality_sum(avg_maoi_modality(ev.psi, ev.lam[:, None], tau, t_sys))

    prefers = age_within_budget(t_off, e_off) < age_within_budget(ev.t_local, ev.e_local)
    pattern = np.zeros(ev.n_devices, dtype=np.int64)
    load = 0.0
    for d in range(ev.n_devices):
        if prefers[d] and load + ev.payload[d] <= ev.config.capacity_threshold:
            pattern[d] = 1
            load += ev.payload[d]
    return fixed_pattern_rules(ev, pattern)


def dbro_rules(ev: ScenarioEvaluator) -> Rules:
    """Device-wise best response: sweep in index order, commit immediately.

    Each device optimizes its own cost given the pattern left by its
    predecessors; sweeps repeat until one full pass changes nothing.
    Unlike the joint solver there is no system-level commit rule.
    """
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

    # the first sweep changes nothing where no device deviates
    return ev.sampling_step, offload_rule, ev.no_deviator


#: Each name's evaluator objective and rule builder; ``jso_a`` weighs the plain age.
ALGORITHMS = {
    "jso": (OBJECTIVE_MAOI, jso_rules),
    "jso_a": (OBJECTIVE_AOI, jso_rules),
    "fmi": (OBJECTIVE_MAOI, fmi_rules),
    "flc": (OBJECTIVE_MAOI, flc_rules),
    "gmo": (OBJECTIVE_MAOI, gmo_rules),
    "idd": (OBJECTIVE_MAOI, idd_rules),
    "dbro": (OBJECTIVE_MAOI, dbro_rules),
}


def solve(name: str, devices: DeviceTable | Sequence[DeviceProfile],
          config: SystemConfig, init: Decision | None = None,
          ) -> tuple[Decision, SolveTrace]:
    """Run the named algorithm; see ``ALGORITHMS`` for valid names."""
    try:
        objective, rules = ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; "
                         f"choose from {sorted(ALGORITHMS)}") from None
    ev = ScenarioEvaluator(devices, config, objective)
    return run_outer_loop(ev, *rules(ev), init)


__all__ = ["ALGORITHMS", "solve", "DBRO_MAX_SWEEPS", "IDD_ASSUMED_SHARE"]
