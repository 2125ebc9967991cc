"""Shared instance generators and brute-force references for solver tests.

The interval-solver instances mix the regimes the solver visits: wide
convex regions at low event rates (projected Newton carries the solve),
slack budgets (clamp to the minimum interval), and energy-bound cases
along the multiplier ramp (the closed-form surrogate carries the solve).

Known behavior worth keeping visible: on energy-bound local-branch
instances the surrogate freezes its event probabilities at the interval
floor, which biases the returned interval a few percent high and costs
up to a few 1e-3 in relative objective against a dense grid along the
ramp (0.2 to 1.8 times the fixed-point multiplier).  Off the ramp the
bias grows: 3.8% at 0.05 times the fixed point on the default local
device.  The interval tests draw their multipliers from these regimes and
assert the measured envelope rather than pretending the closed form is
exact there.

One device's penalized cost enters the brute-force references as a dict of
plain per-device values, keyed like ``cost_slopes``' arguments plus
``energy_budget``, with the modalities on a trailing axis; the references
evaluate it with the package's own growth model, ``avg_maoi_modality``,
and ``slopes`` hands it to ``cost_slopes`` as modality planes.

The evaluator stores its per-modality arrays as ``(3, D)`` planes and adds
modalities in one written order.  ``reference_age_term`` and
``reference_cost_slopes`` are the trailing-axis forms, summed by numpy over
the last axis; the planes must give their bits.  ``data_size_bits`` and
``dump_config_document`` are references that only the tests call.

The paper's closed-form offloading lemma (``lemma_threshold``,
``lemma_best_response``) is the reference that the best response's
two-branch comparison is checked against, and ``schedule_order`` reads a
device's local serving order from the ``served_ahead`` mask.
``assert_one_line_parse_error`` states what a malformed YAML or JSON
source reads as, wherever it is reported, and ``same_devices`` compares
two ``DeviceTable``s bit for bit.

``reference_outer_loop`` is the outer loop as it ran one iteration at a
time, before settled iterations ran in lookahead blocks; the lookahead
loop must reproduce its decisions and traces bit for bit.
"""

import logging
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from maoi_edge.metric import avg_maoi_modality, event_factors
from maoi_edge.optimizer import (
    Decision,
    ScenarioEvaluator,
    SolveTrace,
    as_offload_vector,
    cost_slopes,
    default_decision,
    planes_for,
)
from maoi_edge.oracle import TrajectoryStats, _rng
from maoi_edge.scenario import AREA_SIZE, generate_scenario
from maoi_edge.system_model import (
    MODALITIES,
    DeviceProfile,
    DeviceTable,
    ModalityKind,
    ProfileColumns,
    SystemConfig,
    _by_modality,
    _payload_terms,
    served_ahead,
)


def draw_device_terms(rng: np.random.Generator) -> dict:
    """Unconstrained random per-device cost terms for derivative checks."""
    return {
        "psi": rng.uniform(0.0, 5.0, 3),
        "lam": rng.uniform(0.1, 2.0, 3),
        "t_sys": rng.uniform(0.0, 20.0, 3),
        "energy": float(rng.uniform(0.1, 20.0)),
        "energy_budget": float(rng.uniform(0.5, 3.0)),
        "mu": float(rng.uniform(0.0, 10.0)),
    }


def device_terms(ev: ScenarioEvaluator, d: int, mu: np.ndarray, x: np.ndarray) -> dict:
    """Cost terms of device ``d`` of ``ev`` under multipliers ``mu`` and pattern ``x``."""
    state = ev.pattern_state(x)
    return {"psi": ev.psi[:, d], "lam": ev.lam, "t_sys": state.t_sys[:, d],
            "energy": float(state.energies[d]),
            "energy_budget": float(ev.e_budget[d]), "mu": float(mu[d])}


def as_planes(values, tau) -> np.ndarray:
    """Trailing-axis per-modality ``values`` as planes that broadcast against ``tau``."""
    return planes_for(np.moveaxis(np.asarray(values, dtype=float), -1, 0), np.ndim(tau))


def slopes(terms: dict, tau) -> tuple[np.ndarray, np.ndarray]:
    """``cost_slopes`` of one device's terms (or stacked devices') at the interval(s) ``tau``."""
    tau = np.asarray(tau, dtype=float)
    psi, lam, t_sys = (as_planes(terms[k], tau) for k in ("psi", "lam", "t_sys"))
    return cost_slopes(psi, lam, tau, t_sys, terms["mu"], terms["energy"])


def reference_age_term(phi, half_tau, t_sys):
    """Weighted age on a trailing modality axis: ``phi`` ``(..., D, 3)``, ``half_tau`` ``(..., D, 1)``."""
    return (phi * (half_tau + t_sys)).sum(axis=-1)


def reference_cost_slopes(psi, lam, tau, t_sys, mu, energy):
    """``cost_slopes`` on a trailing modality axis of ``psi``, ``lam`` and ``t_sys``."""
    tau_s = np.asarray(tau)[..., None]
    age = 0.5 * tau_s + t_sys
    decay = psi * lam * np.exp(-lam * tau_s)
    d1 = decay * age + 0.5 * event_factors(psi, lam, tau_s)
    d2 = decay * (1.0 - lam * age)
    penalty = mu * energy / tau**2
    return d1.sum(axis=-1) - penalty, d2.sum(axis=-1) + 2.0 * penalty / tau


def draw_interval_instance(rng: np.random.Generator,
                           ) -> tuple[ScenarioEvaluator, np.ndarray, np.ndarray, str]:
    """One single-device interval-solve instance: ``(ev, mu, x, regime)``."""
    sc = generate_scenario(1, seed=int(rng.integers(1 << 30)))
    devices, config = sc.devices, sc.config
    offloaded = bool(rng.integers(2))
    x = np.array([1 if offloaded else 0])
    kind = ("convex", "energy_bound", "slack")[rng.integers(3)]
    if kind == "convex":
        # rare events relative to the system times: wide convex region
        lam = (rng.uniform(0.03, 0.15) if offloaded
               else rng.uniform(0.02, 0.045))
        config = SystemConfig(event_rates=(lam, lam, lam))
        mu = float(rng.uniform(0.05, 2.0))
    elif kind == "energy_bound":
        mu = float(fixed_point_multiplier(ScenarioEvaluator(devices, config), x)[0]
                   * rng.uniform(0.2, 1.8))
    else:
        # slack budget: interval should clamp to the minimum
        mu = float(rng.uniform(0.0, 0.05))
    return ScenarioEvaluator(devices, config), np.array([mu]), x, kind


def fixed_point_multiplier(ev: ScenarioEvaluator, x: np.ndarray) -> np.ndarray:
    """Per-device multiplier at which the surrogate's interval spends the budget.

    The multiplier ramp of an energy-bound device runs toward it.
    """
    state = ev.pattern_state(x)
    return state.energies * state.sphi_up / (2.0 * ev.e_budget**2)


def grid_costs(terms: dict, grid) -> np.ndarray:
    """Penalized cost of one device's terms at every interval of ``grid``."""
    grid = np.asarray(grid, dtype=float)
    age = avg_maoi_modality(terms["psi"], terms["lam"], grid[..., None],
                            terms["t_sys"]).sum(axis=-1)
    return age + terms["mu"] * (terms["energy"] / grid - terms["energy_budget"])


def grid_minimum(terms: dict, tau_min: float, tau_upper: float, tau: float,
                 n_points: int = 10_000) -> float:
    """Brute-force reference: lowest cost on a dense interval grid.

    The grid reaches past both ``10 * tau_upper`` and the interval ``tau``
    under test, so a solve that lands far out still has a reference there.
    """
    grid = np.linspace(tau_min, max(10.0 * tau_upper, 2.0 * tau), n_points)
    return float(grid_costs(terms, grid).min())


def reference_positions(seed: int, n: int) -> np.ndarray:
    """(n, 2) device positions drawn one numpy generator per device.

    The per-device loop ``generate_scenario`` ran before its one-pass
    draw: device ``i`` takes ``uniform(-20, 20, size=2)`` from
    ``Generator(PCG64(SeedSequence([seed, 17, i])))``.
    """
    positions = np.empty((n, 2))
    for i in range(n):
        rng_i = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 17, i])))
        positions[i] = rng_i.uniform(-AREA_SIZE / 2, AREA_SIZE / 2, size=2)
    return positions


def reference_simulate_avg_maoi(psi: float, lam: float, tau: float, t_sys: float,
                                n_updates: int, seed) -> TrajectoryStats:
    """Elementwise form of ``oracle.simulate_avg_maoi``: one slope per draw.

    Builds the slope array, the two slope products, their difference and
    the division by tau as whole arrays, the way the oracle computed them
    before its four-value table; the oracle must return the same bits.
    """
    rng = _rng(seed)
    p_event = 1.0 - math.exp(-lam * tau)
    slopes = np.where(rng.random(n_updates + 1) < p_event, 1.0 + psi, 1.0)
    areas = 0.5 * slopes[:-1] * (tau + t_sys) ** 2 - 0.5 * slopes[1:] * t_sys**2
    per_update = areas / tau
    mean = float(per_update.mean())
    n_blocks = min(200, n_updates)
    usable = (n_updates // n_blocks) * n_blocks
    blocks = per_update[:usable].reshape(n_blocks, -1).mean(axis=1)
    spread = float(blocks.std(ddof=1)) if n_blocks > 1 else 0.0
    se = spread / math.sqrt(n_blocks)
    se_floor = abs(psi) * math.sqrt(p_event * (1.0 - p_event) / n_updates) \
        * (0.5 * tau + t_sys)
    se = max(se, se_floor)
    return TrajectoryStats(mean_maoi=mean, std_error=se, n_updates=n_updates)


def lemma_threshold(ev: ScenarioEvaluator, d: int, tau_d: float, mu_d: float) -> float:
    """Interference threshold of the closed-form offloading rule for device ``d``.

    Solving ``branch_costs``' edge-below-local comparison for the rate
    gives offloading iff
    ``log2(1 + SINR) > L (tau sum(phi) + mu P) / (B (tau phi . gap + mu e_comp))``,
    where ``gap`` is the local system time minus the edge system time
    before transmission; the bandwidth ``B`` scales both denominator terms.
    """
    cfg = ev.config
    phi = event_factors(ev.psi[:, d], ev.lam, tau_d)
    gap = ev.t_local[:, d] - ev.t_edge0[:, d]
    num = (phi.sum() * tau_d + mu_d * ev.tx_power[d]) * ev.payload[d]
    den = cfg.bandwidth * (tau_d * float(phi @ gap) + mu_d * ev.e_comp[d])
    if den <= 0.0:
        return -math.inf
    exponent = num / den
    if exponent > 600.0:  # 2**exponent overflows; threshold degenerates
        return -cfg.noise_power
    return float(ev.rx_power[d] / (2.0**exponent - 1.0) - cfg.noise_power)


def lemma_best_response(ev: ScenarioEvaluator, d: int, tau_d: float, mu_d: float,
                        x: np.ndarray) -> int:
    """Device ``d``'s flag by the lemma: offload iff its interference is within the threshold."""
    total = float(x @ ev.rx_power)
    interference = total - float(x[d] * ev.rx_power[d])
    return int(interference <= lemma_threshold(ev, d, tau_d, mu_d))


def schedule_order(profile: DeviceProfile, config: SystemConfig,
                   ) -> tuple[ModalityKind, ...]:
    """Order in which the local processor serves one device's modalities.

    A modality with ``k`` modalities served ahead of it is served ``k``-th.
    """
    n_ahead = served_ahead(profile, config).sum(axis=-1)
    return tuple(MODALITIES[i] for i in np.argsort(n_ahead, kind="stable"))


def data_size_bits(profile: DeviceProfile | ProfileColumns) -> np.ndarray:
    """Payload size of one update of each modality, in bits, on a trailing axis."""
    return _by_modality(*_payload_terms(profile))


def dump_config_document(profiles: list[DeviceProfile], config: SystemConfig,
                         path: str | Path) -> None:
    """Write profiles and config out as a YAML document that ``load_config_document`` reads."""
    def value(v):
        return list(v) if isinstance(v, tuple) else v

    def section(obj) -> dict:
        return {f.name: value(getattr(obj, f.name)) for f in fields(obj)}
    doc = {"system": section(config), "devices": [section(p) for p in profiles]}
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def same_devices(a: DeviceTable, b: DeviceTable) -> bool:
    """Whether two tables hold the same devices in the same order, bit for bit."""
    return len(a) == len(b) and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.columns, b.columns))


def assert_one_line_parse_error(message: str, prefix: str, line: int, column: int) -> None:
    """``message`` is ``prefix`` and the parse error's position, in one line.

    PyYAML's own text spans several lines and quotes ``<unicode string>``.
    """
    assert message.startswith(prefix + f"line {line}, column {column}: "), message
    assert "\n" not in message and "<unicode string>" not in message, message


log = logging.getLogger(__name__)


def reference_outer_loop(ev: ScenarioEvaluator, tau_rule, offload_rule,
                         init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """``run_outer_loop`` one iteration at a time: every rule runs on every iteration.

    Each iteration prices its row's ``branch_costs`` and hands them to the
    offloading rule, as the loop's contract says.
    """
    cfg = ev.config
    init = init or default_decision(ev.n_devices, cfg)
    # a Decision keeps tau and mu at x's shape, so this checks all three
    tau, x, mu = init.tau, as_offload_vector(init.x, ev.n_devices), init.mu
    if float(x @ ev.payload) > cfg.capacity_threshold:
        raise ValueError("initial offload pattern exceeds the capacity threshold")
    if (tau < cfg.tau_min).any():
        raise ValueError("initial intervals below tau_min")
    trace = SolveTrace()
    prev_cost = ev.system_cost(tau, mu, x)
    best_key = (math.inf, math.inf)
    for _ in range(cfg.max_outer_iters):
        tau, newton = tau_rule(mu, x)
        x, committed = offload_rule(tau, mu, x, ev.branch_costs(tau, mu, x))
        rel_overdraw = ev.energy_violation(tau, x)
        mu = np.maximum(0.0, mu + cfg.lagrange_step * rel_overdraw * ev.e_budget)
        cost = ev.system_cost(tau, mu, x)
        violation = float(rel_overdraw.max())
        trace.extend([cost], [violation], [committed], [newton])
        feasible = violation <= cfg.energy_tol
        key = (0.0 if feasible else violation, cost)
        if key < best_key:
            best_key, best = key, (tau, x, mu, violation)
        if abs(cost - prev_cost) < cfg.convergence_eps and feasible:
            trace.stop_reason = "converged"
            break
        prev_cost = cost
    else:
        # trace.extend rejects non-finite costs, so iteration 1 set best
        tau, x, mu, violation = best
        trace.stop_reason = "max_iters_best"
        log.warning("no convergence in %d outer iterations; returning the best "
                    "iterate, max energy violation %.6g",
                    cfg.max_outer_iters, violation)
    decision = Decision(tau.copy(), x.copy(), mu.copy())
    trace.metrics = ev.achieved_metrics(decision.tau, decision.x)
    return decision, trace
