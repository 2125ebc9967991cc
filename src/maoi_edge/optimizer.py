"""Joint sampling/offloading optimization.

The relaxed problem penalizes each device's energy overdraw with a
Lagrange multiplier and alternates three blocks until the system cost is
flat and every budget is met within tolerance:

1. sampling block: per-device interval update.  Below a convexity
   threshold the penalized cost is strictly convex and a projected Newton
   solve applies; elsewhere a convex upper-bound surrogate yields a
   closed-form candidate.  The cheaper candidate (by true cost) wins.
2. offloading block: best-response dynamics on the offloading game. Per
   round every device computes its own best response; among improving
   deviations the one with the largest system-cost reduction is committed.
3. multiplier block: projected subgradient step on each energy budget.

``ScenarioEvaluator`` holds one scenario's device-vectorized arrays and
implements every block.  It is the package's only implementation of the
uplink rate, transmission time, per-update energy, system time and
penalized cost; the Monte-Carlo oracle checks its ages.  ``run_outer_loop``
drives a solve on one evaluator and reports the decision's metrics from
it.  The pattern changes in a few percent of outer iterations, so the
evaluator computes everything that depends on the pattern alone once per
pattern, as the ``PatternState`` every block reads, and phi(tau) once per
interval vector.  The loop passes bare arrays between the blocks, so its
rules must never edit their inputs in place.

``ScenarioEvaluator.sampling_step`` is the package's only implementation
of the sampling block (Algorithm 1).  Its Newton path runs
``projected_newton`` on ``cost_slopes``, the penalized cost's derivatives
built on ``event_factors``, for every device with a convex region at once:
one projected Newton loop, stopped by the module constants ``NEWTON_TOL``
and ``NEWTON_MAX_ITERS``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import metric
from .metric import OBJECTIVE_MAOI, avg_maoi_modality, event_factors
from .system_model import (
    MODALITIES,
    DeviceProfile,
    DeviceTable,
    SystemConfig,
    as_device_table,
    compute_flops,
    local_waiting_time,
    sensing_energy,
    sensing_time,
    served_ahead,
    total_data_bits,
)

#: ``projected_newton`` stops a device once a step moves it less than
#: ``NEWTON_TOL`` seconds, or after ``NEWTON_MAX_ITERS`` steps.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITERS = 50
#: Pattern entries (trial rows x devices) per numpy pass of
#: ``ScenarioEvaluator.best_flip``.  A block holds ``TRIAL_BLOCK_ENTRIES // D``
#: float trial patterns and their per-device cost matrix (128 kB each at
#: any D) plus the edge entries alone, about k+1 per row for k offloaders.
TRIAL_BLOCK_ENTRIES = 16384


# ---------------------------------------------------------------------------
# the sampling block's Newton path

def penalized_cost(phi, half_tau, t_sys, tau, mu, energy, budget):
    """Weighted age plus energy penalty per device, from ``phi = event_factors(...)``
    and ``half_tau = 0.5 * tau`` on the trailing modality axis of ``t_sys``."""
    return (phi * (half_tau + t_sys)).sum(axis=-1) + mu * (energy / tau - budget)


def cost_slopes(psi, lam, tau, t_sys, mu, energy):
    """First and second tau-derivatives of the penalized cost.

    The cost is ``sum_s phi_s(tau) (tau/2 + t_s) + mu (energy/tau - budget)``
    with phi from ``event_factors``.  ``tau``, ``mu`` and ``energy`` are per
    device; ``psi``, ``lam`` and ``t_sys`` carry a trailing modality axis.
    Every argument broadcasts.
    """
    tau_s = np.asarray(tau)[..., None]
    age = 0.5 * tau_s + t_sys
    decay = psi * lam * np.exp(-lam * tau_s)  # d phi / d tau
    d1 = decay * age + 0.5 * event_factors(psi, lam, tau_s)
    d2 = decay * (1.0 - lam * age)
    penalty = mu * energy / tau**2
    return d1.sum(axis=-1) - penalty, d2.sum(axis=-1) + 2.0 * penalty / tau


def projected_newton(slopes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                     tau_min: float, tau_th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected Newton solve on every convex region ``[tau_min, tau_th]`` at once.

    ``slopes(tau)`` returns the cost's first and second derivatives at the
    interval vector ``tau``.  Each device starts mid-region, is clipped to
    its region after every step and stops once a step moves it less than
    ``NEWTON_TOL``, or after ``NEWTON_MAX_ITERS`` steps.  A device whose
    curvature is not positive takes the end of its region that its slope
    points away from (``tau_min`` when the slope is >= 0) and stops there.
    Returns the intervals and each device's iteration count.

    For ``cost_slopes`` on a region below the convexity threshold
    ``tau_th = min_s 2 (1 - lam_s t_s) / lam_s`` that end is the minimum:
    every modality's curvature term ``psi lam e^(-lam tau) (1 - lam (tau/2
    + t_s))`` is >= 0 there, and the penalty's ``2 mu E / tau**3`` is > 0
    when ``mu > 0``, so the curvature is non-positive only where ``mu E``
    is ~0.  There the slope is at least ``sum_s phi_s / 2 >= 1.5`` and the
    device stops at ``tau_min``; a slope below 0 at ``tau_min`` needs
    ``mu E > 1.5 tau_min**2``, which makes the curvature positive.
    """
    tau = 0.5 * (tau_min + tau_th)
    iters = np.zeros(len(tau), dtype=np.int64)
    run = np.ones(len(tau), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITERS):
            iters += run
            d1, d2 = slopes(tau)
            flat = d2 <= 0.0
            step = np.where(flat, np.where(d1 >= 0.0, tau_min, tau_th),
                            np.minimum(np.maximum(tau - d1 / d2, tau_min), tau_th))
            moved = ~(np.abs(step - tau) < NEWTON_TOL)
            tau = np.where(run, step, tau)
            run &= moved & ~flat
            if not run.any():
                break
    return tau, iters


# ---------------------------------------------------------------------------
# vectorized scenario evaluation

class PatternState(NamedTuple):
    """Everything an outer iteration needs that depends on the pattern alone."""

    trans: np.ndarray           # edge transmission time per device
    t_sys: np.ndarray           # system time per device and modality
    energies: np.ndarray        # per-update energy per device
    t_off: np.ndarray           # edge-branch system times, ``edge_branch(trans)``
    e_off: np.ndarray           # edge-branch per-update energies
    admissible: np.ndarray      # devices that could (or do) offload within capacity
    tau_th: np.ndarray          # convexity threshold per device
    tau_upper: np.ndarray       # max(tau_min, tau_th)
    sphi_up: np.ndarray         # surrogate's event-factor sum at tau_upper
    newton_devices: np.ndarray  # devices with a convex region (tau_min < tau_th)


class ScenarioEvaluator:
    """Device-vectorized cost evaluation for one scenario and objective.

    Static per-device arrays (payloads, radio powers, budgets, energies,
    local system times, edge system times before transmission) are
    precomputed from the columns of the devices' ``DeviceTable``, each
    model run once; a ``DeviceProfile`` sequence is read into a table
    first, by ``as_device_table``, and the table is not kept.  A local
    update waits for the modalities scheduled ahead of it on the device's
    processor; the edge processes all three in parallel, so its system
    times have no waiting term but add the transmission time.  Sensing is
    charged once per update, and a device pays either local computation
    or transmission, never both.  Two read-only entries are cached, each
    holding only its latest key:

    * per offload pattern, keyed on ``x.tobytes()``: its ``PatternState``
      (transmission times, system times, per-update energies, the edge
      branch's times and energies, the capacity-admissible devices, and the
      sampling block's invariants: convexity threshold, the surrogate's
      event-factor sum at ``max(tau_min, tau_th)`` and the devices with a
      convex region);
    * per interval vector, keyed on ``tau.tobytes()``: the event factors
      phi(tau) under the evaluator's own weights and ``0.5 * tau``.

    Keys are contents, not identities, so a pattern or interval vector
    edited in place misses the cache instead of reading stale entries.
    The blocks of an outer iteration then share one evaluation of each.
    No method edits its array arguments in place; ``run_outer_loop``
    holds the rules it drives to the same contract.
    """

    def __init__(self, devices: DeviceTable | Sequence[DeviceProfile],
                 config: SystemConfig, objective: str = OBJECTIVE_MAOI):
        if objective not in metric.OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self.config = config
        devices = as_device_table(devices)
        self.n_devices = len(devices)
        self.lam = np.asarray(config.event_rates, dtype=float)
        cols = devices.columns
        self.payload = total_data_bits(cols)
        self.tx_power = cols.tx_power
        self.rx_power = cols.tx_power * cols.channel_gain
        self.e_budget = cols.energy_budget
        flops = compute_flops(cols, config)
        self.e_sens = sensing_energy(cols)
        self.e_comp = config.energy_per_flop * flops.sum(axis=-1)
        self.e_local = self.e_sens + self.e_comp  # per-update energy, local branch
        self.psi_true = cols.maoi_weights
        self.psi = (self.psi_true if objective == OBJECTIVE_MAOI
                    else np.zeros_like(self.psi_true))
        sens = sensing_time(cols)
        t_lc, t_ec = flops / config.f_local, flops / config.f_edge
        wait = local_waiting_time(t_lc, served_ahead(cols, config))
        self.t_local = sens + wait + t_lc       # full local system times
        self.t_edge0 = sens + t_ec              # edge system times minus transmission
        self._pattern_key: bytes | None = None
        self._pattern: PatternState | None = None
        self._tau_key: bytes | None = None
        self._tau_terms: tuple[np.ndarray, np.ndarray] | None = None

    # -- pattern-dependent quantities ------------------------------------
    # ``x`` may stack several patterns along leading axes (shape (..., D)).

    def _received_totals(self, x: np.ndarray) -> np.ndarray:
        """Total received power of each pattern, shape ``(..., 1)``."""
        # one dot product per pattern, as ``x @ rx_power`` computes it for a
        # single pattern, so stacked patterns get bit-identical totals
        return (x[..., None, :] @ self.rx_power[:, None])[..., 0]

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Uplink rate every device would see, given the others' flags."""
        return self.rates_under(self._received_totals(x) - x * self.rx_power)

    # ``d`` picks the devices on the other arguments' last axis: all of them
    # by default (a basic slice, so views), or those of an index array.

    def rates_under(self, interference: np.ndarray, d=slice(None)) -> np.ndarray:
        """Uplink rate of devices ``d`` under ``interference``."""
        sinr = self.rx_power[d] / (self.config.noise_power + interference)
        return self.config.bandwidth * np.log2(1.0 + sinr)

    def trans_times(self, x: np.ndarray) -> np.ndarray:
        return self.payload / self.rates(x)

    def trans_times_under(self, interference: np.ndarray, d=slice(None)) -> np.ndarray:
        return self.payload[d] / self.rates_under(interference, d)

    def edge_branch(self, trans: np.ndarray, d=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """System times and per-update energies of devices ``d`` on the edge."""
        return self.t_edge0[d] + trans[..., None], self.e_sens[d] + self.tx_power[d] * trans

    def pattern_state(self, x: np.ndarray) -> PatternState:
        """The read-only ``PatternState`` of pattern ``x``, computed on a miss.

        Only the latest pattern is kept.  It is keyed on the contents of
        ``x``, not its identity, because callers copy and edit patterns in
        place.
        """
        key = x.tobytes()
        if key != self._pattern_key:
            cfg = self.config
            trans = self.trans_times(x)
            t_off, e_off = self.edge_branch(trans)
            on_edge = x == 1
            t_sys = np.where(on_edge[:, None], t_off, self.t_local)
            energies = np.where(on_edge, e_off, self.e_local)
            load = float(x @ self.payload)
            admissible = np.where(on_edge, True,
                                  load + self.payload <= cfg.capacity_threshold)
            tau_th = (2.0 * (1.0 - self.lam[None, :] * t_sys)
                      / self.lam[None, :]).min(axis=1)
            tau_upper = np.maximum(cfg.tau_min, tau_th)
            sphi_up = event_factors(self.psi, self.lam, tau_upper[:, None]).sum(axis=1)
            state = PatternState(
                trans, t_sys, energies, t_off, e_off, admissible, tau_th,
                tau_upper, sphi_up, np.nonzero(cfg.tau_min < tau_th)[0])
            for arr in state:
                arr.flags.writeable = False
            self._pattern_key, self._pattern = key, state
        return self._pattern

    # -- costs ------------------------------------------------------------

    def _tau_state(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(phi(tau), 0.5 * tau)`` under ``self.psi``, cached for the latest tau."""
        key = tau.tobytes()
        if key != self._tau_key:
            terms = (event_factors(self.psi, self.lam, tau[:, None]), 0.5 * tau[:, None])
            for arr in terms:
                arr.flags.writeable = False
            self._tau_key, self._tau_terms = key, terms
        return self._tau_terms

    def budget_interval(self, e: np.ndarray) -> np.ndarray:
        """Shortest interval, at least ``tau_min``, that keeps energies ``e`` in budget."""
        return np.maximum(self.config.tau_min, e / self.e_budget)

    def _penalized_costs(self, tau: np.ndarray, mu: np.ndarray,
                         t_sys: np.ndarray, e: np.ndarray, d=None) -> np.ndarray:
        """Weighted age plus energy penalty of every device, or of devices ``d``."""
        phi, half_tau = self._tau_state(tau)
        budget = self.e_budget
        # no ``d=slice(None)`` default here: it runs three times per outer iteration
        # with every device, where five slicings a call cost ~2.5 us per iteration
        if d is not None:
            phi, half_tau, tau, mu, budget = phi[d], half_tau[d], tau[d], mu[d], budget[d]
        return penalized_cost(phi, half_tau, t_sys, tau, mu, e, budget)

    def device_costs(self, tau: np.ndarray, mu: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
        state = self.pattern_state(x)
        return self._penalized_costs(tau, mu, state.t_sys, state.energies)

    def system_cost(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray) -> float:
        return float(self.device_costs(tau, mu, x).sum())

    def energy_violation(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Relative overdraw (Ebar - budget)/budget per device."""
        e = self.pattern_state(x).energies
        return (e / tau - self.e_budget) / self.e_budget

    # -- sampling block ---------------------------------------------------

    def sampling_step(self, mu: np.ndarray, x: np.ndarray,
                      ) -> tuple[np.ndarray, int]:
        """Algorithm-1 interval update for every device; returns Newton total.

        A tie in true cost between the Newton and surrogate candidates goes
        to the surrogate.
        """
        cfg = self.config
        state = self.pattern_state(x)
        tau_sub = np.sqrt(2.0 * mu * state.energies / state.sphi_up)
        # max(tau_th, max(tau_min, tau_sub)), with the first clamp per pattern
        tau_star = np.maximum(state.tau_upper, tau_sub)
        d = state.newton_devices
        if len(d) == 0:
            return tau_star, 0
        psi, t_sys, e, mu_d = self.psi[d], state.t_sys[d], state.energies[d], mu[d]
        tau_newton, iters = projected_newton(
            lambda tau: cost_slopes(psi, self.lam, tau, t_sys, mu_d, e),
            cfg.tau_min, state.tau_th[d])
        cand = np.stack([tau_newton, tau_star[d]])
        cand_s = cand[..., None]
        cost = penalized_cost(event_factors(psi, self.lam, cand_s), 0.5 * cand_s,
                              t_sys, cand, mu_d, e, self.e_budget[d])
        wins = cost[0] < cost[1]
        tau_star[d[wins]] = tau_newton[wins]
        return tau_star, int(iters.sum())

    # -- offloading block ---------------------------------------------------

    def branch_costs(self, tau: np.ndarray, mu: np.ndarray, t_off: np.ndarray,
                     e_off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Own penalized cost of every device locally and on the ``edge_branch``.

        A device's own rate does not depend on its own flag, so under a
        pattern's edge branch both costs hold for the others' fixed pattern.
        """
        return (self._penalized_costs(tau, mu, self.t_local, self.e_local),
                self._penalized_costs(tau, mu, t_off, e_off))

    def best_responses(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                       ) -> np.ndarray:
        state = self.pattern_state(x)
        cost_loc, cost_off = self.branch_costs(tau, mu, state.t_off, state.e_off)
        br = x.copy()
        br[(cost_off < cost_loc) & state.admissible] = 1
        br[cost_loc < cost_off] = 0
        return br

    def best_flip(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                  devices: np.ndarray, targets: np.ndarray,
                  ) -> tuple[int | None, float]:
        """Single flip ``x[devices[k]] = targets[k]`` that lowers the system cost most.

        A trial's local devices cost what they cost on their own local
        branch, whatever the pattern, so every row starts as a copy of
        those costs.  Only the edge entries of a trial get a rate,
        transmission time, edge branch and penalized cost, under the row's
        interference total, and are scattered in.  They come from the
        pattern, not from a scan of the trial block: x's offloaders other
        than the row's device, plus that device when its target is the
        edge (~k+1 per row for k offloaders).  Every entry holds the bits
        that ``system_cost``'s formulas give it, and each row is summed as
        ``system_cost`` sums, so a gain equals
        ``system_cost(x) - system_cost(trial)`` exactly.  Ties go to the
        first device.  Returns ``(device, gain)``, or ``(None, 0.0)`` when
        no flip lowers the cost strictly.
        """
        best_d, best_gain = None, 0.0
        if len(devices) == 0:
            return best_d, best_gain
        cost_now = self.system_cost(tau, mu, x)
        cost_local = self._penalized_costs(tau, mu, self.t_local, self.e_local)
        # float 0/1 rows, so the totals' matmul casts no int block
        x_float = x.astype(float)
        off = np.flatnonzero(x)
        n_off = len(off)
        rows = max(1, TRIAL_BLOCK_ENTRIES // self.n_devices)
        for start in range(0, len(devices), rows):
            block, to = devices[start:start + rows], targets[start:start + rows]
            n = len(block)
            trials = np.repeat(x_float[None, :], n, axis=0)
            trials[np.arange(n), block] = to
            totals = self._received_totals(trials)[:, 0]
            # a row's edge entries: x's offloaders other than the row's
            # device, then the device itself (last column) if it goes to the edge
            cand = np.empty((n, n_off + 1), dtype=np.intp)
            cand[:, :n_off], cand[:, n_off] = off, block
            edge = cand != block[:, None]
            edge[:, n_off] = to == 1
            row, d = np.repeat(np.arange(n), edge.sum(axis=1)), cand[edge]
            # ``trans_times`` stays one call per pattern state, so trials bypass it
            trans = self.trans_times_under(totals[row] - self.rx_power[d], d)
            costs = np.repeat(cost_local[None, :], n, axis=0)
            costs[row, d] = self._penalized_costs(tau, mu, *self.edge_branch(trans, d), d)
            gains = cost_now - costs.sum(axis=-1)
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_d, best_gain = int(block[k]), float(gains[k])
        return best_d, best_gain

    def br_round(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                 ) -> tuple[np.ndarray, int | None, float]:
        """One best-response round: commit the largest system-cost reduction.

        Returns ``(x_next, committed_device_or_None, reduction)``.
        """
        br = self.best_responses(tau, mu, x)
        deviators = np.nonzero(br != x)[0]
        best_d, best_gain = self.best_flip(tau, mu, x, deviators, br[deviators])
        if best_d is None:
            return x, None, 0.0
        out = x.copy()
        out[best_d] = br[best_d]
        return out, best_d, best_gain

    def offloading_equilibrium(self, tau: np.ndarray, mu: np.ndarray,
                               x: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Run rounds until no strictly improving commit remains.

        Returns the final pattern and the committed devices in order.
        Terminates because every commit strictly decreases the system cost
        over a finite strategy space (finite improvement property).
        """
        committed: list[int] = []
        while True:
            x_next, device, _ = self.br_round(tau, mu, x)
            if device is None:
                return x, committed
            committed.append(device)
            x = x_next

    # -- reporting ----------------------------------------------------------

    def achieved_metrics(self, tau: np.ndarray, x: np.ndarray) -> dict:
        """Realized (unpenalized) ages and energy state of a decision.

        MAoI always uses the true modality weights, whatever objective the
        evaluator optimizes.
        """
        t_sys = self.pattern_state(x).t_sys
        aoi = 0.5 * tau[:, None] + t_sys
        maoi = avg_maoi_modality(self.psi_true, self.lam, tau[:, None], t_sys)
        viol = self.energy_violation(tau, x)
        out = {
            "avg_maoi": float(maoi.sum(axis=1).mean()),
            "avg_aoi": float(aoi.sum(axis=1).mean()),
            "max_energy_violation": float(viol.max()),
            "n_offloaded": int(x.sum()),
            "offload_bits": float(x @ self.payload),
        }
        for s, m in enumerate(MODALITIES):
            name = m.name.lower()
            out[f"maoi_{name}"] = float(maoi[:, s].mean())
            out[f"aoi_{name}"] = float(aoi[:, s].mean())
        return out


# ---------------------------------------------------------------------------
# outer loop

def as_offload_vector(x: Sequence[int] | np.ndarray, n_devices: int) -> np.ndarray:
    """Validate and normalize an offload vector to an int array of 0/1.

    The entries are checked before the cast, so 0.5 or 1.7 fails rather
    than truncating to a flag.
    """
    arr = np.asarray(x)
    if arr.shape != (n_devices,):
        raise ValueError(f"offload vector has shape {arr.shape}, expected ({n_devices},)")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("offload vector entries must be 0 or 1")
    return arr.astype(np.int64, copy=False)


@dataclass
class Decision:
    """Solver state: sampling intervals, offload flags, multipliers."""

    tau: np.ndarray
    x: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        self.tau = np.asarray(self.tau, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        if not (self.tau.ndim == 1 and self.tau.shape == np.shape(self.x) == self.mu.shape):
            raise ValueError("tau, x, mu must have equal length")
        self.x = as_offload_vector(self.x, len(self.tau))
        if not (np.isfinite(self.tau).all() and np.isfinite(self.mu).all()):
            raise ValueError("intervals and multipliers must be finite")
        if (self.mu < 0).any():
            raise ValueError("multipliers must be >= 0")

    def copy(self) -> "Decision":
        return Decision(self.tau.copy(), self.x.copy(), self.mu.copy())


@dataclass
class SolveTrace:
    """Per-outer-iteration record of a solve.

    ``metrics`` holds ``ScenarioEvaluator.achieved_metrics`` of the decision
    the solve returned, computed on the solve's own evaluator; it stays
    empty until ``run_outer_loop`` returns.  ``stop_reason`` says why the
    solve stopped: ``"converged"``, or ``"max_iters_best"`` when the
    iteration budget ran out and the best iterate was returned.
    """

    costs: list[float] = field(default_factory=list)
    max_violations: list[float] = field(default_factory=list)
    committed: list[list[int]] = field(default_factory=list)
    newton_iters: list[int] = field(default_factory=list)
    stop_reason: str = ""
    metrics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def n_iters(self) -> int:
        return len(self.costs)

    def append(self, cost: float, violation: float, committed: list[int],
               newton: int) -> None:
        if not math.isfinite(cost):
            raise ValueError(f"non-finite system cost {cost}")
        self.costs.append(cost)
        self.max_violations.append(violation)
        self.committed.append(committed)
        self.newton_iters.append(newton)


def default_decision(n_devices: int, config: SystemConfig) -> Decision:
    """All-local start at the minimum interval with small uniform multipliers."""
    tau, mu = np.full(n_devices, config.tau_min), np.full(n_devices, config.mu_init)
    return Decision(tau=tau, x=np.zeros(n_devices, dtype=np.int64), mu=mu)


TauRule = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int]]
OffloadRule = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, list[int]]]

log = logging.getLogger(__name__)


def run_outer_loop(ev: ScenarioEvaluator, tau_rule: TauRule,
                   offload_rule: OffloadRule,
                   init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Alternate interval, offloading, and multiplier blocks to convergence.

    Convergence requires both a flat system cost (|delta| < eps) and every
    energy budget met within the configured relative tolerance; the
    subgradient multipliers only reach feasibility asymptotically, so the
    cost criterion alone would stop at infeasible points.  Without
    convergence the best iterate is returned (feasible first, then
    cheapest) and a warning is logged.  ``tau_rule(mu, x)`` returns the
    intervals and its Newton iteration count; ``offload_rule(tau, mu, x)``
    returns the pattern and the committed devices.

    The loop carries ``tau``, ``x`` and ``mu`` as bare arrays and keeps the
    best iterate by reference, so both rules must leave their inputs as
    they are: a rule returns an array of its own (or an input unchanged)
    and never edits an input in place.  The returned ``Decision`` holds
    copies, so neither it nor ``init`` shares memory with the solve.
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
        x, committed = offload_rule(tau, mu, x)
        rel_overdraw = ev.energy_violation(tau, x)
        mu = np.maximum(0.0, mu + cfg.lagrange_step * rel_overdraw * ev.e_budget)
        cost = ev.system_cost(tau, mu, x)
        violation = float(rel_overdraw.max())
        trace.append(cost, violation, committed, newton)
        feasible = violation <= cfg.energy_tol
        key = (0.0 if feasible else violation, cost)
        if key < best_key:
            best_key, best = key, (tau, x, mu, violation)
        if abs(cost - prev_cost) < cfg.convergence_eps and feasible:
            trace.stop_reason = "converged"
            break
        prev_cost = cost
    else:
        # trace.append rejects non-finite costs, so iteration 1 set best
        tau, x, mu, violation = best
        trace.stop_reason = "max_iters_best"
        log.warning("no convergence in %d outer iterations; returning the best "
                    "iterate, max energy violation %.6g",
                    cfg.max_outer_iters, violation)
    decision = Decision(tau.copy(), x.copy(), mu.copy())
    trace.metrics = ev.achieved_metrics(decision.tau, decision.x)
    return decision, trace


__all__ = [
    "penalized_cost", "cost_slopes", "projected_newton", "NEWTON_TOL",
    "NEWTON_MAX_ITERS", "TRIAL_BLOCK_ENTRIES", "PatternState",
    "ScenarioEvaluator", "as_offload_vector", "Decision", "SolveTrace",
    "default_decision", "run_outer_loop",
]
