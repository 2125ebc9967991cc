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
interval vector.  Its per-modality arrays are ``(3, D)`` planes, and each
price adds them in one written order, ``metric.modality_sum``.  While the
pattern holds, the loop runs iterations in lookahead blocks of up to
``LOOKAHEAD_ROWS``: it steps intervals and multipliers row by row (at
small D as one ``interval_chain`` of Python floats per device) and prices
the block's costs, the offloading check and the stopping rule once, on
``(rows, D)`` arrays, recording the rows a segment at a time.  The loop
is the one place that prices a row's branch costs: each offloading rule
is called as ``offload_rule(tau, mu, x, costs)`` with the row's
``branch_costs(tau, mu, x)`` and prices again only after it commits.  The
loop passes bare arrays between the blocks, so its rules must never edit
their inputs in place.

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
from .metric import OBJECTIVE_MAOI, avg_maoi_modality, event_factors, modality_sum
from .system_model import (
    MODALITIES,
    DeviceTable,
    SystemConfig,
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

def planes_for(planes: np.ndarray, ndim: int) -> np.ndarray:
    """Modality planes ``(3, D)`` (or ``(3,)``) viewed to broadcast against
    ``(..., D)`` arrays of ``ndim`` axes: ``(3, 1, ..., 1, D)``."""
    return planes.reshape(planes.shape[:1] + (1,) * (ndim + 1 - planes.ndim) + planes.shape[1:])


def age_term(phi, half_tau, t_sys):
    """Weighted age per device, ``modality_sum(phi * (half_tau + t_sys))``.

    ``half_tau = 0.5 * tau`` for intervals ``(..., D)``, ``phi =
    event_factors(...)`` on modality planes ``(3, ..., D)``, and ``t_sys``
    holds ``(3, D)`` planes, broadcast over the intervals' leading axes.
    """
    return modality_sum(phi * (half_tau + planes_for(t_sys, half_tau.ndim)))


def overdraw(energy, tau, budget):
    """Average power above the energy budget per device, ``energy / tau - budget``."""
    return energy / tau - budget


def penalized_cost(phi, half_tau, t_sys, tau, mu, energy, budget):
    """``age_term`` plus the energy penalty ``mu`` times the ``overdraw``, per device."""
    return age_term(phi, half_tau, t_sys) + mu * overdraw(energy, tau, budget)


def cost_slopes(psi, lam, tau, t_sys, mu, energy):
    """First and second tau-derivatives of the penalized cost.

    The cost is ``sum_s phi_s(tau) (tau/2 + t_s) + mu (energy/tau - budget)``
    with phi from ``event_factors``.  ``tau``, ``mu`` and ``energy`` are per
    device; ``psi``, ``lam`` and ``t_sys`` are modality planes on a leading
    axis, shaped to broadcast against ``tau`` (``planes_for``).  Each
    derivative's modalities are added by ``modality_sum``.
    """
    age = 0.5 * tau + t_sys
    decay = psi * lam * np.exp(-lam * tau)  # d phi / d tau
    d1 = decay * age + 0.5 * event_factors(psi, lam, tau)
    d2 = decay * (1.0 - lam * age)
    penalty = mu * energy / tau**2
    return modality_sum(d1) - penalty, modality_sum(d2) + 2.0 * penalty / tau


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

#: ``achieved_metrics``' per-modality keys, built once: a sweep keeps every
#: row's metrics, and a key built per row is a string per row.
_MODALITY_METRICS = tuple((f"maoi_{m.name.lower()}", f"aoi_{m.name.lower()}")
                          for m in MODALITIES)


class PatternState(NamedTuple):
    """Everything an outer iteration needs that depends on the pattern alone.

    System times are ``(3, D)`` modality planes; every other entry is per device.
    """

    t_sys: np.ndarray           # system time planes, (3, D)
    energies: np.ndarray        # per-update energy per device
    t_off: np.ndarray           # edge-branch system time planes, ``edge_branch(trans_times(x))``
    e_off: np.ndarray           # edge-branch per-update energies
    on_edge: np.ndarray         # x == 1
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
    model run once, and the table is not kept; anything else raises a
    ``TypeError`` (``as_device_table`` reads profiles into one).  A local
    update waits for the modalities scheduled ahead of it on the device's
    processor; the edge processes all three in parallel, so its system
    times have no waiting term but add the transmission time.  Sensing is
    charged once per update, and a device pays either local computation
    or transmission, never both.

    Every per-modality array is stored modality-major, as ``(3, D)``
    planes: the weights ``psi``/``psi_true``, the system times
    ``t_local``/``t_edge0`` and the pattern state's ``t_sys``/``t_off``;
    phi(tau) of intervals ``(..., D)`` is ``(3, ..., D)``.  A price adds
    its modalities by ``metric.modality_sum``, image plus audio, then
    signal, over contiguous planes.  Two read-only entries are cached,
    each holding only its latest key:

    * per offload pattern, keyed on ``x.tobytes()``: its ``PatternState``
      (system times, per-update energies, the edge branch's times and
      energies, the capacity-admissible devices, and the sampling block's
      invariants: convexity threshold, the surrogate's event-factor sum at
      ``max(tau_min, tau_th)`` and the devices with a convex region);
    * per interval array, ``(D,)`` or a block's ``(rows, D)``, keyed on its
      shape and ``tau.tobytes()``: phi(tau) under the evaluator's own
      weights and ``0.5 * tau``, which every full-device price reads.

    Keys are contents, not identities, so a pattern or interval array
    edited in place misses the cache instead of reading stale entries.
    The blocks of an outer iteration then share one evaluation of each.
    No method edits its array arguments in place; ``run_outer_loop``
    holds the rules it drives to the same contract.
    """

    def __init__(self, devices: DeviceTable, config: SystemConfig, objective: str = OBJECTIVE_MAOI):
        if not isinstance(devices, DeviceTable):
            raise TypeError("devices must be a DeviceTable (as_device_table reads profiles)")
        if objective not in metric.OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        self.config = config
        self.n_devices = len(devices)
        self.lam = np.asarray(config.event_rates, dtype=float)
        cols = devices.columns
        # the models return a trailing modality axis; ``.T`` views it as planes
        flops = compute_flops(cols, config).T
        sens = sensing_time(cols).T
        t_lc, t_ec = flops / config.f_local, flops / config.f_edge
        wait = local_waiting_time(t_lc.T, served_ahead(cols, config)).T
        # The per-device columns that the edge branch and ``best_flip`` read,
        # one row each: received power, payload, transmit power, sensing
        # energy, energy budget, then the three planes of the edge system
        # times before transmission.  The named arrays are views of its rows,
        # each contiguous: ``x @ rx_power`` sums a strided row differently.
        self.edge_columns = np.vstack((cols.tx_power * cols.channel_gain,
                                       total_data_bits(cols), cols.tx_power,
                                       sensing_energy(cols), cols.energy_budget,
                                       np.ascontiguousarray(sens + t_ec)))
        self.edge_columns.flags.writeable = False
        self.rx_power, self.payload, self.tx_power, self.e_sens, self.e_budget = \
            self.edge_columns[:5]
        self.t_edge0 = self.edge_columns[5:8]   # edge system times minus transmission
        self.e_comp = config.energy_per_flop * modality_sum(flops)
        self.e_local = self.e_sens + self.e_comp  # per-update energy, local branch
        self.psi_true = np.ascontiguousarray(cols.maoi_weights.T)
        self.psi = (self.psi_true if objective == OBJECTIVE_MAOI
                    else np.zeros_like(self.psi_true))
        self.t_local = np.ascontiguousarray(sens + wait + t_lc)  # full local system times
        self._pattern_key: bytes | None = None
        self._pattern: PatternState | None = None
        self._tau_key: tuple[tuple[int, ...], bytes] | None = None
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

    # ``cols`` is ``edge_columns`` (every device, the default) or a gather
    # of its columns, ``edge_columns[:, d]``, whose devices the other
    # arguments' last axis then holds.

    def rates_under(self, interference: np.ndarray, cols: np.ndarray | None = None,
                    ) -> np.ndarray:
        """Uplink rate of the devices of ``cols`` under ``interference``."""
        rx_power = (self.edge_columns if cols is None else cols)[0]
        sinr = rx_power / (self.config.noise_power + interference)
        return self.config.bandwidth * np.log2(1.0 + sinr)

    def trans_times(self, x: np.ndarray) -> np.ndarray:
        return self.payload / self.rates(x)

    def trans_times_under(self, interference: np.ndarray, cols: np.ndarray | None = None,
                          ) -> np.ndarray:
        payload = (self.edge_columns if cols is None else cols)[1]
        return payload / self.rates_under(interference, cols)

    def edge_branch(self, trans: np.ndarray, cols: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """System time planes ``(3, *trans.shape)`` and per-update energies on the edge."""
        cols = self.edge_columns if cols is None else cols
        return planes_for(cols[5:8], trans.ndim) + trans, cols[3] + cols[2] * trans

    def pattern_state(self, x: np.ndarray) -> PatternState:
        """The read-only ``PatternState`` of pattern ``x``, computed on a miss.

        Only the latest pattern is kept.  It is keyed on the contents of
        ``x``, not its identity, because callers copy and edit patterns in
        place.
        """
        key = x.tobytes()
        if key != self._pattern_key:
            cfg = self.config
            lam = self.lam[:, None]
            t_off, e_off = self.edge_branch(self.trans_times(x))
            on_edge = x == 1
            t_sys = np.where(on_edge, t_off, self.t_local)
            energies = np.where(on_edge, e_off, self.e_local)
            load = float(x @ self.payload)
            admissible = np.where(on_edge, True,
                                  load + self.payload <= cfg.capacity_threshold)
            tau_th = (2.0 * (1.0 - lam * t_sys) / lam).min(axis=0)
            tau_upper = np.maximum(cfg.tau_min, tau_th)
            sphi_up = modality_sum(event_factors(self.psi, lam, tau_upper))
            state = PatternState(
                t_sys, energies, t_off, e_off, on_edge, admissible, tau_th,
                tau_upper, sphi_up, np.nonzero(cfg.tau_min < tau_th)[0])
            for arr in state:
                arr.flags.writeable = False
            self._pattern_key, self._pattern = key, state
        return self._pattern

    # -- costs ------------------------------------------------------------

    def _tau_state(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(phi(tau), 0.5 * tau)`` of ``(..., D)`` intervals, cached by shape and bytes.

        phi has shape ``(3, *tau.shape)``.
        """
        key = (tau.shape, tau.tobytes())
        if key != self._tau_key:
            terms = (event_factors(planes_for(self.psi, tau.ndim),
                                   planes_for(self.lam, tau.ndim), tau), 0.5 * tau)
            for arr in terms:
                arr.flags.writeable = False
            self._tau_key, self._tau_terms = key, terms
        return self._tau_terms

    def budget_interval(self, e: np.ndarray) -> np.ndarray:
        """Shortest interval, at least ``tau_min``, that keeps energies ``e`` in budget."""
        return np.maximum(self.config.tau_min, e / self.e_budget)

    def device_costs(self, tau: np.ndarray, mu: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
        state = self.pattern_state(x)
        return penalized_cost(*self._tau_state(tau), state.t_sys, tau, mu,
                              state.energies, self.e_budget)

    def system_cost(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray) -> float:
        return float(self.device_costs(tau, mu, x).sum())

    def energy_violation(self, tau: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Relative overdraw (Ebar - budget)/budget per device."""
        e = self.pattern_state(x).energies
        return overdraw(e, tau, self.e_budget) / self.e_budget

    def branch_terms(self, tau: np.ndarray, x: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each device's age term and energy overdraw locally and on pattern ``x``'s edge.

        The one pricing of the two branches, from the cached phi(tau) of
        intervals ``(D,)`` or a block's ``(rows, D)``.  Returns ``(age_loc,
        over_loc, age_off, over_off)`` at ``tau``'s shape; a branch's
        penalized cost is ``age + mu * over`` (``branch_costs``), and picking
        each device's branch by ``x`` gives the bits of ``device_costs``.
        """
        state = self.pattern_state(x)
        phi, half_tau = self._tau_state(tau)
        budget = self.e_budget
        return (age_term(phi, half_tau, self.t_local), overdraw(self.e_local, tau, budget),
                age_term(phi, half_tau, state.t_off), overdraw(state.e_off, tau, budget))

    def multiplier_step(self, mu: np.ndarray, rel_overdraw: np.ndarray) -> np.ndarray:
        """Projected subgradient step on every energy budget."""
        return np.maximum(0.0, mu + self.config.lagrange_step * rel_overdraw * self.e_budget)

    # -- sampling block ---------------------------------------------------

    def sampling_step(self, mu: np.ndarray, x: np.ndarray,
                      ) -> tuple[np.ndarray, int]:
        """Algorithm-1 interval update for every device; returns Newton total.

        A tie in true cost between the Newton and surrogate candidates goes
        to the surrogate.  Under a pattern without a Newton device ``mu``
        may stack rows of multipliers, shape ``(rows, D)``, as a lookahead
        block passes them.
        """
        cfg = self.config
        state = self.pattern_state(x)
        tau_sub = np.sqrt(2.0 * mu * state.energies / state.sphi_up)
        # max(tau_th, max(tau_min, tau_sub)), with the first clamp per pattern
        tau_star = np.maximum(state.tau_upper, tau_sub)
        d = state.newton_devices
        if len(d) == 0:
            return tau_star, 0
        psi, t_sys, e, mu_d = self.psi[:, d], state.t_sys[:, d], state.energies[d], mu[d]
        lam = self.lam[:, None]
        tau_newton, iters = projected_newton(
            lambda tau: cost_slopes(psi, lam, tau, t_sys, mu_d, e),
            cfg.tau_min, state.tau_th[d])
        cand = np.stack([tau_newton, tau_star[d]])
        phi = event_factors(psi[:, None], lam[:, None], cand)
        cost = penalized_cost(phi, 0.5 * cand, t_sys, cand, mu_d, e, self.e_budget[d])
        wins = cost[0] < cost[1]
        tau_star[d[wins]] = tau_newton[wins]
        return tau_star, int(iters.sum())

    # -- offloading block ---------------------------------------------------

    def branch_costs(self, tau: np.ndarray, mu: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Own penalized cost of every device locally and on pattern ``x``'s edge branch.

        A device's own rate does not depend on its own flag, so under a
        pattern's edge branch both costs hold for the others' fixed pattern.
        """
        age_loc, over_loc, age_off, over_off = self.branch_terms(tau, x)
        return age_loc + mu * over_loc, age_off + mu * over_off

    def deviating(self, x: np.ndarray, cost_loc: np.ndarray,
                  cost_off: np.ndarray) -> np.ndarray:
        """Devices whose best response is not their flag in ``x``, per row of branch costs.

        A local device deviates when its edge branch is strictly cheaper
        and admissible, an offloader when its local branch is strictly
        cheaper.  ``cost_loc`` and ``cost_off`` have shape ``(..., D)``.
        """
        state = self.pattern_state(x)
        return np.where(state.on_edge, cost_loc < cost_off,
                        (cost_off < cost_loc) & state.admissible)

    def no_deviator(self, x: np.ndarray, cost_loc: np.ndarray,
                    cost_off: np.ndarray) -> np.ndarray:
        """Per row of branch costs: no device of ``x`` deviates, so ``br_round`` commits nothing."""
        return ~self.deviating(x, cost_loc, cost_off).any(axis=-1)

    def best_responses(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                       ) -> np.ndarray:
        return x ^ self.deviating(x, *self.branch_costs(tau, mu, x))  # flips the deviators

    def best_flip(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                  devices: np.ndarray, targets: np.ndarray,
                  costs: tuple[np.ndarray, np.ndarray]) -> tuple[int | None, float]:
        """Single flip ``x[devices[k]] = targets[k]`` that lowers the system cost most.

        ``costs`` is ``branch_costs(tau, mu, x)``, as the caller priced it.
        The current system cost is each device's branch under ``x`` summed,
        which has ``system_cost``'s bits.  A trial's local devices cost what
        they cost on their own local branch, whatever the pattern, so every
        row starts as a copy of those costs.  Only the edge entries of a
        trial get a rate, transmission time, edge branch and penalized cost,
        under the row's interference total, and are scattered in.  They come from the
        pattern, not from a scan of the trial block: x's offloaders other
        than the row's device, plus that device when its target is the
        edge (~k+1 per row for k offloaders).  A block reads its entries'
        per-device values from one table, ``edge_columns`` stacked with
        phi(tau), ``0.5 * tau``, ``tau`` and ``mu``, by one column gather.
        Every entry holds the bits that ``system_cost``'s formulas give it,
        and each row is summed as ``system_cost`` sums, so a gain equals
        ``system_cost(x) - system_cost(trial)`` exactly.  Ties go to the
        first device.  Returns ``(device, gain)``, or ``(None, 0.0)`` when
        no flip lowers the cost strictly.
        """
        best_d, best_gain = None, 0.0
        if len(devices) == 0:
            return best_d, best_gain
        cost_local, cost_off = costs
        cost_now = float(np.where(self.pattern_state(x).on_edge, cost_off, cost_local).sum())
        phi, half_tau = self._tau_state(tau)
        table = np.concatenate((self.edge_columns, phi, half_tau[None], tau[None], mu[None]))
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
            cols = table[:, d]
            # ``edge_columns``' eight rows, then the entries' phi, half tau, tau and mu
            phi_d, (half_tau_d, tau_d, mu_d) = cols[8:11], cols[11:]
            # ``trans_times`` stays one call per pattern state, so trials bypass it
            trans = self.trans_times_under(totals[row] - cols[0], cols)
            t_off, e_off = self.edge_branch(trans, cols)
            trial_costs = np.repeat(cost_local[None, :], n, axis=0)
            trial_costs[row, d] = penalized_cost(phi_d, half_tau_d, t_off, tau_d, mu_d,
                                                 e_off, cols[4])
            gains = cost_now - trial_costs.sum(axis=-1)
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                best_d, best_gain = int(block[j]), float(gains[j])
        return best_d, best_gain

    def br_round(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                 costs: tuple[np.ndarray, np.ndarray],
                 ) -> tuple[np.ndarray, int | None, float]:
        """One best-response round: commit the largest system-cost reduction.

        ``costs`` is the round's ``branch_costs(tau, mu, x)``: it gives the
        deviators and feeds ``best_flip``.  Returns ``(x_next,
        committed_device_or_None, reduction)``.
        """
        deviators = np.flatnonzero(self.deviating(x, *costs))
        best_d, best_gain = self.best_flip(tau, mu, x, deviators, 1 - x[deviators], costs)
        if best_d is None:
            return x, None, 0.0
        out = x.copy()
        out[best_d] = 1 - x[best_d]
        return out, best_d, best_gain

    def offloading_equilibrium(self, tau: np.ndarray, mu: np.ndarray, x: np.ndarray,
                               costs: tuple[np.ndarray, np.ndarray],
                               ) -> tuple[np.ndarray, list[int]]:
        """Run rounds from ``x``'s ``branch_costs`` until no strictly improving commit remains.

        Each commit prices the new pattern's branch costs for the next
        round.  Returns the final pattern and the committed devices in
        order.  Terminates because every commit strictly decreases the
        system cost over a finite strategy space (finite improvement
        property).
        """
        committed: list[int] = []
        while True:
            x_next, device, _ = self.br_round(tau, mu, x, costs)
            if device is None:
                return x, committed
            committed.append(device)
            x = x_next
            costs = self.branch_costs(tau, mu, x)

    # -- reporting ----------------------------------------------------------

    def achieved_metrics(self, tau: np.ndarray, x: np.ndarray) -> dict:
        """Realized (unpenalized) ages and energy state of a decision.

        MAoI always uses the true modality weights, whatever objective the
        evaluator optimizes.
        """
        t_sys = self.pattern_state(x).t_sys
        aoi = 0.5 * tau + t_sys
        maoi = avg_maoi_modality(self.psi_true, self.lam[:, None], tau, t_sys)
        viol = self.energy_violation(tau, x)
        out = {
            "avg_maoi": float(modality_sum(maoi).mean()),
            "avg_aoi": float(modality_sum(aoi).mean()),
            "max_energy_violation": float(viol.max()),
            "n_offloaded": int(x.sum()),
            "offload_bits": float(x @ self.payload),
        }
        for s, (maoi_key, aoi_key) in enumerate(_MODALITY_METRICS):
            out[maoi_key] = float(maoi[s].mean())
            out[aoi_key] = float(aoi[s].mean())
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
    ``blocked`` counts the iterations recorded from lookahead blocks.
    """

    costs: list[float] = field(default_factory=list)
    max_violations: list[float] = field(default_factory=list)
    committed: list[list[int]] = field(default_factory=list)
    newton_iters: list[int] = field(default_factory=list)
    stop_reason: str = ""
    blocked: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def n_iters(self) -> int:
        return len(self.costs)

    def extend(self, costs: list[float], violations: list[float],
               committed: list[list[int]], newtons: list[int]) -> None:
        """Append one iteration per entry; a non-finite cost raises before any is kept."""
        if not all(map(math.isfinite, costs)):
            bad = next(c for c in costs if not math.isfinite(c))
            raise ValueError(f"non-finite system cost {bad}")
        self.costs += costs
        self.max_violations += violations
        self.committed += committed
        self.newton_iters += newtons


def default_decision(n_devices: int, config: SystemConfig) -> Decision:
    """All-local start at the minimum interval with small uniform multipliers."""
    tau, mu = np.full(n_devices, config.tau_min), np.full(n_devices, config.mu_init)
    return Decision(tau=tau, x=np.zeros(n_devices, dtype=np.int64), mu=mu)


TauRule = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int]]
OffloadRule = Callable[[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]],
                       tuple[np.ndarray, list[int]]]
SettledRule = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

#: Most outer iterations ``run_outer_loop`` steps ahead under one offload
#: pattern.  A block is as long as the pattern has held so far, up to this
#: many rows: the first two iterations after the start or a move of the
#: pattern run alone, and blocks then take 2, 4, 8, ... rows.
LOOKAHEAD_ROWS = 64
#: Most devices for which a lookahead block steps its recurrence as one
#: ``interval_chain`` per device instead of ~12 numpy calls per row.  The
#: chains cost ~0.3 us per device and row, the numpy rows ~9 us per row at
#: any D.  In-process A/B of JSO solves (matched settings, seeds 0-2,
#: 2-core x86 host, CHANGES.md), chains time over numpy time in two runs:
#: 0.63-0.64 at D=16, 0.76-0.79 at D=24, 0.85-0.86 at D=28, 0.87-0.92 at
#: D=32, 1.00-1.20 at D=40.
CHAIN_MAX_DEVICES = 24

log = logging.getLogger(__name__)


def interval_chain(rows: int, mu: float, energy: float, budget: float,
                   tau_upper: float, sphi_up: float, step: float) -> list[float]:
    """``rows`` steps of one device's multiplier recurrence in Python floats.

    A row is ``sampling_step`` on a device without a convex region,
    ``energy_violation`` and ``multiplier_step``, written with the numpy
    forms' operand order and ``np.maximum``'s choice on ties and NaN, so for
    a multiplier ``mu >= 0`` each value holds their bits.  Returns each
    row's stepped multiplier; a block forms the rows' intervals by
    ``sampling_step`` and their overdraws by ``branch_terms``, the numpy
    forms themselves.
    """
    sqrt = math.sqrt
    mus = [0.0] * rows
    for r in range(rows):
        tau = sqrt(2.0 * mu * energy / sphi_up)
        if tau < tau_upper:
            tau = tau_upper
        rel = (energy / tau - budget) / budget
        mu = mu + step * rel * budget
        if mu <= 0.0:
            mu = 0.0
        mus[r] = mu
    return mus


def _moves(new: np.ndarray, x: np.ndarray) -> bool:
    """Whether an offloading rule's pattern ``new`` differs from its input ``x``."""
    return new is not x and bool((new != x).any())


def run_outer_loop(ev: ScenarioEvaluator, tau_rule: TauRule,
                   offload_rule: OffloadRule, settled: SettledRule,
                   init: Decision | None = None) -> tuple[Decision, SolveTrace]:
    """Alternate interval, offloading, and multiplier blocks to convergence.

    Convergence requires both a flat system cost (|delta| < eps) and every
    energy budget met within the configured relative tolerance; the
    subgradient multipliers only reach feasibility asymptotically, so the
    cost criterion alone would stop at infeasible points.  Without
    convergence the best iterate is returned (feasible first, then
    cheapest) and a warning is logged.  ``tau_rule(mu, x)`` returns the
    intervals and its Newton iteration count.  ``offload_rule(tau, mu, x,
    costs)`` returns the pattern and the committed devices, where ``costs``
    is the row's ``branch_costs(tau, mu, x)``: an iteration that runs alone
    prices it for the rule, and a block hands over the row it priced for
    ``settled``.  ``settled(x, cost_loc, cost_off)`` takes each branch's
    penalized cost for stacked rows of intervals and multipliers, shape
    ``(rows, D)``, and is True on each row where ``offload_rule`` would
    return ``x`` unchanged and commit nothing.

    Iterations run in lookahead blocks of up to ``LOOKAHEAD_ROWS`` rows
    under the current pattern.  A block first steps the sequential
    recurrence alone: intervals by ``tau_rule``, the relative overdraw and
    the multiplier step.  It then prices every row at once: one phi(tau)
    for both branches' costs, ``settled``, each row's system cost and
    maximum violation.  The rows are then recorded in order under the
    stopping rule and the best-iterate check, one segment at a time: a
    segment runs up to the next row that ``settled`` does not clear, and
    one scan of it finds its stopping row and best iterate before the
    trace takes its rows at once.  That row then runs the real offloading
    rule on its priced branch costs.  If the pattern holds, the row opens
    the next segment, with the devices the rule committed; if it moves,
    the row is finished as an ordinary iteration under the new pattern and
    the rows after it are dropped.  A block is as long as the pattern has
    held so far: the first two iterations after the start or a move run
    alone, as ordinary iterations, so a short solve prices no rows past its
    stop, and blocks then double from 2 rows.  Every cost, multiplier and
    trace entry has the bits that one iteration at a time gives it.

    Under a pattern without a Newton device the recurrence is elementwise:
    a block is D independent scalar chains.  When ``tau_rule`` is the
    evaluator's own ``sampling_step`` and D is at most
    ``CHAIN_MAX_DEVICES``, the block steps each device's multipliers in
    Python floats (``interval_chain``), with the bits of the numpy rows,
    and Python's per-row cost (~0.3 us per device) undercuts numpy's
    (~9 us per row at any D).  The block then forms every row's intervals
    from the multipliers by one ``sampling_step`` on ``(rows, D)`` arrays.
    FMI's rule, patterns with Newton devices, larger D and iterations that
    run alone keep the numpy rows.  Either way, every row's violation
    comes from the overdraws ``branch_terms`` priced for its pattern.

    The loop carries ``tau``, ``x`` and ``mu`` as bare arrays and keeps the
    best iterate by reference, so the rules must leave their inputs as
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
    best_key, best = (math.inf, math.inf), None

    def record(costs, violations, committed, newtons, taus, x, mus) -> int | None:
        """Append rows in order up to the first that meets the stopping rule.

        Row ``r`` is one iteration: its system cost, maximum violation,
        committed devices and Newton count, and its decision ``taus[r]``,
        ``x``, ``mus[r]``.  One scan finds the stopping row and the rows'
        best iterate (the first smallest key), and the trace takes the rows
        up to the stop at once.  Returns the stopping row, or None.
        """
        nonlocal prev_cost, best_key, best
        tol, eps, prev = cfg.energy_tol, cfg.convergence_eps, prev_cost
        stop = best_row = None
        for r, (cost, violation) in enumerate(zip(costs, violations)):
            feasible = violation <= tol
            key = (0.0 if feasible else violation, cost)
            if key < best_key:
                best_key, best_row = key, r
            if abs(cost - prev) < eps and feasible:
                stop = r
                break
            prev = cost
        rows = len(costs) if stop is None else stop + 1
        trace.extend(costs[:rows], violations[:rows], committed[:rows], newtons[:rows])
        prev_cost = prev
        if best_row is not None:
            best = (taus[best_row], x, mus[best_row], violations[best_row])
        return stop

    def finish(tau, mu, x, committed, newton):
        """Multiplier step and record of a row whose offloading rule ran."""
        rel = ev.energy_violation(tau, x)
        mu = ev.multiplier_step(mu, rel)
        stop = record([ev.system_cost(tau, mu, x)], [float(rel.max())], [committed],
                      [newton], [tau], x, [mu])
        return mu, stop is not None

    # chains stand in for the evaluator's own sampling_step only: an
    # override or a wrapping function still runs on every row
    chains =(getattr(tau_rule, "__func__", None) is ScenarioEvaluator.sampling_step
              and getattr(tau_rule, "__self__", None) is ev
              and ev.n_devices <= CHAIN_MAX_DEVICES)
    # iterations the pattern has held since the start or its last move
    held, converged = 0, False
    while not converged and trace.n_iters < cfg.max_outer_iters:
        n = min(max(1, held), LOOKAHEAD_ROWS, cfg.max_outer_iters - trace.n_iters)
        if n == 1:
            # one row has nothing to price in a batch: an ordinary iteration
            tau, newton = tau_rule(mu, x)
            moved, committed = offload_rule(tau, mu, x, ev.branch_costs(tau, mu, x))
            held = 0 if _moves(moved, x) else held + 1
            x = moved
            mu, converged = finish(tau, mu, x, committed, newton)
            continue
        state = ev.pattern_state(x)
        mus = np.empty((n + 1, ev.n_devices))
        mus[0] = mu
        if chains and len(state.newton_devices) == 0:
            devices = zip(mu.tolist(), state.energies.tolist(), ev.e_budget.tolist(),
                          state.tau_upper.tolist(), state.sphi_up.tolist())
            for d, device in enumerate(devices):
                mus[1:, d] = interval_chain(n, *device, cfg.lagrange_step)
            # each row's intervals by the numpy form whose bits the chain holds
            taus, _ = ev.sampling_step(mus[:-1], x)
            newtons = [0] * n
        else:
            taus, newtons = np.empty((n, ev.n_devices)), []
            for r in range(n):
                taus[r], newton = tau_rule(mus[r], x)
                newtons.append(newton)
                mus[r + 1] = ev.multiplier_step(mus[r], ev.energy_violation(taus[r], x))
        age_loc, over_loc, age_off, over_off = ev.branch_terms(taus, x)
        cost_loc, cost_off = age_loc + mus[:-1] * over_loc, age_off + mus[:-1] * over_off
        quiet = settled(x, cost_loc, cost_off)
        on_edge = state.on_edge
        over = np.where(on_edge, over_off, over_loc)  # the pattern's overdraws
        costs = (np.where(on_edge, age_off, age_loc) + mus[1:] * over).sum(axis=-1).tolist()
        # ``energy_violation``'s relative overdraw, from the overdraws picked above
        violations = (over / ev.e_budget).max(axis=1).tolist()
        # Rows are recorded a segment at a time.  A row that ``settled`` does
        # not clear runs the offloading rule once the rows before it are
        # recorded; while the pattern holds, it opens the next segment.
        commits = [[] for _ in range(n)]
        recorded, start = trace.n_iters, 0
        for r in np.flatnonzero(np.logical_not(quiet)).tolist() + [n]:
            stop = record(costs[start:r], violations[start:r], commits[start:r],
                          newtons[start:r], taus[start:r], x, mus[start + 1:r + 1])
            if stop is not None or r == n:
                break
            moved, commits[r] = offload_rule(taus[r], mus[r], x, (cost_loc[r], cost_off[r]))
            if _moves(moved, x):
                break
            start = r
        trace.blocked += trace.n_iters - recorded
        if stop is not None:
            tau, mu, converged = taus[start + stop], mus[start + stop + 1], True
        elif r == n:
            mu, held = mus[n], held + n
        else:
            # the rows after this one priced the old pattern
            tau, x, held = taus[r], moved, 0
            mu, converged = finish(tau, mus[r], x, commits[r], newtons[r])
    if converged:
        trace.stop_reason = "converged"
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


__all__ = [
    "planes_for", "age_term", "overdraw", "penalized_cost", "cost_slopes", "projected_newton", "NEWTON_TOL",
    "NEWTON_MAX_ITERS", "TRIAL_BLOCK_ENTRIES", "PatternState",
    "ScenarioEvaluator", "as_offload_vector", "Decision", "SolveTrace",
    "default_decision", "LOOKAHEAD_ROWS", "CHAIN_MAX_DEVICES", "interval_chain",
    "run_outer_loop",
]
