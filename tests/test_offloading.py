import dataclasses
import logging
import math

import numpy as np
import pytest

from helpers import lemma_best_response, lemma_threshold
from maoi_edge import baselines, optimizer
from maoi_edge.experiments import write_trace_csv
from maoi_edge.optimizer import (
    TRIAL_BLOCK_ENTRIES,
    Decision,
    ScenarioEvaluator,
    SolveTrace,
    default_decision,
    run_outer_loop,
)
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import (
    DeviceProfile,
    DeviceTable,
    SystemConfig,
    as_device_table,
    sensing_energy,
)


def scenario_table(d, seed=0, **overrides):
    sc = generate_scenario(d, seed=seed, overrides=overrides)
    return sc.devices, sc.config


def never_moves(x, cost_loc, cost_off):
    """The ``settled`` test of an offloading rule that always returns ``x``."""
    return np.ones(len(cost_loc), dtype=bool)


class TestBestResponse:
    def test_single_device_prefers_offloading(self, profile, config):
        # huge local energy draw and long local queue vs a fast clean uplink
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        br = ev.best_responses(np.array([2.0]), np.array([1.0]), np.array([0]))
        assert br[0] == 1

    def test_capacity_guard_forces_local(self, profile):
        config = SystemConfig(capacity_threshold=1e6)  # below one payload
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        br = ev.best_responses(np.array([2.0]), np.array([1.0]), np.array([0]))
        assert br[0] == 0

    def test_tie_keeps_current_flag(self, monkeypatch):
        table, config = scenario_table(3)
        ev = ScenarioEvaluator(table, config)
        equal = np.ones(3)
        monkeypatch.setattr(ev, "branch_costs",
                            lambda tau, mu, x: (equal, equal))
        x = np.array([1, 0, 1])
        br = ev.best_responses(np.full(3, 2.0), np.zeros(3), x)
        assert (br == x).all()

    def test_lemma_diagnostic_signs(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        lam = lemma_threshold(ev, 0, 2.0, 1.0)
        assert math.isfinite(lam) or lam == -math.inf
        # single device, no interference: the lemma and the canonical rule agree
        assert lemma_best_response(ev, 0, 2.0, 1.0, np.array([0])) == \
            ev.best_responses(np.array([2.0]), np.array([1.0]), np.array([0]))[0]

    def test_lemma_negative_threshold_predicts_local(self, profile):
        # enormous noise power collapses the threshold below zero
        config = SystemConfig(noise_power=1e6)
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        assert lemma_threshold(ev, 0, 2.0, 0.5) < 0
        assert lemma_best_response(ev, 0, 2.0, 0.5, np.array([0])) == 0

    def test_lemma_agrees_with_branch_costs(self):
        # interfering devices at random intervals, multipliers and patterns;
        # capacity admits everyone, so only the two branch costs decide
        rng = np.random.default_rng(23)
        checked = 0
        for seed in range(40):
            d_count = int(rng.integers(4, 13))
            table, config = scenario_table(d_count, seed=seed, capacity_threshold=1e9)
            ev = ScenarioEvaluator(table, config)
            for _ in range(5):
                tau = rng.uniform(2.0, 15.0, d_count)
                mu = rng.uniform(0.0, 10.0, d_count)
                x = rng.integers(0, 2, d_count)
                cost_loc, cost_off = ev.branch_costs(tau, mu, x)
                for d in range(d_count):
                    if abs(cost_off[d] - cost_loc[d]) <= 1e-9 * abs(cost_loc[d]):
                        continue  # a tie: the rounding of either form decides
                    assert lemma_best_response(ev, d, tau[d], mu[d], x) == \
                        int(cost_off[d] < cost_loc[d]), (seed, d)
                    checked += 1
        assert checked > 1000


class TestBestResponseRound:
    def test_equilibrium_returns_unchanged(self):
        table, config = scenario_table(4, capacity_threshold=1e5)
        ev = ScenarioEvaluator(table, config)
        x = np.zeros(4, dtype=np.int64)  # nobody may offload
        tau, mu = np.full(4, 2.0), np.zeros(4)
        out, committed, _ = ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))
        assert committed is None
        assert (out == x).all()

    def test_single_improving_device_commits(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        tau, mu, x = np.array([2.0]), np.array([1.0]), np.array([0])
        out, committed, _ = ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))
        assert committed == 0
        assert out.tolist() == [1]

    def test_commits_largest_system_reduction(self):
        table, config = scenario_table(6, seed=3)
        ev = ScenarioEvaluator(table, config)
        tau = np.full(6, 2.0)
        mu = np.full(6, 0.5)
        x = np.zeros(6, dtype=np.int64)
        br = ev.best_responses(tau, mu, x)
        deviators = np.nonzero(br != x)[0]
        assert deviators.size >= 2
        gains = {}
        base = ev.system_cost(tau, mu, x)
        for d in deviators:
            trial = x.copy()
            trial[d] = br[d]
            gains[int(d)] = base - ev.system_cost(tau, mu, trial)
        out, committed, gain = ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))
        assert committed == max(gains, key=gains.get)
        assert gain == pytest.approx(max(gains.values()))
        assert out[committed] == br[committed]


class TestBatchedTrials:
    """``br_round`` scores its trials in blocks; the per-trial loop is the oracle."""

    @staticmethod
    def per_trial_flip(ev, tau, mu, x, devices, targets):
        cost_now = ev.system_cost(tau, mu, x)
        best_d, best_gain = None, 0.0
        for d, target in zip(devices, targets):
            trial = x.copy()
            trial[d] = target
            gain = cost_now - ev.system_cost(tau, mu, trial)
            if gain > best_gain:
                best_d, best_gain = int(d), gain
        return best_d, best_gain

    @classmethod
    def per_trial_round(cls, ev, tau, mu, x):
        br = ev.best_responses(tau, mu, x)
        deviators = np.nonzero(br != x)[0]
        return cls.per_trial_flip(ev, tau, mu, x, deviators, br[deviators])

    @staticmethod
    def instance(d_count, n_offloaders, seed, **overrides):
        """Random intervals and multipliers, and a start with ``n_offloaders``."""
        table, config = scenario_table(d_count, seed=seed, **overrides)
        ev = ScenarioEvaluator(table, config)
        rng = np.random.default_rng(seed)
        tau = rng.uniform(2.0, 15.0, d_count)
        mu = rng.uniform(0.0, 10.0, d_count)
        x = np.zeros(d_count, dtype=np.int64)
        x[rng.choice(d_count, n_offloaders, replace=False)] = 1
        return ev, tau, mu, x

    @pytest.mark.parametrize("n_offloaders", [2, 3, 4, 5])
    @pytest.mark.parametrize("capacity", [6e6, 3e7])
    def test_every_flip_from_an_offloading_start_matches(self, n_offloaders, capacity):
        # release flips (target 0) leave a trial with fewer edge entries
        ev, tau, mu, x = self.instance(20, n_offloaders, seed=n_offloaders,
                                       capacity_threshold=capacity)
        devices, targets = np.arange(20), 1 - x
        assert ev.best_flip(tau, mu, x, devices, targets, ev.branch_costs(tau, mu, x)) == \
            self.per_trial_flip(ev, tau, mu, x, devices, targets)
        # one flip per call: every positive gain is compared, not only the best
        for d in devices:
            one = (devices[d:d + 1], targets[d:d + 1])
            assert ev.best_flip(tau, mu, x, *one, ev.branch_costs(tau, mu, x)) == \
                self.per_trial_flip(ev, tau, mu, x, *one)

    @pytest.mark.parametrize("capacity", [6e6, 3e7])
    def test_all_ones_targets_match(self, capacity):
        # GMO's trials: every still-local device on the edge
        ev, tau, mu, x = self.instance(40, 3, seed=7, capacity_threshold=capacity)
        candidates = np.nonzero(x == 0)[0]
        targets = np.ones_like(candidates)
        assert ev.best_flip(tau, mu, x, candidates, targets, ev.branch_costs(tau, mu, x)) == \
            self.per_trial_flip(ev, tau, mu, x, candidates, targets)

    def test_multi_block_call_with_offloaders_matches(self):
        ev, tau, mu, x = self.instance(320, 5, seed=3, capacity_threshold=3e7)
        devices, targets = np.arange(320), 1 - x
        assert len(devices) > 2 * (TRIAL_BLOCK_ENTRIES // 320)
        best = ev.best_flip(tau, mu, x, devices, targets, ev.branch_costs(tau, mu, x))
        assert best[0] is not None
        assert best == self.per_trial_flip(ev, tau, mu, x, devices, targets)

    @staticmethod
    def priced_entries(monkeypatch, ev, tau, mu, x, devices, targets):
        """``best_flip``'s result and the entries it priced per block.

        The spy counts the interference entries of ``rates_under``, the one
        rate formula, which the gathered edge columns feed.
        """
        ev.system_cost(tau, mu, x)  # the start's own rates, before counting
        sizes = []
        original = ScenarioEvaluator.rates_under

        def counting(self, interference, cols=None):
            sizes.append(np.size(interference))
            return original(self, interference, cols)

        monkeypatch.setattr(ScenarioEvaluator, "rates_under", counting)
        best = ev.best_flip(tau, mu, x, devices, targets, ev.branch_costs(tau, mu, x))
        monkeypatch.undo()
        return best, sizes

    @staticmethod
    def edge_entries(x, devices, targets):
        """Offloaders of each block's trials, counted on the trial patterns."""
        rows = TRIAL_BLOCK_ENTRIES // len(x)
        counts = []
        for start in range(0, len(devices), rows):
            block = devices[start:start + rows]
            trials = np.repeat(x[None, :], len(block), axis=0)
            trials[np.arange(len(block)), block] = targets[start:start + rows]
            counts.append(np.count_nonzero(trials))
        return counts

    def test_rates_only_for_edge_entries(self, monkeypatch):
        # a block prices the trials' offloaders alone, not every entry
        d_count = 320
        ev, tau, mu, x = self.instance(d_count, 4, seed=5)
        devices, targets = np.arange(d_count), 1 - x
        _, sizes = self.priced_entries(monkeypatch, ev, tau, mu, x, devices, targets)
        rows = TRIAL_BLOCK_ENTRIES // d_count
        assert sizes == self.edge_entries(x, devices, targets)
        assert max(sizes) <= rows * (4 + 1) < rows * d_count

    @pytest.mark.parametrize("d_count", [80, 160, 320])
    def test_single_wide_block_mixing_joins_and_releases(self, d_count):
        # every offloader releases and local devices join, in one block
        ev, tau, mu, x = self.instance(d_count, 10, seed=d_count,
                                       capacity_threshold=3e7)
        rows = TRIAL_BLOCK_ENTRIES // d_count
        devices = np.sort(np.concatenate((np.flatnonzero(x),
                                          np.flatnonzero(x == 0)[:rows - 10])))
        targets = 1 - x[devices]
        assert len(devices) <= rows
        assert 0 < targets.sum() < len(devices) - 9
        best = ev.best_flip(tau, mu, x, devices, targets, ev.branch_costs(tau, mu, x))
        assert best[0] is not None
        assert best == self.per_trial_flip(ev, tau, mu, x, devices, targets)

    @pytest.mark.parametrize("capacity", [6e6, 3e7])
    def test_targets_at_current_flags_are_priced_once(self, capacity, monkeypatch):
        # a trial equal to x gains exactly 0, and its device is priced once
        d_count = 160
        ev, tau, mu, x = self.instance(d_count, 6, seed=11, capacity_threshold=capacity)
        devices = np.arange(d_count)
        stays = np.zeros(d_count, dtype=bool)  # every other offloader, every third local
        stays[np.flatnonzero(x)[::2]] = stays[np.flatnonzero(x == 0)[::3]] = True
        targets = np.where(stays, x, 1 - x)
        best, sizes = self.priced_entries(monkeypatch, ev, tau, mu, x, devices, targets)
        assert best == self.per_trial_flip(ev, tau, mu, x, devices, targets)
        assert sizes == self.edge_entries(x, devices, targets)
        assert ev.best_flip(tau, mu, x, devices, x, ev.branch_costs(tau, mu, x)) == (None, 0.0)

    @pytest.mark.parametrize("d_count", [80, 320])
    def test_all_local_start_matches(self, d_count):
        table, config = scenario_table(d_count, seed=2)
        ev = ScenarioEvaluator(table, config)
        tau, mu = np.full(d_count, config.tau_min), np.full(d_count, config.mu_init)
        x = np.zeros(d_count, dtype=np.int64)
        devices, targets = np.arange(d_count), np.ones(d_count, dtype=np.int64)
        best = ev.best_flip(tau, mu, x, devices, targets, ev.branch_costs(tau, mu, x))
        assert best[0] is not None
        assert best == self.per_trial_flip(ev, tau, mu, x, devices, targets)
        assert ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))[1:] == \
            self.per_trial_round(ev, tau, mu, x)

    @pytest.mark.parametrize("d_count, overrides", [
        (320, {}),
        (80, {"capacity_threshold": 3e7}),
    ])
    def test_multi_block_round_matches_per_trial_loop(self, d_count, overrides,
                                                      monkeypatch):
        # narrow blocks, so the 80 deviators at D = 80 span several of them
        monkeypatch.setattr(optimizer, "TRIAL_BLOCK_ENTRIES", 2048)
        table, config = scenario_table(d_count, seed=1, **overrides)
        ev = ScenarioEvaluator(table, config)
        rng = np.random.default_rng(d_count)
        tau = rng.uniform(2.0, 15.0, d_count)
        mu = rng.uniform(0.0, 10.0, d_count)
        x = np.zeros(d_count, dtype=np.int64)
        br = ev.best_responses(tau, mu, x)
        assert np.count_nonzero(br != x) > 2 * (optimizer.TRIAL_BLOCK_ENTRIES // d_count)
        for _ in range(3):
            expected = self.per_trial_round(ev, tau, mu, x)
            out, committed, gain = ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))
            assert (committed, gain) == expected
            if committed is None:
                break
            x = out

    def test_tied_gains_commit_the_first_device(self):
        # identical devices at the origin: every trial gains the same
        ev = ScenarioEvaluator(DeviceTable(5), SystemConfig())
        tau, mu = np.full(5, 2.0), np.ones(5)
        x = np.zeros(5, dtype=np.int64)
        assert self.per_trial_round(ev, tau, mu, x)[0] == 0
        assert ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))[1] == 0


class TestPatternState:
    def test_in_place_edit_gives_fresh_state(self):
        table, config = scenario_table(6, seed=2)
        ev = ScenarioEvaluator(table, config)
        x = np.zeros(6, dtype=np.int64)
        t_off_before = ev.pattern_state(x).t_off.copy()
        x[2] = 1
        state = ev.pattern_state(x)
        fresh = ScenarioEvaluator(table, config)
        assert not np.array_equal(state.t_off, t_off_before)
        assert np.array_equal(state.t_off, fresh.edge_branch(fresh.trans_times(x))[0])
        for got, want in zip(state, fresh.pattern_state(x)):
            assert np.array_equal(got, want)

    def test_cached_arrays_are_read_only(self):
        table, config = scenario_table(3)
        ev = ScenarioEvaluator(table, config)
        for arr in ev.pattern_state(np.array([1, 0, 0])):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("algorithm", ["jso", "fmi", "gmo", "dbro"])
    def test_one_pattern_evaluation_per_commit(self, algorithm, monkeypatch):
        calls = []
        original = ScenarioEvaluator.trans_times

        def counting(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(ScenarioEvaluator, "trans_times", counting)
        table, config = scenario_table(10, lagrange_step=0.5,
                                          max_outer_iters=300)
        decision, trace = baselines.solve(algorithm, table, config)
        commits = sum(len(c) for c in trace.committed)
        assert commits >= 1
        assert len(calls) <= commits + 2


class TestEvaluatorCaches:
    """The per-pattern and per-interval caches never serve stale entries.

    Each check compares against a fresh evaluator on the same inputs.
    """

    def test_sampling_step_follows_in_place_pattern_edits(self):
        table, config = scenario_table(6, seed=2)
        ev = ScenarioEvaluator(table, config)
        mu = np.linspace(5.0, 40.0, 6)
        x = np.array([1, 0, 0, 0, 0, 0])
        taus = []
        for device, flag in ((None, None), (3, 1), (3, 0)):  # A, B, A
            if device is not None:
                x[device] = flag  # B is A edited in place, then A again
            tau, newton = ev.sampling_step(mu, x)
            fresh_tau, fresh_newton = \
                ScenarioEvaluator(table, config).sampling_step(mu, x)
            assert np.array_equal(tau, fresh_tau)
            assert newton == fresh_newton
            taus.append(tau)
        assert not np.array_equal(taus[0], taus[1])
        assert np.array_equal(taus[0], taus[2])

    def test_costs_follow_in_place_interval_edits(self):
        table, config = scenario_table(6, seed=4)
        ev = ScenarioEvaluator(table, config)
        tau = np.full(6, 3.0)
        mu = np.linspace(0.5, 5.0, 6)
        x = np.array([0, 1, 0, 0, 1, 0])
        before = ev.branch_costs(tau, mu, x)
        cost_before = ev.system_cost(tau, mu, x)
        tau[2] = 7.5  # same object, new contents
        after = ev.branch_costs(tau, mu, x)
        for got, want in zip(after, ScenarioEvaluator(table, config).branch_costs(tau, mu, x)):
            assert np.array_equal(got, want)
        assert not np.array_equal(before[0], after[0])
        assert ev.system_cost(tau, mu, x) == \
            ScenarioEvaluator(table, config).system_cost(tau, mu, x)
        assert ev.system_cost(tau, mu, x) != cost_before
        # a block of (rows, D) intervals: an in-place edit of one row misses
        block = np.stack([np.full(6, t) for t in (3.0, 4.0, 5.0)])
        before = ev.branch_terms(block, x)
        block[1, 3] = 9.0
        after = ev.branch_terms(block, x)
        for got, was, want in zip(after, before,
                                  ScenarioEvaluator(table, config).branch_terms(block, x)):
            assert got.tobytes() == want.tobytes()
            assert got[[0, 2]].tobytes() == was[[0, 2]].tobytes()
            assert got[1].tobytes() != was[1].tobytes()
        # a (1, D) block holds its (D,) row's bytes, and prices as a block
        ev.system_cost(tau, mu, x)
        row = tau[None, :].copy()
        terms = ev.branch_terms(row, x)
        assert [t.shape for t in terms] == [(1, 6)] * 4
        for got, want in zip(terms, ScenarioEvaluator(table, config).branch_terms(row, x)):
            assert got.tobytes() == want.tobytes()

    def test_newton_devices_rerun_for_a_cached_pattern(self):
        sc = generate_scenario(4, seed=1,
                               overrides={"event_rates": (0.05, 0.05, 0.05)})
        ev = ScenarioEvaluator(sc.devices, sc.config)
        x = np.array([1, 0, 0, 0])
        mu = np.full(4, 5.0)
        first_tau, first_newton = ev.sampling_step(mu, x)
        second_tau, second_newton = ev.sampling_step(mu, x)
        fresh_tau, fresh_newton = \
            ScenarioEvaluator(sc.devices, sc.config).sampling_step(mu, x)
        assert first_newton > 0
        assert second_newton == first_newton == fresh_newton
        assert np.array_equal(second_tau, first_tau)
        assert np.array_equal(second_tau, fresh_tau)

    def test_solve_shares_no_memory_with_its_caller(self):
        table, config = scenario_table(5, seed=3, lagrange_step=0.5,
                                          max_outer_iters=300)
        ev = ScenarioEvaluator(table, config)
        init = default_decision(len(table), config)
        decision, trace = run_outer_loop(ev, *baselines.jso_rules(ev), init)
        for out in (decision.tau, decision.x, decision.mu):
            for given in (init.tau, init.x, init.mu):
                assert not np.shares_memory(out, given)
        expected = decision.copy()
        init.tau += 1.0
        init.x[0] = 1
        init.mu *= 2.0
        for got, want in ((decision.tau, expected.tau), (decision.x, expected.x),
                          (decision.mu, expected.mu)):
            assert np.array_equal(got, want)
        decision.tau[:] = 99.0
        decision.x[:] = 1 - decision.x
        decision.mu[:] = 0.0
        again, trace_again = run_outer_loop(ev, *baselines.jso_rules(ev),
                                            default_decision(len(table), config))
        assert np.array_equal(again.tau, expected.tau)
        assert np.array_equal(again.x, expected.x)
        assert np.array_equal(again.mu, expected.mu)
        assert trace_again.costs == trace.costs

    def test_rules_returning_inputs_share_no_memory_with_the_result(self):
        # a rule may hand back an input unchanged; the result still copies
        table, config = scenario_table(3, max_outer_iters=1)
        ev = ScenarioEvaluator(table, config)
        init = Decision(tau=[2.0, 3.0, 4.0], x=[0, 1, 0], mu=[0.1, 0.2, 0.3])
        decision, _ = run_outer_loop(ev, lambda mu, x: (init.tau, 0),
                                     lambda tau, mu, x, costs: (x, []), never_moves, init)
        for out in (decision.tau, decision.x, decision.mu):
            for given in (init.tau, init.x, init.mu):
                assert not np.shares_memory(out, given)
        init.tau[0] = 9.0
        init.x[0] = 1
        assert decision.tau[0] == 2.0
        assert decision.x[0] == 0


class TestSolveOffloading:
    def test_single_device_at_most_one_commit(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        tau, mu, x = np.array([2.0]), np.array([1.0]), np.array([0])
        x_star, committed = ev.offloading_equilibrium(tau, mu, x, ev.branch_costs(tau, mu, x))
        assert committed == [0]
        assert x_star.tolist() == [1]

    def test_cost_strictly_decreases_across_commits(self):
        table, config = scenario_table(8, seed=5)
        ev = ScenarioEvaluator(table, config)
        tau = np.full(8, 2.0)
        mu = np.full(8, 1.0)
        x = np.zeros(8, dtype=np.int64)
        costs = [ev.system_cost(tau, mu, x)]
        while True:
            x, committed, _ = ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))
            if committed is None:
                break
            costs.append(ev.system_cost(tau, mu, x))
        assert len(costs) > 1
        assert all(b < a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_nash_at_termination(self, seed):
        table, config = scenario_table(8, seed=seed)
        ev = ScenarioEvaluator(table, config)
        rng = np.random.default_rng(seed)
        tau = rng.uniform(2.0, 15.0, 8)
        mu = rng.uniform(0.0, 10.0, 8)
        x = np.zeros(8, dtype=np.int64)
        x_star, _ = ev.offloading_equilibrium(tau, mu, x, ev.branch_costs(tau, mu, x))
        costs = ev.device_costs(tau, mu, x_star)
        for d in range(8):
            trial = x_star.copy()
            trial[d] = 1 - trial[d]
            if trial[d] == 1 and \
                    float(trial @ ev.payload) > config.capacity_threshold:
                continue
            assert ev.device_costs(tau, mu, trial)[d] >= costs[d] - 1e-9

    def test_non_nash_counterexample_with_roomy_capacity(self):
        # pinned boundary of the equilibrium property: with three offload
        # slots and few devices, the largest-system-reduction commit rule
        # can terminate while a device still profits from offloading,
        # because its interference would cost the incumbent offloaders more
        # than it gains (the game is not an exact potential game under the
        # summed penalized cost).  Measured at a 1e7-bit capacity: 17/100
        # instances at D=4, 0/100 at D>=10; at the default 6e6-bit capacity
        # (two slots) no instance fails for any D in 4..12.
        sc = generate_scenario(4, seed=5,
                               overrides={"capacity_threshold": 1e7})
        table, config = sc.devices, sc.config
        ev = ScenarioEvaluator(table, config)
        rng = np.random.default_rng(5)
        tau = rng.uniform(2.0, 15.0, 4)
        mu = rng.uniform(0.0, 10.0, 4)
        x = np.zeros(4, dtype=np.int64)
        x, _ = ev.offloading_equilibrium(tau, mu, x, ev.branch_costs(tau, mu, x))
        own = ev.device_costs(tau, mu, x)
        improving = []
        for d in range(4):
            trial = x.copy()
            trial[d] = 1 - trial[d]
            if trial[d] == 1 and \
                    float(trial @ ev.payload) > config.capacity_threshold:
                continue
            gain = own[d] - ev.device_costs(tau, mu, trial)[d]
            if gain > 1e-9:
                harm = ev.system_cost(tau, mu, trial) - ev.system_cost(tau, mu, x)
                improving.append((d, gain, harm))
        assert improving, "expected a blocked profitable deviation at D=4"
        for _d, _gain, harm in improving:
            assert harm > 0  # every blocked deviation is system-harmful

    def test_capacity_never_exceeded_along_the_path(self):
        table, config = scenario_table(8, seed=2)
        ev = ScenarioEvaluator(table, config)
        tau = np.full(8, 2.0)
        mu = np.full(8, 5.0)
        x = np.zeros(8, dtype=np.int64)
        while True:
            x, committed, _ = ev.br_round(tau, mu, x, ev.branch_costs(tau, mu, x))
            assert float(x @ ev.payload) <= config.capacity_threshold
            if committed is None:
                break


class TestMultiplierUpdate:
    """One outer iteration at a fixed interval and pattern isolates the step."""

    @staticmethod
    def stepped_multiplier(profile, config, tau, mu):
        ev = ScenarioEvaluator(as_device_table([profile]),
                               dataclasses.replace(config, max_outer_iters=1))
        init = Decision(tau=[tau], x=[0], mu=[mu])
        decision, trace = run_outer_loop(ev, lambda mu, x: (init.tau, 0),
                                         lambda tau, mu, x, costs: (x, []), never_moves, init)
        assert trace.n_iters == 1
        return decision.mu[0]

    def test_subgradient_step(self, config):
        # overdraw of 2 J/s at eta = 0.01
        p = DeviceProfile(id=0)
        e = sensing_energy(p) + 14.648  # local branch: sensing plus computation
        tau = e / (p.energy_budget + 2.0)
        assert self.stepped_multiplier(p, config, tau, 0.5) == pytest.approx(0.52)

    def test_projection_onto_nonnegative(self, config):
        p = DeviceProfile(id=0, energy_budget=2.0)
        tau = (sensing_energy(p) + 14.648) / 1.0  # Ebar = 1, slack of 1 J/s
        assert self.stepped_multiplier(p, config, tau, 0.005) == 0.0

    def test_feasible_device_stays_at_zero(self, profile, config):
        assert self.stepped_multiplier(profile, config, 1e6, 0.0) == 0.0


class TestDecisionAndTrace:
    def test_decision_validation(self):
        with pytest.raises(ValueError):
            Decision(tau=[2.0, 2.0], x=[0], mu=[0.0])
        with pytest.raises(ValueError):
            Decision(tau=[2.0], x=[0], mu=[-0.1])

    @pytest.mark.parametrize("x", [[0.9, 1.2], [0.0, 0.5], [1, 2], [math.nan, 0]])
    def test_decision_rejects_flags_outside_0_1(self, x):
        # checked before the int cast, which would truncate 0.9 to 0
        with pytest.raises(ValueError, match="0 or 1"):
            Decision(tau=[2.0, 2.0], x=x, mu=[0.1, 0.1])

    @pytest.mark.parametrize("field", ["tau", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_decision_rejects_nonfinite_start(self, field, value):
        # a NaN mu passes ``mu < 0`` and used to fail only at iteration 1
        values = {"tau": [2.0, 2.0], "x": [0, 0], "mu": [0.1, 0.1]}
        values[field] = [2.0, value]
        with pytest.raises(ValueError, match="finite"):
            Decision(**values)

    def test_trace_rejects_nonfinite_cost(self):
        trace = SolveTrace()
        with pytest.raises(ValueError):
            trace.extend([math.nan], [0.0], [[]], [0])

    def test_trace_csv_schema(self, tmp_path):
        trace = SolveTrace()
        trace.extend([10.0], [0.5], [[3, 1]], [7])
        trace.extend([9.5], [0.04], [[]], [0])
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,cost,max_energy_violation,committed_device,newton_iters"
        assert lines[1].startswith("1,10.0,0.5,3;1,7")
        assert lines[2].startswith("2,9.5,0.04,,0")


class TestOuterLoop:
    def test_infinite_eps_feasible_scenario_stops_after_one_iteration(self):
        table, config = scenario_table(3, energy_budget=50.0,
                                          convergence_eps=math.inf)
        decision, trace = baselines.solve("jso", table, config)
        assert trace.converged
        assert trace.n_iters == 1

    def test_deterministic_resolve(self):
        table, config = scenario_table(5, seed=9, energy_budget=3.0)
        d1, t1 = baselines.solve("jso", table, config)
        d2, t2 = baselines.solve("jso", table, config)
        assert np.array_equal(d1.tau, d2.tau)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.mu, d2.mu)
        assert t1.costs == t2.costs
        assert t1.committed == t2.committed

    def test_init_validation(self):
        table, config = scenario_table(2)
        bad_tau = Decision(tau=[1.0, 2.0], x=[0, 0], mu=[0.1, 0.1])
        with pytest.raises(ValueError, match="tau_min"):
            baselines.solve("jso", table, config, init=bad_tau)
        cfg_tiny = SystemConfig(capacity_threshold=1e6)
        bad_x = Decision(tau=[2.0, 2.0], x=[1, 1], mu=[0.1, 0.1])
        with pytest.raises(ValueError, match="capacity"):
            baselines.solve("jso", table, cfg_tiny, init=bad_x)
        # flags outside {0, 1} and a decision for another device count fail
        # before the first iteration, not on NaN rates or a matmul shape
        table, config = scenario_table(3)
        for x, match in (([2, 0, 0], "0 or 1"), ([-1, 0, 0], "0 or 1"),
                         ([0, 0], "shape")):
            with pytest.raises(ValueError, match=match):
                init = Decision(tau=[2.0] * len(x), x=x, mu=[0.1] * len(x))
                baselines.solve("jso", table, config, init=init)

    def test_converged_solution_is_feasible(self):
        table, config = scenario_table(6, seed=4)
        decision, trace = baselines.solve("jso", table, config)
        ev = ScenarioEvaluator(table, config)
        assert trace.converged
        assert (decision.tau >= config.tau_min).all()
        assert float(decision.x @ ev.payload) <= config.capacity_threshold
        viol = ev.energy_violation(decision.tau, decision.x)
        assert viol.max() <= config.energy_tol + 1e-12

    def test_trace_records_every_iteration(self):
        table, config = scenario_table(3, energy_budget=10.0)
        _, trace = baselines.solve("jso", table, config)
        assert trace.n_iters == len(trace.costs) == len(trace.max_violations)
        assert all(math.isfinite(c) for c in trace.costs)
        assert trace.n_iters >= 1

    def test_unconverged_solve_warns_once(self, caplog):
        table, config = scenario_table(10, seed=0, max_outer_iters=300)
        with caplog.at_level(logging.WARNING, logger="maoi_edge.optimizer"):
            _, trace = baselines.solve("idd", table, config)
        assert not trace.converged
        assert trace.stop_reason == "max_iters_best"
        assert trace.n_iters == 300
        records = [r for r in caplog.records if r.name == "maoi_edge.optimizer"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "300 outer iterations" in message
        assert f"{trace.metrics['max_energy_violation']:.6g}" in message

    def test_converged_solve_does_not_warn(self, caplog):
        table, config = scenario_table(10, seed=0)
        with caplog.at_level(logging.WARNING, logger="maoi_edge.optimizer"):
            _, trace = baselines.solve("fmi", table, config)
        assert trace.converged
        assert trace.stop_reason == "converged"
        assert not [r for r in caplog.records if r.name == "maoi_edge.optimizer"]

    def test_default_decision_shape(self):
        table, config = scenario_table(4)
        init = default_decision(len(table), config)
        assert (init.tau == config.tau_min).all()
        assert init.x.sum() == 0
        assert (init.mu == config.mu_init).all()
