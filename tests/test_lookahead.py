"""The lookahead outer loop against the loop that runs every rule on every iteration.

``run_outer_loop`` steps settled iterations in blocks and prices them at
once; ``helpers.reference_outer_loop`` runs the offloading rule, the
violation, the multiplier step and the system cost one iteration at a
time.  Every algorithm's decision and trace must come out bit for bit the
same, wherever the pattern moves, the solve stops or the iteration cap
falls, and on both sides of ``CHAIN_MAX_DEVICES``, where a block's
recurrence moves from ``interval_chain`` to the numpy rows.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_outer_loop
from maoi_edge import baselines, optimizer
from maoi_edge.optimizer import (
    CHAIN_MAX_DEVICES,
    Decision,
    ScenarioEvaluator,
    interval_chain,
    run_outer_loop,
)
from maoi_edge.scenario import generate_scenario

ALGORITHMS = sorted(baselines.ALGORITHMS)
MATCHED = {"lagrange_step": 0.5, "max_outer_iters": 1500}


@pytest.fixture(autouse=True)
def quiet_warnings(caplog):
    # unconverged solves warn once per loop; these tests read the traces
    caplog.set_level(logging.ERROR)


class Blocks:
    """Rules of one algorithm that record what the loop ran.

    ``tau_rule`` runs once per row: a wrapped rule is not the evaluator's
    own ``sampling_step``, so the loop steps its blocks on the numpy rows,
    not by ``interval_chain``.  ``settled`` runs once per block of rows
    after all of them, so a block that ``settled`` sees ``n`` rows of ends
    at the interval solve it follows.  While the pattern holds, iterations
    map one to one onto interval solves.  ``offloads`` counts the calls of
    the real offloading rule.
    """

    def __init__(self, ev: ScenarioEvaluator, name: str):
        tau_rule, offload_rule, settled = baselines.ALGORITHMS[name][1](ev)
        self.solves, self.offloads, self.spans = 0, 0, []

        def counted_tau_rule(mu, x):
            self.solves += 1
            return tau_rule(mu, x)

        def counted_offload_rule(tau, mu, x, costs):
            self.offloads += 1
            return offload_rule(tau, mu, x, costs)

        def recorded_settled(x, cost_loc, cost_off):
            self.spans.append((self.solves - len(cost_loc), self.solves - 1))
            return settled(x, cost_loc, cost_off)

        self.rules = counted_tau_rule, counted_offload_rule, recorded_settled

    def run(self, ev: ScenarioEvaluator, init: Decision | None = None):
        return run_outer_loop(ev, *self.rules, init)

    def block_of(self, iteration: int) -> tuple[int, int]:
        """First and last iteration of the priced block that holds ``iteration``."""
        (span,) = [s for s in self.spans if s[0] <= iteration <= s[1]]
        return span


def assert_bit_equal(got, want) -> None:
    (decision, trace), (ref_decision, ref_trace) = got, want
    for name in ("tau", "x", "mu"):
        a, b = getattr(decision, name), getattr(ref_decision, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("costs", "max_violations", "committed", "newton_iters",
                 "stop_reason", "metrics"):
        assert getattr(trace, name) == getattr(ref_trace, name), name


def solve_both(name: str, d: int, seed: int, overrides: dict,
               init: Decision | None = None) -> tuple[tuple, tuple]:
    """``baselines.solve`` and the reference loop on one scenario."""
    sc = generate_scenario(d, seed, overrides)
    objective, rules = baselines.ALGORITHMS[name]
    ev = ScenarioEvaluator(sc.profiles, sc.config, objective)
    tau_rule, offload_rule, _ = rules(ev)
    want = reference_outer_loop(ev, tau_rule, offload_rule,
                                init and init.copy())
    got = baselines.solve(name, sc.profiles, sc.config, init and init.copy())
    return got, want


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("d", [5, 20, CHAIN_MAX_DEVICES, CHAIN_MAX_DEVICES + 1])
def test_matched_settings(name, d):
    assert_bit_equal(*solve_both(name, d, 0, MATCHED))


@pytest.mark.parametrize("d, chains", [(CHAIN_MAX_DEVICES, True),
                                       (CHAIN_MAX_DEVICES + 1, False)])
def test_chains_up_to_the_crossover(monkeypatch, d, chains):
    # a counting sampling_step on the class is still the evaluator's own
    # rule, so the loop picks the recurrence as it does for a plain solve
    calls = []
    step = ScenarioEvaluator.sampling_step

    def counted(self, mu, x):
        calls.append(np.ndim(mu))
        return step(self, mu, x)

    monkeypatch.setattr(ScenarioEvaluator, "sampling_step", counted)
    sc = generate_scenario(d, 0, MATCHED)
    _, trace = baselines.solve("jso", sc.devices, sc.config)
    assert trace.blocked > 0.9 * trace.n_iters
    if chains:
        # only the iterations that run alone solve one interval vector by
        # the rule; a chained block forms all its rows' intervals in one call
        assert calls.count(1) <= trace.n_iters - trace.blocked
        assert 2 in calls
    else:
        assert calls.count(1) >= trace.n_iters and 2 not in calls


class ChainRows(ScenarioEvaluator):
    """A one-device evaluator whose pattern state a test sets."""

    def pattern_state(self, x):
        return self.state


def chain_evaluator(energy, budget, tau_upper, sphi_up, step):
    """A one-device evaluator with these values, no Newton device, and its pattern."""
    sc = generate_scenario(1, 0)
    ev = ChainRows(sc.devices, dataclasses.replace(sc.config, lagrange_step=step))
    ev.e_budget = np.array([budget])
    x = np.zeros(1, dtype=np.int64)
    ev.state = ScenarioEvaluator.pattern_state(ev, x)._replace(
        energies=np.array([energy]), tau_upper=np.array([tau_upper]),
        sphi_up=np.array([sphi_up]), newton_devices=np.array([], dtype=np.intp))
    return ev, x


def numpy_rows(rows, mu, *device):
    """``sampling_step``, ``energy_violation`` and ``multiplier_step`` on one device, by rows."""
    ev, x = chain_evaluator(*device)
    mu, out = np.array([mu]), ([], [], [])
    for _ in range(rows):
        tau, _ = ev.sampling_step(mu, x)
        rel = ev.energy_violation(tau, x)
        mu = ev.multiplier_step(mu, rel)
        for col, value in zip(out, (tau, rel, mu)):
            col.append(value)
    return tuple(np.concatenate(col) for col in out)


def block_rows(rows, mu, *device):
    """A chained block's rows: ``interval_chain``'s multipliers, then every
    row's intervals and overdraws by ``sampling_step`` and ``energy_violation``
    on the ``(rows, D)`` arrays, as ``run_outer_loop`` forms them."""
    ev, x = chain_evaluator(*device)
    mus = np.array([mu, *interval_chain(rows, mu, *device)])[:, None]
    taus, _ = ev.sampling_step(mus[:-1], x)
    return taus[:, 0], ev.energy_violation(taus, x)[:, 0], mus[1:, 0]


def assert_chain_matches(*case):
    for got, want in zip(block_rows(*case), numpy_rows(*case), strict=True):
        assert got.tobytes() == want.tobytes()


@st.composite
def chain_cases(draw):
    """Chains whose surrogate interval crosses ``tau_upper`` or whose multiplier clamps at 0."""
    energy, budget = draw(st.floats(1e-3, 50.0)), draw(st.floats(1e-3, 10.0))
    sphi_up, step = draw(st.floats(3.0, 10.0)), draw(st.floats(1e-4, 2.0))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    # tau_upper near the first row's surrogate interval, where the clamp switches
    start = math.sqrt(2.0 * mu * energy / sphi_up)
    tau_upper = max(1e-3, start * draw(st.floats(0.25, 4.0))) if start > 0 else \
        draw(st.floats(1e-3, 100.0))
    return draw(st.integers(1, 64)), mu, energy, budget, tau_upper, sphi_up, step


@settings(max_examples=200, deadline=None)
@given(chain_cases())
def test_chain_equals_numpy_rows(case):
    assert_chain_matches(*case)


def test_chain_crosses_tau_upper_inside_a_block():
    # overdrawn: mu climbs, and the surrogate interval passes tau_upper on row 4
    case = (64, 0.1, 2.0, 0.1, 3.0, 3.5, 5.0)
    taus, _, _ = block_rows(*case)
    assert taus[:3].tolist() == [3.0] * 3 and taus[3] > 3.0
    assert_chain_matches(*case)


def test_slack_chain_clamps_at_zero():
    # slack: mu falls to 0 inside the block and stays there, at tau_upper
    case = (64, 0.5, 0.5, 0.2, 3.0, 3.5, 0.5)
    mus = interval_chain(*case)
    taus, _, _ = block_rows(*case)
    k = mus.index(0.0)
    assert 0 < k < 63 and set(mus[k:]) == {0.0} and set(taus[k + 1:].tolist()) == {3.0}
    assert_chain_matches(*case)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_persistent_deviators(name):
    # at this capacity JSO's and GMO's deviators persist but commit on a
    # handful of iterations: every row of every block runs the real rule
    overrides = {**MATCHED, "capacity_threshold": 3e7}
    got, want = solve_both(name, 10, 0, overrides)
    assert_bit_equal(got, want)
    if name in ("jso", "gmo"):
        sc = generate_scenario(10, 0, overrides)
        ev = ScenarioEvaluator(sc.profiles, sc.config)
        blocks = Blocks(ev, name)
        _, trace = blocks.run(ev)
        assert blocks.spans and blocks.offloads == trace.n_iters
        assert 0 < sum(map(len, trace.committed)) < 10


MOVING = {**MATCHED, "capacity_threshold": 1.5e7}


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("d, seed", [(5, 0), (10, 1)])
def test_pattern_moves_inside_a_block(name, d, seed):
    # at this capacity JSO, GMO and DBRO settle and later move again
    assert_bit_equal(*solve_both(name, d, seed, MOVING))


def test_a_commit_inside_a_priced_block():
    # JSO settles, then commits again on iterations 307, 464 and 771.  The
    # move on iteration 3 drops one priced row, so iteration 307 is
    # interval solve 308, inside the block of solves 261..324: the rows
    # before it are priced, the rows after it dropped.
    sc = generate_scenario(10, 1, MOVING)
    ev = ScenarioEvaluator(sc.profiles, sc.config)
    blocks = Blocks(ev, "jso")
    _, trace = blocks.run(ev)
    assert [i for i, c in enumerate(trace.committed) if c] == [0, 3, 307, 464, 771]
    assert blocks.spans[0] == (3, 4) and (261, 324) in blocks.spans
    assert blocks.offloads < trace.n_iters


def test_settled_prices_each_row_at_its_own_intervals_and_multipliers():
    # the row of iteration i holds branch_costs(tau_i, mu_i), the costs
    # the offloading rule would read there, before the multiplier step
    sc = generate_scenario(10, 1, MOVING)
    ev = ScenarioEvaluator(sc.profiles, sc.config)
    tau_rule, offload_rule, settled = baselines.jso_rules(ev)
    solved, priced = [], []

    def recorded_tau_rule(mu, x):
        tau, newton = tau_rule(mu, x)
        solved.append((tau, mu.copy()))
        return tau, newton

    def checked_settled(x, cost_loc, cost_off):
        for k, (tau, mu) in enumerate(solved[-len(cost_loc):]):
            loc, off = ev.branch_costs(tau, mu, x)
            assert loc.tobytes() == cost_loc[k].tobytes()
            assert off.tobytes() == cost_off[k].tobytes()
        priced.append(len(cost_loc))
        return settled(x, cost_loc, cost_off)

    run_outer_loop(ev, recorded_tau_rule, offload_rule, checked_settled)
    assert sum(priced) > 500


@pytest.mark.parametrize("capacity", [3e7, 1.5e7])
@pytest.mark.parametrize("name", ["jso", "gmo", "dbro"])
def test_offloading_rule_reads_its_rows_branch_costs(monkeypatch, name, capacity):
    # every call of the rule gets branch_costs of its own tau, mu and x, bit
    # for bit, whether its iteration runs alone or as a row of a priced block
    step = ScenarioEvaluator.sampling_step
    last, calls = None, {"alone": 0, "block": 0}

    def traced_step(self, mu, x):
        # on the class, so a block still steps its rows by the chains
        nonlocal last
        last = "alone"
        return step(self, mu, x)

    monkeypatch.setattr(ScenarioEvaluator, "sampling_step", traced_step)
    sc = generate_scenario(10, 1, {**MATCHED, "capacity_threshold": capacity})
    objective, rules = baselines.ALGORITHMS[name]
    ev = ScenarioEvaluator(sc.profiles, sc.config, objective)
    fresh = ScenarioEvaluator(sc.profiles, sc.config, objective)
    tau_rule, offload_rule, settled = rules(ev)

    def traced_settled(x, cost_loc, cost_off):
        nonlocal last
        last = "block"
        return settled(x, cost_loc, cost_off)

    def checked_offload_rule(tau, mu, x, costs):
        for got, want in zip(costs, fresh.branch_costs(tau, mu, x), strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        calls[last] += 1
        return offload_rule(tau, mu, x, costs)

    _, trace = run_outer_loop(ev, tau_rule, checked_offload_rule, traced_settled)
    assert calls["alone"] > 0 and calls["block"] > 0
    assert calls["alone"] + calls["block"] <= trace.n_iters


@pytest.mark.parametrize("name", ALGORITHMS)
def test_newton_path(name):
    # low event rates open convex regions: the interval rule runs Newton
    overrides = {**MATCHED, "event_rates": (0.05, 0.05, 0.05)}
    got, want = solve_both(name, 4, 1, overrides)
    assert_bit_equal(got, want)
    if name != "fmi":
        assert sum(got[1].newton_iters) > 0


@pytest.mark.parametrize("name", ALGORITHMS)
def test_init_with_offloaders(name):
    init = Decision(tau=[2.0] * 6, x=[1, 0, 1, 0, 0, 0], mu=[0.1] * 6)
    got, want = solve_both(name, 6, 3, MATCHED, init)
    assert_bit_equal(got, want)
    if name == "flc":
        assert got[1].n_iters > 1 and not got[0].x.any()


@pytest.mark.parametrize("rows, row", [(47, "first"), (2, "last")])
def test_stop_on_a_blocks_first_and_last_row(monkeypatch, rows, row):
    # FLC from the all-local start never moves its pattern, so its
    # iterations follow the block layout; with these block lengths the
    # solve stops on iteration 581, the first or the last row of a block
    monkeypatch.setattr(optimizer, "LOOKAHEAD_ROWS", rows)
    sc = generate_scenario(5, 0, MATCHED)
    ev = ScenarioEvaluator(sc.profiles, sc.config)
    blocks = Blocks(ev, "flc")
    got = blocks.run(ev)
    stop = got[1].n_iters - 1
    assert got[1].converged and stop == 581
    first, last = blocks.block_of(stop)
    assert first < last and stop == (first if row == "first" else last)
    fresh = ScenarioEvaluator(sc.profiles, sc.config)
    tau_rule, offload_rule, _ = baselines.flc_rules(fresh)
    assert_bit_equal(got, reference_outer_loop(fresh, tau_rule, offload_rule))


CAPPED = {**MATCHED, "max_outer_iters": 300}


@pytest.mark.parametrize("name", ALGORITHMS)
def test_iteration_cap_mid_block(name):
    assert_bit_equal(*solve_both(name, 10, 2, CAPPED))


def test_best_iterate_inside_a_capped_block():
    # the cap cuts the block of iterations 256..319 after 299, and the
    # best iterate, which the capped solve returns, is its iteration 285
    sc = generate_scenario(10, 2, CAPPED)
    ev = ScenarioEvaluator(sc.profiles, sc.config)
    blocks = Blocks(ev, "flc")
    decision, trace = blocks.run(ev)
    assert trace.stop_reason == "max_iters_best" and trace.n_iters == 300
    keys = [(0.0 if v <= sc.config.energy_tol else v, c)
            for v, c in zip(trace.max_violations, trace.costs)]
    best = keys.index(min(keys))
    assert best == 285 and blocks.block_of(best) == (256, 299)
    fresh = ScenarioEvaluator(sc.profiles, sc.config)
    tau_rule, offload_rule, _ = baselines.flc_rules(fresh)
    assert_bit_equal((decision, trace),
                     reference_outer_loop(fresh, tau_rule, offload_rule))


class Segments:
    """Rules that hold the all-local pattern while ``settled`` marks the rows a test picks.

    The offloading rule returns its input pattern and reports the first
    device as committed where the five lowest bits of its edge-branch cost
    are clear, an arbitrary pick on ~6% of rows.  ``settled`` clears a row
    only where the device is not picked and ``loud(first, rows)``, given a
    block's first iteration and length, leaves it unmarked; ``marked``
    collects the iterations it does not clear.  The pattern never moves, so
    blocks start at iteration 2.
    """

    def __init__(self, ev: ScenarioEvaluator, tau_rule, loud):
        self.marked = []
        first = 2

        def picked(cost_off):
            return (cost_off[..., 0].view(np.int64) & 31) == 0

        def offload_rule(tau, mu, x, costs):
            _, off = costs
            return x, [0] if picked(off) else []

        def settled(x, cost_loc, cost_off):
            nonlocal first
            rows = len(cost_loc)
            quiet = ~picked(cost_off) & ~np.array(loud(first, rows), dtype=bool)
            self.marked += (first + np.flatnonzero(~quiet)).tolist()
            first += rows
            return quiet

        self.rules = tau_rule, offload_rule, settled

    def run(self, ev: ScenarioEvaluator):
        """The loop's solve and the reference loop's, on the same rules."""
        return run_outer_loop(ev, *self.rules), reference_outer_loop(ev, *self.rules[:2])


def converging():
    """FLC's intervals on 5 devices; the solve stops on iteration 581."""
    sc = generate_scenario(5, 0, MATCHED)
    ev = ScenarioEvaluator(sc.devices, sc.config)
    return ev, ev.sampling_step


def tied():
    """Intervals that grow with the multipliers up to a cap with a 1e-9 overdraw.

    Every row is infeasible at ``energy_tol`` 0, so the solve runs to its
    cap.  From the first capped row on, the violation holds and each
    row's multiplier step moves the cost less than its last bit, so the
    best-iterate keys tie while the multipliers still differ.
    """
    sc = generate_scenario(3, 0, {**MATCHED, "max_outer_iters": 300, "energy_tol": 0.0})
    ev = ScenarioEvaluator(sc.devices, sc.config)
    cap = ev.e_local / (ev.e_budget * (1 + 1e-9))

    def tau_rule(mu, x):
        return np.minimum(cap, cap * (0.5 + mu)), 0

    return ev, tau_rule


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([converging, tied]), st.data())
def test_segments_equal_the_reference(scenario, data):
    ev, tau_rule = scenario()

    def loud(first, rows):
        return data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))

    assert_bit_equal(*Segments(ev, tau_rule, loud).run(ev))


@pytest.mark.parametrize("loud_rows, stop_row", [
    ({580}, "first quiet row after a marked row"),
    ({582}, "quiet row before a marked row"),
    ({581}, "marked row"),
])
def test_stop_on_a_segments_first_and_last_row(loud_rows, stop_row):
    ev, tau_rule = converging()
    segments = Segments(ev, tau_rule, lambda first, rows: [first + r in loud_rows
                                                         for r in range(rows)])
    got, want = segments.run(ev)
    assert got[1].converged and got[1].n_iters - 1 == 581
    marked = {i for i in segments.marked if 580 <= i <= 582}
    assert marked == loud_rows, stop_row
    assert_bit_equal(got, want)


@pytest.mark.parametrize("every", [1, 7, 1000])
def test_first_of_tied_best_iterates_wins(every):
    ev, tau_rule = tied()
    steps = []

    def recorded_tau_rule(mu, x):
        steps.append(mu)
        return tau_rule(mu, x)

    segments = Segments(ev, recorded_tau_rule, lambda first, rows: [(first + r) % every == 0
                                                                  for r in range(rows)])
    got, want = segments.run(ev)
    trace = got[1]
    keys = list(zip(trace.max_violations, trace.costs))
    best = keys.index(min(keys))
    assert trace.stop_reason == "max_iters_best" and keys.count(keys[best]) > 100
    # iteration i steps the multipliers it was given into steps[i + 1]
    assert got[0].mu.tobytes() == steps[best + 1].tobytes() != steps[best + 2].tobytes()
    assert_bit_equal(got, want)
