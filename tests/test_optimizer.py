import math

import numpy as np
import pytest

from helpers import (
    as_planes,
    device_terms,
    draw_device_terms,
    draw_interval_instance,
    fixed_point_multiplier,
    grid_costs,
    grid_minimum,
    slopes,
)
from maoi_edge.metric import OBJECTIVE_AOI
from maoi_edge import optimizer
from maoi_edge.optimizer import ScenarioEvaluator, cost_slopes, projected_newton
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import SystemConfig

LOCAL, EDGE = np.array([0]), np.array([1])
# grid-oracle tolerance per regime: exact regimes hold 1e-3; the
# energy-bound surrogate regime carries the measured interval bias
# (exponentials frozen at the interval floor), a few 1e-3 along the ramp
GRID_TOL = {"convex": 1e-3, "slack": 1e-3, "energy_bound": 6e-3}


@pytest.fixture
def device(profile, config):
    """The default device alone.

    Its system times are (4, 16, 17.648) s locally and (0.4813, 3.0813,
    3.1461) s on the edge; its per-update energies 14.824 J and 0.184 J.
    """
    return ScenarioEvaluator([profile], config)


@pytest.fixture
def rare_events(profile):
    """The default device at event rates 0.05: the edge branch is convex on [2, 33.71]."""
    return ScenarioEvaluator([profile], SystemConfig(event_rates=(0.05, 0.05, 0.05)))


def step(ev, mu, x):
    """``sampling_step`` of a 1-device evaluator: ``(tau, newton_iterations)``."""
    tau, iters = ev.sampling_step(np.array([mu]), x)
    return float(tau[0]), iters


def convex_terms(ev, mu):
    """Cost terms and convexity threshold of ``ev``'s device on the edge."""
    return device_terms(ev, 0, [mu], EDGE), float(ev.pattern_state(EDGE).tau_th[0])


def newton(terms, th):
    """``projected_newton`` on one device's region ``[2, th]``: ``(tau, iterations)``."""
    tau, iters = projected_newton(lambda t: slopes(terms, t), 2.0, np.array([th]))
    return float(tau[0]), int(iters[0])


class TestCostSlopes:
    def test_cost_matches_device_costs(self):
        sc = generate_scenario(5, seed=1)
        ev = ScenarioEvaluator(list(sc.profiles), sc.config)
        x = np.array([1, 1, 0, 0, 0])  # two offloaders interfere with each other
        tau = np.array([2.0, 3.5, 5.0, 14.0, 2.5])
        mu = np.array([0.7, 0.0, 1.3, 0.2, 4.0])
        costs = ev.device_costs(tau, mu, x)
        for d in range(5):
            cost = grid_costs(device_terms(ev, d, mu, x), tau[d])
            assert cost == pytest.approx(costs[d], rel=1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(25):
            terms = draw_device_terms(rng)
            tau = float(rng.uniform(0.5, 30.0))
            cost_hi, cost_lo = grid_costs(terms, [tau + h, tau - h])
            (d1_hi, d1_lo), _ = slopes(terms, [tau + h, tau - h])
            fd1, fd2 = (cost_hi - cost_lo) / (2 * h), (d1_hi - d1_lo) / (2 * h)
            d1, d2 = slopes(terms, tau)
            # denominator floored: near the convexity boundary the curvature
            # cancels to ~0 and a pure relative test degenerates
            assert abs(d1 - fd1) < 1e-6 * max(abs(fd1), 1e-3)
            assert abs(d2 - fd2) < 1e-6 * max(abs(fd2), 1e-3)

    def test_age_derivative_with_zero_multiplier(self, device):
        # the pure age term keeps a globally positive slope
        d1, _ = slopes(device_terms(device, 0, [0.0], LOCAL), [0.5, 2.0, 10.0, 50.0])
        assert (d1 > 0).all()

    def test_broadcasts_over_devices_and_modalities(self):
        # a (D, 3) evaluation equals its rows, each with its own event rates
        rng = np.random.default_rng(5)
        rows = [draw_device_terms(rng) for _ in range(4)]
        tau = rng.uniform(0.5, 30.0, 4)
        stacked = {k: np.array([r[k] for r in rows]) for k in rows[0]}
        d1, d2 = slopes(stacked, tau)
        for d, terms in enumerate(rows):
            assert (d1[d], d2[d]) == slopes(terms, tau[d])


class TestConvexityThreshold:
    def test_reference_edge_case_is_negative(self, device):
        assert device.pattern_state(EDGE).tau_th[0] == pytest.approx(-3.792, rel=1e-3)

    def test_zero_delay_case(self, device):
        # at equal rates tau_th = 2 / lam - 2 * max t_sys: 2.5 s at zero delay
        for x in (LOCAL, EDGE):
            state = device.pattern_state(x)
            assert state.tau_th[0] + 2.0 * state.t_sys[:, 0].max() == pytest.approx(2.5)

    def test_unit_event_delay_product_forces_nonpositive(self, device, config):
        for x in (LOCAL, EDGE):
            state = device.pattern_state(x)
            assert (np.asarray(config.event_rates) * state.t_sys[:, 0]).max() >= 1.0
            assert state.tau_th[0] <= 0.0
            assert len(state.newton_devices) == 0

    def test_curvature_positive_inside_region(self, rare_events):
        terms, th = convex_terms(rare_events, 0.3)
        assert th == pytest.approx(33.71, rel=1e-4)
        assert rare_events.pattern_state(EDGE).newton_devices.tolist() == [0]
        assert (slopes(terms, np.linspace(0.5, th, 20))[1] > 0).all()


class TestSurrogate:
    def test_zero_multiplier_gives_zero(self, device, config):
        # the surrogate minimizer is 0, so the interval clamps to tau_min
        for x in (LOCAL, EDGE):
            assert step(device, 0.0, x) == (config.tau_min, 0)

    def test_reference_value(self, profile, config):
        # weight-free local device: sqrt(2 * 14.824 / 3)
        ev = ScenarioEvaluator([profile], config, OBJECTIVE_AOI)
        assert step(ev, 1.0, LOCAL)[0] == pytest.approx(3.1437, rel=1e-4)

    def test_multiplier_scaling(self, device, config):
        lo, _ = step(device, 1.0, LOCAL)
        hi, _ = step(device, 2.0, LOCAL)
        assert lo > config.tau_min
        assert hi == pytest.approx(lo * math.sqrt(2.0))


class TestFeasibleApproximation:
    def test_clamps(self, device, rare_events, config):
        # max(tau_th, tau_min, tau_sub): a negative threshold and a zero
        # surrogate leave the floor; a wide convex region lifts the clamp
        # to the threshold
        assert step(device, 0.0, EDGE)[0] == config.tau_min
        for ev, x in ((device, LOCAL), (device, EDGE), (rare_events, EDGE)):
            state = ev.pattern_state(x)
            assert state.tau_upper[0] == max(config.tau_min, state.tau_th[0])
        assert rare_events.pattern_state(EDGE).tau_upper[0] > config.tau_min


class TestNewton:
    def test_interior_stationary_point(self, rare_events):
        terms, th = convex_terms(rare_events, 60.0)
        assert slopes(terms, 2.0)[0] < 0 < slopes(terms, th)[0]
        tau, iters = newton(terms, th)
        assert 2.0 < tau < th
        d1, d2 = slopes(terms, tau)
        assert abs(d1) < 10 * 1e-8 * abs(d2)
        assert iters <= 50

    def test_increasing_cost_converges_to_lower_bound(self, rare_events):
        terms, th = convex_terms(rare_events, 0.0)  # no penalty: cost rises with tau
        assert slopes(terms, 2.0)[0] > 0
        tau, _ = newton(terms, th)
        assert tau == pytest.approx(2.0, abs=1e-6)

    def test_decreasing_cost_converges_to_threshold(self, rare_events):
        terms, th = convex_terms(rare_events, 1e5)  # penalty dominates: cost falls
        assert slopes(terms, th)[0] < 0
        tau, _ = newton(terms, th)
        assert tau == pytest.approx(th, abs=1e-6)

    def test_iterates_stay_in_interval(self, rare_events):
        # every interval the pass evaluates, not only the last, is clipped
        for mu in (0.0, 5.0, 60.0, 1e5):
            terms, th = convex_terms(rare_events, mu)
            seen = []
            projected_newton(lambda t: seen.append(t) or slopes(terms, t),
                             2.0, np.array([th]))
            assert all(2.0 <= t[0] <= th for t in seen)

    def test_one_slope_pass_per_iteration(self, rare_events):
        # a flat device beside Newton devices keeps its region end while
        # they iterate on; no slope pass runs outside the loop
        for mu in (0.0, 5.0, 60.0, 1e5):
            terms, th = convex_terms(rare_events, mu)
            calls = []

            def slopes_fn(t):
                calls.append(t)
                d1, d2 = slopes(terms, t)
                return d1, np.where([True, True, False], d2, 0.0)

            tau, iters = projected_newton(slopes_fn, 2.0, np.array([th, 2.0 + 1e-9, th]))
            assert len(calls) == iters.max()
            assert tau[0] == newton(terms, th)[0]
            rising = slopes(terms, 0.5 * (2.0 + th))[0] >= 0.0  # at the start
            assert iters[2] == 1 and tau[2] == (2.0 if rising else th)

    def test_flat_curvature_takes_the_region_end(self):
        # zero curvature: a rising slope stops at tau_min, a falling one at
        # tau_th, both in the first iteration
        calls = []

        def slopes_fn(t):
            calls.append(t)
            return np.array([1.5, -1.0]), np.zeros_like(t)

        tau, iters = projected_newton(slopes_fn, 2.0, np.array([30.0, 40.0]))
        assert tau.tolist() == [2.0, 40.0]
        assert iters.tolist() == [1, 1]
        assert len(calls) == 1

    def test_stops_per_device_and_at_the_cap(self, rare_events, monkeypatch):
        # stacked devices keep their own iteration counts; the cap binds
        terms, th = convex_terms(rare_events, 60.0)
        _, iters = newton(terms, th)
        assert iters > 2
        pair = projected_newton(lambda t: slopes(terms, t), 2.0, np.array([th, 2.0 + 1e-9]))[1]
        assert pair.tolist() == [iters, 1]
        monkeypatch.setattr(optimizer, "NEWTON_MAX_ITERS", 2)
        assert newton(terms, th)[1] == 2


def test_flat_curvature_only_where_the_slope_rises():
    # the premise of projected_newton's flat rule on drawn convex regions
    # [tau_min, tau_th], zero weights and zero multipliers included: the
    # curvature is positive wherever mu > 0, and where it is not the slope
    # is at least sum_s phi_s / 2 >= 1.5, so tau_min is the minimum
    rng = np.random.default_rng(17)
    n, tau_min = 4000, 2.0
    psi = np.where(rng.random((n, 3)) < 0.3, 0.0, 10.0 ** rng.uniform(-3.0, 3.0, (n, 3)))
    lam = 10.0 ** rng.uniform(math.log10(0.005), math.log10(0.5), (n, 3))
    t_sys = rng.uniform(0.0, 20.0, (n, 3))
    energy = 10.0 ** rng.uniform(-2.0, 2.0, n)
    mu = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-6.0, 4.0, n))
    tau_th = (2.0 * (1.0 - lam * t_sys) / lam).min(axis=1)
    keep = tau_th > tau_min
    assert keep.sum() > n // 4
    psi, lam, t_sys, energy, mu, tau_th = (
        a[keep] for a in (psi, lam, t_sys, energy, mu, tau_th))
    grid = np.linspace(tau_min, tau_th, 200)  # (200, devices), last row tau_th itself
    assert (grid[-1] == tau_th).all()
    d1, d2 = cost_slopes(as_planes(psi, grid), as_planes(lam, grid), grid,
                         as_planes(t_sys, grid), mu, energy)
    flat = d2 <= 0.0
    assert flat.any()  # the weight-free zero-multiplier devices are flat
    assert not flat[:, mu > 0].any()
    assert (d1[flat] >= 1.5).all()


class TestOptimalSamplingInterval:
    def test_empty_region_returns_approximation(self, device, config):
        # local branch, region empty: the clamped surrogate
        # sqrt(2 * 37 * 14.824 / 5.394) and no Newton step
        state = device.pattern_state(LOCAL)
        assert state.tau_th[0] < config.tau_min
        tau, iters = step(device, 37.0, LOCAL)
        assert tau == pytest.approx(14.2604, rel=1e-4)
        assert iters == 0

    def test_never_below_minimum_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ev, mu, x, _kind = draw_interval_instance(rng)
            tau, _ = ev.sampling_step(mu, x)
            assert tau[0] >= ev.config.tau_min

    def test_newton_candidate_wins_when_cheaper(self, rare_events):
        # an interior stationary point beats the surrogate candidate ...
        terms, th = convex_terms(rare_events, 60.0)
        tau, iters = step(rare_events, 60.0, EDGE)
        assert (tau, iters) == newton(terms, th) and iters > 0
        # ... while past the region the surrogate candidate wins
        terms, th = convex_terms(rare_events, 1e5)
        tau_newton, _ = newton(terms, th)
        tau, _ = step(rare_events, 1e5, EDGE)
        assert tau > th and grid_costs(terms, tau) < grid_costs(terms, tau_newton)

    def test_grid_oracle_on_drawn_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ev, mu, x, kind = draw_interval_instance(rng)
            tau, _ = ev.sampling_step(mu, x)
            terms = device_terms(ev, 0, mu, x)
            cost = grid_costs(terms, tau[0])
            best = grid_minimum(terms, ev.config.tau_min, ev.pattern_state(x).tau_upper[0],
                                float(tau[0]), n_points=4000)
            assert cost <= best + GRID_TOL[kind] * abs(best)

    def test_surrogate_bias_is_present_and_bounded(self, device, config):
        # pins the known suboptimality of the clamped surrogate: at the
        # fixed-point multiplier of an energy-bound local device (~E*sum_phi/2)
        # the solve lands a few percent above the true interval, costing ~1e-3
        tau, _ = step(device, 37.0, LOCAL)
        terms = device_terms(device, 0, [37.0], LOCAL)
        best = grid_minimum(terms, config.tau_min, config.tau_min, tau, n_points=20_000)
        gap = grid_costs(terms, tau) / best - 1.0
        assert 1e-4 < gap < 3e-3


class TestVectorizedSamplingStep:
    def test_matches_grid_oracle(self):
        # interfering devices under a random pattern, each with a slack or an
        # energy-bound multiplier as the single-device instances draw them
        for seed in range(5):
            sc = generate_scenario(6, seed=seed)
            ev = ScenarioEvaluator(list(sc.profiles), sc.config)
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 2, 6)
            x[3:] = 0
            kinds = rng.choice(["slack", "energy_bound"], 6)
            mu = np.where(kinds == "slack", rng.uniform(0.0, 0.05, 6),
                          fixed_point_multiplier(ev, x) * rng.uniform(0.2, 1.8, 6))
            tau, _ = ev.sampling_step(mu, x)
            tau_upper = ev.pattern_state(x).tau_upper
            for d in range(6):
                terms = device_terms(ev, d, mu, x)
                cost = grid_costs(terms, tau[d])
                best = grid_minimum(terms, sc.config.tau_min, tau_upper[d], float(tau[d]))
                assert cost <= best + GRID_TOL[kinds[d]] * abs(best)

    def test_low_rate_scenario_uses_newton(self):
        sc = generate_scenario(4, seed=1,
                               overrides={"event_rates": (0.05, 0.05, 0.05)})
        ev = ScenarioEvaluator(sc.profiles, sc.config)
        x = np.array([1, 0, 0, 0])
        mu = np.full(4, 5.0)
        tau_vec, newton_iters = ev.sampling_step(mu, x)
        assert newton_iters > 0
        assert (tau_vec >= sc.config.tau_min).all()

    # the AoI objective zeroes the weights, so a zero-multiplier device has
    # curvature 0 and slope 1.5 everywhere: it takes tau_min in 1 iteration
    @pytest.mark.parametrize("mu, expected, iters", [
        ([0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0], 4),
        ([0.0, 3.0, 0.0, 1e4], [2.0, 5.445020157523754, 2.0, 314.36838536892776], 7),
    ])
    def test_flat_curvature_bisects_inside_the_solve(self, mu, expected, iters):
        sc = generate_scenario(4, seed=1,
                               overrides={"event_rates": (0.05, 0.05, 0.05)})
        ev = ScenarioEvaluator(sc.profiles, sc.config, OBJECTIVE_AOI)
        tau, n = ev.sampling_step(np.array(mu), np.array([1, 0, 0, 0]))
        assert n == iters
        np.testing.assert_allclose(tau, expected, rtol=1e-12, atol=0.0)

    def test_devices_stay_independent(self):
        # one device's multiplier changes how long the masked Newton loop
        # runs, but no other device's interval
        sc = generate_scenario(20, seed=1,
                               overrides={"event_rates": (0.05, 0.05, 0.05)})
        ev = ScenarioEvaluator(sc.profiles, sc.config)
        x = np.zeros(20, dtype=np.int64)
        x[0] = 1
        assert len(ev.pattern_state(x).newton_devices) == 20
        mu = np.random.default_rng(0).uniform(0.05, 60.0, 20)
        tau, iters = ev.sampling_step(mu, x)
        for j, mu_j in ((0, 1e3), (3, 0.0), (13, 1e4)):
            bumped = mu.copy()
            bumped[j] = mu_j
            tau_j, iters_j = ev.sampling_step(bumped, x)
            assert iters_j != iters
            others = np.arange(20) != j
            assert tau_j[others].tobytes() == tau[others].tobytes()
