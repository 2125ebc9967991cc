import math

import numpy as np
import pytest

from helpers import (
    draw_cost_terms,
    draw_interval_instance,
    fixed_point_multiplier,
    grid_minimum,
)
from maoi_edge.metric import OBJECTIVE_AOI
from maoi_edge.optimizer import ScenarioEvaluator, _bisect_slope, newton_refine
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
    return ev.cost_terms(0, mu, EDGE), float(ev.pattern_state(EDGE).tau_th[0])


class TestCostTerms:
    def test_cost_matches_device_costs(self):
        sc = generate_scenario(5, seed=1)
        ev = ScenarioEvaluator(list(sc.profiles), sc.config)
        x = np.array([1, 1, 0, 0, 0])  # two offloaders interfere with each other
        tau = np.array([2.0, 3.5, 5.0, 14.0, 2.5])
        mu = np.array([0.7, 0.0, 1.3, 0.2, 4.0])
        costs = ev.device_costs(tau, mu, x)
        for d in range(5):
            terms = ev.cost_terms(d, float(mu[d]), x)
            assert terms.cost(float(tau[d])) == pytest.approx(costs[d], rel=1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(25):
            terms = draw_cost_terms(rng)
            tau = float(rng.uniform(0.5, 30.0))
            fd1 = (terms.cost(tau + h) - terms.cost(tau - h)) / (2 * h)
            fd2 = (terms.cost_d1(tau + h) - terms.cost_d1(tau - h)) / (2 * h)
            # denominator floored: near the convexity boundary the curvature
            # cancels to ~0 and a pure relative test degenerates
            assert abs(terms.cost_d1(tau) - fd1) < 1e-6 * max(abs(fd1), 1e-3)
            assert abs(terms.cost_d2(tau) - fd2) < 1e-6 * max(abs(fd2), 1e-3)

    def test_age_derivative_with_zero_multiplier(self, device):
        # the pure age term keeps a globally positive slope
        terms = device.cost_terms(0, 0.0, LOCAL)
        for tau in (0.5, 2.0, 10.0, 50.0):
            assert terms.cost_d1(tau) > 0


class TestConvexityThreshold:
    def test_reference_edge_case_is_negative(self, device):
        assert device.pattern_state(EDGE).tau_th[0] == pytest.approx(-3.792, rel=1e-3)

    def test_zero_delay_case(self, device):
        # at equal rates tau_th = 2 / lam - 2 * max t_sys: 2.5 s at zero delay
        for x in (LOCAL, EDGE):
            state = device.pattern_state(x)
            assert state.tau_th[0] + 2.0 * state.t_sys[0].max() == pytest.approx(2.5)

    def test_unit_event_delay_product_forces_nonpositive(self, device, config):
        for x in (LOCAL, EDGE):
            state = device.pattern_state(x)
            assert (np.asarray(config.event_rates) * state.t_sys[0]).max() >= 1.0
            assert state.tau_th[0] <= 0.0
            assert len(state.newton_devices) == 0

    def test_curvature_positive_inside_region(self, rare_events):
        terms, th = convex_terms(rare_events, 0.3)
        assert th == pytest.approx(33.71, rel=1e-4)
        assert rare_events.pattern_state(EDGE).newton_devices.tolist() == [0]
        for tau in np.linspace(0.5, th, 20):
            assert terms.cost_d2(float(tau)) > 0


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
    def test_requires_convex_region(self, device):
        th = float(device.pattern_state(LOCAL).tau_th[0])
        with pytest.raises(ValueError):
            newton_refine(device.cost_terms(0, 1.0, LOCAL), 2.0, tau_min=2.0, tau_th=th)

    def test_interior_stationary_point(self, rare_events):
        terms, th = convex_terms(rare_events, 60.0)
        assert terms.cost_d1(2.0) < 0 < terms.cost_d1(th)
        tau, iters = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert 2.0 < tau < th
        assert abs(terms.cost_d1(tau)) < 10 * 1e-8 * abs(terms.cost_d2(tau))
        assert iters <= 50

    def test_increasing_cost_converges_to_lower_bound(self, rare_events):
        terms, th = convex_terms(rare_events, 0.0)  # no penalty: cost rises with tau
        assert terms.cost_d1(2.0) > 0
        tau, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert tau == pytest.approx(2.0, abs=1e-6)

    def test_decreasing_cost_converges_to_threshold(self, rare_events):
        terms, th = convex_terms(rare_events, 1e5)  # penalty dominates: cost falls
        assert terms.cost_d1(th) < 0
        tau, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert tau == pytest.approx(th, abs=1e-6)

    def test_iterates_stay_in_interval(self, rare_events):
        terms, th = convex_terms(rare_events, 5.0)
        for init in (2.0, th, 0.5 * (2.0 + th)):
            tau, _ = newton_refine(terms, init, 2.0, th)
            assert 2.0 <= tau <= th

    def test_bisection_fallback_matches_newton(self, rare_events):
        terms, th = convex_terms(rare_events, 20.0)
        newton, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert _bisect_slope(terms, 2.0, th, 1e-8) == pytest.approx(newton, abs=1e-6)


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
        newton, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        tau, iters = step(rare_events, 60.0, EDGE)
        assert tau == newton and iters > 0
        # ... while past the region the surrogate candidate wins
        terms, th = convex_terms(rare_events, 1e5)
        newton, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        tau, _ = step(rare_events, 1e5, EDGE)
        assert tau > th and terms.cost(tau) < terms.cost(newton)

    def test_grid_oracle_on_drawn_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ev, mu, x, kind = draw_interval_instance(rng)
            tau, _ = ev.sampling_step(mu, x)
            terms = ev.cost_terms(0, float(mu[0]), x)
            cost = terms.cost(float(tau[0]))
            best = grid_minimum(terms, ev.config.tau_min, ev.pattern_state(x).tau_upper[0],
                                float(tau[0]), n_points=4000)
            assert cost <= best + GRID_TOL[kind] * abs(best)

    def test_surrogate_bias_is_present_and_bounded(self, device, config):
        # pins the known suboptimality of the clamped surrogate: at the
        # fixed-point multiplier of an energy-bound local device (~E*sum_phi/2)
        # the solve lands a few percent above the true interval, costing ~1e-3
        tau, _ = step(device, 37.0, LOCAL)
        terms = device.cost_terms(0, 37.0, LOCAL)
        best = grid_minimum(terms, config.tau_min, config.tau_min, tau, n_points=20_000)
        gap = terms.cost(tau) / best - 1.0
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
                terms = ev.cost_terms(d, float(mu[d]), x)
                cost = terms.cost(float(tau[d]))
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
