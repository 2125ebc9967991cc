import math

import numpy as np
import pytest

from helpers import draw_cost_terms, draw_interval_instance, grid_minimum
from maoi_edge.optimizer import (
    CostTerms,
    ScenarioEvaluator,
    convexity_threshold,
    feasible_approximation,
    newton_refine,
    optimal_sampling_interval,
    surrogate_minimizer,
)
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import DeviceProfile, SystemConfig

EDGE_T_SYS = (0.4813, 3.0813, 3.1461)
LOCAL_T_SYS = (4.0, 16.0, 17.648)


def make_terms(psi=(1.0, 1.0, 1.0), lams=(0.8, 0.8, 0.8), t_sys=LOCAL_T_SYS,
               energy=14.824, budget=1.0, mu=1.0):
    return CostTerms(psi=tuple(psi), lambdas=tuple(lams), t_sys=tuple(t_sys),
                     energy=energy, energy_budget=budget, mu=mu)


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

    def test_age_derivative_with_zero_multiplier(self):
        # the pure age term keeps a globally positive slope
        terms = make_terms(mu=0.0)
        for tau in (0.5, 2.0, 10.0, 50.0):
            assert terms.cost_d1(tau) > 0


class TestConvexityThreshold:
    def test_reference_edge_case_is_negative(self):
        terms = make_terms(t_sys=EDGE_T_SYS)
        assert convexity_threshold(terms) == pytest.approx(-3.792, rel=1e-3)

    def test_zero_delay_case(self):
        terms = make_terms(t_sys=(0.0, 0.0, 0.0))
        assert convexity_threshold(terms) == pytest.approx(2.5)

    def test_unit_event_delay_product_forces_nonpositive(self):
        terms = make_terms(lams=(0.5, 0.5, 0.5), t_sys=(2.0, 1.0, 3.0))
        assert convexity_threshold(terms) <= 0.0

    def test_curvature_positive_inside_region(self):
        terms = make_terms(lams=(0.05, 0.05, 0.05), t_sys=EDGE_T_SYS, mu=0.3)
        th = convexity_threshold(terms)
        assert th > 2.0
        for tau in np.linspace(0.5, th, 20):
            assert terms.cost_d2(float(tau)) > 0


class TestSurrogate:
    def test_zero_multiplier_gives_zero(self):
        assert surrogate_minimizer(make_terms(mu=0.0), 2.0) == 0.0

    def test_reference_value(self):
        terms = make_terms(psi=(0.0, 0.0, 0.0), mu=1.0, energy=14.824)
        assert surrogate_minimizer(terms, 2.0) == pytest.approx(3.1437, rel=1e-4)

    def test_multiplier_scaling(self):
        lo = surrogate_minimizer(make_terms(mu=1.0), 2.0)
        hi = surrogate_minimizer(make_terms(mu=2.0), 2.0)
        assert hi == pytest.approx(lo * math.sqrt(2.0))


class TestFeasibleApproximation:
    def test_clamps(self):
        assert feasible_approximation(-3.79, 2.0, 0.0) == 2.0
        assert feasible_approximation(2.5, 2.0, 3.14) == 3.14
        assert feasible_approximation(3.0, 3.0, 3.0) == 3.0


class TestNewton:
    def convex_terms(self, mu=0.5):
        return make_terms(lams=(0.05, 0.05, 0.05), t_sys=EDGE_T_SYS,
                          energy=0.184, mu=mu)

    def test_requires_convex_region(self):
        with pytest.raises(ValueError):
            newton_refine(make_terms(), 2.0, tau_min=2.0, tau_th=-3.0)

    def test_interior_stationary_point(self):
        terms = self.convex_terms(mu=60.0)
        th = convexity_threshold(terms)
        assert terms.cost_d1(2.0) < 0 < terms.cost_d1(th)
        tau, iters = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert 2.0 < tau < th
        assert abs(terms.cost_d1(tau)) < 10 * 1e-8 * abs(terms.cost_d2(tau))
        assert iters <= 50

    def test_increasing_cost_converges_to_lower_bound(self):
        terms = self.convex_terms(mu=0.0)  # no penalty: cost rises with tau
        th = convexity_threshold(terms)
        assert terms.cost_d1(2.0) > 0
        tau, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert tau == pytest.approx(2.0, abs=1e-6)

    def test_decreasing_cost_converges_to_threshold(self):
        terms = self.convex_terms(mu=1e5)  # penalty dominates: cost falls
        th = convexity_threshold(terms)
        assert terms.cost_d1(th) < 0
        tau, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert tau == pytest.approx(th, abs=1e-6)

    def test_iterates_stay_in_interval(self):
        terms = self.convex_terms(mu=5.0)
        th = convexity_threshold(terms)
        for init in (2.0, th, 0.5 * (2.0 + th)):
            tau, _ = newton_refine(terms, init, 2.0, th)
            assert 2.0 <= tau <= th

    def test_bisection_fallback_matches_newton(self):
        from maoi_edge.optimizer import _bisect_slope
        terms = self.convex_terms(mu=20.0)
        th = convexity_threshold(terms)
        newton, _ = newton_refine(terms, 0.5 * (2.0 + th), 2.0, th)
        assert _bisect_slope(terms, 2.0, th, 1e-8) == pytest.approx(newton, abs=1e-6)


class TestOptimalSamplingInterval:
    def test_empty_region_returns_approximation(self, config):
        terms = make_terms(mu=37.0)  # local branch, region empty
        assert convexity_threshold(terms) < config.tau_min
        tau, iters = optimal_sampling_interval(terms, config)
        tau_sub = surrogate_minimizer(terms, max(config.tau_min,
                                                 convexity_threshold(terms)))
        assert tau == pytest.approx(max(config.tau_min, tau_sub))
        assert iters == 0

    def test_never_below_minimum_interval(self, config):
        rng = np.random.default_rng(3)
        for _ in range(50):
            terms, cfg, _kind = draw_interval_instance(rng)
            tau, _ = optimal_sampling_interval(terms, cfg)
            assert tau >= cfg.tau_min

    def test_newton_candidate_wins_when_cheaper(self):
        cfg = SystemConfig(event_rates=(0.05, 0.05, 0.05))
        terms = make_terms(lams=(0.05, 0.05, 0.05), t_sys=EDGE_T_SYS,
                           energy=0.184, mu=20.0)
        th = convexity_threshold(terms)
        newton, _ = newton_refine(terms, 0.5 * (2 + th), 2.0, th)
        tau, _ = optimal_sampling_interval(terms, cfg)
        approx = feasible_approximation(th, cfg.tau_min,
                                        surrogate_minimizer(terms, max(2.0, th)))
        assert tau == newton or tau == approx
        assert terms.cost(tau) == pytest.approx(
            min(terms.cost(newton), terms.cost(approx)))

    def test_grid_oracle_on_drawn_instances(self):
        # exact regimes hold 1e-3; the energy-bound surrogate regime carries
        # the measured interval bias (exponentials frozen at the interval
        # floor), bounded by a few 1e-3 along the multiplier ramp
        tolerances = {"convex": 1e-3, "slack": 1e-3, "energy_bound": 6e-3}
        rng = np.random.default_rng(11)
        for _ in range(40):
            terms, cfg, kind = draw_interval_instance(rng)
            tau, _ = optimal_sampling_interval(terms, cfg)
            tau_upper = max(cfg.tau_min, convexity_threshold(terms))
            best = grid_minimum(terms, cfg.tau_min, tau_upper, n_points=4000)
            assert terms.cost(tau) <= best * (1 + tolerances[kind])

    def test_surrogate_bias_is_present_and_bounded(self):
        # pins the known suboptimality of the clamped surrogate: at the
        # fixed-point multiplier of an energy-bound local device the solve
        # lands a few percent above the true interval, costing ~1e-3
        terms = make_terms(psi=(1.0, 1.0, 1.0), mu=37.0)  # ~E*sum_phi/2
        cfg = SystemConfig()
        tau, _ = optimal_sampling_interval(terms, cfg)
        best = grid_minimum(terms, cfg.tau_min, cfg.tau_min, n_points=20_000)
        gap = terms.cost(tau) / best - 1.0
        assert 1e-4 < gap < 3e-3


class TestVectorizedSamplingStep:
    def test_matches_scalar_reference(self):
        for seed in range(5):
            sc = generate_scenario(6, seed=seed)
            profiles, config = list(sc.profiles), sc.config
            ev = ScenarioEvaluator(profiles, config)
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 2, 6)
            x[3:] = 0  # keep capacity feasible
            mu = rng.uniform(0.0, 40.0, 6)
            tau_vec, _ = ev.sampling_step(mu, x)
            for d in range(6):
                terms = ev.cost_terms(d, float(mu[d]), x)
                tau_d, _ = optimal_sampling_interval(terms, config)
                assert tau_vec[d] == pytest.approx(tau_d, rel=1e-12)

    def test_low_rate_scenario_uses_newton(self):
        sc = generate_scenario(4, seed=1,
                               overrides={"event_rates": (0.05, 0.05, 0.05)})
        ev = ScenarioEvaluator(sc.profiles, sc.config)
        x = np.array([1, 0, 0, 0])
        mu = np.full(4, 5.0)
        tau_vec, newton_iters = ev.sampling_step(mu, x)
        assert newton_iters > 0
        assert (tau_vec >= sc.config.tau_min).all()
