import numpy as np
import pytest

from maoi_edge import baselines
from maoi_edge.optimizer import Decision, ScenarioEvaluator
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import SystemConfig


def scenario_lists(d, seed=0, **overrides):
    sc = generate_scenario(d, seed=seed, overrides=overrides)
    return list(sc.profiles), sc.config


def feasible(profiles, config, decision):
    ev = ScenarioEvaluator(profiles, config)
    return ((decision.tau >= config.tau_min).all()
            and float(decision.x @ ev.payload) <= config.capacity_threshold
            and ev.energy_violation(decision.tau, decision.x).max()
            <= config.energy_tol + 1e-12)


class TestSelector:
    def test_known_names(self):
        assert set(baselines.ALGORITHMS) == {"jso", "jso_a", "fmi", "flc",
                                             "gmo", "idd", "dbro"}

    def test_unknown_name_rejected(self):
        profiles, config = scenario_lists(2)
        with pytest.raises(ValueError, match="unknown algorithm"):
            baselines.solve("annealing", profiles, config)


class TestFMI:
    def test_interval_pinned_to_energy_rule(self):
        profiles, config = scenario_lists(4, seed=1)
        decision, trace = baselines.solve("fmi", profiles, config)
        assert trace.converged
        energies = ScenarioEvaluator(profiles, config).pattern_state(decision.x).energies
        for d in range(4):
            e = energies[d]
            expected = max(config.tau_min, e / profiles[d].energy_budget)
            assert decision.tau[d] == pytest.approx(expected)

    def test_offloaded_devices_clamp_to_minimum(self):
        profiles, config = scenario_lists(4, seed=1)
        decision, _ = baselines.solve("fmi", profiles, config)
        assert decision.x.sum() > 0
        for d in np.nonzero(decision.x)[0]:
            assert decision.tau[d] == config.tau_min

    def test_generous_budget_clamps_everyone(self):
        profiles, config = scenario_lists(3, energy_budget=50.0)
        decision, _ = baselines.solve("fmi", profiles, config)
        assert (decision.tau == config.tau_min).all()


class TestFLC:
    def test_never_offloads(self):
        profiles, config = scenario_lists(5, seed=2)
        decision, trace = baselines.solve("flc", profiles, config)
        assert decision.x.sum() == 0
        assert trace.converged

    def test_matches_jso_when_offloading_is_disabled_by_capacity(self):
        profiles, config = scenario_lists(4, seed=3, capacity_threshold=1e5)
        d_flc, _ = baselines.solve("flc", profiles, config)
        d_jso, _ = baselines.solve("jso", profiles, config)
        assert d_jso.x.sum() == 0
        np.testing.assert_allclose(d_flc.tau, d_jso.tau, rtol=1e-12)
        np.testing.assert_allclose(d_flc.mu, d_jso.mu, rtol=1e-12)


class TestGMO:
    def test_greedy_fixes_are_never_reverted(self):
        profiles, config = scenario_lists(8, seed=4)
        decision, trace = baselines.solve("gmo", profiles, config)
        fixed = set()
        for committed in trace.committed:
            for d in committed:
                assert d not in fixed
                fixed.add(d)
        assert set(np.nonzero(decision.x)[0]) == fixed

    def test_first_fix_has_largest_marginal_gain(self):
        profiles, config = scenario_lists(6, seed=5)
        ev = ScenarioEvaluator(profiles, config)
        decision, trace = baselines.solve("gmo", profiles, config)
        first = next(c[0] for c in trace.committed if c)
        # replay the first greedy evaluation by hand
        init_tau, _ = ev.sampling_step(np.full(6, config.mu_init),
                                       np.zeros(6, dtype=np.int64))
        base = ev.system_cost(init_tau, np.full(6, config.mu_init),
                              np.zeros(6, dtype=np.int64))
        gains = {}
        for d in range(6):
            trial = np.zeros(6, dtype=np.int64)
            trial[d] = 1
            gains[d] = base - ev.system_cost(init_tau, np.full(6, config.mu_init), trial)
        assert first == max(gains, key=gains.get)

    def test_initial_offloader_is_kept(self):
        profiles, config = scenario_lists(6, seed=0, lagrange_step=0.5)
        init = Decision(tau=np.full(6, config.tau_min),
                        x=[0, 0, 0, 0, 0, 1], mu=np.full(6, config.mu_init))
        decision, trace = baselines.solve("gmo", profiles, config, init)
        assert decision.x[5] == 1
        assert all(5 not in c for c in trace.committed)

    def test_stays_local_when_offloading_hurts(self):
        # drown the uplink in noise: transmission takes forever
        profiles, config = scenario_lists(4, seed=6, noise_power=1.0)
        decision, _ = baselines.solve("gmo", profiles, config)
        assert decision.x.sum() == 0


class TestIDD:
    def test_single_device_equals_exact_best_response(self, config):
        profiles, config = scenario_lists(1, seed=7)
        decision, _ = baselines.solve("idd", profiles, config)
        ev = ScenarioEvaluator(profiles, config)
        exact = ev.best_responses(decision.tau, decision.mu, np.array([0]))
        assert decision.x[0] == exact[0]

    def test_optimistic_prior_offloads_weakly_more(self, monkeypatch):
        counts = {}
        for share in (0.0, 1.0):
            monkeypatch.setattr(baselines, "IDD_ASSUMED_SHARE", share)
            total = 0
            for seed in (0, 1, 2):
                profiles, config = scenario_lists(8, seed=seed,
                                                  energy_budget=3.0)
                decision, _ = baselines.solve("idd", profiles, config)
                total += int(decision.x.sum())
            counts[share] = total
        assert counts[0.0] >= counts[1.0]

    def test_capacity_respected_under_optimistic_prior(self, monkeypatch):
        monkeypatch.setattr(baselines, "IDD_ASSUMED_SHARE", 0.0)
        profiles, config = scenario_lists(6, seed=8)
        decision, _ = baselines.solve("idd", profiles, config)
        ev = ScenarioEvaluator(profiles, config)
        assert float(decision.x @ ev.payload) <= config.capacity_threshold

    def test_converges_within_budget_and_ignores_multipliers(self):
        # device 1 sits at its branch threshold; if its choice followed its
        # multiplier it would trade the capacity slot with device 2 for good
        profiles, config = scenario_lists(5, seed=1)
        patterns = []
        for mu0 in (0.0, 10.0):
            init = Decision(tau=np.full(5, config.tau_min),
                            x=np.zeros(5, dtype=np.int64), mu=np.full(5, mu0))
            decision, trace = baselines.solve("idd", profiles, config, init)
            assert trace.converged
            assert trace.metrics["max_energy_violation"] <= config.energy_tol
            patterns.append(decision.x)
        assert np.array_equal(*patterns)


class TestDBRO:
    def test_final_pattern_is_individually_stable(self):
        profiles, config = scenario_lists(7, seed=9)
        decision, _ = baselines.solve("dbro", profiles, config)
        ev = ScenarioEvaluator(profiles, config)
        br = ev.best_responses(decision.tau, decision.mu, decision.x)
        assert (br == decision.x).all()

    def test_differs_from_jso_somewhere_and_never_beats_it_on_average(self):
        # equilibrium-selection check on the offloading game alone
        diffs, jso_costs, dbro_costs = 0, [], []
        for seed in range(40):
            profiles, config = scenario_lists(6, seed=seed)
            ev = ScenarioEvaluator(profiles, config)
            rng = np.random.default_rng(seed)
            tau = rng.uniform(2.0, 15.0, 6)
            mu = rng.uniform(0.0, 10.0, 6)
            x_jso = np.zeros(6, dtype=np.int64)
            while True:
                x_jso, committed, _ = ev.br_round(tau, mu, x_jso)
                if committed is None:
                    break
            x_dbro = np.zeros(6, dtype=np.int64)
            for _ in range(baselines.DBRO_MAX_SWEEPS):
                changed = False
                for d in range(6):
                    br = int(ev.best_responses(tau, mu, x_dbro)[d])
                    if br != x_dbro[d]:
                        x_dbro[d] = br
                        changed = True
                if not changed:
                    break
            diffs += int(not np.array_equal(x_jso, x_dbro))
            jso_costs.append(ev.system_cost(tau, mu, x_jso))
            dbro_costs.append(ev.system_cost(tau, mu, x_dbro))
        assert diffs >= 1
        assert np.mean(jso_costs) <= np.mean(dbro_costs) + 1e-9


class TestNearSaturationPocket:
    def test_idd_ties_jso_just_below_budget_saturation(self):
        # pinned price-of-anarchy pocket: just below the saturating budget
        # the Nash solution's committed offloaders are individually locked
        # in while the system would prefer fewer, and the isolated-decision
        # baseline's pessimism occasionally lands the better configuration.
        # Per-seed gaps at 4.5 J swing both ways (measured at seeds 0..5:
        # +2.1, +1.1, -6.5, -4.2, +0.5, +0.2), unlike the tight budgets
        # where the joint solver wins every seed.  The acceptance budget
        # grid samples outside the pocket; this test freezes its existence.
        gaps = []
        for seed in range(6):
            profiles_cfg = generate_scenario(10, seed=seed,
                                             overrides={"energy_budget": 4.5})
            profiles, config = list(profiles_cfg.profiles), profiles_cfg.config
            ev = ScenarioEvaluator(profiles, config)
            d_jso, _ = baselines.solve("jso", profiles, config)
            d_idd, _ = baselines.solve("idd", profiles, config)
            gaps.append(ev.achieved_metrics(d_idd.tau, d_idd.x)["avg_maoi"]
                        - ev.achieved_metrics(d_jso.tau, d_jso.x)["avg_maoi"])
        assert min(gaps) < 0 < max(gaps)  # both signs: a statistical tie
        assert abs(float(np.mean(gaps))) < 3.0


class TestJSOA:
    @pytest.mark.parametrize("seed", [2, 10])
    def test_zero_weight_scenario_identical_to_jso(self, seed):
        # with every weight 0 both objectives weigh the plain age, so the
        # two evaluators do the same arithmetic
        profiles, config = scenario_lists(4, seed=seed, energy_budget=2.0,
                                          maoi_weights=(0.0, 0.0, 0.0))
        d_a, t_a = baselines.solve("jso_a", profiles, config)
        d_j, t_j = baselines.solve("jso", profiles, config)
        for a, j in ((d_a.tau, d_j.tau), (d_a.x, d_j.x), (d_a.mu, d_j.mu)):
            assert np.array_equal(a, j)
        assert t_a.costs == t_j.costs

    def test_deterministic(self):
        profiles, config = scenario_lists(5, seed=11, energy_budget=3.0)
        d1, _ = baselines.solve("jso_a", profiles, config)
        d2, _ = baselines.solve("jso_a", profiles, config)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.tau, d2.tau)


class TestFeasibilityAcrossAlgorithms:
    @pytest.mark.parametrize("name", sorted(baselines.ALGORITHMS))
    def test_every_algorithm_returns_feasible_decision(self, name):
        profiles, config = scenario_lists(5, seed=12, energy_budget=2.5)
        decision, trace = baselines.solve(name, profiles, config)
        assert trace.converged
        assert feasible(profiles, config, decision)


class TestReportedMetrics:
    @pytest.mark.parametrize("name", sorted(baselines.ALGORITHMS))
    def test_trace_metrics_equal_a_fresh_evaluators(self, name):
        # the solve's own evaluator (AOI objective for jso_a) reports the
        # same metrics, bit for bit, as a fresh MAoI evaluator
        profiles, config = scenario_lists(6, seed=13, energy_budget=2.5,
                                          lagrange_step=0.5)
        decision, trace = baselines.solve(name, profiles, config)
        fresh = ScenarioEvaluator(profiles, config)
        assert trace.metrics == fresh.achieved_metrics(decision.tau, decision.x)
