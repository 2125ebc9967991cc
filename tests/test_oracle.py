import itertools
import math

import numpy as np
import pytest

from helpers import reference_simulate_avg_maoi
from maoi_edge import baselines, experiments
from maoi_edge.metric import avg_maoi_modality
from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.oracle import TrajectoryStats, simulate_avg_maoi, simulate_avg_maoi_device
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import DeviceTable, as_device_table


class TestStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryStats(mean_maoi=1.0, std_error=-1.0, n_updates=10)
        with pytest.raises(ValueError):
            TrajectoryStats(mean_maoi=1.0, std_error=0.0, n_updates=0)
        with pytest.raises(ValueError, match="std_error"):
            TrajectoryStats(mean_maoi=1.0, std_error=math.nan, n_updates=10)

    def test_ci_and_bracketing(self):
        s = TrajectoryStats(mean_maoi=10.0, std_error=1.0, n_updates=100)
        lo, hi = s.ci()
        assert lo == pytest.approx(10 - 2.576)
        assert hi == pytest.approx(10 + 2.576)
        assert s.brackets(12.0)
        assert not s.brackets(13.0)

    @pytest.mark.parametrize("z", [0.0, -1.0, float("nan")])
    def test_non_positive_z_rejected(self, z):
        s = TrajectoryStats(mean_maoi=54.0, std_error=1e-5, n_updates=1000)
        with pytest.raises(ValueError, match="z must be > 0"):
            s.ci(z)
        with pytest.raises(ValueError, match="z must be > 0"):
            s.brackets(54.0, z)


class TestModalitySimulation:
    def test_weight_free_is_exact_with_zero_variance(self):
        s = simulate_avg_maoi(0.0, 0.8, 2.0, 4.0, n_updates=1000, seed=1)
        assert s.mean_maoi == pytest.approx(2.0 / 2 + 4.0, abs=1e-12)
        assert s.std_error == pytest.approx(0.0, abs=1e-12)

    def test_certain_event_limit(self):
        # lambda*tau huge -> every interval elevated -> deterministic value
        s = simulate_avg_maoi(2.0, 1e9, 2.0, 4.0, n_updates=1000, seed=1)
        assert s.mean_maoi == pytest.approx(3.0 * (1.0 + 4.0), abs=1e-9)
        assert s.std_error == pytest.approx(0.0, abs=1e-12)

    def test_brackets_reference_closed_form(self):
        closed = avg_maoi_modality(1.0, 0.8, 2.0, 4.0)
        s = simulate_avg_maoi(1.0, 0.8, 2.0, 4.0, n_updates=100_000, seed=7)
        assert s.mean_maoi == pytest.approx(closed, rel=0.01)
        assert s.brackets(closed, z=3.0)

    def test_reproducible_bit_for_bit(self):
        a = simulate_avg_maoi(1.5, 0.5, 3.0, 2.0, n_updates=5000, seed=42)
        b = simulate_avg_maoi(1.5, 0.5, 3.0, 2.0, n_updates=5000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate_avg_maoi(1.5, 0.5, 3.0, 2.0, n_updates=5000, seed=1)
        b = simulate_avg_maoi(1.5, 0.5, 3.0, 2.0, n_updates=5000, seed=2)
        assert a.mean_maoi != b.mean_maoi

    INVALID = [  # (psi, lam, tau, t_sys, n_updates, argument named in the error)
        (1.0, 0.8, 0.0, 1.0, 100, "tau"),
        (1.0, 0.8, math.nan, 1.0, 100, "tau"),
        (1.0, 0.8, math.inf, 1.0, 100, "tau"),
        (1.0, math.nan, 2.0, 1.0, 100, "lam"),
        (1.0, -0.8, 2.0, 1.0, 100, "lam"),
        (1.0, 0.0, 2.0, 1.0, 100, "lam"),
        (1.0, 0.8, 2.0, -1.0, 100, "t_sys"),
        (1.0, 0.8, 2.0, math.nan, 100, "t_sys"),
        (-3.0, 0.8, 2.0, 1.0, 100, "psi"),
        (math.nan, 0.8, 2.0, 1.0, 100, "psi"),
        (math.inf, 0.8, 2.0, 1.0, 100, "psi"),
        (1.0, 0.8, 2.0, 1.0, 1, "n_updates"),
        (1.0, 0.8, 2.0, 1.0, 100.0, "n_updates"),
        (1.0, 0.8, 2.0, 1.0, True, "n_updates"),
    ]

    def test_input_validation(self):
        for *args, name in self.INVALID:
            with pytest.raises(ValueError, match=name):
                simulate_avg_maoi(*args, seed=0)


class TestAgainstElementwiseForm:
    """The four-value table returns the bits of the slope-array form."""

    GRID = list(itertools.product(experiments.ORACLE_LAMBDAS, experiments.ORACLE_PSIS,
                                  experiments.ORACLE_TAUS, experiments.ORACLE_T_SYS))

    @pytest.mark.parametrize("n_updates", [2, 3, 199, 200, 201, 20_000])
    def test_validation_grid(self, n_updates):
        for i, (lam, psi, tau, t_sys) in enumerate(self.GRID):
            args = (psi, lam, tau, t_sys, n_updates, [5, i])
            assert simulate_avg_maoi(*args) == reference_simulate_avg_maoi(*args), i

    def test_single_large_run(self):
        args = (5.0, 0.2, 5.0, 4.0, 1_000_000, 3)
        assert simulate_avg_maoi(*args) == reference_simulate_avg_maoi(*args)


class TestDeviceSimulation:
    def test_weight_free_device_exact(self, config):
        ev = ScenarioEvaluator(DeviceTable(1, maoi_weights=(0.0, 0.0, 0.0)), config)
        s = simulate_avg_maoi_device(ev, 0, 2.0, [0], 1000, seed=3)
        expected = (1 + 4.0) + (1 + 16.0) + (1 + 17.648)
        assert s.mean_maoi == pytest.approx(expected, abs=1e-10)
        assert s.std_error == pytest.approx(0.0, abs=1e-12)

    def test_brackets_device_closed_form(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        for x in ([0], [1]):
            closed = ev.achieved_metrics(np.array([2.0]), np.array(x))["avg_maoi"]
            s = simulate_avg_maoi_device(ev, 0, 2.0, x, 100_000, seed=11)
            assert s.brackets(closed, z=3.0), x
        # a flag that is not 0/1, or a device index out of range, is no pattern
        for d, x, match in ((0, [0.7], "entries must be 0 or 1"),
                            (0, [2], "entries must be 0 or 1"),
                            (-1, [0], "device index -1"), (1, [0], "device index 1")):
            with pytest.raises(ValueError, match=match):
                simulate_avg_maoi_device(ev, d, 2.0, x, 1000, seed=11)

    def test_error_adds_in_quadrature(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        s = simulate_avg_maoi_device(ev, 0, 2.0, [0], 4000, seed=5)
        parts = [simulate_avg_maoi(1.0, 0.8, 2.0, t, 4000, seed=[5, m])
                 for m, t in enumerate((4.0, 16.0, 17.648))]
        assert s.std_error > 0
        assert s.std_error == pytest.approx(math.sqrt(sum(p.std_error**2 for p in parts)))
        assert s.n_updates == 4000


class TestSolverPath:
    """The oracle against the evaluator's closed form at JSO's decisions."""

    @pytest.mark.parametrize("n_devices, seed", [(5, 0), (5, 1), (10, 2)])
    def test_brackets_every_device(self, n_devices, seed):
        sc = generate_scenario(n_devices, seed)
        decision, trace = baselines.solve("jso", sc.devices, sc.config)
        assert decision.x.any()  # the edge branch is exercised
        ev = ScenarioEvaluator(sc.devices, sc.config)
        # with zero multipliers the penalized cost is the device's age
        closed = ev.device_costs(decision.tau, np.zeros(n_devices), decision.x)
        assert closed.mean() == pytest.approx(trace.metrics["avg_maoi"], rel=1e-12)
        for d in range(n_devices):
            s = simulate_avg_maoi_device(ev, d, float(decision.tau[d]), decision.x,
                                         100_000, seed=d)
            assert s.brackets(float(closed[d]), z=4.0), d
