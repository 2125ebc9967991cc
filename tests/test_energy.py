import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import DeviceProfile, SystemConfig, as_device_table, sensing_energy


class TestSensingEnergy:
    def test_reference_breakdown(self, profile):
        # image 5mJ + 15pJ * 150528 px, audio (8mW + 2.56mW)*2s, radar 50mW*3s
        e_img = 5e-3 + 15e-12 * 224 * 224 * 3
        e_aud = (8e-3 + 1e-8 * 16_000 * 16 * 1) * 2.0
        e_sig = 50e-3 * 3.0
        assert e_img == pytest.approx(5.00226e-3, rel=1e-5)
        assert e_aud == pytest.approx(21.12e-3)
        assert e_sig == pytest.approx(150e-3)
        assert sensing_energy(profile) == pytest.approx(e_img + e_aud + e_sig)


def computation_energy(profile, config):
    """The evaluator's local computation energy of one profile."""
    return ScenarioEvaluator(as_device_table([profile]), config).e_comp[0]


class TestComputationEnergy:
    def test_reference_total(self, profile, config):
        # 1e-9 J/FLOP * (4 + 10 + 0.648) GFLOP
        assert computation_energy(profile, config) == pytest.approx(14.648)

    def test_zero_coefficient(self, profile):
        cfg = SystemConfig(energy_per_flop=1e-30)
        assert computation_energy(profile, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_linearity_in_image_area(self, config):
        base = computation_energy(DeviceProfile(id=0), config)
        double = computation_energy(DeviceProfile(id=0, img_height=448), config)
        expected_delta = config.energy_per_flop * config.resnet_base_flops
        assert double - base == pytest.approx(expected_delta)


def energies(devices, config, x):
    """Per-update energies of every device under pattern ``x``."""
    return ScenarioEvaluator(devices, config).pattern_state(np.array(x)).energies


def power_draw(profile, config, tau):
    """Average power draw (J/s) of a local device at interval ``tau``."""
    ev = ScenarioEvaluator(as_device_table([profile]), config)
    x, tau = np.array([0]), np.array([tau])
    # energy_violation is the relative overdraw (e / tau - budget) / budget
    return float(ev.energy_violation(tau, x)[0] + 1.0) * profile.energy_budget


class TestBranchEnergies:
    def test_transmission_energy_is_power_times_time(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        x = np.array([1])
        t = ev.trans_times(x)[0]
        assert energies(as_device_table([profile]), config, x)[0] - sensing_energy(profile) == \
            pytest.approx(0.1 * t)

    def test_total_energy_local_branch(self, profile, config):
        e = energies(as_device_table([profile]), config, [0])[0]
        assert e == pytest.approx(sensing_energy(profile) + 14.648)
        assert e == pytest.approx(14.824, rel=1e-4)

    def test_total_energy_offload_branch(self, profile, config):
        e = energies(as_device_table([profile]), config, [1])[0]
        # sensing plus 0.1 W for 2 699 264 bit / (1e6 log2(1 + 1e10)) bit/s
        t = 2_699_264 / (1e6 * math.log2(1 + 1e10))
        assert e == pytest.approx(sensing_energy(profile) + 0.1 * t)
        assert e == pytest.approx(0.18427, rel=1e-3)

    def test_interferer_raises_offload_energy(self, config, two_devices):
        alone = energies(two_devices, config, [1, 0])[0]
        jammed = energies(two_devices, config, [1, 1])[0]
        assert jammed > alone

    def test_local_branch_ignores_others(self, config, two_devices):
        assert energies(two_devices, config, [0, 0])[0] == \
            energies(two_devices, config, [0, 1])[0]

    def test_edge_branch_matches_pattern_state(self, config, two_devices):
        ev = ScenarioEvaluator(two_devices, config)
        x = np.array([1, 1])
        state = ev.pattern_state(x)
        t_off, e_off = ev.edge_branch(ev.trans_times(x))
        assert np.array_equal(e_off, state.energies)
        assert np.array_equal(t_off, state.t_sys)
        assert np.array_equal(e_off, state.e_off)
        assert np.array_equal(t_off, state.t_off)

    def test_device_subsets_are_rows_of_the_full_call(self):
        sc = generate_scenario(6, seed=3)
        ev = ScenarioEvaluator(sc.devices, sc.config)
        x = np.array([1, 0, 1, 1, 0, 0])
        interference = float(x @ ev.rx_power) - x * ev.rx_power
        trans = ev.trans_times_under(interference)
        d = np.array([4, 0, 2, 4, 1])  # out of order, device 4 twice
        cols = ev.edge_columns[:, d]
        for full, rows in [
                (ev.rates_under(interference), ev.rates_under(interference[d], cols)),
                (trans, ev.trans_times_under(interference[d], cols)),
                *zip(ev.edge_branch(trans), ev.edge_branch(trans[d], cols))]:
            assert rows.shape == full[..., d].shape
            assert np.array_equal(rows, full[..., d])

    def test_edge_branch_of_stacked_trans_times(self, config, two_devices):
        ev = ScenarioEvaluator(two_devices, config)
        stack = np.array([[0.05, 0.1], [0.2, 0.4], [1.0, 3.0]])
        t_off, e_off = ev.edge_branch(stack)
        assert t_off.shape == (3, 3, 2) and e_off.shape == (3, 2)
        for k, trans in enumerate(stack):
            t_row, e_row = ev.edge_branch(trans)
            assert np.array_equal(t_off[:, k], t_row)
            assert np.array_equal(e_off[k], e_row)


class TestAvgEnergyRate:
    def test_division_by_interval(self, profile, config):
        e = energies(as_device_table([profile]), config, [0])[0]
        assert power_draw(profile, config, e) == pytest.approx(1.0)

    def test_infeasible_at_minimum_interval(self, profile, config):
        rate = power_draw(profile, config, config.tau_min)
        assert rate == pytest.approx(7.412, rel=1e-3)
        assert rate > profile.energy_budget

    @given(tau=st.floats(0.5, 50.0))
    def test_decreasing_and_convex_in_tau(self, tau):
        profile = DeviceProfile(id=0)
        config = SystemConfig()
        h = 0.1
        lo = power_draw(profile, config, tau)
        mid = power_draw(profile, config, tau + h)
        hi = power_draw(profile, config, tau + 2 * h)
        assert mid < lo
        assert lo + hi > 2 * mid  # midpoint convexity
