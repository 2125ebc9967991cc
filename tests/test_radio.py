"""The evaluator's uplink model: SINR rate and transmission time.

Every offloading device sees the received power of the other offloaders as
interference, so a device's own rate never depends on its own flag.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maoi_edge.optimizer import ScenarioEvaluator, as_offload_vector
from maoi_edge.system_model import DeviceProfile, SystemConfig


def make_profiles(gains, power=0.1):
    return [DeviceProfile(id=i, tx_power=power, channel_gain=g)
            for i, g in enumerate(gains)]


def rate(d, profiles, config, x):
    return ScenarioEvaluator(profiles, config).rates(np.array(x))[d]


def trans_time(d, profiles, config, x):
    return ScenarioEvaluator(profiles, config).trans_times(np.array(x))[d]


class TestOffloadVector:
    def test_accepts_binary(self):
        assert as_offload_vector([0, 1, 1], 3).tolist() == [0, 1, 1]

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_offload_vector([0, 1], 3)

    # fractions are rejected before the int cast, which would truncate
    # [0.5, 1.7, 0] to [0, 1, 0]
    @pytest.mark.parametrize("x", [[0, 2], [0.5, 1.7, 0], [0, 1, np.nan], [0, 1, -0.0001]])
    def test_rejects_nonbinary(self, x):
        with pytest.raises(ValueError, match="0 or 1"):
            as_offload_vector(x, len(x))

    def test_exact_float_flags_become_ints(self):
        out = as_offload_vector(np.array([1.0, 0.0, 1.0]), 3)
        assert out.dtype == np.int64
        assert out.tolist() == [1, 0, 1]


class TestUplinkRate:
    def test_single_device_reference_value(self, config):
        profiles = make_profiles([1e-2])
        # SINR = 0.1 * 0.01 / 1e-13 = 1e10
        expected = 1e6 * math.log2(1 + 1e10)
        assert rate(0, profiles, config, [1]) == pytest.approx(expected)
        assert expected == pytest.approx(33.22e6, rel=1e-3)

    def test_rate_vanishes_with_infinite_noise(self):
        profiles = make_profiles([1e-2])
        cfg = SystemConfig(noise_power=1e30)
        assert rate(0, profiles, cfg, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_two_identical_offloaders_below_bandwidth(self, config):
        profiles = make_profiles([1e-2, 1e-2])
        r = rate(0, profiles, config, [1, 1])
        sinr = 0.1 * 1e-2 / (config.noise_power + 0.1 * 1e-2)
        assert sinr < 1
        assert r == pytest.approx(config.bandwidth * math.log2(1 + sinr))
        assert r < config.bandwidth

    def test_own_flag_does_not_matter(self, config):
        # the evaluator forms the interference as the total received power
        # minus the device's own, so the two agree to rounding, not bit for bit
        profiles = make_profiles([1e-2, 2e-3, 5e-3])
        assert rate(0, profiles, config, [0, 1, 0]) == \
            pytest.approx(rate(0, profiles, config, [1, 1, 0]), rel=1e-12)

    def test_local_devices_cause_no_interference(self, config):
        profiles = make_profiles([1e-2, 2e-3])
        ev = ScenarioEvaluator(profiles, config)
        assert ev.rates(np.array([1, 0]))[0] == ev.rates_under(np.zeros(2))[0]
        alone = rate(0, make_profiles([1e-2]), config, [1])
        assert rate(0, profiles, config, [1, 0]) == pytest.approx(alone)

    def test_stacked_patterns_match_single_patterns(self, config):
        profiles = make_profiles([1e-2, 2e-3, 5e-3])
        ev = ScenarioEvaluator(profiles, config)
        patterns = np.array([[0, 1, 0], [1, 1, 1], [0, 0, 0]])
        stacked = ev.rates(patterns)
        for row, x in zip(stacked, patterns):
            assert np.array_equal(row, ev.rates(x))

    @settings(max_examples=50, deadline=None)
    @given(gains=st.lists(st.floats(1e-4, 1e-1), min_size=3, max_size=6),
           d=st.integers(0, 2))
    def test_extra_interferer_strictly_lowers_rate(self, gains, d):
        profiles = make_profiles(gains)
        config = SystemConfig()
        x = np.zeros(len(gains), dtype=int)
        x[d] = 1
        j = (d + 1) % len(gains)
        base = rate(d, profiles, config, x)
        x[j] = 1
        assert rate(d, profiles, config, x) < base


class TestTransmissionTime:
    def test_reference_payload_over_reference_rate(self, config):
        profiles = make_profiles([1e-2])
        t = trans_time(0, profiles, config, [1])
        assert t == pytest.approx(2_699_264 / (1e6 * math.log2(1 + 1e10)))
        assert t == pytest.approx(0.0813, rel=2e-3)

    def test_rate_doubling_halves_time(self):
        profiles = make_profiles([1e-2])
        t1 = trans_time(0, profiles, SystemConfig(bandwidth=1e6), [1])
        t2 = trans_time(0, profiles, SystemConfig(bandwidth=2e6), [1])
        assert t2 == pytest.approx(t1 / 2)

    def test_interferer_strictly_increases_time(self, config):
        profiles = make_profiles([1e-2, 5e-3])
        alone = trans_time(0, profiles, config, [1, 0])
        jammed = trans_time(0, profiles, config, [1, 1])
        assert jammed > alone

    def test_monotone_in_payload(self, config):
        small = make_profiles([1e-2])
        big = [DeviceProfile(id=0, channel_gain=1e-2, img_height=448)]
        assert trans_time(0, big, config, [1]) > trans_time(0, small, config, [1])

    def test_assumed_interference_matches_a_real_pattern(self, config):
        # the interference device 0 sees when device 1 offloads
        profiles = make_profiles([1e-2, 5e-3])
        ev = ScenarioEvaluator(profiles, config)
        assumed = np.array([0.1 * 5e-3, 0.1 * 1e-2])
        assert ev.trans_times_under(assumed)[0] == \
            pytest.approx(trans_time(0, profiles, config, [1, 1]))
