import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maoi_edge.metric import (
    OBJECTIVE_AOI,
    OBJECTIVE_MAOI,
    audio_semantic_variation,
    avg_maoi_modality,
    event_factors,
    extract_weights,
    image_dynamism,
    quality_terms,
    roi_ratio,
    signal_dynamics,
)
from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.system_model import DeviceProfile, SystemConfig, sensing_energy


class TestImageAttributes:
    def test_identical_frames_zero(self):
        f = np.full((4, 4), 7.0)
        assert image_dynamism([f, f]) == 0.0

    def test_full_swing(self):
        a, b = np.zeros((2, 2)), np.full((2, 2), 255.0)
        assert image_dynamism([a, b]) == 255.0

    def test_inverted_checkerboard(self):
        a = np.indices((4, 4)).sum(axis=0) % 2 * 255.0
        b = 255.0 - a
        assert image_dynamism([a, b]) == 255.0

    def test_multi_frame_average_of_pairs(self):
        frames = [np.zeros(4), np.full(4, 2.0), np.full(4, 2.0)]
        assert image_dynamism(frames) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            image_dynamism([np.zeros((2, 2))])
        with pytest.raises(ValueError):
            image_dynamism([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_roi_ratio_bounds(self):
        assert roi_ratio(0, 100) == 0.0
        assert roi_ratio(100, 100) == 1.0
        assert roi_ratio(12_544, 50_176) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            roi_ratio(101, 100)
        with pytest.raises(ValueError):
            roi_ratio(0, 0)


class TestAudioSignalAttributes:
    def test_constant_features_zero(self):
        f = np.array([1.0, 2.0])
        assert audio_semantic_variation([f, f, f]) == 0.0

    def test_two_frame_example(self):
        assert audio_semantic_variation([np.array([0.0, 0.0]),
                                         np.array([1.0, 3.0])]) == pytest.approx(2.0)

    def test_three_frame_example(self):
        frames = [np.array([0.0]), np.array([2.0]), np.array([2.0])]
        assert audio_semantic_variation(frames) == pytest.approx(1.0)

    def test_signal_identical_frames(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert signal_dynamics([f, f]) == 0.0

    def test_signal_descriptor_difference(self):
        a = np.array([[0.0]])
        b = np.array([[3.0]])
        assert signal_dynamics([a, b]) == pytest.approx(9.0)

    def test_signal_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            signal_dynamics([np.zeros((0, 2)), np.ones((2, 2))])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 10_000))
    def test_signal_point_permutation_invariance(self, n_pts, n_feat, seed):
        rng = np.random.default_rng(seed)
        frames = [rng.normal(size=(n_pts, n_feat)) for _ in range(3)]
        shuffled = [f[rng.permutation(n_pts)] for f in frames]
        assert signal_dynamics(shuffled) == pytest.approx(signal_dynamics(frames))

    def test_constant_sequences_all_zero(self):
        img = [np.full((3, 3), 9.0)] * 4
        aud = [np.array([1.0, 2.0, 3.0])] * 4
        sig = [np.array([[5.0, 5.0]])] * 4
        assert image_dynamism(img) == 0.0
        assert audio_semantic_variation(aud) == 0.0
        assert signal_dynamics(sig) == 0.0


class TestQualityAndWeights:
    def test_self_normalized(self, profile):
        q_aud, q_sig = quality_terms(profile)
        assert q_aud == pytest.approx(1.0)
        assert q_sig == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["aud_bit_depth", "sig_bit_depth"])
    def test_profile_holds_positive_bit_depths(self, name):
        # quality_terms needs no check of its own: a profile holds positive depths
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            DeviceProfile(id=0, **{name: 0})

    def test_extracted_weights_compose_attributes(self, profile):
        img = [np.zeros((2, 2)), np.full((2, 2), 10.0)]
        aud = [np.array([0.0]), np.array([4.0])]
        sig = [np.array([[0.0]]), np.array([[2.0]])]
        w = extract_weights(profile, img, roi_area=0.25 * 224 * 224,
                            audio_frames=aud, signal_frames=sig)
        assert w == pytest.approx((10.0 + 0.25, 1.0 + 4.0, 4.0 + 1.0))
        assert DeviceProfile(id=1, maoi_weights=w).maoi_weights == w


class TestGrowthModel:
    def test_pmf_two_points(self):
        # slope 1 with no event in the interval, 1 + psi with at least one
        p_quiet = math.exp(-0.8 * 2.0)
        assert event_factors(2.0, 0.8, 2.0) == pytest.approx(
            1.0 * p_quiet + 3.0 * (1.0 - p_quiet))

    def test_expectation_weight_free(self):
        assert event_factors(0.0, 0.8, 100.0) == 1.0

    def test_expectation_short_interval_limit(self):
        assert event_factors(5.0, 0.8, 1e-12) == pytest.approx(1.0)

    def test_expectation_reference_value(self):
        assert event_factors(1.0, 0.8, 2.0) == pytest.approx(1.7981035, rel=1e-6)

    def test_broadcast_matches_pointwise(self):
        # the evaluator's (devices, modalities) call gives every entry the
        # bits of the scalar call the validation table makes
        psi = np.array([[0.0, 1.0, 5.0], [0.5, 1.5, 2.5]])
        lam = np.array([0.2, 0.8, 2.0])
        tau = np.array([2.0, 10.0])
        t_sys = np.array([[0.0, 4.0, 1.5], [3.0, 0.25, 7.0]])
        phi = event_factors(psi, lam, tau[:, None])
        ages = avg_maoi_modality(psi, lam, tau[:, None], t_sys)
        assert phi.shape == ages.shape == (2, 3)
        for d in range(2):
            for s in range(3):
                args = (psi[d, s], lam[s], tau[d])
                assert phi[d, s] == event_factors(*args)
                assert ages[d, s] == avg_maoi_modality(*args, t_sys[d, s])


class TestClosedForm:
    def test_weight_free_reduces_to_classical_age(self):
        assert avg_maoi_modality(0.0, 0.8, 2.0, 4.0) == pytest.approx(1.0 + 4.0)
        assert avg_maoi_modality(0.0, 0.8, 2.0, 0.0) == pytest.approx(1.0)

    def test_reference_value(self):
        assert avg_maoi_modality(1.0, 0.8, 2.0, 4.0) == pytest.approx(8.990517, rel=1e-6)

    @given(psi=st.floats(0.01, 5.0), lam=st.floats(0.05, 3.0),
           tau=st.floats(0.1, 30.0), t_sys=st.floats(0.0, 30.0))
    def test_strictly_increasing_in_t_sys_and_psi(self, psi, lam, tau, t_sys):
        base = avg_maoi_modality(psi, lam, tau, t_sys)
        assert avg_maoi_modality(psi, lam, tau, t_sys + 1.0) > base
        assert avg_maoi_modality(psi + 0.5, lam, tau, t_sys) > base

    @given(psi=st.floats(0.0, 5.0), lam=st.floats(0.05, 3.0),
           tau=st.floats(0.5, 30.0), t_sys=st.floats(0.0, 30.0))
    def test_strictly_increasing_in_tau(self, psi, lam, tau, t_sys):
        # with no energy penalty the age always grows with the interval
        assert avg_maoi_modality(psi, lam, tau + 0.25, t_sys) > \
            avg_maoi_modality(psi, lam, tau, t_sys)


# The evaluator's device ages and penalized costs, checked against the
# paper's closed form at the default device's local system times: no wait,
# 4 GFLOP at 1 GFLOP/s for the image; 2 s of audio after 4 s of wait plus
# 10 GFLOP; 3 s of radar after 14 s of wait plus 0.648 GFLOP.
LOCAL_T_SYS = (4.0, 16.0, 17.648)
LOCAL_ENERGY = 14.648  # J of local computation, plus sensing_energy


def device_costs(profiles, config, tau, mu, x, objective=OBJECTIVE_MAOI):
    ev = ScenarioEvaluator(profiles, config, objective)
    return ev.device_costs(np.array(tau, dtype=float), np.array(mu, dtype=float),
                           np.array(x))


def closed_form_age(profile, config, tau, t_sys=LOCAL_T_SYS):
    return sum(avg_maoi_modality(psi, lam, tau, t)
               for psi, lam, t in zip(profile.maoi_weights, config.event_rates, t_sys))


class TestDeviceAggregation:
    def test_weight_free_device_is_plain_age_sum(self, profile, config):
        p0 = DeviceProfile(id=0, maoi_weights=(0.0, 0.0, 0.0))
        expected = (1 + 4.0) + (1 + 16.0) + (1 + 17.648)
        assert device_costs([p0], config, [2.0], [0.0], [0])[0] == \
            pytest.approx(expected)

    def test_additivity_over_modalities(self, profile, config):
        parts = [avg_maoi_modality(profile.maoi_weights[s], config.event_rates[s],
                                   3.0, LOCAL_T_SYS[s]) for s in range(3)]
        assert device_costs([profile], config, [3.0], [0.0], [0])[0] == \
            pytest.approx(sum(parts))
        metrics = ScenarioEvaluator([profile], config).achieved_metrics(
            np.array([3.0]), np.array([0]))
        for name, part in zip(("image", "audio", "signal"), parts):
            assert metrics[f"maoi_{name}"] == pytest.approx(part)
        assert metrics["avg_maoi"] == pytest.approx(sum(parts))

    def test_aoi_objective_zeroes_weights_in_age_only(self, profile, config):
        aoi = device_costs([profile], config, [2.0], [0.0], [0], OBJECTIVE_AOI)[0]
        assert aoi == pytest.approx(sum(1.0 + t for t in LOCAL_T_SYS))


class TestPenalizedCost:
    def test_zero_multiplier(self, profile, config):
        assert device_costs([profile], config, [2.0], [0.0], [0])[0] == \
            pytest.approx(closed_form_age(profile, config, 2.0))

    def test_exactly_feasible_no_penalty(self, config):
        p = DeviceProfile(id=0)
        e = sensing_energy(p) + LOCAL_ENERGY
        tau = e / p.energy_budget  # draws exactly the budget
        for mu in (0.0, 1.0, 10.0):
            assert device_costs([p], config, [tau], [mu], [0])[0] == \
                pytest.approx(closed_form_age(p, config, tau))

    def test_penalty_arithmetic(self, config):
        p = DeviceProfile(id=0)
        e = sensing_energy(p) + LOCAL_ENERGY
        tau = e / (p.energy_budget + 2.0)  # overdraw of exactly 2 J/s
        age = closed_form_age(p, config, tau)
        assert device_costs([p], config, [tau], [1.0], [0])[0] == \
            pytest.approx(age + 2.0)


class TestSystemCost:
    def test_single_device_reduces_to_penalized(self, profile, config):
        ev = ScenarioEvaluator([profile], config)
        e = sensing_energy(profile) + LOCAL_ENERGY
        expected = closed_form_age(profile, config, 3.0) + 0.7 * (e / 3.0 - 1.0)
        assert ev.system_cost(np.array([3.0]), np.array([0.7]), np.array([0])) == \
            pytest.approx(expected)

    def test_objectives_coincide_at_zero_weights(self, config):
        ps = [DeviceProfile(id=i, maoi_weights=(0.0, 0.0, 0.0)) for i in range(2)]
        args = (np.array([2.0, 3.0]), np.array([0.1, 0.2]), np.array([0, 1]))
        assert ScenarioEvaluator(ps, config, OBJECTIVE_MAOI).system_cost(*args) == \
            pytest.approx(ScenarioEvaluator(ps, config, OBJECTIVE_AOI).system_cost(*args))

    def test_two_local_devices_decouple(self, config, two_profiles):
        total = device_costs(two_profiles, config, [2.0, 5.0], [0.3, 0.4], [0, 0]).sum()
        solo = sum(device_costs([p], config, [t], [m], [0])[0]
                   for p, t, m in zip(two_profiles, [2.0, 5.0], [0.3, 0.4]))
        assert total == pytest.approx(solo)

    @given(tau=st.floats(2.0, 20.0), mu=st.floats(0.0, 5.0))
    def test_weighted_cost_dominates_plain(self, tau, mu):
        p = DeviceProfile(id=0, maoi_weights=(0.5, 1.0, 1.5))
        config = SystemConfig()
        hi = device_costs([p], config, [tau], [mu], [0], OBJECTIVE_MAOI)[0]
        lo = device_costs([p], config, [tau], [mu], [0], OBJECTIVE_AOI)[0]
        assert hi >= lo
