import math

import numpy as np
import pytest

from helpers import dump_config_document, reference_positions, same_devices
from maoi_edge import experiments
from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.scenario import (
    AREA_SIZE,
    DEFAULT_PSI_RANGE,
    REFERENCE_DISTANCE,
    _device_uniforms,
    channel_gain_from_distance,
    generate_scenario,
    with_audio_weight_increment,
)
from maoi_edge.system_model import (
    DeviceProfile,
    DeviceTable,
    ProfileColumns,
    as_device_table,
    load_config_document,
    profile_from_mapping,
    total_data_bits,
)


class TestChannelGain:
    def test_reference_distance_value(self):
        assert channel_gain_from_distance(10.0) == pytest.approx(1e-2)

    def test_inverse_square_beyond_reference(self):
        assert channel_gain_from_distance(20.0) == pytest.approx(1 / 400)

    def test_flat_inside_reference(self):
        assert channel_gain_from_distance(3.0) == channel_gain_from_distance(10.0)

    def test_custom_exponent(self):
        assert channel_gain_from_distance(20.0, delta=3.0) == pytest.approx(20.0**-3)

    def test_requires_positive_distance(self):
        with pytest.raises(ValueError):
            channel_gain_from_distance(0.0)


class TestGeneration:
    def test_deterministic(self):
        a = generate_scenario(6, seed=42)
        b = generate_scenario(6, seed=42)
        assert a.profiles == b.profiles
        assert np.array_equal(a.positions, b.positions)

    def test_equality_is_identity_and_contents_compare_by_columns(self):
        a = generate_scenario(3, seed=0)
        b = generate_scenario(3, seed=0)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, a, b}) == 2
        for column, other in zip(a.devices.columns, b.devices.columns):
            assert np.array_equal(column, other)

    def test_seed_changes_draws(self):
        a = generate_scenario(6, seed=1)
        b = generate_scenario(6, seed=2)
        assert a.profiles != b.profiles

    def test_positions_keyed_by_device_index(self):
        small = generate_scenario(4, seed=7)
        large = generate_scenario(9, seed=7)
        np.testing.assert_array_equal(small.positions, large.positions[:4])

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**100 + 11])
    @pytest.mark.parametrize("n", [1, 7, 320])
    def test_one_pass_draw_is_numpys_per_device_draw(self, seed, n):
        # seeds of one to four 32-bit words; 2**64 and up have entropy
        # words past SeedSequence's 4-word pool
        positions = -AREA_SIZE / 2 + AREA_SIZE * _device_uniforms(seed, n)
        np.testing.assert_array_equal(positions, reference_positions(seed, n))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_positions_and_gains_are_the_per_device_formulas(self, seed):
        sc = generate_scenario(320, seed=seed)
        reference = reference_positions(seed, 320)
        np.testing.assert_array_equal(sc.positions, reference)
        assert [p.channel_gain for p in sc.profiles] == [
            channel_gain_from_distance(float(np.hypot(*pos))) for pos in reference]

    def test_positions_are_read_only(self):
        sc = generate_scenario(3, seed=0)
        bumped = with_audio_weight_increment(sc, 0.5)  # shares the array
        for positions in (sc.positions, bumped.positions):
            with pytest.raises(ValueError, match="read-only"):
                positions[0, 0] = 0.0

    @pytest.mark.parametrize("seed, error, match", [
        (-1, ValueError, "seed must be a non-negative integer, got -1"),
        (1.5, TypeError, "cannot be interpreted as an integer"),
        ("3", TypeError, "cannot be interpreted as an integer"),
        (True, TypeError, "not a bool"),
        (False, TypeError, "not a bool"),
        (np.bool_(True), TypeError, "cannot be interpreted as an integer"),
    ])
    def test_bad_seed_rejected(self, seed, error, match):
        with pytest.raises(error, match=match):
            generate_scenario(2, seed=seed)

    def test_numpy_integer_seed_matches_int(self):
        a = generate_scenario(4, seed=np.int64(9))
        b = generate_scenario(4, seed=9)
        assert a.profiles == b.profiles == generate_scenario(np.int64(4), seed=9).profiles
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_positions_inside_square(self):
        sc = generate_scenario(50, seed=3)
        assert (np.abs(sc.positions) <= AREA_SIZE / 2).all()

    def test_gains_follow_geometry(self):
        sc = generate_scenario(20, seed=5)
        for p, pos in zip(sc.profiles, sc.positions):
            h = float(np.hypot(*pos))
            assert p.channel_gain == pytest.approx(
                max(h, REFERENCE_DISTANCE) ** -2)

    @pytest.mark.parametrize("delta", [2.0, 2.5, 3.3])
    def test_gains_are_the_scalar_formula_exactly(self, delta):
        # an array power over all devices rounds differently on ~5% of them
        sc = generate_scenario(320, seed=0, overrides={"path_loss_exponent": delta})
        for p, pos in zip(sc.profiles, sc.positions):
            assert p.channel_gain == channel_gain_from_distance(
                float(np.hypot(*pos)), delta)

    def test_weights_stratified_uniform(self):
        sc = generate_scenario(10, seed=0)
        psi = np.array([p.maoi_weights for p in sc.profiles])
        lo, hi = DEFAULT_PSI_RANGE
        assert (psi >= lo).all() and (psi <= hi).all()
        # one draw per equal-width stratum and modality
        for s in range(3):
            strata = np.floor((np.sort(psi[:, s]) - lo) / (hi - lo) * 10)
            assert strata.tolist() == list(range(10))

    @pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, "3", None, True])
    def test_bad_device_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"d_count must be an integer >= 1, got {count!r}"):
            generate_scenario(count, seed=0)
        with pytest.raises(ValueError, match=f"n_devices must be an integer >= 1, got {count!r}"):
            DeviceTable(count)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown override"):
            generate_scenario(2, seed=0, overrides={"bandwidht": 1e6})

    def test_overrides_reach_config_devices_and_draws(self):
        sc = generate_scenario(3, seed=0, overrides={
            "bandwidth": 5e6, "energy_budget": 2.5,
            "psi_range": (2.0, 3.0), "path_loss_exponent": 3.0,
        })
        assert sc.config.bandwidth == 5e6
        assert all(p.energy_budget == 2.5 for p in sc.profiles)
        psi = np.array([p.maoi_weights for p in sc.profiles])
        assert (psi >= 2.0).all() and (psi <= 3.0).all()
        for p, pos in zip(sc.profiles, sc.positions):
            h = max(float(np.hypot(*pos)), REFERENCE_DISTANCE)
            assert p.channel_gain == pytest.approx(h**-3)

    def test_exponent_form_strings_coerced(self):
        sc = generate_scenario(2, seed=0, overrides={
            "capacity_threshold": "3e7", "energy_budget": "2e0"})
        assert sc.config.capacity_threshold == 3e7
        assert all(p.energy_budget == 2.0 for p in sc.profiles)

    def test_generator_only_fields_coerced(self):
        sc = generate_scenario(3, seed=0, overrides={
            "psi_range": ["2e0", 3.0], "path_loss_exponent": "3e0"})
        psi = np.array([p.maoi_weights for p in sc.profiles])
        assert (psi >= 2.0).all() and (psi <= 3.0).all()
        h = max(float(np.hypot(*sc.positions[0])), REFERENCE_DISTANCE)
        assert sc.profiles[0].channel_gain == pytest.approx(h**-3)

    @pytest.mark.parametrize("psi_range", [
        1, [1.0], [1.0, 2.0, 3.0], [2.0, 1.0], [-0.5, 1.0], [0.5, "inf"],
        ["nan", 1.0], [None, 1.0], {"lo": 1.0},
    ])
    def test_bad_psi_range_rejected(self, psi_range):
        with pytest.raises(ValueError, match="psi_range"):
            generate_scenario(2, seed=0, overrides={"psi_range": psi_range})

    @pytest.mark.parametrize("delta", [-2.0, 0, float("nan"), float("inf"), True])
    def test_bad_path_loss_exponent_rejected(self, delta):
        with pytest.raises(ValueError, match="path_loss_exponent"):
            generate_scenario(2, seed=0, overrides={"path_loss_exponent": delta})

    @pytest.mark.parametrize("field, value", [
        ("capacity_threshold", True), ("max_outer_iters", False),
        ("energy_budget", True), ("event_rates", [0.8, True, 0.8]),
        ("maoi_weights", [1.0, 1.0, False]), ("psi_range", [True, 2.0]),
    ])
    def test_boolean_numbers_rejected(self, field, value):
        # YAML reads on/yes/true as True, which Python would count as 1
        with pytest.raises(ValueError, match=f"{field}: expected a number, got (True|False)"):
            generate_scenario(2, seed=0, overrides={field: value})

    def test_degenerate_psi_range_fixes_the_weights(self):
        sc = generate_scenario(3, seed=0, overrides={"psi_range": [0.0, 0.0]})
        assert all(p.maoi_weights == (0.0, 0.0, 0.0) for p in sc.profiles)

    def test_config_document_roundtrip(self, tmp_path):
        # drawn weights are stored as plain floats, which YAML can write
        sc = generate_scenario(3, seed=0)
        path = tmp_path / "generated.yaml"
        dump_config_document(list(sc.profiles), sc.config, path)
        devices, config = load_config_document(path)
        assert same_devices(devices, sc.devices) and config == sc.config


class TestAudioWeightIncrement:
    def test_additive_on_audio_only(self):
        sc = generate_scenario(4, seed=1)
        bumped = with_audio_weight_increment(sc, 0.75)
        for before, after in zip(sc.profiles, bumped.profiles):
            assert after.maoi_weights[0] == before.maoi_weights[0]
            assert after.maoi_weights[1] == pytest.approx(before.maoi_weights[1] + 0.75)
            assert after.maoi_weights[2] == before.maoi_weights[2]

    def test_zero_increment_is_identity(self):
        sc = generate_scenario(3, seed=2)
        assert with_audio_weight_increment(sc, 0.0).profiles == sc.profiles

    def test_negative_increment_rejected(self):
        sc = generate_scenario(2, seed=0)
        with pytest.raises(ValueError):
            with_audio_weight_increment(sc, -0.5)

    def test_nan_increment_fails_the_weight_rule(self):
        sc = generate_scenario(2, seed=0)
        with pytest.raises(ValueError, match="maoi_weights must be 3 values >= 0"):
            with_audio_weight_increment(sc, math.nan)


class TestDeviceTable:
    """The generator fills a validated column table and builds no profile."""

    @pytest.mark.parametrize("overrides", [
        {}, {"path_loss_exponent": 2.5}, {"path_loss_exponent": 3.3},
        {"maoi_weights": [0.5, 2.0, 1.0]}, {"psi_range": [0.0, 4.0], "tx_power": 0.2},
    ], ids=["default", "delta-2.5", "delta-3.3", "fixed-weights", "psi-0-4-tx"])
    @pytest.mark.parametrize("n_devices", [1, 2, 5, 20, 80, 320])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_columns_are_the_profiles_columns(self, overrides, n_devices, seed):
        sc = generate_scenario(n_devices, seed, overrides)
        assert len(sc.devices) == n_devices
        expected = as_device_table(sc.profiles).columns
        for name, column, reference in zip(ProfileColumns._fields, sc.devices.columns,
                                           expected):
            assert column.dtype == np.float64, name
            assert column.shape == reference.shape, name
            assert column.tobytes() == reference.tobytes(), name
            assert not column.flags.writeable, name

    @pytest.mark.parametrize("overrides, message", [
        ({"tx_power": 0}, "tx_power must be > 0, got 0"),
        ({"energy_budget": math.nan}, "energy_budget must be > 0, got nan"),
        ({"img_height": 224.5}, "img_height must be an integer, got 224.5"),
        ({"aud_duration": 1.00001}, "is not an integer sample count"),
        ({"sig_frame_rate": 1e300, "sig_duration": 1e300},
         "sig_frame_rate*sig_duration = inf is not a finite frame count"),
        ({"maoi_weights": [1, -0.1, 1]}, "maoi_weights must be 3 values >= 0, got (1, -0.1, 1)"),
    ])
    def test_shared_values_fail_as_a_profile_does(self, overrides, message):
        with pytest.raises(ValueError) as profile_error:
            profile_from_mapping({"id": 0, **overrides})
        with pytest.raises(ValueError) as generator_error:
            generate_scenario(3, seed=0, overrides=overrides)
        assert str(generator_error.value) == str(profile_error.value)
        assert message in str(generator_error.value)

    def test_per_device_values_fail_naming_the_first_bad_device(self):
        with pytest.raises(ValueError, match="channel_gain must be > 0, got 0.0$"):
            DeviceTable(3, channel_gain=np.array([1e-2, 0.0, -1.0]))
        weights = np.ones((3, 3))
        weights[2, 1] = math.nan
        with pytest.raises(ValueError, match=r"maoi_weights .* got \[1.0, nan, 1.0\]$"):
            DeviceTable(3, maoi_weights=weights)
        with pytest.raises(ValueError, match="n_devices must be an integer >= 1, got 0"):
            as_device_table([])

    def test_unset_fields_take_the_profile_defaults(self):
        table = DeviceTable(2)
        rows = [DeviceProfile(id=i, **row._asdict()) for i, row in enumerate(table)]
        assert rows == [DeviceProfile(id=0), DeviceProfile(id=1)]
        assert as_device_table(table) is table

    def test_generation_and_a_sweep_task_build_no_profile(self, monkeypatch):
        built = []
        post_init = DeviceProfile.__post_init__

        def counted(self):
            built.append(self.id)
            post_init(self)

        monkeypatch.setattr(DeviceProfile, "__post_init__", counted)
        sc = generate_scenario(320, 0)
        spec = experiments.SweepSpec(param="device_count", grid=(20.0,),
                                     algorithms=("fmi",), seeds=(0,))
        experiments.run_sweep(spec)
        assert built == []
        # what a caller of ``baselines.solve`` may read of the devices it passes
        assert len(sc.devices) == 320
        assert [total_data_bits(p) for p in sc.devices] == \
            ScenarioEvaluator(sc.devices, sc.config).payload.tolist()
        assert built == []
        assert len(sc.profiles) == 320 and sc.profiles is sc.profiles
        assert len(built) == 320
