import math
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from helpers import (
    assert_one_line_parse_error,
    data_size_bits,
    dump_config_document,
    same_devices,
    schedule_order,
)
from maoi_edge import optimizer, system_model
from maoi_edge.cli import _parse_overrides
from maoi_edge.metric import OBJECTIVE_AOI, OBJECTIVE_MAOI
from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import (
    CONFIG_FIELD_TYPES,
    MODALITIES,
    DeviceProfile,
    DeviceTable,
    ModalityKind,
    ProfileColumns,
    SystemConfig,
    as_device_table,
    compute_flops,
    config_from_mapping,
    load_config_document,
    local_waiting_time,
    parse_settings,
    profile_from_mapping,
    sensing_energy,
    sensing_time,
    served_ahead,
    total_data_bits,
)

IMG, AUD, SIG = MODALITIES


class TestTypes:
    def test_modality_ordering_total_and_stable(self):
        assert ModalityKind.IMAGE < ModalityKind.AUDIO < ModalityKind.SIGNAL
        assert sorted([SIG, IMG, AUD]) == [IMG, AUD, SIG]
        assert len(ModalityKind) == 3

    def test_profile_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeviceProfile(id=0, tx_power=0.0)
        with pytest.raises(ValueError):
            DeviceProfile(id=-1)
        with pytest.raises(ValueError):
            DeviceProfile(id=0, maoi_weights=(1.0, -0.1, 1.0))

    def test_profile_rejects_fractional_sample_count(self):
        with pytest.raises(ValueError):
            DeviceProfile(id=0, aud_duration=1.00001, aud_rate=16_000.0)

    def test_profile_rejects_infinite_sample_count(self):
        # a ValueError naming the count, not Python's OverflowError from round(inf)
        with pytest.raises(ValueError, match="aud_duration.aud_rate = inf is not an integer"):
            DeviceProfile(id=0, aud_duration=math.inf)

    @pytest.mark.parametrize("rate, duration", [(80.0, math.inf), (1e300, 1e300)])
    def test_profile_rejects_infinite_frame_count(self, rate, duration):
        with pytest.raises(ValueError, match="finite frame count"):
            DeviceProfile(id=0, sig_frame_rate=rate, sig_duration=duration)

    def test_config_requires_edge_at_least_local(self):
        with pytest.raises(ValueError):
            SystemConfig(f_local=2e9, f_edge=1e9)

    @pytest.mark.parametrize("field, value", [
        ("max_outer_iters", 0), ("energy_tol", -0.01), ("mu_init", -1.0),
        ("max_outer_iters", 300.5), ("tft_base_len", 200.1),
        ("max_outer_iters", math.inf), ("tft_base_len", math.inf),
    ])
    def test_config_rejects_unusable_solver_settings(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})

    def test_config_stores_integral_floats_as_integers(self):
        config = SystemConfig(max_outer_iters=300.0, tft_base_len=200.0)
        for name, value in (("max_outer_iters", 300), ("tft_base_len", 200)):
            assert getattr(config, name) == value
            assert type(getattr(config, name)) is int

    @pytest.mark.parametrize("name", ["newton_tol", "newton_max_iters"])
    def test_newton_settings_are_not_config_fields(self, name):
        # the solve's Newton tolerance and cap are optimizer constants
        with pytest.raises(TypeError, match=name):
            SystemConfig(**{name: 1e-9})
        with pytest.raises(ValueError, match="unknown system config fields"):
            config_from_mapping({name: 1e-9})

    @pytest.mark.parametrize("name, value", [
        ("img_height", 224.5), ("aud_bit_depth", 15.5), ("sig_points_per_frame", 63.5)])
    def test_profile_rejects_fractional_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            DeviceProfile(id=0, **{name: value})

    def test_profile_stores_integral_floats_as_integers(self):
        profile = DeviceProfile(id=0, img_height=224.0, aud_bit_depth=16.0,
                                sig_points_per_frame=64.0)
        for name in ("img_height", "aud_bit_depth", "sig_points_per_frame"):
            assert type(getattr(profile, name)) is int
        assert profile == DeviceProfile(id=0)

    # every numeric field is range-checked, and NaN fails every comparison
    @pytest.mark.parametrize("cls, name", [
        (cls, f.name) for cls in (SystemConfig, DeviceProfile) for f in fields(cls)
        if f.type in ("float", "int", "tuple[float, float, float]")])
    def test_nan_rejected(self, cls, name):
        value = (1.0, math.nan, 1.0) if name.endswith(("_rates", "_weights")) \
            else math.nan
        base = {"id": 0} if cls is DeviceProfile else {}
        with pytest.raises(ValueError, match=name):
            cls(**{**base, name: value})

    def test_infinity_accepted(self):
        SystemConfig(capacity_threshold=math.inf, energy_tol=math.inf)
        with pytest.raises(ValueError, match="energy_budget must be finite, got inf"):
            DeviceProfile(id=0, energy_budget=math.inf)


class TestDataSize:
    def test_image_reference_resolution(self, profile):
        assert data_size_bits(profile)[IMG - 1] == 1_204_224

    def test_audio_two_seconds_mono(self, profile):
        assert data_size_bits(profile)[AUD - 1] == 512_000

    def test_signal_frame_batch(self, profile):
        # 240 frames x 64 points x 4 features x 16 bits
        assert data_size_bits(profile)[SIG - 1] == 983_040

    def test_fractional_frames_truncate(self, config):
        p = DeviceProfile(id=0, sig_duration=3.01, sig_frame_rate=80.0)
        # 240.8 frames -> 240 emitted
        assert data_size_bits(p)[SIG - 1] == 983_040

    def test_total(self, profile):
        assert total_data_bits(profile) == 2_699_264

    def test_total_adds_the_modalities_in_order(self, profile):
        # the same bits as summing the modality axis, for a profile and columns
        cols = as_device_table(generate_scenario(320, seed=0).profiles).columns
        for source in (profile, cols):
            total = total_data_bits(source)
            assert np.array_equal(total, data_size_bits(source).sum(axis=-1))
            assert np.shape(total) == np.shape(data_size_bits(source))[:-1]

    def test_image_counts_its_channels(self):
        grey = DeviceProfile(id=0, img_channels=1)
        assert data_size_bits(grey)[IMG - 1] == 401_408
        sc = generate_scenario(2, seed=0, overrides={"img_channels": 1})
        payload = ScenarioEvaluator(sc.devices, sc.config).payload
        assert (payload == 401_408 + 512_000 + 983_040).all()

    @given(h=st.integers(8, 512), w=st.integers(8, 512))
    def test_image_monotone_in_area(self, h, w):
        small = DeviceProfile(id=0, img_height=h, img_width=w)
        big = DeviceProfile(id=0, img_height=h + 1, img_width=w)
        assert data_size_bits(big)[IMG - 1] > data_size_bits(small)[IMG - 1]
        assert (compute_flops(big, SystemConfig())[IMG - 1]
                > compute_flops(small, SystemConfig())[IMG - 1])


class TestComputeModel:
    def test_image_flops_at_baseline(self, profile, config):
        assert compute_flops(profile, config)[IMG - 1] == pytest.approx(4e9)

    def test_audio_flops_scale_with_duration(self, profile, config):
        assert compute_flops(profile, config)[AUD - 1] == pytest.approx(1e10)

    def test_signal_flops_quadratic_in_frames(self, profile, config):
        # 0.45 GFLOP * (240/200)^2
        assert compute_flops(profile, config)[SIG - 1] == pytest.approx(0.648e9)

    def test_local_and_edge_times(self, profile, config):
        # the image is served first and sensed at once: its times are its compute
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        assert ev.t_local[IMG - 1, 0] == pytest.approx(4.0)
        assert ev.t_edge0[IMG - 1, 0] == pytest.approx(0.4)

    def test_edge_speedup_is_exact_frequency_ratio(self, profile, config):
        ratio = config.f_local / config.f_edge
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        t_edge_compute = ev.t_edge0[:, 0] - sensing_time(profile)
        assert t_edge_compute == pytest.approx(
            compute_flops(profile, config) / config.f_local * ratio)

    def test_near_zero_audio_workload(self, config):
        p = DeviceProfile(id=0, aud_duration=1e-9, aud_rate=1e9)
        assert compute_flops(p, config)[AUD - 1] / config.f_local == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("profile_or_columns", [
        lambda ps: ps[0], lambda ps: as_device_table(ps).columns], ids=["profile", "columns"])
    def test_models_return_the_modality_axis(self, profile_or_columns, config):
        p = profile_or_columns([DeviceProfile(id=0)])
        lead = np.shape(p.tx_power)
        for values in (data_size_bits(p), compute_flops(p, config), sensing_time(p)):
            assert values.shape == lead + (len(MODALITIES),)
        assert np.shape(total_data_bits(p)) == lead


class TestTiming:
    @staticmethod
    def waits(profile, config):
        t_local_compute = compute_flops(profile, config) / config.f_local
        return local_waiting_time(t_local_compute, served_ahead(profile, config))

    def test_sensing_times(self, profile):
        assert sensing_time(profile).tolist() == [0.0, 2.0, 3.0]

    def test_waiting_follows_schedule_order(self, profile, config):
        assert schedule_order(profile, config) == MODALITIES
        wait = self.waits(profile, config)
        assert wait[IMG - 1] == 0.0
        assert wait[AUD - 1] == pytest.approx(4.0)
        assert wait[SIG - 1] == pytest.approx(14.0)

    def test_weight_priority_order(self, config):
        p = DeviceProfile(id=0, maoi_weights=(0.5, 2.0, 1.0))
        cfg = SystemConfig(schedule_policy="by_weight")
        assert schedule_order(p, cfg) == (AUD, SIG, IMG)
        # ties break by modality index
        p_tie = DeviceProfile(id=0, maoi_weights=(1.0, 1.0, 1.0))
        assert schedule_order(p_tie, cfg) == (IMG, AUD, SIG)

    @given(st.lists(st.tuples(*[st.sampled_from((0.0, 0.5, 1.0, 2.0))] * 3),
                    min_size=1, max_size=6))
    def test_weight_priority_mask_is_a_strict_order(self, weights):
        # few distinct weights, so ties are common
        profiles = [DeviceProfile(id=d, maoi_weights=w) for d, w in enumerate(weights)]
        ahead = served_ahead(as_device_table(profiles).columns,
                             SystemConfig(schedule_policy="by_weight"))
        assert ahead.shape == (len(profiles), 3, 3)
        behind = ahead.swapaxes(-1, -2)
        assert not ahead.diagonal(axis1=-2, axis2=-1).any()  # irreflexive
        assert not (ahead & behind).any()  # antisymmetric
        assert (np.sort(ahead.sum(axis=-1), axis=-1) == [0, 1, 2]).all()
        w = np.array(weights)
        assert (ahead[w[:, None, :] > w[:, :, None]]).all()  # higher weight first

    @pytest.mark.parametrize("weights", [(0.5, 2.0, 1.0), (3.0, 1.0, 2.0), (1.0, 1.0, 1.0)])
    def test_fixed_policy_mask_ignores_the_weights(self, weights, config):
        # image, audio, signal for every device, whatever its weights
        columns = as_device_table([DeviceProfile(id=0, maoi_weights=weights),
                                   DeviceProfile(id=1)]).columns
        assert np.array_equal(served_ahead(columns, config), np.tri(3, k=-1, dtype=bool))

    def test_equal_weights_serve_the_fixed_order(self, config):
        # by_weight breaks ties in MODALITIES order, so equal weights give the fixed mask
        columns = as_device_table([DeviceProfile(id=d, maoi_weights=(w, w, w))
                                   for d, w in enumerate((0.5, 1.0, 2.0))]).columns
        by_weight = served_ahead(columns, SystemConfig(schedule_policy="by_weight"))
        assert by_weight.shape == (3, 3, 3)
        assert (by_weight == served_ahead(columns, config)).all()

    def test_fixed_policy_times_ignore_the_weights(self, config):
        # the device that by_weight serves audio, signal, image keeps the fixed times
        devices = DeviceTable(2, maoi_weights=np.array([(0.5, 2.0, 1.0), (1.0, 1.0, 1.0)]))
        ev = ScenarioEvaluator(devices, config)
        assert ev.t_local[:, 0] == pytest.approx((4.0, 16.0, 17.648))
        assert np.array_equal(ev.t_local[:, 0], ev.t_local[:, 1])

    def test_weight_priority_orders_each_device(self):
        # one evaluator, two serving orders: (AUD, SIG, IMG) and the tie's (IMG, AUD, SIG)
        devices = DeviceTable(2, maoi_weights=np.array([(0.5, 2.0, 1.0), (1.0, 1.0, 1.0)]))
        ev = ScenarioEvaluator(devices, SystemConfig(schedule_policy="by_weight"))
        assert ev.t_local[:, 0] == pytest.approx((14.648, 12.0, 13.648))
        assert ev.t_local[:, 1] == pytest.approx((4.0, 16.0, 17.648))

    # system times are built by the evaluator from the per-modality models
    def test_system_time_local_branch(self, profile, config):
        t_local = ScenarioEvaluator(as_device_table([profile]), config).t_local[:, 0]
        assert t_local == pytest.approx((4.0, 16.0, 17.648))

    def test_system_time_edge_branch(self, profile, config):
        ev = ScenarioEvaluator(as_device_table([profile]), config)
        t_off, _ = ev.edge_branch(np.array([0.0813]))
        assert t_off[AUD - 1, 0] == pytest.approx(2 + 0.0813 + 1.0)
        state = ev.pattern_state(np.array([1]))
        trans = ev.trans_times(np.array([1]))[0]
        assert state.t_sys[:, 0] == pytest.approx((0.0 + trans + 0.4, 2 + trans + 1.0,
                                                3 + trans + 0.0648))

    def test_local_branch_ignores_trans_time(self, config, two_devices):
        # device 0 stays local while device 1's flag moves its transmission time
        ev = ScenarioEvaluator(two_devices, config)
        alone, jammed = (ev.pattern_state(np.array(x)) for x in ([0, 0], [0, 1]))
        assert ev.trans_times(np.array([0, 0]))[0] != ev.trans_times(np.array([0, 1]))[0]
        assert np.array_equal(alone.t_sys[:, 0], ev.t_local[:, 0])
        assert np.array_equal(jammed.t_sys[:, 0], ev.t_local[:, 0])


#: Devices that differ in every input of the per-modality models; devices 2
#: and 3 tie two weights each, and every audio clip holds whole samples.
#: Device 3's 169 signal frames over a ``tft_base_len`` of 137 give a ratio
#: whose square libm's pow rounds one ulp away from the product.
HETEROGENEOUS_DEVICES = [
    {"id": 0},
    {"id": 1, "img_height": 480, "img_width": 640, "img_channels": 1,
     "aud_rate": 44_100.0, "aud_channels": 2, "sig_duration": 2.37,
     "sig_frame_rate": 30.0, "sig_points_per_frame": 32, "tx_power": 0.3,
     "energy_budget": 2.5, "maoi_weights": [2.0, 0.5, 1.0]},
    {"id": 2, "img_height": 96, "img_width": 128, "aud_duration": 0.5,
     "aud_bit_depth": 24, "sig_features_per_point": 8, "sig_bits_per_feature": 8,
     "tx_power": 0.05, "channel_gain": 3e-3, "energy_budget": 0.4,
     "maoi_weights": [1.0, 1.0, 0.5]},
    {"id": 3, "img_channels": 4, "aud_rate": 8_000.0, "sig_frame_rate": 13.0,
     "sig_duration": 13.0, "per_pixel_energy": 4e-11, "energy_budget": 9.0,
     "maoi_weights": [0.5, 1.5, 1.5]},
]


def per_profile_arrays(profiles, config, objective) -> dict:
    """``ScenarioEvaluator``'s static arrays, built one profile at a time.

    The per-modality arrays are transposed to the evaluator's ``(3, D)`` planes.
    """
    sens = np.array([sensing_time(p) for p in profiles])
    flops = np.array([compute_flops(p, config) for p in profiles])
    t_lc, t_ec = flops / config.f_local, flops / config.f_edge
    wait = np.array([local_waiting_time(t, served_ahead(p, config))
                     for p, t in zip(profiles, t_lc)])
    e_sens = np.array([sensing_energy(p) for p in profiles])
    e_comp = np.array([config.energy_per_flop * compute_flops(p, config).sum()
                       for p in profiles])
    psi_true = np.array([p.maoi_weights for p in profiles])
    return {
        "payload": np.array([total_data_bits(p) for p in profiles]),
        "tx_power": np.array([p.tx_power for p in profiles]),
        "rx_power": np.array([p.tx_power * p.channel_gain for p in profiles]),
        "e_budget": np.array([p.energy_budget for p in profiles]),
        "e_sens": e_sens,
        "e_comp": e_comp,
        "e_local": e_sens + e_comp,
        "psi_true": psi_true.T,
        "psi": (psi_true if objective == OBJECTIVE_MAOI else np.zeros_like(psi_true)).T,
        "t_local": (sens + wait + t_lc).T,
        "t_edge0": (sens + t_ec).T,
    }


class TestProfileColumns:
    """The evaluator runs each model once over device columns, with a profile's bits."""

    @staticmethod
    def load(tmp_path, system, devices=HETEROGENEOUS_DEVICES):
        path = tmp_path / "devices.yaml"
        path.write_text(yaml.safe_dump({"system": system, "devices": devices}))
        return load_config_document(path)

    def test_columns_are_the_profile_fields(self, tmp_path):
        profiles = [profile_from_mapping(entry) for entry in HETEROGENEOUS_DEVICES]
        cols = self.load(tmp_path, {})[0].columns
        for name in ProfileColumns._fields:
            column = getattr(cols, name)
            assert np.array_equal(column, [getattr(p, name) for p in profiles]), name
            assert not column.flags.writeable, name
        assert cols.maoi_weights.shape == (len(profiles), 3)

    @pytest.mark.parametrize("system, objective, n_devices", [
        ({}, OBJECTIVE_MAOI, 4),
        ({"schedule_policy": "by_weight"}, OBJECTIVE_MAOI, 4),
        ({"f_local": 7e8, "tft_base_len": 137}, OBJECTIVE_MAOI, 4),
        ({}, OBJECTIVE_AOI, 4),
        ({"schedule_policy": "by_weight"}, OBJECTIVE_MAOI, 1),
    ])
    def test_arrays_match_the_per_profile_formulas(self, tmp_path, system, objective,
                                                    n_devices):
        entries = HETEROGENEOUS_DEVICES[-n_devices:]
        devices, config = self.load(tmp_path, system, entries)
        profiles = [profile_from_mapping(entry) for entry in entries]
        ev = ScenarioEvaluator(devices, config, objective)
        for name, expected in per_profile_arrays(profiles, config, objective).items():
            actual = getattr(ev, name)
            assert actual.shape == expected.shape, name
            assert (actual == expected).all(), name

    @pytest.mark.parametrize("policy", ["fixed", "by_weight"])
    def test_formula_calls_do_not_grow_with_devices(self, monkeypatch, policy):
        calls = []

        def counted(formula):
            def wrapper(*args):
                calls.append(formula.__name__)
                return formula(*args)
            return wrapper

        flops = counted(system_model.compute_flops)
        for module in (system_model, optimizer):
            monkeypatch.setattr(module, "compute_flops", flops)
        monkeypatch.setattr(system_model, "_payload_terms",
                            counted(system_model._payload_terms))
        counts = []
        for n_devices in (1, 40):
            sc = generate_scenario(n_devices, seed=0, overrides={"schedule_policy": policy})
            calls.clear()
            ScenarioEvaluator(sc.devices, sc.config)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        assert calls.count("compute_flops") == 1


class TestConfigDocument:
    @pytest.mark.parametrize("policy", ["fixed", "by_weight"])
    def test_roundtrip(self, tmp_path, policy):
        profiles = [DeviceProfile(id=0), DeviceProfile(id=1)]
        config = SystemConfig(schedule_policy=policy)
        path = tmp_path / "scenario.yaml"
        dump_config_document(profiles, config, path)
        devices, cfg = load_config_document(path)
        assert same_devices(devices, as_device_table(profiles))
        assert cfg == config

    def test_devices_keep_document_order(self, tmp_path):
        entries = [{**entry, "id": i} for entry, i in zip(HETEROGENEOUS_DEVICES, (3, 0, 7))]
        path = tmp_path / "order.yaml"
        path.write_text(yaml.safe_dump({"system": {}, "devices": entries}))
        devices, _ = load_config_document(path)
        profiles = [profile_from_mapping(entry) for entry in entries]
        assert same_devices(devices, as_device_table(profiles))

    def test_json_document(self, tmp_path):
        doc = {
            "system": {"bandwidth": 2e6, "event_rates": [0.5, 0.8, 1.0]},
            "devices": [{"id": 0, "tx_power": 0.2, "maoi_weights": [1, 2, 3]}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(__import__("json").dumps(doc))
        devices, cfg = load_config_document(path)
        assert cfg.bandwidth == 2e6
        assert cfg.event_rates == (0.5, 0.8, 1.0)
        assert devices.columns.tx_power[0] == 0.2
        assert tuple(devices.columns.maoi_weights[0]) == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("system, key", [
        ({"bandwidht": 1e6}, "bandwidht"),
        # the fixed policy serves MODALITIES; no other order is settable
        ({"local_schedule_order": ["signal", "image", "audio"]}, "local_schedule_order"),
    ])
    def test_unknown_field_rejected(self, tmp_path, system, key):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"system": system, "devices": [{"id": 0}]}))
        with pytest.raises(ValueError) as exc:
            load_config_document(path)
        assert str(exc.value) == f"{path}: system: unknown system config fields: [{key!r}]"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.yaml"
        path.write_text(yaml.safe_dump({
            "system": {}, "devices": [{"id": 0}, {"id": 0}],
        }))
        with pytest.raises(ValueError, match="duplicate"):
            load_config_document(path)

    @pytest.mark.parametrize("system, devices, message", [
        ({}, [{"id": 0}, {"id": 1, "tx_power": "lots"}],
         "devices[1]: tx_power: expected a number, got 'lots'"),
        ({}, [{"id": 4}, {"id": 2}, {"id": 4}], "devices[2]: duplicate device id 4"),
        ({"tau_min": "soon"}, [{"id": 0}], "system: tau_min: expected a number, got 'soon'"),
    ])
    def test_entry_errors_name_file_and_entry(self, tmp_path, system, devices, message):
        path = tmp_path / "doc.yaml"
        path.write_text(yaml.safe_dump({"system": system, "devices": devices}))
        with pytest.raises(ValueError) as exc:
            load_config_document(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name, text", [
        ("doc.yaml", "system: {f_local: 7e8\ndevices: []\n"),
        ("doc.json", '{"system": {}, "devices": [}'),
    ])
    def test_malformed_document_named(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_config_document(path)
        assert str(exc.value).startswith(f"{path}: malformed document: ")

    @pytest.mark.parametrize("name, text, line, column", [
        ("doc.yaml", "system: {}\ndevices: [\n", 3, 1),
        ("doc.json", '{"system": {}, "devices": [}', 1, 28),
    ])
    def test_malformed_document_reads_in_one_line(self, tmp_path, name, text, line, column):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_config_document(path)
        assert_one_line_parse_error(str(exc.value), f"{path}: malformed document: ",
                                    line, column)

    def test_exponent_forms_without_a_dot(self, tmp_path):
        # YAML 1.1 reads 1e-13, 3e7 and 4e4 as strings
        path = tmp_path / "exp.yaml"
        path.write_text("system:\n  noise_power: 1e-13\n"
                        "  capacity_threshold: 3e7\n  max_outer_iters: 4e4\n"
                        "  event_rates: [8e-1, 1, 1.5]\n"
                        "devices:\n  - id: 0\n    energy_budget: 2e0\n"
                        "    maoi_weights: [1, 2e0, 3]\n")
        devices, cfg = load_config_document(path)
        assert cfg.noise_power == 1e-13
        assert cfg.capacity_threshold == 3e7
        assert cfg.max_outer_iters == 40_000
        assert isinstance(cfg.max_outer_iters, int)
        assert cfg.event_rates == (0.8, 1.0, 1.5)
        assert devices.columns.energy_budget[0] == 2.0
        assert tuple(devices.columns.maoi_weights[0]) == (1.0, 2.0, 3.0)

    def test_non_numeric_value_names_the_field(self):
        with pytest.raises(ValueError, match="capacity_threshold"):
            config_from_mapping({"capacity_threshold": "lots"})

    @pytest.mark.parametrize("doc, match", [
        ({"system": None, "devices": [{"id": 0}]}, "'system' must be a mapping"),
        ({"system": {}, "devices": None}, "'devices' must be a list of mappings"),
        ({"system": {}, "devices": [1]}, "'devices' must be a list of mappings"),
        ({"system": {}, "devices": []}, "'devices' lists no device"),
    ])
    def test_malformed_sections_name_file_and_section(self, tmp_path, doc, match):
        path = tmp_path / "shape.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValueError, match=f"shape.yaml: {match}"):
            load_config_document(path)

    # a field whose declared type the parser cannot read fails here
    @pytest.mark.parametrize("section, name", [
        (section, f.name) for section, cls in (("system", SystemConfig),
                                               ("devices", DeviceProfile))
        for f in fields(cls)])
    def test_every_default_reads_back_from_its_dumped_yaml(self, tmp_path, section, name):
        profile, config = DeviceProfile(id=0), SystemConfig()
        path = tmp_path / "defaults.yaml"
        dump_config_document([profile], config, path)
        devices, cfg = load_config_document(path)
        assert same_devices(devices, as_device_table([profile])) and cfg == config
        doc = yaml.safe_load(path.read_text())
        dumped = (doc["system"] if section == "system" else doc["devices"][0])[name]
        overrides = _parse_overrides([f"{name}={yaml.safe_dump(dumped)}"], None)
        if name in ("id", "channel_gain"):  # the generator sets these itself
            with pytest.raises(ValueError, match="unknown override fields"):
                generate_scenario(1, 0, overrides)
            return
        sc = generate_scenario(1, 0, overrides)
        owner, default = (sc.config, config) if section == "system" else (sc.profiles[0], profile)
        assert getattr(owner, name) == getattr(default, name)
        assert type(getattr(owner, name)) is type(getattr(default, name))

    def test_numpy_scalars_read_as_numbers(self):
        parsed = parse_settings(
            {"capacity_threshold": np.float64(3e7), "max_outer_iters": np.int64(300),
             "event_rates": np.array([0.5, 0.6, 0.7])},
            CONFIG_FIELD_TYPES, "system config")
        assert SystemConfig(**parsed) == SystemConfig(
            capacity_threshold=3e7, max_outer_iters=300, event_rates=(0.5, 0.6, 0.7))
