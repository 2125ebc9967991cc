"""Input checks that fail with their own message.

Each test reaches one check that no other test runs and asserts its text,
so deleting the check fails the test: without it the input would pass, or
fail later with another error.
"""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
import yaml

from maoi_edge import baselines, experiments, trends
from maoi_edge.cli import main
from maoi_edge.metric import signal_dynamics
from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import (
    DeviceProfile,
    DeviceTable,
    SystemConfig,
    load_config_document,
    parse_error_text,
)

SWEEP = ["sweep", "--param", "device_count", "--grid", "2", "--algorithms", "flc",
         "--seeds", "1"]


def test_unknown_objective():
    sc = generate_scenario(2, 0)
    with pytest.raises(ValueError, match="unknown objective 'x'"):
        ScenarioEvaluator(sc.devices, sc.config, objective="x")


def test_the_evaluator_takes_a_table_only():
    with pytest.raises(TypeError, match=re.escape(
            "devices must be a DeviceTable (as_device_table reads profiles)")):
        ScenarioEvaluator([DeviceProfile(id=0)], SystemConfig())


def test_unknown_schedule_policy():
    with pytest.raises(ValueError, match="unknown schedule_policy 'lifo'"):
        SystemConfig(schedule_policy="lifo")


def test_yaml_error_without_a_mark_reads_its_first_line():
    exc = yaml.YAMLError("no position here\nsecond line")
    assert parse_error_text(exc) == "no position here"


def test_document_without_devices_section(tmp_path):
    path = tmp_path / "conf.yaml"
    path.write_text(yaml.safe_dump({"system": {}}))
    with pytest.raises(ValueError, match="expected a mapping with 'system' and 'devices'"):
        load_config_document(path)


def test_aggregate_of_no_rows():
    with pytest.raises(ValueError, match="no rows to aggregate"):
        experiments.aggregate([])


@pytest.mark.parametrize("d_grid, e_grid", [((), (50.0,)), ((2,), ())])
def test_convergence_grid_of_an_empty_grid(d_grid, e_grid):
    with pytest.raises(ValueError, match="grids must be non-empty"):
        experiments.convergence_grid(d_grid, e_grid, (0,), "flc")


@pytest.mark.parametrize("grid, bad", [((True,), True), ((2, True), True),
                                       ((np.False_, 3), np.False_)])
@pytest.mark.parametrize("param", experiments.SWEEP_PARAMS)
def test_bool_sweep_grid_value(param, grid, bad):
    # True is 1 to numpy and to sorting: a device-count sweep would solve one device
    with pytest.raises(ValueError, match=re.escape(f"sweep grid value {bad!r} is a bool")):
        experiments.SweepSpec(param=param, grid=grid, algorithms=("fmi",), seeds=(0,))


def test_sweep_config_naming_a_yaml_list(tmp_path):
    path = tmp_path / "conf.yaml"
    path.write_text(yaml.safe_dump([{"system": {}}]))
    with pytest.raises(SystemExit, match=re.escape(f"{path}: expected a mapping")):
        main([*SWEEP, "--config", str(path), "--out", str(tmp_path / "out")])


def test_override_without_equals(tmp_path):
    with pytest.raises(SystemExit, match="--override needs key=value, got 'foo'"):
        main([*SWEEP, "--override", "foo", "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("frames, message", [
    ([np.ones((2, 3))], "need at least 2 frames, got 1"),
    ([np.ones((2, 3)), np.ones(3)], "frame 1 must be 2-D (points x features), got ndim=1"),
    ([np.ones((2, 0)), np.ones((3, 0))], "frames carry no features"),
])
def test_signal_dynamics_rejects(frames, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        signal_dynamics(frames)


ROWS = [{"value": v, "algorithm": "jso", "avg_maoi": y} for v, y in ((1.0, 3.0), (2.0, 2.0))]


@pytest.mark.parametrize("check, rows, message", [
    ({"type": "monotone", "metric": "avg_maoi", "algorithm": "fmi",
      "direction": "decreasing"}, ROWS, "no rows for algorithm 'fmi'"),
    ({"type": "monotone", "metric": "avg_maoi", "algorithm": "jso",
      "direction": "down"}, ROWS, "direction must be increasing/decreasing, got 'down'"),
    ({"type": "plateau", "metric": "avg_maoi", "algorithm": "jso"}, ROWS[:1],
     "plateau check needs at least 2 points"),
])
def test_trend_spec_errors_fail_their_check(check, rows, message):
    (result,) = trends.evaluate_checks(rows, [check]).results
    assert not result.passed and result.detail == f"check error: {message}"


def infinite_device_message(name: str, value: str) -> str:
    """What a device with ``name`` at infinity fails with: the check that
    names it first, which for most fields is the finiteness check."""
    if name in ("aud_duration", "aud_rate"):
        return "aud_duration*aud_rate = inf is not an integer sample count"
    if name in ("sig_frame_rate", "sig_duration"):
        return "sig_frame_rate*sig_duration = inf is not a finite frame count"
    if DeviceProfile.__dataclass_fields__[name].type == "int":
        return f"{name} must be an integer, got inf"
    return f"{name} must be finite, got {value}"


DEVICE_NUMBERS = [f.name for f in fields(DeviceProfile) if f.name != "id"]


@pytest.mark.parametrize("name", DEVICE_NUMBERS)
def test_an_infinite_device_value_is_rejected(name):
    default = DeviceProfile.__dataclass_fields__[name].default
    if name == "maoi_weights":
        shared, column = (1.0, math.inf, 1.0), np.ones((3, 3))
        column[1, 1] = math.inf
        shown = ("(1.0, inf, 1.0)", "[1.0, inf, 1.0]")
    else:
        shared, column = math.inf, np.full(3, float(default))
        column[1] = math.inf
        shown = ("inf", "inf")
    with pytest.raises(ValueError) as profile_error:
        DeviceProfile(id=0, **{name: shared})
    with pytest.raises(ValueError) as shared_error:
        DeviceTable(3, **{name: shared})
    with pytest.raises(ValueError) as column_error:
        DeviceTable(3, **{name: column})
    assert str(profile_error.value) == str(shared_error.value) == \
        infinite_device_message(name, shown[0])
    assert str(column_error.value) == infinite_device_message(name, shown[1])


#: The limits a solve takes at infinity; every other number must be finite.
UNBOUNDED = ("bandwidth", "f_edge", "capacity_threshold", "convergence_eps", "energy_tol")


@pytest.mark.parametrize("name", [f.name for f in fields(SystemConfig)
                                  if f.type != "str" and f.name not in UNBOUNDED])
def test_an_infinite_config_value_is_rejected(name):
    value = (0.8, math.inf, 0.8) if name == "event_rates" else math.inf
    # an infinite f_local needs an infinite f_edge to pass f_edge >= f_local
    given = {name: value, **({"f_edge": math.inf} if name == "f_local" else {})}
    message = (f"{name} must be an integer, got inf"
               if SystemConfig.__dataclass_fields__[name].type == "int"
               else f"{name} must be finite, got {value}")
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        SystemConfig(**given)


@pytest.mark.parametrize("name", UNBOUNDED)
def test_an_infinite_limit_solves(name):
    config = SystemConfig(**{name: math.inf}, max_outer_iters=50)
    for algorithm in sorted(baselines.ALGORITHMS):
        decision, trace = baselines.solve(algorithm, DeviceTable(3), config)
        assert all(map(math.isfinite, trace.costs)), algorithm
        assert np.isfinite(decision.tau).all(), algorithm


@pytest.mark.parametrize("param, message", [
    ("energy_budget", "energy_budget must be finite, got inf"),
    ("audio_weight_increment", "maoi_weights must be finite, got ["),
])
def test_an_infinite_sweep_value_fails_before_a_solve(param, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        experiments.SweepSpec(param=param, grid=(math.inf,), algorithms=("fmi",), seeds=(0,))


@pytest.mark.parametrize("values, name, shape", [
    ({"tx_power": np.ones(2)}, "tx_power", "() or (3,)"),
    ({"tx_power": np.ones((3, 1))}, "tx_power", "() or (3,)"),
    ({"maoi_weights": np.ones((2, 3))}, "maoi_weights", "(3,) or (3, 3)"),
    ({"aud_duration": np.full(2, 2.0), "aud_rate": np.full(3, 16_000.0)},
     "aud_duration", "() or (3,)"),
])
def test_a_column_of_the_wrong_shape_names_its_field(values, name, shape):
    got = np.shape(values[name])
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must have shape {shape} (n_devices = 3), got {got}")):
        DeviceTable(3, **values)
