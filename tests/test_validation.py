"""Input checks that fail with their own message.

Each test reaches one check that no other test runs and asserts its text,
so deleting the check fails the test: without it the input would pass, or
fail later with another error.
"""

import re

import numpy as np
import pytest
import yaml

from maoi_edge import experiments, trends
from maoi_edge.cli import main
from maoi_edge.metric import signal_dynamics
from maoi_edge.optimizer import ScenarioEvaluator
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import SystemConfig, load_config_document, parse_error_text

SWEEP = ["sweep", "--param", "device_count", "--grid", "2", "--algorithms", "flc",
         "--seeds", "1"]


def test_unknown_objective():
    sc = generate_scenario(2, 0)
    with pytest.raises(ValueError, match="unknown objective 'x'"):
        ScenarioEvaluator(sc.devices, sc.config, objective="x")


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
