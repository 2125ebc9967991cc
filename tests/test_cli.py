import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import maoi_edge
from helpers import assert_one_line_parse_error, dump_config_document
from maoi_edge import baselines
from maoi_edge.cli import _parse_overrides, main
from maoi_edge.experiments import read_csv
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import DeviceProfile, SystemConfig

FAST = ["--override", "energy_budget=50.0"]


def run_cli(args):
    return main(list(args))


def child_env():
    """This environment, with the package's own directory on the child's path."""
    src = str(Path(maoi_edge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestSweepCommand:
    def test_writes_results_and_aggregate(self, tmp_path):
        code = run_cli(["sweep", "--param", "device_count", "--grid", "2,3",
                        "--algorithms", "flc", "--seeds", "1",
                        "--out", str(tmp_path), *FAST])
        assert code == 0
        results = (tmp_path / "results.csv").read_text().splitlines()
        assert len(results) == 3  # header + 2 rows
        assert (tmp_path / "aggregate.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--param", "device_count", "--grid", "2,3",
                "--algorithms", "flc,fmi", "--seeds", "2", *FAST]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        for name in ("results.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(yaml.safe_dump({
            "system": {"capacity_threshold": 2e7},
            "device": {"energy_budget": 40.0},
            "psi_range": [1.0, 1.2],
        }))
        code = run_cli(["sweep", "--param", "device_count", "--grid", "2",
                        "--algorithms", "flc", "--seeds", "1",
                        "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_exponent_form_overrides(self, tmp_path):
        # YAML reads 3e7 and 1e-13 (no dot) as strings; the generator parses them
        overrides = _parse_overrides(
            ["capacity_threshold=3e7", "noise_power=1e-13"], None)
        config = generate_scenario(2, 0, overrides).config
        assert (config.capacity_threshold, config.noise_power) == (3e7, 1e-13)
        code = run_cli(["sweep", "--param", "device_count", "--grid", "2",
                        "--algorithms", "fmi", "--seeds", "1",
                        "--override", "capacity_threshold=3e7",
                        "--override", "noise_power=1e-13",
                        "--out", str(tmp_path), *FAST])
        assert code == 0

    def test_exponent_form_in_config_file(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("system:\n  capacity_threshold: 3e7\n"
                       "  max_outer_iters: 4e4\npsi_range: [1e0, 1.2]\n")
        sc = generate_scenario(3, 0, _parse_overrides([], str(cfg)))
        assert sc.config.capacity_threshold == 3e7
        assert sc.config.max_outer_iters == 40_000
        assert isinstance(sc.config.max_outer_iters, int)
        assert all(1.0 <= w <= 1.2 for p in sc.profiles for w in p.maoi_weights)

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="capacity_threshold: expected a number"):
            run_cli(["sweep", "--param", "device_count", "--grid", "2",
                     "--algorithms", "fmi", "--seeds", "1",
                     "--override", "capacity_threshold=lots", "--out", str(tmp_path)])
        assert not (tmp_path / "results.csv").exists()

    def test_boolean_override_exits_naming_the_field(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "maoi_edge.cli", "sweep", "--param", "device_count",
             "--grid", "2", "--algorithms", "fmi", "--seeds", "1",
             "--override", "energy_budget=yes", "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1
        assert proc.stderr.strip() == "energy_budget: expected a number, got True"
        assert not (tmp_path / "results.csv").exists()

    def test_misspelled_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("system:\n  lagrange_step: 0.5\npsi_rnage: [5.0, 6.0]\n")
        with pytest.raises(SystemExit, match="unknown top-level key 'psi_rnage'"):
            run_cli(["sweep", "--param", "device_count", "--grid", "2",
                     "--algorithms", "fmi", "--seeds", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_named(self, tmp_path):
        with pytest.raises(SystemExit, match="nope.yaml: No such file"):
            run_cli(["solve", "--devices", "2", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path)])

    def test_malformed_config_file_named(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("system: {lagrange_step: 0.5\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--devices", "2", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert str(exc.value).startswith(f"{cfg}: malformed YAML: ")
        assert not (tmp_path / "out").exists()

    def test_malformed_override_named(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--devices", "2", "--override", "event_rates=[0.5, 0.5",
                     "--out", str(tmp_path / "out")])
        assert str(exc.value).startswith(
            "--override event_rates: malformed value '[0.5, 0.5': ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["a", "2,x", "1;2"])
    def test_non_numeric_grid_named(self, tmp_path, grid):
        with pytest.raises(SystemExit, match="--grid: expected comma-separated float"):
            run_cli(["sweep", "--param", "energy_budget", "--grid", grid,
                     "--out", str(tmp_path)])

    def test_devices_section_rejected(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(yaml.safe_dump({"devices": [{"id": 0}]}))
        with pytest.raises(SystemExit, match="'devices'.*generate their own"):
            run_cli(["sweep", "--param", "device_count", "--grid", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("section", ["system", "device"])
    def test_empty_config_section_reads_as_no_overrides(self, tmp_path, section):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(f"{section}:\npsi_range: [1.0, 1.2]\n")
        assert _parse_overrides([], str(cfg)) == {"psi_range": (1.0, 1.2)}

    @pytest.mark.parametrize("text, message", [
        ("psi_range: [a, 1]\n", "psi_range: expected a number, got 'a'"),
        ("path_loss_exponent: yes\n", "path_loss_exponent: expected a number, got True"),
    ])
    def test_generator_key_error_names_the_file(self, tmp_path, text, message):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            _parse_overrides([], str(cfg))
        assert str(exc.value) == f"{cfg}: {message}"

    def test_malformed_config_file_reads_in_one_line(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("system: {a: 1\n")
        with pytest.raises(SystemExit) as exc:
            _parse_overrides([], str(cfg))
        assert_one_line_parse_error(str(exc.value), f"{cfg}: malformed YAML: ", 2, 1)

    def test_malformed_override_reads_in_one_line(self):
        with pytest.raises(SystemExit) as exc:
            _parse_overrides(["event_rates=[0.5, 0.5"], None)
        assert_one_line_parse_error(
            str(exc.value), "--override event_rates: malformed value '[0.5, 0.5': ", 1, 10)

    @pytest.mark.parametrize("doc, message", [
        ({"device": {"tau_min": 3.0}}, "unknown device fields: ['tau_min']"),
        ({"system": {"energy_budget": 2.0}}, "unknown system fields: ['energy_budget']"),
        ({"device": {"channel_gain": 1e-3}}, "unknown device fields: ['channel_gain']"),
        ({"system": {"capacity_threshold": "lots"}},
         "capacity_threshold: expected a number, got 'lots'"),
    ])
    def test_config_sections_read_by_their_own_fields(self, tmp_path, monkeypatch,
                                                      doc, message):
        monkeypatch.setattr(baselines, "solve", lambda *a, **k: pytest.fail("solved"))
        cfg = tmp_path / "conf.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--devices", "2", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert str(exc.value) == f"{cfg}: {message}"

    def test_non_mapping_config_section_rejected(self, tmp_path):
        cfg = tmp_path / "conf.yaml"
        cfg.write_text("system: [1, 2]\n")
        with pytest.raises(SystemExit, match="'system' must be a mapping"):
            _parse_overrides([], str(cfg))

    def test_bad_grid_value_rejected_before_any_solve(self, tmp_path):
        with pytest.raises(SystemExit, match="energy_budget"):
            run_cli(["sweep", "--param", "energy_budget", "--grid", "1,-1",
                     "--algorithms", "fmi", "--seeds", "1", "--devices", "2",
                     "--out", str(tmp_path)])
        with pytest.raises(SystemExit, match="sweep grid repeats 5.0"):
            run_cli(["sweep", "--param", "energy_budget", "--grid", "5,5",
                     "--algorithms", "fmi", "--seeds", "1", "--devices", "2",
                     "--out", str(tmp_path)])
        assert not (tmp_path / "results.csv").exists()

    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            run_cli(["sweep", "--param", "device_count", "--grid", "2",
                     "--algorithms", "fmi", "--seeds", "1", "--workers", "0",
                     "--out", str(tmp_path), *FAST])
        assert not (tmp_path / "results.csv").exists()

    def test_fractional_device_count_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="device_count grid values"):
            run_cli(["sweep", "--param", "device_count", "--grid", "2.5",
                     "--algorithms", "fmi", "--seeds", "1", "--out", str(tmp_path)])
        assert not (tmp_path / "results.csv").exists()


class TestConvergeGridCommand:
    def test_writes_matrix(self, tmp_path):
        code = run_cli(["converge-grid", "--d-grid", "2,3", "--e-grid", "50",
                        "--seeds", "1", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "convergence_grid.csv").read_text().splitlines()
        assert lines[0] == "energy_budget,D=2,D=3"
        assert len(lines) == 2

    @pytest.mark.parametrize("option, value, kind", [
        ("--d-grid", "2.5", "int"), ("--d-grid", "two", "int"),
        ("--e-grid", "50,lots", "float"),
    ])
    def test_non_numeric_grid_named(self, tmp_path, option, value, kind):
        args = {"--d-grid": "2", "--e-grid": "50", option: value}
        with pytest.raises(SystemExit,
                           match=f"{option}: expected comma-separated {kind} values"):
            run_cli(["converge-grid", *[t for kv in args.items() for t in kv],
                     "--seeds", "1", "--out", str(tmp_path)])
        assert not (tmp_path / "convergence_grid.csv").exists()

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="energy_budget"):
            run_cli(["converge-grid", "--d-grid", "2", "--e-grid", "-1",
                     "--seeds", "1", "--out", str(tmp_path)])
        assert not (tmp_path / "convergence_grid.csv").exists()

    def test_repeated_budget_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(baselines, "solve", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(SystemExit, match="energy budget grid repeats 50.0"):
            run_cli(["converge-grid", "--d-grid", "2", "--e-grid", "50,50",
                     "--seeds", "1", "--out", str(tmp_path)])
        assert not (tmp_path / "convergence_grid.csv").exists()


class TestValidateOracleCommand:
    def test_wide_interval_passes(self, tmp_path):
        code = run_cli(["validate-oracle", "--updates", "2000",
                        "--z", "100", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "oracle_validation.csv").exists()

    def test_degenerate_interval_fails(self, tmp_path):
        code = run_cli(["validate-oracle", "--updates", "2000",
                        "--z", "1e-6", "--out", str(tmp_path)])
        assert code == 1

    def test_non_positive_z_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="z must be > 0"):
            run_cli(["validate-oracle", "--updates", "1000", "--z", "-1",
                     "--out", str(tmp_path)])
        assert not (tmp_path / "oracle_validation.csv").exists()


class TestAssertTrendsCommand:
    def write_inputs(self, tmp_path, rising=True):
        slope = 1.0 if rising else -1.0
        rows = ["param,value,algorithm,avg_maoi_mean"]
        rows += [f"device_count,{v},jso,{10 + slope * v}" for v in (1, 2, 3)]
        results = tmp_path / "aggregate.csv"
        results.write_text("\n".join(rows) + "\n")
        spec = tmp_path / "trends.yaml"
        spec.write_text(yaml.safe_dump({"checks": [
            {"type": "monotone", "metric": "avg_maoi_mean", "algorithm": "jso",
             "direction": "increasing", "name": "maoi-rises-with-d"},
        ]}))
        return results, spec

    def test_pass_exit_zero_and_report(self, tmp_path):
        results, spec = self.write_inputs(tmp_path, rising=True)
        code = run_cli(["assert-trends", "--results", str(results),
                        "--trend-spec", str(spec), "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "trend_report.txt").read_text()
        assert "[PASS] maoi-rises-with-d" in report

    def test_violation_exit_nonzero(self, tmp_path):
        results, spec = self.write_inputs(tmp_path, rising=False)
        code = run_cli(["assert-trends", "--results", str(results),
                        "--trend-spec", str(spec)])
        assert code == 1

    @pytest.mark.parametrize("param, message", [
        ("slak: 1.0", "unknown monotone check fields: ['slak']"),
        ("slack: '5%'", "slack: expected a number, got '5%'"),
        ("slack: yes", "slack: expected a number, got True"),
    ])
    def test_bad_check_parameter_fails_the_check(self, tmp_path, capsys, param, message):
        results, spec = self.write_inputs(tmp_path, rising=True)
        spec.write_text(spec.read_text() + f"  {param}\n")  # a key of the one check
        code = run_cli(["assert-trends", "--results", str(results),
                        "--trend-spec", str(spec)])
        assert code == 1
        assert (f"[FAIL] maoi-rises-with-d: check error: {message}\n"
                in capsys.readouterr().out)

    def test_malformed_spec_named(self, tmp_path):
        results, spec = self.write_inputs(tmp_path)
        spec.write_text("checks:\n  - {type: monotone\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["assert-trends", "--results", str(results),
                     "--trend-spec", str(spec)])
        assert str(exc.value).startswith(f"{spec}: malformed YAML: ")

    def test_malformed_spec_reads_in_one_line(self, tmp_path):
        results, spec = self.write_inputs(tmp_path)
        spec.write_text("checks:\n  - {type: monotone\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["assert-trends", "--results", str(results),
                     "--trend-spec", str(spec)])
        assert_one_line_parse_error(str(exc.value), f"{spec}: malformed YAML: ", 3, 1)

    @pytest.mark.parametrize("missing", ["--results", "--trend-spec"])
    def test_missing_input_file_named(self, tmp_path, missing):
        results, spec = self.write_inputs(tmp_path)
        paths = {"--results": str(results), "--trend-spec": str(spec),
                 missing: str(tmp_path / "nope.csv")}
        with pytest.raises(SystemExit) as exc:
            run_cli(["assert-trends", *[t for kv in paths.items() for t in kv]])
        assert str(exc.value) == f"{tmp_path / 'nope.csv'}: No such file or directory"

    @pytest.mark.parametrize("checks", [{"a": 1}, ["monotone"]])
    def test_malformed_checks_named(self, tmp_path, checks):
        results, spec = self.write_inputs(tmp_path)
        spec.write_text(yaml.safe_dump({"checks": checks}))
        with pytest.raises(SystemExit) as exc:
            run_cli(["assert-trends", "--results", str(results),
                     "--trend-spec", str(spec)])
        assert str(exc.value) == (f"{spec}: expected a mapping with a 'checks' "
                                  "list of mappings")

    def test_missing_input_file_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "maoi_edge.cli", "assert-trends",
             "--results", str(tmp_path / "nope.csv"), "--trend-spec", "t.yaml"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 1
        assert proc.stderr.strip() == f"{tmp_path / 'nope.csv'}: No such file or directory"


class TestSolveCommand:
    def test_writes_trace_and_decision(self, tmp_path):
        code = run_cli(["solve", "--algorithm", "jso", "--devices", "3",
                        "--seed", "1", "--out", str(tmp_path), *FAST])
        assert code == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("iteration,cost,")
        decision = (tmp_path / "decision.csv").read_text().splitlines()
        assert decision[0] == "device,tau,x,mu"
        assert len(decision) == 4

    @pytest.mark.parametrize("override, reason", [
        ("energy_budget=50.0", "converged"), ("max_outer_iters=1", "max_iters_best")])
    def test_summary_line_says_why_the_solve_stopped(self, tmp_path, capsys,
                                                     override, reason):
        code = run_cli(["solve", "--algorithm", "jso", "--devices", "3",
                        "--override", override, "--out", str(tmp_path)])
        assert code == 0
        assert f" stop={reason} " in capsys.readouterr().out

    def test_summary_line_counts_blocked_iterations(self, tmp_path, capsys):
        # the start and the one move run 3 iterations alone; lookahead
        # blocks record the other 14 016
        code = run_cli(["solve", "--devices", "10", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert " stop=converged blocked=14016 iters=14019 " in capsys.readouterr().out

    def test_decision_csv_is_data_only(self, tmp_path):
        code = run_cli(["solve", "--algorithm", "fmi", "--devices", "4",
                        "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "decision.csv")
        assert [r["device"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            assert isinstance(r["tau"], float) and isinstance(r["mu"], float)
            assert r["x"] in (0, 1) and isinstance(r["x"], int)

    def test_workers_is_not_a_solve_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--devices", "2", "--workers", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2  # argparse usage error
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("args, match", [
        (["--override", "tau_min=-1"], "tau_min"),
        (["--override", "energy_tol=nan"], "energy_tol"),
        (["--devices", "0"], "d_count"),
        (["--override", "path_loss_exponent=-2"], "path_loss_exponent must be"),
        (["--override", "img_height=224.5"], "img_height must be an integer, got 224.5"),
        # the Newton settings are optimizer constants, not config fields
        (["--override", "newton_tol=1e-9"], "unknown override fields: .'newton_tol'"),
        # the fixed policy serves image, audio, signal; no other order is settable
        (["--override", "local_schedule_order=[signal,image,audio]"],
         r"unknown override fields: \['local_schedule_order'\]"),
    ])
    def test_bad_settings_rejected(self, tmp_path, args, match):
        with pytest.raises(SystemExit, match=match):
            run_cli(["solve", "--devices", "3", *args, "--out", str(tmp_path)])
        assert not (tmp_path / "trace.csv").exists()

    def test_integer_settings_take_integral_floats_only(self, tmp_path):
        # YAML reads 300.0 as a float; the solve loops over it as a count
        code = run_cli(["solve", "--devices", "3", "--override", "max_outer_iters=300.0",
                        "--out", str(tmp_path / "ok")])
        assert code == 0
        assert len((tmp_path / "ok" / "trace.csv").read_text().splitlines()) == 301
        with pytest.raises(SystemExit, match="tft_base_len must be an integer, got 2.5"):
            run_cli(["sweep", "--param", "device_count", "--grid", "2",
                     "--algorithms", "jso", "--seeds", "1",
                     "--override", "tft_base_len=2.5", "--out", str(tmp_path / "bad")])
        assert not (tmp_path / "bad" / "results.csv").exists()


class TestSolveScenarioFile:
    """``solve --scenario FILE`` solves a config document's devices and system."""

    def test_document_solves_like_the_generated_scenario(self, tmp_path):
        sc = generate_scenario(4, seed=2, overrides={"energy_budget": 50.0})
        path = tmp_path / "scenario.yaml"
        dump_config_document(list(sc.profiles), sc.config, path)
        assert run_cli(["solve", "--scenario", str(path), "--out", str(tmp_path / "doc")]) == 0
        assert run_cli(["solve", "--devices", "4", "--seed", "2", *FAST,
                        "--out", str(tmp_path / "gen")]) == 0
        for name in ("decision.csv", "trace.csv"):
            assert (tmp_path / "doc" / name).read_bytes() == \
                (tmp_path / "gen" / name).read_bytes(), name

    @pytest.mark.parametrize("args, option", [
        (FAST, "--override"), (["--config", "conf.yaml"], "--config"),
        (["--devices", "4"], "--devices")])
    def test_generator_options_conflict(self, tmp_path, args, option):
        path = tmp_path / "scenario.yaml"
        dump_config_document([DeviceProfile(id=0)], SystemConfig(), path)
        with pytest.raises(SystemExit, match=f"cannot be combined with {option}$"):
            run_cli(["solve", "--scenario", str(path), *args, "--out", str(tmp_path)])
        assert not (tmp_path / "trace.csv").exists()

    def test_missing_and_bad_documents_named(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        with pytest.raises(SystemExit, match=f"{missing}: No such file"):
            run_cli(["solve", "--scenario", str(missing), "--out", str(tmp_path)])
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"system": {}, "devices": [{"id": 0, "tx_power": 0}]}))
        with pytest.raises(SystemExit, match=r"bad.yaml: devices\[0\]: tx_power must be > 0"):
            run_cli(["solve", "--scenario", str(bad), "--out", str(tmp_path)])
        empty = tmp_path / "empty.yaml"
        empty.write_text(yaml.safe_dump({"system": {}, "devices": []}))
        with pytest.raises(SystemExit, match="empty.yaml: 'devices' lists no device"):
            run_cli(["solve", "--scenario", str(empty), "--out", str(tmp_path)])


class TestMalformedOverrides:
    """A setting of the wrong shape exits with one line naming its field."""

    @pytest.mark.parametrize("command", [
        ["solve", "--devices", "2"],
        ["sweep", "--param", "device_count", "--grid", "2", "--algorithms", "fmi",
         "--seeds", "1"],
    ])
    @pytest.mark.parametrize("override", [
        "event_rates=0.5",
        "maoi_weights=1",
        "tx_power=[1,2]",
        "tau_min=null",
        # a string field, and a boolean where a number goes
        "schedule_policy=[fixed]",
        "schedule_policy=3",
        "max_outer_iters=true",
    ])
    def test_exits_naming_the_field(self, tmp_path, monkeypatch, command, override):
        monkeypatch.setattr(baselines, "solve", lambda *a, **k: pytest.fail("solved"))
        field = override.split("=", 1)[0]
        with pytest.raises(SystemExit) as exc:
            run_cli([*command, "--override", override, "--out", str(tmp_path)])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"{field}: expected ")
        assert not any(tmp_path.iterdir())


class TestSeedOption:
    @pytest.mark.parametrize("command", [
        ["solve", "--devices", "2"],
        ["sweep", "--param", "device_count", "--grid", "2", "--algorithms", "fmi",
         "--seeds", "1"],
        ["validate-oracle", "--updates", "2000"],
    ])
    def test_negative_seed_named(self, tmp_path, command):
        with pytest.raises(SystemExit,
                           match="seed must be a non-negative integer, got -1"):
            run_cli([*command, "--seed", "-1", "--out", str(tmp_path)])
        assert not any(tmp_path.iterdir())


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "maoi_edge.cli", "validate-oracle",
             "--updates", "2000", "--z", "100", "--out", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "points bracketed" in proc.stdout
