import importlib
import pkgutil

import pytest

import maoi_edge

MODULES = ["maoi_edge"] + [f"maoi_edge.{m.name}"
                           for m in pkgutil.iter_modules(maoi_edge.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_public_api_is_pinned():
    # a change to the package's public names has to be made here as well
    assert set(maoi_edge.__all__) == {
        "ALGORITHMS", "solve", "OBJECTIVE_AOI", "OBJECTIVE_MAOI",
        "avg_maoi_modality", "Decision", "ScenarioEvaluator", "SolveTrace",
        "solve_jso", "TrajectoryStats", "simulate_avg_maoi",
        "simulate_avg_maoi_device", "Scenario", "generate_scenario",
        "DeviceProfile", "ModalityKind", "SystemConfig", "load_config_document",
        "__version__",
    }
