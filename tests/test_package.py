import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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
        "TrajectoryStats", "simulate_avg_maoi", "simulate_avg_maoi_device",
        "Scenario", "generate_scenario", "DeviceProfile", "ModalityKind",
        "SystemConfig", "load_config_document", "__version__",
    }


#: What ``pyproject.toml`` declares, by import name (pyyaml imports as ``yaml``).
DECLARED = {"numpy", "yaml"}


def undeclared_imports(source: str) -> list[str]:
    """Top-level names that ``source`` imports from neither the standard
    library, a declared dependency nor the package itself (a relative import)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in
            {*sys.stdlib_module_names, *DECLARED, "maoi_edge"}]


@pytest.mark.parametrize("path", sorted(Path(maoi_edge.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    # a clean install has only these; another package on this interpreter
    # would pass every other test and fail there
    assert undeclared_imports(path.read_text()) == []


def test_undeclared_import_is_reported():
    source = "import scipy.stats\nfrom sklearn import svm\nimport numpy, json\nfrom . import metric\n"
    assert undeclared_imports(source) == ["scipy.stats", "sklearn"]
