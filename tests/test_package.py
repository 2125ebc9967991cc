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
        "Scenario", "generate_scenario", "DeviceProfile", "DeviceTable",
        "ModalityKind", "SystemConfig", "load_config_document", "__version__",
    }


def callers(source: str, callee: str) -> list[str]:
    """The function around each call of ``callee`` in ``source``, in source
    order; a call outside every function reads ``<module>``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


SOURCES = sorted(Path(maoi_edge.__file__).parent.glob("*.py"))


def test_profiles_become_a_table_at_two_entries_only():
    # every solver below these two entries takes a DeviceTable, so no other
    # code may read a DeviceProfile list into one
    calls = [(path.name, where) for path in SOURCES
             for where in callers(path.read_text(), "as_device_table")]
    assert calls == [("baselines.py", "solve"), ("system_model.py", "load_config_document")]


def test_callers_are_reported():
    source = ("import m\nm.f()\ndef g():\n    f(1)\n    def h():\n        return f\n"
              "    return lambda: f()\nclass C:\n    def k(self):\n        m.f(f)\n")
    assert callers(source, "f") == ["<module>", "g", "g", "k"]


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_declared_dependencies(path):
    # a clean install has only these; another package on this interpreter
    # would pass every other test and fail there
    assert undeclared_imports(path.read_text()) == []


def test_undeclared_import_is_reported():
    source = "import scipy.stats\nfrom sklearn import svm\nimport numpy, json\nfrom . import metric\n"
    assert undeclared_imports(source) == ["scipy.stats", "sklearn"]
