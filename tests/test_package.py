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
