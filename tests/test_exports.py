"""Every exported name resolves, so a removed function cannot linger in an export list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import colosim

MODULES = sorted(m.name for m in pkgutil.iter_modules(colosim.__path__, "colosim."))


def test_modules_found():
    assert {"colosim.comm", "colosim.workload", "colosim.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(colosim.__file__).read_text())
    imported = [(node.module, alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"colosim.{module}")
        assert hasattr(source, name), f"colosim.{module} has no {name}"
        assert getattr(colosim, name) is getattr(source, name)
