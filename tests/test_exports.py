"""Every exported name resolves, so a removed function cannot linger in an export list.

The trace format's own constants are spelled in ``engine`` alone.
"""

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


def _spellings(tree: ast.AST):
    """The ``2**63`` expressions and ``"gpu0"``/``"nic0"`` constants in a syntax tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant) and node.left.value == 2
                and isinstance(node.right, ast.Constant) and node.right.value == 63):
            yield "2**63"
        elif isinstance(node, ast.Constant) and node.value in ("gpu0", "nic0"):
            yield node.value


def test_integer_range_and_lane_ids_are_spelled_once_in_engine():
    found: dict[str, list[str]] = {}
    for path in sorted(Path(colosim.__file__).parent.glob("*.py")):
        for spelling in _spellings(ast.parse(path.read_text())):
            found.setdefault(spelling, []).append(path.name)
    assert found == {"2**63": ["engine.py"], "gpu0": ["engine.py"], "nic0": ["engine.py"]}
