"""Every exported name resolves, so a removed function cannot linger in an export list.

The exported names are exactly the public API README documents, and the
trace format's own constants are spelled in ``engine`` alone.
"""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import colosim

MODULES = sorted(m.name for m in pkgutil.iter_modules(colosim.__path__, "colosim."))
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# The module names README's Library section says ``colosim`` does not re-export.
NOT_AT_TOP_LEVEL = {"cost_terms", "MAX_JOB_ITERATIONS"}


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


def _exports() -> dict[str, set[str]]:
    """Each exporting module's names: ``colosim``'s public ones and every ``__all__``."""
    exports = {"colosim": {name for name, value in vars(colosim).items()
                           if not name.startswith("_") and not isinstance(value, ModuleType)}}
    for name in MODULES:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            exports[name] = set(module.__all__)
    return exports


def test_every_export_is_named_in_the_readme():
    words = set(re.findall(r"\w+", README))
    undocumented = sorted(set().union(*_exports().values()) - words)
    assert not undocumented, f"exported but not named in README: {undocumented}"


def _library_list() -> dict[str, list[str]]:
    """README's API list: the names in backticks after each ``* `colosim.<module>`:``."""
    library = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^\* `(colosim\.\w+)`:((?:.|\n  )*)", library, re.M)
    return {module: re.findall(r"`(\w+)`", names) for module, names in items}


def test_the_library_section_lists_each_export_once():
    listed = _library_list()
    exports = _exports()
    named = [name for names in listed.values() for name in names]
    assert [name for name, n in Counter(named).items() if n > 1] == []
    assert {module: set(names) for module, names in listed.items()} == {
        module: names for module, names in exports.items() if module != "colosim"}
    equivalence = set(listed["colosim.equivalence"])
    assert exports["colosim"] == set(named) - NOT_AT_TOP_LEVEL - equivalence
