"""Every name a ``sumfact`` module exports in ``__all__`` exists in it, and
no module reads another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sumfact

MODULES = sorted(f"sumfact.{m.name}" for m in pkgutil.iter_modules(sumfact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    package = Path(sumfact.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Names bound to sibling modules by ``from . import m``.
        siblings = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}:{node.lineno}" for a in node.names if _private(a.name)]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and _private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
