"""Every name a ``sumfact`` module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import sumfact

MODULES = sorted(f"sumfact.{m.name}" for m in pkgutil.iter_modules(sumfact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
