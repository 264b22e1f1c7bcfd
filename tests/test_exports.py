"""The package's and every submodule's ``__all__`` name things that exist, each once."""

import importlib
import pkgutil

import pytest

import mediancr

MODULES = ["mediancr"] + sorted(f"mediancr.{m.name}" for m in pkgutil.iter_modules(mediancr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
