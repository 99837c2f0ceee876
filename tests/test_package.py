"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import mmls

MODULES = [mmls] + [
    importlib.import_module(f"mmls.{info.name}") for info in pkgutil.iter_modules(mmls.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=[module.__name__ for module in MODULES])
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
