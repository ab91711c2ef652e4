"""Every name a tenspart module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import tenspart

MODULES = sorted(info.name for info in pkgutil.iter_modules(tenspart.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"tenspart.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from tenspart.{name} import *", namespace)  # what a user's star import runs
    assert set(exported) <= set(namespace)
