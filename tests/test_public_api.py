"""Every name a tenspart module exports through ``__all__`` exists, and the
package exports nothing that its modules do not."""

import importlib
import inspect
import pkgutil
import types

import pytest

import tenspart

MODULES = sorted(info.name for info in pkgutil.iter_modules(tenspart.__path__))

# helpers and knobs that only tests and demos reached, deleted with them
DELETED_NAMES = ["symmetric_embed", "permute_mode"]
DELETED_ATTRIBUTES = [
    ("SparseTensor3", "from_entries"),
    ("SparseTensor3", "slice_runs"),
    ("SparseTensor3", "entries"),
    ("ExpansionTerm", "lambda_sum_ratio"),
]
DELETED_KEYWORDS = [
    ("partition_report", "top_k"),
    ("partition_tensor", "top_k"),
    ("hosvd_init", "sketch"),
    ("LabelTable.default", "prefix"),
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"tenspart.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from tenspart.{name} import *", namespace)  # what a user's star import runs
    assert set(exported) <= set(namespace)


def test_package_exports_are_module_exports():
    # a name on the package that its module does not export is one that
    # nothing documents as public and nothing keeps in step
    stray = []
    for name, value in vars(tenspart).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        module = importlib.import_module(value.__module__)
        if name not in getattr(module, "__all__", []):
            stray.append(f"{value.__module__}.{name}")
    assert stray == []


@pytest.mark.parametrize("name", DELETED_NAMES)
def test_deleted_names_do_not_resolve(name):
    owners = [tenspart] + [importlib.import_module(f"tenspart.{m}") for m in MODULES]
    assert [owner.__name__ for owner in owners if hasattr(owner, name)] == []


@pytest.mark.parametrize("owner, name", DELETED_ATTRIBUTES)
def test_deleted_attributes_do_not_resolve(owner, name):
    assert not hasattr(getattr(tenspart, owner), name)


@pytest.mark.parametrize("function, keyword", DELETED_KEYWORDS)
def test_deleted_keywords_are_not_taken(function, keyword):
    fn = tenspart
    for part in function.split("."):
        fn = getattr(fn, part)
    assert keyword not in inspect.signature(fn).parameters
