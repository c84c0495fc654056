"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import frobenius

MODULES = ["frobenius"] + [
    f"frobenius.{info.name}" for info in pkgutil.iter_modules(frobenius.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
