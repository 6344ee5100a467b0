"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import adiab

MODULES = ["adiab"] + [f"adiab.{info.name}" for info in pkgutil.iter_modules(adiab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [item for item in exported if not hasattr(module, item)] == []


def test_star_import():
    namespace = {}
    exec("from adiab import *", namespace)
    assert set(adiab.__all__) <= set(namespace)
