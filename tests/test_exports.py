"""Every name a gorlink module lists in __all__ exists, so that
``from gorlink.<module> import *`` works and no removed name lingers."""

import importlib
import pkgutil

import pytest

import gorlink

MODULES = [m.name for m in pkgutil.iter_modules(gorlink.__path__)]


def test_modules_found():
    assert {"gf", "splitstats", "unipoly"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("gorlink." + name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec("from gorlink.%s import *" % name, namespace)
    assert set(exported) <= set(namespace)
