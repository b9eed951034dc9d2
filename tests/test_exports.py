import importlib
import pkgutil

import pytest

import crosskv

MODULES = sorted(info.name for info in pkgutil.iter_modules(crosskv.__path__))


def test_modules_found():
    assert {"model", "rope", "sharing", "tensor"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(f"crosskv.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace: dict = {}
    exec(f"from crosskv.{name} import *", namespace)  # what a star import binds
    assert set(exported) <= set(namespace)
