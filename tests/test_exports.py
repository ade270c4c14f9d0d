"""Every name a module exports in ``__all__`` exists.

A rename or removal that leaves a stale entry in ``__all__`` breaks only
``from stochnewton.<module> import *``; this test makes it fail here.
"""

import importlib
import pkgutil

import pytest

import stochnewton

MODULES = sorted(info.name for info in pkgutil.iter_modules(stochnewton.__path__))


def test_every_module_is_listed():
    assert {"filtering", "linalg", "objectives", "optim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stochnewton.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"stochnewton.{name}.__all__ names missing attributes: {missing}"
