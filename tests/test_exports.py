"""Every name a module exports in ``__all__`` exists, and the package re-exports it.

A rename or removal that leaves a stale entry in ``__all__`` breaks only
``from stochnewton.<module> import *``; the first test makes it fail
here. The package's public names are the library modules' ``__all__``
lists and nothing else, so the second test checks that each of those
names is bound on ``stochnewton`` to the module's own object.
"""

import importlib
import pkgutil

import pytest

import stochnewton

MODULES = sorted(info.name for info in pkgutil.iter_modules(stochnewton.__path__))
# The command line is an entry point, not part of the library.
LIBRARY = [name for name in MODULES if name != "cli"]


def test_every_module_is_listed():
    assert {"filtering", "linalg", "objectives", "optim"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stochnewton.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"stochnewton.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", LIBRARY)
def test_the_package_reexports_every_exported_name(name):
    module = importlib.import_module(f"stochnewton.{name}")
    wrong = [attr for attr in module.__all__
             if getattr(stochnewton, attr, None) is not getattr(module, attr)]
    assert not wrong, f"stochnewton does not bind these names of stochnewton.{name}: {wrong}"
