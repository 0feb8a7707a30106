"""Every name a ringlab module lists in __all__ exists: a public function
deleted without its __all__ entry breaks `from ringlab.x import *` and
any tool that wraps the listed names."""

import importlib
import pkgutil

import pytest

import ringlab

MODULES = ["ringlab"] + [m.name for m in pkgutil.iter_modules(
    ringlab.__path__, "ringlab.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
