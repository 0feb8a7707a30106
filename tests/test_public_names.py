"""Every name a ringlab module lists in __all__ exists: a public function
deleted without its __all__ entry breaks `from ringlab.x import *` and
any tool that wraps the listed names.  Every ringlab name that
scripts/calibrate.py uses exists as well."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ringlab

MODULES = ["ringlab"] + [m.name for m in pkgutil.iter_modules(
    ringlab.__path__, "ringlab.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


CALIBRATE = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"


def test_calibrate_script_names_exist():
    # scripts/calibrate.py is never run by the tests, so a name deleted
    # from ringlab that it still uses would otherwise go unnoticed; the
    # script is parsed here, not imported
    tree = ast.parse(CALIBRATE.read_text(), filename=str(CALIBRATE))
    modules = {}        # the script's name for each imported ringlab module
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "ringlab"):
            continue
        parent = importlib.import_module(node.module)
        for alias in node.names:
            name = f"{node.module}.{alias.name}"
            try:
                modules[alias.asname or alias.name] = (
                    importlib.import_module(name))
            except ModuleNotFoundError:     # not a module: a name in parent
                if not hasattr(parent, alias.name):
                    missing.append(name)
    assert {"est", "ev", "fl"} <= set(modules), sorted(modules)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert not missing, f"{CALIBRATE.name} uses missing names {missing}"
