"""The package's export lists agree with what its modules define.

Each module's ``__all__`` names only what the module has, and ``pinbeam``
re-exports only names that the module it imports them from lists.  A helper
deleted from a module must leave both lists with it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pinbeam

MODULES = sorted(m.name for m in pkgutil.iter_modules(pinbeam.__path__))
WITH_ALL = [m for m in MODULES if hasattr(importlib.import_module(f"pinbeam.{m}"), "__all__")]


@pytest.mark.parametrize("module", WITH_ALL)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"pinbeam.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(pinbeam.__file__).read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
        and alias.name not in importlib.import_module(f"pinbeam.{node.module}").__all__
    ]
    assert unlisted == []
