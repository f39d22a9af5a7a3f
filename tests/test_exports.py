"""The package's public names: each module's __all__ and the top-level
imports agree, so deleting a name leaves no stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import capedu

MODULES = sorted(info.name for info in pkgutil.iter_modules(capedu.__path__))


def public(module):
    """The names `from module import *` takes: __all__, or without it every
    name that has no leading underscore."""
    return getattr(module, "__all__",
                   [name for name in vars(module) if not name.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"capedu.{name}")
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []


def test_top_level_imports_are_public():
    tree = ast.parse(Path(capedu.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1  # from .module import ...
        module = importlib.import_module(f"capedu.{node.module}")
        for alias in node.names:
            assert alias.name in public(module), (node.module, alias.name)
            assert getattr(capedu, alias.asname or alias.name) is \
                getattr(module, alias.name)
