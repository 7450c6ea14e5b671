"""Every name that a module of the package imports is used in it, or
listed in its __all__: an import left behind by a refactor fails here."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ramavg").glob("*.py"))


def unused_imports(source):
    """The names the source's imports bind that it neither reads nor lists
    in __all__, sorted; from __future__ imports bind nothing."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names} - {"*"}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from itertools import chain, starmap\n"
        "from itertools import product as iter_product\n"
        "from .arith import mobius\n"
        "__all__ = ['mobius']\n"
        "print(chain, os.sep)\n"
    )
    assert unused_imports(source) == ["iter_product", "j", "starmap"]
