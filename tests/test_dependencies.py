"""The package imports only the standard library, itself and the runtime
dependencies that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path):
    """The top-level names of the absolute imports of one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def declared_dependencies():
    """The distribution names of [project] dependencies, normalized as
    import names (lower case, "-" and "." as "_")."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements)
    return {re.sub(r"[-.]", "_", name.lower()) for name in names}


def test_the_package_imports_only_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"ramavg"} | declared_dependencies()
    undeclared = {
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "ramavg").glob("*.py"))
        for name in imported_modules(path)
        if name not in allowed
    }
    assert not undeclared, f"imports missing from pyproject.toml's dependencies: {undeclared}"
