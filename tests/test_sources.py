from __future__ import annotations

import ast
from pathlib import Path

import heckelab

PACKAGE = Path(heckelab.__file__).parent


def test_no_bare_assert_in_the_package():
    # ``python -O`` strips assert statements; the library's internal
    # checks raise AssertionError explicitly so they run either way
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no Name node of the module reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_no_unused_import_in_the_package():
    found = {path.name: unused
             for path in sorted(PACKAGE.glob("*.py"))
             if (unused := _unused_imports(ast.parse(path.read_text(),
                                                     str(path))))}
    assert not found, found
