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
