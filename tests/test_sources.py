from __future__ import annotations

import ast
from pathlib import Path

import heckelab

PACKAGE = Path(heckelab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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
    # the scripts and the tests are held to the same rule as the package
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("scripts/*.py")),
             *sorted(ROOT.glob("tests/*.py"))]
    assert len(paths) > len(list(PACKAGE.glob("*.py")))
    found = {f"{path.parent.name}/{path.name}": unused for path in paths
             if (unused := _unused_imports(ast.parse(path.read_text(),
                                                     str(path))))}
    assert not found, found


def _imports_of(module: str) -> list[str]:
    """Where the package or a script imports ``module`` or one of its
    submodules, as ``dir/file:line``."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("scripts/*.py"))]
    return [f"{path.parent.name}/{path.name}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == module for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == module]


def test_no_numpy_import_in_the_package_or_the_scripts():
    # every exhaustive check runs in exact Python ints; numpy is a test
    # dependency of the distinct-product oracle alone
    found = _imports_of("numpy")
    assert not found, found


def test_no_dataclasses_import_in_the_package_or_the_scripts():
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # decorated class compiles its methods: start-up cost on every CLI
    # process.  Records are NamedTuples or subclasses of _record.Record
    found = _imports_of("dataclasses")
    assert not found, found


def _unread_private_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """Private functions and classes (``_name``, dunders excepted) that no
    Name, Attribute or import alias of the package reads outside their
    own definition."""
    defined: dict[str, str] = {}
    read: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                defined.setdefault(name, f"{where}:{node.lineno}")
            enclosing = enclosing | {name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        else:
            names = []
        read.update(n for n in names if n and n not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, where)

    for where, tree in trees.items():
        visit(tree, frozenset(), where)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in read)


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    found = _unread_private_helpers(trees)
    assert not found, found


def test_unread_private_helper_is_found():
    tree = ast.parse(
        "def _dead(x):\n    return _dead(x - 1) if x else 0\n"
        "def _used():\n    return 1\n"
        "class _Kept:\n    def _method(self):\n        return _used()\n"
        "_Kept()._method()\n")
    assert _unread_private_helpers({"m.py": tree}) == ["_dead (m.py:1)"]
