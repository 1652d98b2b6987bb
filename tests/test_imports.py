"""Every name a module imports at module level is used in that module, and
every module-level private name in the package is referenced somewhere."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import gainforge

PACKAGE = Path(gainforge.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import (``__future__`` aside) -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Import):
            names.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and constants -> their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def _referenced(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names imported anywhere in a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_every_public_function_and_class_has_a_docstring():
    public = [getattr(gainforge, name) for name in gainforge.__all__]
    bare = [obj.__name__ for obj in public
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and not inspect.getdoc(obj)]
    assert not bare, f"public names without a docstring: {bare}"


def test_no_unreferenced_private_module_names():
    # what a simplification leaves behind: a helper nothing calls any more
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "bench").glob("*.py")]
    refs = set().union(*(_referenced(ast.parse(p.read_text(), filename=str(p)))
                         for p in sources))
    dead = {f"{path.name}:{line} {name}"
            for path in MODULES
            for name, line in _private_definitions(ast.parse(path.read_text())).items()
            if name not in refs}
    assert not dead, f"module-level private names nothing references: {sorted(dead)}"
