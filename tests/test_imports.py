"""Every name a module imports at module level is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gainforge

MODULES = sorted(p for p in Path(gainforge.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
