"""Every module of the package reads each name it imports.

`__init__.py` is exempt: its imports are the package's public surface.  So
is `from __future__ import annotations`, which binds no name the code reads.
A name counts as read when it appears as a name anywhere in the module,
annotations included, or inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitwise"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(line, bound name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = ()
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = (node.annotation,)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = (node.returns,)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= read_names(ast.parse(ann.value, mode="eval"))
    return names


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = read_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for line, name in imported_names(tree) if name not in read]
    assert not unused, "imported but never read: " + ", ".join(unused)
