"""No module in src/, tests/ or tools/ imports a name it never uses.

The repository runs no linter, so this stdlib check stands in for one: a
name bound by an import must be read somewhere in the module, in code, in
a string annotation or in __all__."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree):
    """(name, line) of every name an import binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name != "*" and name not in used]
    assert unused == []
