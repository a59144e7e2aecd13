"""Every module of the package uses each name it imports, and none imports a test-only dependency."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import duetbench

PACKAGE = sorted(Path(duetbench.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TEST_ONLY = {"scipy", "hypothesis", "pytest"}  # the `test` extra of pyproject.toml, not needed to run


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    """Every name the code reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_a_test_only_dependency(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {(alias.name if isinstance(node, ast.Import) else node.module or "").partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names}
    assert not modules & TEST_ONLY, f"{path.name} imports {sorted(modules & TEST_ONLY)}"
