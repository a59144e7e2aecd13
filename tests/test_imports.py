"""Every module of the package uses each name it imports, imports only the modules below it, none imports a
test-only dependency, and each public definition has a caller besides the tests."""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

import pytest

import duetbench

PACKAGE = sorted(Path(duetbench.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TEST_ONLY = {"scipy", "hypothesis", "pytest"}  # the `test` extra of pyproject.toml, not needed to run
# The package's layers, lowest first: a module imports only modules before it, so no import cycle can form.
LAYERS = ["errors", "workloads", "measurement", "executor", "analysis", "config", "simenv", "strategies", "harness",
          "cli", "__main__"]


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


def _package_imports(tree: ast.Module) -> set[str]:
    """The modules of the package a module imports, by relative import."""
    return {(node.module or "").partition(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_each_module_imports_only_lower_layers(path):
    assert path.stem in LAYERS, f"{path.name} has no place in LAYERS"
    below = set(LAYERS[: LAYERS.index(path.stem)])
    above = _package_imports(ast.parse(path.read_text(encoding="utf-8"))) - below
    assert not above, f"{path.name} imports {sorted(above)}, which are not below it in LAYERS"


def test_simenv_defines_no_class():
    """The model module holds no state: a simulated instance lives in `strategies.SimulatedInstance`."""
    tree = ast.parse(Path(duetbench.simenv.__file__).read_text(encoding="utf-8"))
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


PERFBENCH = [p for p in sorted((Path(duetbench.__file__).parents[2] / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
# Public, but with no caller besides the tests: the reference that the exact CI is checked against.
TEST_REFERENCES = {"percentile_interval"}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Each public function, class and method a module defines, with its line."""
    for node in tree.body:
        for definition in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
            if isinstance(definition, _DEFINITIONS) and not definition.name.startswith("_"):
                yield definition.name, definition.lineno


def _named(tree: ast.AST) -> set[str]:
    """Every name the code reads, as a name or an attribute, or imports."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rpartition(".")[2])
    return named


def test_every_public_definition_has_a_caller_besides_the_tests():
    """An option or a second path that only a test takes is kept out of the package: each public function, class
    and method is named in a package module other than `__init__.py` (its own included) or in the benchmark."""
    named = set().union(*(_named(ast.parse(p.read_text(encoding="utf-8"))) for p in [*SOURCES, *PERFBENCH]))
    uncalled = [f"{p.name}:{line} {name}" for p in PACKAGE
                for name, line in _public_definitions(ast.parse(p.read_text(encoding="utf-8")))
                if name not in named | TEST_REFERENCES]
    assert not uncalled, f"public definitions that only the tests name: {uncalled}"
