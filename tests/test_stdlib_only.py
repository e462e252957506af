"""The package imports nothing outside the standard library at runtime."""

import ast
import pathlib
import sys

import pytest

import mongesym

SOURCES = sorted(pathlib.Path(mongesym.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in the file, at any
    depth (imports inside functions count)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "solver.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}"
