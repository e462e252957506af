"""The package imports nothing outside the standard library at runtime, and
no `dataclasses`."""

import ast
import os
import pathlib
import subprocess
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # every @dataclass builds and execs its methods at import, and the
    # module pulls in inspect: every command-line call would pay for both
    assert "dataclasses" not in set(absolute_imports(path))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(mongesym.__file__).parent.parent)
    probe = ("import mongesym.cli, sys; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
