"""The package imports nothing outside the standard library at runtime, and
no `dataclasses`; a command loads only the layers it runs."""

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


def probe(code):
    """What `code` prints in a fresh interpreter without site packages."""
    src = str(pathlib.Path(mongesym.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import mongesym.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert probe(code) == "[]\n"


# the layers a command-line call never runs when it only verifies
HEAVY = ("mongesym.liealg", "mongesym.linalg", "mongesym.solver")


def loaded_after(*argv):
    """The HEAVY modules loaded once `import mongesym.cli` and, when argv is
    given, one main(argv) call have run."""
    code = "import contextlib, io, sys, mongesym.cli\n"
    if argv:
        code += ("with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert mongesym.cli.main({list(argv)!r}) == 0\n")
    return probe(code + f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")


@pytest.mark.parametrize("argv", [(), ("verify", "eq2", "S1", "--json")],
                         ids=["import", "verify"])
def test_verifying_loads_no_algebra_or_solver_layer(argv):
    assert loaded_after(*argv) == "[]\n"


def test_structure_loads_the_algebra_layers_but_not_the_solver():
    assert loaded_after("structure", "eq2") == "['mongesym.liealg', 'mongesym.linalg']\n"


def test_every_exported_name_is_its_home_module_object():
    code = ("import importlib, mongesym\n"
            "for name, module in mongesym._HOME.items():\n"
            "    home = importlib.import_module('mongesym.' + module)\n"
            "    assert getattr(mongesym, name) is getattr(home, name), name\n"
            "print(sorted(mongesym.__all__) == sorted(mongesym._HOME))")
    assert probe(code) == "True\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mongesym.no_such_name
