"""Every function the benchmark's layer trace wraps still exists, and every
measure it takes still reads the result it is given.

perfbench/layertrace.py reports a renamed or deleted target, or a measure
that breaks on a changed result shape, as missing and carries on, so
without these checks a refactor would quietly drop a layer from the
benchmark's per-layer metrics.
"""

import importlib

import pytest

import mongesym.liealg
import mongesym.linalg
import mongesym.solver
from mongesym import cli

from helpers import perfbench_module


def layertrace():
    return perfbench_module("layertrace")


@pytest.mark.parametrize("module_name,attribute",
                         sorted({t[:2] for t in layertrace().TARGETS}))
def test_trace_target_resolves(module_name, attribute):
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_trace_measures_read_every_result(capsys):
    recorder = layertrace().Recorder()
    recorder.install()
    try:
        for argv in (("solve", "eq2", "--degree", "1", "--json"),
                     ("structure", "eq2", "--json"),
                     ("verify", "eq2", "S1", "--json"),
                     ("genericity", "eq2", "--json")):
            assert cli.main(list(argv)) == 0, argv
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert recorder.missing == []
    for counter in ("solver.unknowns", "solver.rows", "linalg.sparse_nullspace.rank",
                    "liealg.close_under_bracket.pairs"):
        assert counter in recorder.counters, counter
