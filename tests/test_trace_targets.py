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


def test_basis_max_bits_reads_the_entries_of_the_basis(monkeypatch, capsys):
    # linalg.basis_max_bits is the largest bit length among the entries of
    # sparse_nullspace's basis: a sparse result keyed by column must not make
    # it the bits of column indices instead
    calls = []

    def spy(rows, ncols, counts=None):  # reaches the recorder's wrapper
        result = mongesym.linalg.sparse_nullspace(rows, ncols, counts)
        calls.append((ncols, result[1]))
        return result

    monkeypatch.setattr(mongesym.solver, "sparse_nullspace", spy)
    recorder = layertrace().Recorder()
    recorder.install()
    try:
        assert cli.main(["solve", "eq2", "--degree", "3", "--json"]) == 0
    finally:
        recorder.uninstall()
    capsys.readouterr()
    [(ncols, basis)] = calls
    bits = max(abs(x).bit_length() for vector in basis
               for x in (vector.values() if isinstance(vector, dict) else vector))
    assert recorder.maxima["linalg.basis_max_bits"] == bits
    assert bits < (ncols - 1).bit_length()  # 280 columns
