"""Every function the benchmark's layer trace wraps still exists.

perfbench/layertrace.py reports a renamed or deleted target as missing and
carries on, so without this check a refactor would quietly drop a layer
from the benchmark's per-layer metrics.
"""

import importlib
import importlib.util
import os
import sys

import pytest

LAYERTRACE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layertrace.py")


def trace_targets():
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TARGETS


@pytest.mark.parametrize("module_name,attribute",
                         sorted({t[:2] for t in trace_targets()}))
def test_trace_target_resolves(module_name, attribute):
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
