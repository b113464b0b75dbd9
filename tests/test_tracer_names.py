"""The benchmark tracer patches names by string; each must still exist.

``perfbench/tracing.py`` raises on a listed name the package lacks, but
only in a traced benchmark run.  This guard fails the test suite instead
when a rename or deletion in ``mtshapes`` leaves the tracer's lists
behind.  The tracer module is loaded by path and not edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mtshapes import TreeShape

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_spanned_and_counted_names_exist(tracing):
    names = [(m, a) for m, a, *_ in tracing.SPANNED + tracing.COUNTED]
    assert names
    missing = [
        f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)
    ]
    assert missing == []


def test_spanned_methods_exist(tracing):
    assert tracing.SPANNED_METHODS
    missing = [a for a, _ in tracing.SPANNED_METHODS if not hasattr(TreeShape, a)]
    assert missing == []
