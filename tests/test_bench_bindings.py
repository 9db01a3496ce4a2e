"""Every faultlab name that the benchmark's tracer wraps still exists.

`perfbench/tracing.py` wraps functions by module and name (`SPECS`) and
methods by module, class and name (`METHOD_SPECS`). A rename in faultlab
would otherwise only show up when a `--trace 1` benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,function", [s[:2] for s in tracing.SPECS])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


@pytest.mark.parametrize("module,cls,method", [s[:3] for s in tracing.METHOD_SPECS])
def test_traced_method_resolves(module, cls, method):
    # the tracer replaces the method in the class's own namespace
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])
