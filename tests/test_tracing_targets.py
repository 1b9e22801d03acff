"""Every name the benchmark's tracer wraps still exists.

perfbench/tracing.py patches (module, attribute) pairs of hyperstruct while a
traced pass runs; a renamed or deleted target would only fail there, so it is
resolved here on every test run.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracing()
TARGETS = sorted({t for targets in _T.LAYERS.values() for t in targets} | set(_T.COUNTERS))


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_target_resolves(module_name, attr):
    owner = importlib.import_module(f"hyperstruct.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
