"""The benchmark's tracer patches wenum functions by name; keep them there."""

import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    missing = [
        f"wenum.{layer}.{name}"
        for layer, names in trace.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"wenum.{layer}"), name)
    ]
    assert not missing
