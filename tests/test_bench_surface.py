"""The benchmark's tracer patches wenum functions by name, and its inputs
call them with keywords; keep both there."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_trace", PERFBENCH / "trace.py"
    )
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace.TRACED


def test_traced_names_exist():
    missing = [
        f"wenum.{layer}.{name}"
        for layer, names in _traced().items()
        for name in names
        if not hasattr(importlib.import_module(f"wenum.{layer}"), name)
    ]
    assert not missing


def test_benchmark_keywords_exist():
    layer_of = {name: layer for layer, names in _traced().items() for name in names}
    passed, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in layer_of
            ):
                continue
            name = node.func.attr
            module = importlib.import_module(f"wenum.{layer_of[name]}")
            params = inspect.signature(getattr(module, name)).parameters
            for kw in node.keywords:
                passed.add((name, kw.arg))
                if kw.arg not in params:
                    missing.append(f"{path.name}: {name}({kw.arg}=...)")
    assert ("enumerate_weights", "workers") in passed
    assert not missing
