"""The benchmark's tracer patches wenum functions by name, its inputs call
them with keywords, and its certify run counts each verb's roots_of span;
keep all three there."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_trace", PERFBENCH / "trace.py"
    )
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


def test_traced_names_exist():
    missing = [
        f"wenum.{layer}.{name}"
        for layer, names in _trace().TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"wenum.{layer}"), name)
    ]
    assert not missing


def test_benchmark_keywords_exist():
    layer_of = {name: layer for layer, names in _trace().TRACED.items() for name in names}
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


def test_each_verb_solves_roots_once_under_its_own_span():
    # the certify run counts root solves by the roots_of spans whose parent
    # is a certify_trivial span, so both verbs call roots_of directly
    from wenum.codes import WeightEnumerator

    stabilizer = importlib.import_module("wenum.stabilizer")
    gleason = WeightEnumerator((1, 0, 0, 0, 14, 0, 0, 0, 1))
    for verb in ("certify_trivial", "compute_stabilizer"):
        tracer = _trace().Tracer()
        with tracer.patch():
            getattr(stabilizer, verb)(gleason, 2)
        spans = tracer.spans
        top = [i for i, sp in enumerate(spans) if sp[3] < 0]
        assert [spans[i][0] for i in top] == [f"stabilizer.{verb}"]
        solves = [sp for sp in spans if sp[0] == "roots.roots_of"]
        assert [sp[3] for sp in solves] == top


def test_each_enumeration_is_one_span():
    # the enumerate run adds q^k of every codes.enumerate_weights span to its
    # word count, so the summands of a direct sum and decompose_case_c's W
    # check are enumerated below that one span
    codes = importlib.import_module("wenum.codes")
    from wenum.fields import GF

    f3 = GF(3)
    pair = codes.LinearCode(f3, [[1, 2]])
    block = codes.LinearCode(f3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    split = codes.direct_sum(codes.direct_sum(block, pair), block)
    for verb, code in (("enumerate_weights", split),
                       ("decompose_case_c", codes.direct_sum(pair, pair))):
        tracer = _trace().Tracer()
        with tracer.patch():
            getattr(codes, verb)(code)
        spans = tracer.spans
        top = [i for i, sp in enumerate(spans) if sp[3] < 0]
        assert [spans[i][0] for i in top] == [f"codes.{verb}"]
        counts = [sp for sp in spans if sp[0] == "codes.enumerate_weights"]
        assert len(counts) == 1 and counts[0][5] == (3, code.n, code.k)
