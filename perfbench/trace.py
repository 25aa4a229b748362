"""Spans around the public functions of wenum's layers, from outside.

`Tracer.patch()` rebinds each traced function, on every wenum module
object that holds it (the defining module and the modules that imported
the name), to a wrapper that records a span, and restores the originals
on exit.  No file of the program changes.  Spans stay in memory until
the run writes them out.

A span is (name, start_ns, end_ns, parent, target, info): `parent` is
the index of the enclosing span or -1, `target` the index of the target
being timed (-1 during set-up), and `info` a small value taken from the
arguments or the result where a metric needs one.  A span's self time
is its duration minus that of its children; calls are never concurrent
while tracing is on, so children do not overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter_ns

# layer -> public functions timed in that layer
TRACED = {
    "fields": ("GF",),
    "reedmuller": ("reed_muller", "projective_reed_muller"),
    "catalog": ("catalog",),
    "codes": ("enumerate_weights", "codewords_of_weight", "decompose_case_c"),
    "polyx": ("yun_squarefree", "monic_gcd"),
    "algebra": ("classify", "substitute_linear"),
    "roots": ("square_free", "find_roots", "certified_radii", "roots_of"),
    "stabilizer": ("compute_stabilizer", "certify_trivial", "solve_moebius"),
}

# span info: what a metric needs to know about one call
INFO = {
    "codes.enumerate_weights": lambda args, result: (args[0].q, args[0].n, args[0].k),
    "roots.find_roots": lambda args, result: (len(result), result.eps),
    "roots.roots_of": lambda args, result: len(result),
    "stabilizer.compute_stabilizer": lambda args, result: result.size,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.target = -1

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                extra = info(args, result) if info and result is not None else None
                spans[idx] = (name, start, end, parent, self.target, extra)

        return traced

    @contextlib.contextmanager
    def patch(self):
        modules = {layer: importlib.import_module(f"wenum.{layer}") for layer in TRACED}
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == "wenum" or key.startswith("wenum."))]
        undo = []
        try:
            for layer, names in TRACED.items():
                for fname in names:
                    orig = getattr(modules[layer], fname)
                    wrapper = self.wrap(f"{layer}.{fname}", orig)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is orig:
                                setattr(holder, attr, wrapper)
                                undo.append((holder, attr, orig))
            yield self
        finally:
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)


def span_cost(calls=20000):
    """Seconds that one timing wrapper adds to a call: a wrapped no-op
    against a bare one, best of five batches."""
    wrapped = Tracer().wrap("noop", lambda: None)

    def batch(fn):
        start = perf_counter_ns()
        for _ in range(calls):
            fn()
        return perf_counter_ns() - start

    cost = min(batch(wrapped) - batch(lambda: None) for _ in range(5))
    return max(cost, 0) / calls / 1e9


def self_times(spans):
    """Self time in ns of every span."""
    child = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(spans, traced_wall_s, span_cost_s):
    """Per-layer metrics of the traced pass (spans with target >= 0),
    plus set-up spans (target -1) under setup.*.  `span_cost_s` is the
    time one wrapper adds to a call (see span_cost)."""
    selfs = self_times(spans)
    total, own, calls = {}, {}, {}
    setup = {}
    for (name, start, end, _, target, _), s in zip(spans, selfs):
        if target < 0:
            layer = name.split(".")[0]
            setup[layer] = setup.get(layer, 0) + s
            continue
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + s
        calls[name] = calls.get(name, 0) + 1

    def sec(table, name):
        return table.get(name, 0) / 1e9

    timed = [sp for sp in spans if sp[4] >= 0]

    def under(child, parent):
        return [sp for sp in timed
                if sp[0] == child and sp[3] >= 0 and spans[sp[3]][0] == parent]

    enum = [sp for sp in timed if sp[0] == "codes.enumerate_weights"]
    words = sum(q**k for _, _, _, _, _, (q, n, k) in enum)
    symbols = sum(q**k * n for _, _, _, _, _, (q, n, k) in enum)
    big = sum(q**k for _, _, _, _, _, (q, n, k) in enum if k > n - k)
    finds = [sp[5] for sp in timed if sp[0] == "roots.find_roots" and sp[5]]
    elements = sum(sp[5] for sp in timed
                   if sp[0] == "stabilizer.compute_stabilizer" and sp[3] < 0 and sp[5] is not None)
    twists = len(under("algebra.substitute_linear", "stabilizer.compute_stabilizer"))
    attempts = [sp[5] for sp in under("roots.roots_of", "stabilizer.certify_trivial")]

    m = {
        "codes.enumerate_s": sec(total, "codes.enumerate_weights"),
        "codes.codewords": words,
        "codes.ns_per_symbol": total.get("codes.enumerate_weights", 0) / symbols if symbols else 0.0,
        "codes.collect_s": sec(total, "codes.codewords_of_weight"),
        "codes.big_side_share": big / words if words else 0.0,
        "polyx.yun_s": sec(total, "polyx.yun_squarefree"),
        "polyx.gcd_s": sec(total, "polyx.monic_gcd"),
        "algebra.classify_s": sec(total, "algebra.classify"),
        "algebra.substitute_s": sec(total, "algebra.substitute_linear"),
        "algebra.substitute_calls": calls.get("algebra.substitute_linear", 0),
        "roots.find_roots_s": sec(total, "roots.find_roots"),
        "roots.find_roots_calls": calls.get("roots.find_roots", 0),
        "roots.certified_radii_s": sec(total, "roots.certified_radii"),
        "roots.certified_radii_calls": calls.get("roots.certified_radii", 0),
        "roots.eps_max": max((eps for _, eps in finds), default=0.0),
        "roots.iterate_self_s": sec(own, "roots.find_roots"),
        "stabilizer.triples": calls.get("stabilizer.solve_moebius", 0),
        "stabilizer.solve_moebius_s": sec(total, "stabilizer.solve_moebius"),
        "stabilizer.screen_self_s": sec(own, "stabilizer.compute_stabilizer"),
        "stabilizer.elements": elements,
        "stabilizer.twist_accept_ratio": elements / twists if twists else 0.0,
        "stabilizer.certify_attempts": len(attempts),
        "stabilizer.tuples": sum(d * (d - 1) * (d - 2) * (d - 3) for d in attempts if d is not None),
        "stabilizer.scan_self_s": sec(own, "stabilizer.certify_trivial"),
        "trace.wall_s": traced_wall_s,
        "trace.overhead": len(timed) * span_cost_s / (traced_wall_s - len(timed) * span_cost_s),
        "trace.spans": len(timed),
    }
    layer_self = {}
    for name, s in own.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + s
    for layer in TRACED:
        if layer in ("fields", "reedmuller", "catalog"):
            m[f"setup.{layer}_s"] = setup.get(layer, 0) / 1e9
        else:
            m[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9
    m["trace.residual_s"] = traced_wall_s - sum(layer_self.values()) / 1e9
    return m
