"""Span tracing of the kfjlt layers, installed from outside the library.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
wrappers that record one span per call (layer, parent span, start, end) plus
counts computed from argument and result sizes. Every module attribute of
the package that is bound to a wrapped function is replaced, so a name that
one module imports from another is traced in both; ``uninstall`` puts the
originals back. Spans stay in memory until ``write_spans``.

A layer's self time is the time inside its spans minus the time inside
their child spans; time outside every span is the untraced remainder.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(value) -> int:
    return int(np.size(value))


def _emitted_bytes(args, kwargs, out) -> int:
    return sum(os.path.getsize(p) for p in out)


# layer -> [(module, function or Class.classmethod, {counter: fn(args, kwargs, result)})]
# Counts are computed from array sizes, so they repeat exactly for the same inputs.
LAYERS = {
    "bench.seed": [("kfjlt.bench", "trial_seed_sequence", {})],
    "bench.run": [("kfjlt.bench", "run_distortion", {})],
    "bench.emit": [("kfjlt.bench", "emit_csv", {"bytes": _emitted_bytes})],
    "transforms.construct": [
        ("kfjlt.transforms", "KfjltOperator.from_seed", {}),
        ("kfjlt.transforms", "FjltOperator.from_seed", {}),
        ("kfjlt.transforms", "FactoredKfjltOperator.from_seed", {}),
        ("kfjlt.transforms", "rademacher", {}),
        ("kfjlt.transforms", "seed_children", {}),
    ],
    "transforms.apply": [
        ("kfjlt.transforms", "kfjlt_apply_kron", {}),
        ("kfjlt.transforms", "fjlt_apply", {}),
        ("kfjlt.transforms", "factored_apply", {}),
    ],
    "transforms.mix": [
        ("kfjlt.transforms", "mix_factor", {"elements": lambda a, k, o: _size(_arg(a, k, 0, "x"))}),
        ("kfjlt.transforms", "kfjlt_apply_dense", {"elements": lambda a, k, o: _size(_arg(a, k, 1, "x"))}),
    ],
    "kron.gather": [
        ("kfjlt.kron", "multi_index_array", {"rows": lambda a, k, o: _size(_arg(a, k, 1, "idx"))}),
        ("kfjlt.kron", "khatri_rao_rows", {"rows": lambda a, k, o: _size(_arg(a, k, 1, "rows"))}),
    ],
    "kron.materialize": [
        ("kfjlt.kron", "kron_materialize", {"elements": lambda a, k, o: o.size}),
        ("kfjlt.kron", "khatri_rao", {"elements": lambda a, k, o: o.size}),
        ("kfjlt.bench", "group_factors", {"elements": lambda a, k, o: sum(f.size for f in o.factors)}),
    ],
    "sketch_ls.assemble": [
        ("kfjlt.sketch_ls", "sketch_khatri_rao", {}),
        ("kfjlt.sketch_ls", "build_sketched_system", {}),
        ("kfjlt.sketch_ls", "complexify", {}),
    ],
    "sketch_ls.solve": [("kfjlt.sketch_ls", "least_squares", {"degenerate": lambda a, k, o: int(bool(o[2]))})],
    "cprand.mix_tensor": [("kfjlt.cprand", "mix_tensor", {"elements": lambda a, k, o: o.data.size})],
    "cprand.sweep": [("kfjlt.cprand", "cprand_mix_sweep", {})],
    "cprand.fit": [
        ("kfjlt.cprand", "fit", {"elements": lambda a, k, o: _arg(a, k, 0, "t").data.size}),
        ("kfjlt.cprand", "reconstruct", {"elements": lambda a, k, o: o.data.size}),
    ],
    "testkit.rip": [("kfjlt.testkit", "rip_constant", {"supports": lambda a, k, o: o.supports_checked})],
    "testkit.verify": [("kfjlt.testkit", "verify_suite", {})],
}

LAYER_NAMES = tuple(LAYERS)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int]] = []  # (layer, parent, start_ns, end_ns)
        self.counts = {name: {} for name in LAYER_NAMES}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, counters):
        layer_id = LAYER_NAMES.index(layer)
        spans, stack, counts = self.spans, self._stack, self.counts[layer]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_id, parent, start, end)
            for name, count in counters.items():
                counts[name] = counts.get(name, 0) + count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in ``LAYERS`` wherever the package binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "kfjlt" or name.startswith("kfjlt.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname, counters in targets:
                owner = sys.modules[module_name]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, classmethod(self.wrap(layer, original.__func__, counters)))
                    self._restore.append((cls, attr, original))
                    continue
                original = getattr(owner, qualname)
                traced = self.wrap(layer, original, counters)
                for module in modules:
                    for attr in [k for k, v in vars(module).items() if v is original]:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def self_times(self) -> tuple[list[float], list[int], int]:
        """Per-layer self seconds and call counts, and the summed duration of
        the top-level spans (the time inside any span)."""
        child_ns = [0] * len(self.spans)
        for layer, parent, begin, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - begin
        self_s = [0.0] * len(LAYER_NAMES)
        calls = [0] * len(LAYER_NAMES)
        top_ns = 0
        for i, (layer, parent, begin, end) in enumerate(self.spans):
            self_s[layer] += (end - begin - child_ns[i]) * 1e-9
            calls[layer] += 1
            if parent < 0:
                top_ns += end - begin
        return self_s, calls, top_ns

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,layer,start_ns,end_ns\n")
            for i, (layer, parent, begin, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{LAYER_NAMES[layer]},{begin},{end}\n")


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call of a no-op, minus the bare call."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    traced = tracer.wrap(LAYER_NAMES[0], noop, {})
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / calls)
