"""Span tracing for the benchmark's traced run.

``Tracer.patched()`` replaces each public function listed in ``WRAPPED``
with a recording wrapper, under every name a ``neuric`` module binds it
to: the modules import each other's functions by name (``from .cordic
import run_raw`` in ``pe`` and ``activation``), so wrapping
``neuric.cordic.run_raw`` alone would miss every call.  The program is not
edited; the originals are put back when the block ends.

Spans stay in memory as (name, start_ns, end_ns, parent, call_id, value)
and are written out once, at the end of the run.  ``value`` carries the
lanes of an engine pass or activation call, or the saturated lanes of a
quantization or layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# layer -> public functions wrapped in the traced run
WRAPPED = {
    "fixedpoint": ("quantize_raw", "convert_raw", "mul_raw", "from_real", "convert"),
    "cordic": ("run_raw",),
    "activation": ("eval_raw", "softmax_raw", "apply"),
    "pe": ("layer", "mac", "neuron", "run_batch", "cycles"),
    "analysis": ("monte_carlo", "oracle", "error_metrics"),
}


def _pass_tag(args) -> str:
    # lr = linear rotation, hr = hyperbolic rotation, lv = linear vectoring
    return f"{args['mode'].name[0]}{args['drive'].value[0]}".lower()


# qualified name -> (suffix from the bound arguments, value from (arguments, result))
_ANNOTATE = {
    "cordic.run_raw": (_pass_tag, lambda a, r: int(np.size(a["y"]))),
    "activation.eval_raw": (None, lambda a, r: int(np.size(a["x"]))),
    "activation.softmax_raw": (None, lambda a, r: int(np.size(a["x"]))),
    "fixedpoint.quantize_raw": (None, lambda a, r: int(np.count_nonzero(r[1]))),
    "pe.layer": (None, lambda a, r: int(r[1])),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.call_id = -1
        self._stack: list[int] = []

    def _wrap(self, qualname: str, fn):
        suffix, value = _ANNOTATE.get(qualname, (None, None))
        bind = inspect.signature(fn).bind if suffix or value else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (qualname, t0, t1, parent, self.call_id, 0)
            if bind is not None:
                bound = bind(*args, **kwargs).arguments
                name = f"{qualname}.{suffix(bound)}" if suffix else qualname
                spans[sid] = (name, t0, t1, parent, self.call_id,
                              value(bound, result) if value else 0)
            return result

        return wrapper

    @contextmanager
    def patched(self, call_id: int):
        """Record spans of every wrapped function called inside the block."""
        self.call_id = call_id
        originals = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"neuric.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        restore = []
        for modname, mod in list(sys.modules.items()):
            if modname != "neuric" and not modname.startswith("neuric."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for mod, attr, val in restore:
                setattr(mod, attr, val)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,call_id,value\n")
            for sid, (name, t0, t1, parent, call, value) in enumerate(self.spans):
                fh.write(f"{sid},{name},{t0},{t1},{parent},{call},{value}\n")

    def totals(self) -> dict:
        """name -> {"calls", "ns" (inclusive), "self_ns", "value"}.  Self
        time is a span's duration minus that of its direct children, which
        run inside it one after another."""
        child_ns = defaultdict(int)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "value": 0})
        for sid, (name, t0, t1, _, _, value) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["ns"] += t1 - t0
            agg["self_ns"] += t1 - t0 - child_ns[sid]
            agg["value"] += value
        return out
