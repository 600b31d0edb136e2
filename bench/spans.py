"""Spans around the library's public calls, installed from outside.

`Tracer.install` replaces every reference to a wrapped function in the
`stieltjesmp` modules (and the wrapped methods on their classes) with a
span, so calls the library makes internally are traced too.  Spans are
folded into per-op self times as they close: a span's self time is its
duration minus the time of the spans it encloses.  Nothing here runs
unless a traced run asks for it.
"""

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

from gates import CALLS, LAYERS


class Tracer:
    def __init__(self):
        self.enabled = False
        self._stack = []          # child time accumulated per open span
        self._op = None           # call -> [self_ns, count] for the current op
        self.ops = []             # (wall_ns, {call: (self_ns, count)}) per finished op
        self.fails = defaultdict(Counter)   # layer -> exception type -> count
        self._undo = []

    # --- installation ----------------------------------------------------

    def install(self):
        for mod_name, _ in CALLS.values():
            importlib.import_module(f"stieltjesmp.{mod_name}")
        mods = [m for name, m in sys.modules.items()
                if name == "stieltjesmp" or name.startswith("stieltjesmp.")]
        for call, (mod_name, qual) in CALLS.items():
            mod = sys.modules[f"stieltjesmp.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, self._wrap(call, vars(cls)[meth]))
                continue
            # a call the library no longer has is simply never counted
            orig = getattr(mod, qual, None)
            if orig is None:
                continue
            span = self._wrap(call, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, span)
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, call: str, fn):
        layer = call.split(".")[0]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                seen = exc.__dict__.setdefault("_bench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    self.fails[layer][type(exc).__name__] += 1
                raise
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                rec = self._op[call]
                rec[0] += dur - child
                rec[1] += 1
                if stack:
                    stack[-1] += dur

        return span

    # --- per-op accounting -------------------------------------------------

    def begin_op(self):
        self._op = defaultdict(lambda: [0, 0])
        self.enabled = True

    def end_op(self, wall_ns: int | None):
        """Close the current op; wall_ns=None discards its times (fails stay)."""
        self.enabled = False
        if wall_ns is not None:
            self.ops.append((wall_ns, {k: tuple(v) for k, v in self._op.items()}))
        self._op = None

    def metrics(self) -> dict:
        """Per-call median self time and mean call count per op, per-layer
        share of op wall time and escaped-exception counts."""
        out = {}
        n = max(1, len(self.ops))
        wall = sum(w for w, _ in self.ops) or 1
        layer_self = Counter()
        for call in CALLS:
            selfs = [rec.get(call, (0, 0))[0] for _, rec in self.ops] or [0]
            counts = sum(rec.get(call, (0, 0))[1] for _, rec in self.ops)
            out[f"{call}.ms_per_op"] = (statistics.median(selfs) / 1e6, "ms")
            out[f"{call}.calls_per_op"] = (counts / n, "count")
            layer_self[call.split(".")[0]] += sum(selfs)
        for layer in LAYERS:
            out[f"{layer}.share"] = (layer_self[layer] / wall, "ratio")
            out[f"{layer}.fail"] = (sum(self.fails[layer].values()), "count")
        return out

    def fail_detail(self) -> dict:
        return {layer: dict(c) for layer, c in self.fails.items() if c}
