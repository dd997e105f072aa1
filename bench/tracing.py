"""Span tracing of valvebench's layers, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules (and
the few methods the per-layer metrics name) with a wrapper that records one
span per call: name, start, end, parent span and op id.  The wrapper is set
at every module binding that looks the function up, not only where it is
defined, because the package binds callees by name (`from .ident import
rls_step` in `cloe`, most callees in `cli`, handler tables in dicts).
`Tracer.uninstall()` puts the originals back.

Spans stay in memory until `write_spans` writes them out after the run.
Self time of a span is its duration minus the part of its interval covered by
its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("plant", "signals", "spectral", "ident", "control", "cloe", "adapt", "fileio", "cli")

# Methods that the per-layer metrics name, as (module, class, method, span name).
# Both simulators' advance count as the plant layer's sample advance.
METHODS = (
    ("plant", "ValveSimulator", "advance", "plant.advance"),
    ("plant", "LinearSimulator", "advance", "plant.advance"),
    ("signals", "PrbsConfig", "__init__", "signals.PrbsConfig"),
    ("control", "ControllerRuntime", "step", "control.ControllerRuntime.step"),
    ("cloe", "ClosedLoopPredictor", "predict", "cloe.ClosedLoopPredictor.predict"),
    ("cloe", "ClosedLoopPredictor", "adapt", "cloe.ClosedLoopPredictor.adapt"),
    ("adapt", "RstDesignSpec", "design", "adapt.RstDesignSpec.design"),
)

# Called once per CSV cell: a span each would cost more than the work traced.
UNTRACED = {"fileio.format_value", "fileio.format_float"}

# Called 50 times per plant sample: counted, not spanned.
COUNTED = "plant.valve_step"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id, ok)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = -1
        self.valve_steps = 0
        self.latched_steps = 0
        self.csv_rows = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id, ok)

        traced.__wrapped__ = fn
        return traced

    def _count_valve_step(self, fn):
        def counted(state, *args, **kwargs):
            out = fn(state, *args, **kwargs)
            self.valve_steps += 1
            if out is state:
                self.latched_steps += 1
            return out

        counted.__wrapped__ = fn
        return counted

    def _count_csv_rows(self, fn):
        def counted(path, header, columns, *args, **kwargs):
            self.csv_rows += len(columns[0]) if len(columns) else 0
            return fn(path, header, columns, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def _targets(self) -> dict[int, tuple[object, object]]:
        """id(original function) -> (original, replacement)."""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"valvebench.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in UNTRACED
                ):
                    continue
                if name == COUNTED:
                    out[id(obj)] = (obj, self._count_valve_step(obj))
                elif name == "fileio.write_csv":
                    out[id(obj)] = (obj, self.wrap(self._count_csv_rows(obj), name))
                else:
                    out[id(obj)] = (obj, self.wrap(obj, name))
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        modules = [m for n, m in sorted(sys.modules.items()) if n == "valvebench" or n.startswith("valvebench.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, targets[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in targets and targets[id(value)][0] is value:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = targets[id(value)][1]
        for layer, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(f"valvebench.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._undo.append((setattr, cls, method, original))
            setattr(cls, method, self.wrap(original, name))

    def uninstall(self) -> None:
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op,ok\n")
            for name_id, start, end, parent, op, ok in self.spans:
                fh.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent},{op},{int(ok)}\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    `spans` holds tuples whose fields 1, 2 and 3 are start, end and parent
    index (-1 for a root).  Child intervals are clipped to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, successful calls."""
    selfs = self_times(tracer.spans)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0} for name in tracer.names}
    for span, self_s in zip(tracer.spans, selfs):
        entry = out[tracer.names[span[0]]]
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += self_s
        entry["ok"] += span[5]
    return out
