"""Spans around the public functions of planemoduli, recorded from outside.

Nothing inside the package is instrumented.  `Recorder.install` replaces
every public module-level function of the seven layer modules with a
wrapper that records a span (name, start, end, parent span) and rebinds the
wrapper wherever the package holds the original, so calls between modules
are traced too.  Spans stay in memory and are written once, by `dump`,
when the traced process ends.  `layer_times` turns the spans of a set of
jobs into each layer's busy and self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

#: the package's modules, one layer each
LAYERS = ("exactmath", "ktheory", "chow", "divisors", "walls", "betti", "cli")

#: time in a traced child outside every root span: interpreter start,
#: import and exit
PROCESS_LAYER = "process"


class Recorder:
    """Records one span per call of a wrapped public function."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = [name, start, end, parent]

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> int:
        """Wrap every public function of every layer; return how many."""
        modules = [importlib.import_module(f"planemoduli.{layer}")
                   for layer in LAYERS]
        replacements = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                replacements[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        package_modules = [m for key, m in sys.modules.items()
                           if key == "planemoduli" or key.startswith("planemoduli.")]
        for module in package_modules:
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        return len(replacements)

    def dump(self, path: str) -> None:
        """Write the spans as JSON; a span's id is its index in the list."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"job": self.job, "spans": self.spans}, handle)


def layer_times(traces: list[dict], job_walls: dict[str, float]) -> dict:
    """Busy and self time per layer, summed over the given traced jobs.

    Also per function name: self time, and inclusive time counted once
    for recursive calls (the outermost span of that name).

    A layer's busy time is the time covered by its outermost spans (spans
    with no ancestor in the same layer).  Its self time is the summed
    duration of its spans minus the part their child spans cover.  The
    process layer is each job's spawn-to-exit wall time minus its root
    spans.
    """
    busy = {layer: 0.0 for layer in LAYERS + (PROCESS_LAYER,)}
    self_time = dict(busy)
    self_by_name: dict[str, float] = {}
    outer_by_name: dict[str, float] = {}
    spans_total = 0
    for trace in traces:
        spans = trace["spans"]
        spans_total += len(spans)
        child_time = [0.0] * len(spans)
        # bit set of the layers on the path from the root to each span, and
        # the names of the spans on that path
        on_path = [0] * len(spans)
        names_above: list[frozenset] = [frozenset()] * len(spans)
        root_time = 0.0
        for sid, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            bit = 1 << LAYERS.index(name.split(".", 1)[0])
            above = on_path[parent] if parent >= 0 else 0
            on_path[sid] = above | bit
            if parent >= 0:
                child_time[parent] += duration
            else:
                root_time += duration
            if not above & bit:
                busy[name.split(".", 1)[0]] += duration
            outer = names_above[parent] if parent >= 0 else frozenset()
            if name not in outer:
                outer_by_name[name] = outer_by_name.get(name, 0.0) + duration
                outer = outer | {name}
            names_above[sid] = outer
        for sid, (name, start, end, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            own = (end - start) - child_time[sid]
            self_time[layer] += own
            self_by_name[name] = self_by_name.get(name, 0.0) + own
        process = job_walls[trace["job"]] - root_time
        busy[PROCESS_LAYER] += process
        self_time[PROCESS_LAYER] += process
    return {"busy_s": busy, "self_s": self_time, "spans": spans_total,
            "self_s_by_name": self_by_name,
            "inclusive_s_by_name": outer_by_name}
