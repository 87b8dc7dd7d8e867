"""Per-layer spans recorded from outside the package.

:class:`Tracer` replaces the public functions of each ``zipshift`` module,
and every name other modules imported from them, with wrappers that record
a span per call: which function, when it started and ended, and the span
that was open when it was called.  A few methods are wrapped too, where a
layer does its work in a class (space construction and derivations, block
code construction).  Nothing under ``src/`` changes; :meth:`Tracer.remove`
puts every original back.

Spans are kept in flat arrays while tracing runs and summarised at the end:
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "space", "graph", "point", "preimage", "orbits", "codes", "horseshoe")

# Methods that carry a layer's work, as (module, class, method, span name).
METHODS = (
    ("space", "ZipShiftSpace", "__init__", "construct"),
    ("space", "ZipShiftSpace", "memory", "memory"),
    ("space", "ZipShiftSpace", "language", "language"),
    ("space", "ZipShiftSpace", "build_matrices", "build_matrices"),
    ("space", "ZipShiftSpace", "count_periodic", "count_periodic"),
    ("codes", "BlockCodeSpec", "__init__", "BlockCodeSpec"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.func = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("zipshift")
        modules = [package] + [importlib.import_module(f"zipshift.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zipshift.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        # Rebind the functions everywhere they are reachable by name.
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        for layer, cls_name, method, span in METHODS:
            cls = getattr(importlib.import_module(f"zipshift.{layer}"), cls_name)
            self._patch(cls, method, self._wrap(vars(cls)[method], f"{layer}.{span}"))

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span: str):
        fid = self._ids.setdefault(span, len(self.names))
        if fid == len(self.names):
            self.names.append(span)
        start, end, func, parent, stack = self.start, self.end, self.func, self.parent, self._stack
        observe = _OBSERVERS.get(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            func.append(fid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- summarising -----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, f in enumerate(self.func):
            row = table[self.names[f]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        return table

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[f], s, e, p)
            for f, s, e, p in zip(self.func, self.start, self.end, self.parent)
        ]


# Counts taken from a call's arguments or result, at the same boundary as
# the span, so that ratios are measured where the work happens.


def _space_built(counts, args, _result):
    counts["space.forbidden_words"] += len(getattr(args[0], "forbidden", ()))


def _graph_built(counts, _args, graph):
    counts["graph.vertices"] += len(graph.labels)
    counts["graph.edges"] += len(graph.edges)


def _preimages_listed(counts, _args, result):
    counts["preimage.points_returned"] += len(result.points)


def _periodic_listed(counts, _args, points):
    counts["orbits.points_listed"] += len(points)


_OBSERVERS = {
    "space.construct": _space_built,
    "graph.build_labeled_graph": _graph_built,
    "preimage.preimages": _preimages_listed,
    "orbits.periodic_points": _periodic_listed,
}
