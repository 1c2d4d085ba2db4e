"""Span recording for the traced benchmark run.

A span is (name, start, end, parent).  Spans are recorded by wrapping module
attributes of wthi for the duration of a traced round, kept in memory and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def _default_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open = [-1]
        self.round_starts: list[int] = []  # first span index of each traced round

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, fn, namer=None):
        """``fn`` recording one span per call; ``namer(*args)`` may name it per call."""
        fixed = _default_name(fn)

        def traced(*args, **kwargs):
            i = self.begin(fixed if namer is None else namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each (module, attr, namer)."""
        saved = []
        try:
            for module_name, attr, namer in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, namer))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def write_csv(self, path, provenance: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# provenance: {json.dumps(provenance, sort_keys=True)}\n")
            fh.write("name,start_ns,end_ns,parent\n")
            names = self.names
            for k in range(len(self.start)):
                fh.write(f"{names[self.name[k]]},{self.start[k]},{self.end[k]},{self.parent[k]}\n")


class SpanTable:
    """Array view of the recorded spans for computing per-layer figures."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64)
        self.dur = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
        n = self.dur.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_ns = self.dur - child[:n]
        self.round = np.searchsorted(np.asarray(tracer.round_starts), np.arange(n), side="right") - 1
        self.rounds = len(tracer.round_starts)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(x) for x in names if x in self.names]
        return np.isin(self.name, ids)

    def per_round(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Sum of ``values`` over the masked spans of each traced round."""
        return np.bincount(self.round[mask], weights=values[mask], minlength=self.rounds)

    def parent_is(self, *names: str) -> np.ndarray:
        has_parent = self.parent >= 0
        out = np.zeros(self.dur.size, dtype=bool)
        out[has_parent] = self.mask(*names)[self.parent[has_parent]]
        return out
