"""Span tracer that wraps the program's public functions from outside the
package, without editing it.

``install`` replaces a function with a recording wrapper in every module of
the package that holds a reference to it, because the modules import names
directly (``ian.training`` calls its own ``forward``, which is
``ian.model.forward``). Methods are patched on their class. A name that a
module no longer defines is reported as absent, not raised, so refactors
that delete or rename functions do not break the benchmark; they show up
as absent in the trace report instead.

Spans live in memory with their parent ids and are written out once, at
the end (``Tracer.write``). Self time is computed from the spans: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder. ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, measure=None):
        """Wrapper recording one span per call of fn. ``measure(args,
        kwargs, result)`` returns a dict of counts stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict:
        """span id -> duration minus the durations of its direct children."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: str):
        """One JSON object per span: id, parent, name, start, end, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")


def install(tracer: Tracer, targets):
    """Wrap each target in place; returns (absent_names, restore).

    targets: iterable of (module, attribute, span_name, measure) where
    attribute is ``func`` or ``Class.method`` inside ``ian.module``.
    """
    absent = []
    undo = []
    for module_name, attr, span_name, measure in targets:
        module = importlib.import_module(f"ian.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, member, None) if owner is not None else None
        if original is None:
            absent.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(original, span_name, measure)
        if owner_name:
            undo.append((owner, member, original))
            setattr(owner, member, wrapped)
            continue
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ian" or name.startswith("ian.")):
                continue
            for ref_name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, ref_name, original))
                    setattr(mod, ref_name, wrapped)

    def restore():
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)

    return absent, restore
