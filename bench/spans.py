"""In-memory spans around the benchmark's calls into each layer.

A span records its name (``layer.function``), start and end on the
``perf_counter`` clock, its parent span, and the operation it belongs to.
Spans stay in memory until ``write`` at the end of a run.  ``NullTracer``
has the same interface and records nothing, for untraced runs.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_op = 0

    @contextmanager
    def span(self, name: str):
        """Span ``name``; a span opened with no span open starts a new operation."""
        if self._stack:
            parent, op = self._stack[-1].id, self._stack[-1].op
        else:
            parent, op = None, self._next_op
            self._next_op += 1
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield None

    def wrap(self, name: str, fn):
        return fn
