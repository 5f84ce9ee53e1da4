"""Span recorder that wraps library functions from outside the library.

A `Tracer` replaces a function with a wrapper that records one span per
call: name, start, end and the index of the enclosing span. Spans stay in
memory; `self_times` turns them into per-name self time afterwards. Count
hooks run after a call returns and add exact work counts (rows, draws,
messages) under the same names.

The recorder is single-threaded: the enclosing span is the top of one
stack, which holds because every workload is a closed loop in one thread.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span recorder. count(counts, args, kwargs,
        result) adds exact counters after each call that returns."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, namespaces, owner, attr: str, name: str, count=None) -> None:
        """Wrap owner.attr and rebind the wrapper wherever the same object is
        bound: a function imported by name into another module is looked up
        there, not in the module that defines it."""
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, count)
        targets = [owner] + [ns for ns in namespaces if ns is not owner]
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def unpatch(self) -> None:
        while self._restore:
            ns, key, original = self._restore.pop()
            setattr(ns, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unpatch()


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time). A span's self time is its duration
    minus the durations of its child spans, which the stack nests inside it."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    out: dict[str, list] = {}
    for span, inner in zip(spans, child_s):
        entry = out.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += (span.end - span.start) - inner
    return {name: (calls, total) for name, (calls, total) in out.items()}


def wall_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: the summed duration of its spans."""
    out: defaultdict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.end - span.start
    return dict(out)
