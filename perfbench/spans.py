"""Span and count recording for the traced run, and self time over spans.

A span is one call of a wrapped function: its name, start and end on one
monotonic clock, the span open when it started (its parent) and the
invocation it belongs to. Counts are per invocation. Everything stays in
memory until the caller writes it out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    invocation: int


class Tracer:
    """Wraps functions into span-recording callables; keeps the patches it
    makes so that `restore` puts every original back."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)   # (invocation, name) -> value
        self.invocation = 0
        self._open: list[int] = []
        self._next_id = 0
        self._patches: list = []

    def add(self, name: str, value: float = 1.0):
        self.counts[(self.invocation, name)] += value

    def maximum(self, name: str, value: float):
        key = (self.invocation, name)
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, fn, name: str, observe=None):
        """Record a span per call of fn. An exception leaving fn adds one to
        `<layer>.errors`; observe(tracer, args, result) records counts."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._next_id, (self._open[-1] if self._open
                                          else None)
            self._next_id += 1
            self._open.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(f"{layer}.errors")
                raise
            finally:
                end = self.clock()
                self._open.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       self.invocation))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        """Count calls of fn under `name` without recording spans."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start),
                                       min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _covered(children[s.id])
            for s in spans}


def self_by_name(spans) -> dict:
    """invocation -> {span name: summed self seconds}."""
    own = self_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s.invocation][s.name] += own[s.id]
    return out
