"""In-memory spans and counters, and the arithmetic that turns them into layer metrics.

A span is (id, parent, name, start, end); the name is `<layer>.<operation>`.
Spans stay in memory and are written out when the replay ends.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the thread that created the tracer as its parent,
    so work fanned out to a thread pool stays under the call that caused it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True  # when False, spans and counters record nothing
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            s = Span(len(self.spans), parent.id if parent else None, name, self.clock())
            self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, counter=None):
        """`fn` with a span around each call.

        `counter(result, *args, **kwargs)` returns the (name, amount) pairs to count.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for cname, amount in counter(result, *args, **kwargs):
                    self.count(cname, amount)
            return result

        return traced


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


def layer_self_times(spans: list[Span]) -> Counter:
    """Self time summed per layer.

    Over all layers this adds up to the root spans' time, plus any time in
    which spans ran concurrently on several threads.
    """
    own = self_times(spans)
    out: Counter = Counter()
    for s in spans:
        out[s.layer] += own[s.id]
    return out


def inclusive_times(spans: list[Span]) -> Counter:
    """Time inside each span name, counting a call nested in a call of the same name once."""
    by_id = {s.id: s for s in spans}
    out: Counter = Counter()
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            out[s.name] += s.duration
    return out


def root_time(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)
