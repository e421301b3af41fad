"""In-memory span tracer that measures the program from outside.

Spans are opened by wrappers installed around public callables, at the
place each caller looks them up (a module attribute or a class attribute),
so the program under test is never edited. Two kinds of span exist:

- **aggregate** spans fire per frame or per event; only a self-time sum and
  a call count per name are kept, so tracing a study does not retain
  millions of records;
- **recorded** spans fire per home, per experiment or per phase; each call
  also becomes one record ``[name, parent, start, end, self]`` whose
  ``parent`` is the index of the nearest enclosing recorded span.

A span's self time is its duration minus the time covered by the spans
opened inside it, so the self times of nested spans add up to the wall time
of the outermost one.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Tracer:
    """Self-time totals, call counts, counters and per-call records."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.records: list[list] = []
        # Open frames: [start, seconds covered by child spans, record index or None].
        self._stack: list[list] = []
        # Indexes of the open recorded spans, innermost last.
        self._open_records: list[int] = []

    def declare(self, name: str) -> None:
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, record_name: Optional[str]) -> list:
        start = self.clock()
        index = None
        if record_name is not None:
            parent = self._open_records[-1] if self._open_records else None
            index = len(self.records)
            self.records.append([record_name, parent, start - self.origin, None, None])
            self._open_records.append(index)
        frame = [start, 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        elapsed = end - frame[0]
        own = elapsed - frame[1]
        self.self_s[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += elapsed
        if frame[2] is not None:
            record = self.records[frame[2]]
            record[3] = end - self.origin
            record[4] = own
            self._open_records.pop()

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A recorded span around a block of the benchmark's own code."""
        self.declare(name)
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def span(self, name: str, fn: Callable, *, record: bool = False, hits: Optional[str] = None) -> Callable:
        """Wrap ``fn`` in a span; ``hits`` counts calls that return a truthy value."""
        self.declare(name)
        if hits is not None:
            self.counts.setdefault(hits, 0)
        stack, clock, self_s, calls, counts = self._stack, self.clock, self.self_s, self.calls, self.counts
        if record or hits is not None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = self._enter(name if record else None)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(name, frame)
                if hits is not None and result:
                    counts[hits] += 1
                return result

            return traced

        # The per-frame hot path: the same bookkeeping as _enter/_exit, inlined.
        @functools.wraps(fn)
        def hot(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed

        return hot

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call bumps a counter; no timing."""
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self, name: str, parent_name: Optional[str] = None) -> list[float]:
        """Wall seconds of every record called ``name`` (under ``parent_name``)."""
        out = []
        for record_name, parent, start, end, _own in self.records:
            if record_name != name:
                continue
            if parent_name is not None and (parent is None or self.records[parent][0] != parent_name):
                continue
            out.append(end - start)
        return out


class Patches:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``"pkg.module:Class.attr"`` (or ``"pkg.module:attr"``) with ``make(original)``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
