"""A small in-memory span recorder (Dapper-style: name, start, end, parent).

Spans are recorded by the benchmark around its calls into each layer of
the program; nothing inside the program is instrumented.  Spans stay in
memory and are written as JSON once, at the end of the run.  Hot loops
(one ``rank``/``process`` call per activity) would drown the recorder in
spans, so they accumulate busy time and call counts into named counters
instead.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "index", "children")

    def __init__(self, name: str, start: float, parent: Optional[int], index: int):
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.index = index
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class _Open:
    """Class-based context manager: cheaper than a generator per span."""

    __slots__ = ("recorder", "name", "record")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> Span:
        rec = self.recorder
        stack = rec._stack
        parent = stack[-1] if stack else None
        record = Span(self.name, time.perf_counter(), parent, len(rec.spans))
        rec.spans.append(record)
        if parent is not None:
            rec.spans[parent].children.append(record)
        stack.append(record.index)
        self.record = record
        return record

    def __exit__(self, *exc) -> None:
        self.record.end = time.perf_counter()
        self.recorder._stack.pop()


class SpanRecorder:
    """Record nested spans and named counters for one traced job."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def span(self, name: str) -> "_Open":
        """Context manager recording one span under the innermost open one."""
        return _Open(self, name)

    def add(self, name: str, value: float) -> None:
        """Accumulate a counter (busy seconds, calls, items)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        """Keep the largest value seen for a counter."""
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- analysis -------------------------------------------------------------

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part its children cover."""
        covered = 0.0
        last_end = span.start
        for child in span.children:
            start = max(child.start, last_end)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                last_end = end
        return span.duration - covered

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(span.duration for span in self.spans if span.name == name)

    def coverage(self, span: Span) -> float:
        """Share of the span's wall that leaf (layer) spans account for.

        Every span with children is structure; its self time is glue no
        layer owns.  Coverage is one minus that glue over the span's wall.
        """
        if span.duration <= 0:
            return 1.0
        glue = 0.0
        pending = [span]
        while pending:
            current = pending.pop()
            if current.children:
                glue += self.self_time(current)
                pending.extend(current.children)
        return 1.0 - glue / span.duration

    def to_json(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [
                {
                    "id": span.index,
                    "name": span.name,
                    "parent": span.parent,
                    "start_s": span.start - origin,
                    "end_s": (span.end if span.end is not None else span.start) - origin,
                    "self_s": self.self_time(span),
                }
                for span in self.spans
            ],
            "counters": dict(sorted(self.counters.items())),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)
