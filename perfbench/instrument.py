"""Traced stand-ins for the program's layers, built only from public calls.

The traced run must split one job's wall clock into layer spans without
touching the program.  Each class here plays one pipeline role and
records a span around the public call that does that layer's work:

* :class:`TracedLogSource` -- ``FileTailSource.drain`` (reader) and
  ``ActivityStream.classify_lines`` (classify), as ``LogSource`` does;
* :class:`HandDrivenBatch` -- the batch correlation loop driven by hand
  (``Ranker.rank`` / ``CorrelationEngine.process``), so rank and engine
  time separate; its result must hash like ``Correlator.correlate``'s;
* :class:`TracedStage` / :class:`TracedSink` -- one span per stage/sink;
* :func:`traced_sharded` -- one span around ``ShardedCorrelator.correlate``;
  makespan and steals come from its ``last_*`` attributes, and
  :func:`timed_partition` times ``partition_components`` on its own.
"""

from __future__ import annotations

import gc
import time

from repro.core.correlator import CorrelationResult
from repro.core.engine import CorrelationEngine
from repro.core.ranker import Ranker
from repro.core.tracer import TraceResult
from repro.pipeline import LogSource
from repro.stream import (
    ActivityStream,
    FileTailSource,
    ShardedCorrelator,
    partition_components,
)

from spans import SpanRecorder

#: How often (in delivered candidates) the hand-driven loop samples the
#: engine's live state -- the batch correlator's own default.
_SAMPLE_INTERVAL = 256


class TracedLogSource(LogSource):
    """``LogSource`` with a span around reading and around classifying."""

    def __init__(self, recorder: SpanRecorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorder = recorder

    def activities(self):
        rec = self.recorder
        stream = ActivityStream(
            frontends=[self.frontend], ignore_programs=set(self.ignore_programs)
        )
        lines = []
        with rec.span("reader"):
            for path in self.paths:
                lines.extend(FileTailSource(path, chunk_bytes=self.chunk_bytes).drain())
        with rec.span("classify"):
            activities = stream.classify_lines(lines)
        self.lines_read = len(lines)
        self.malformed_lines = stream.malformed_lines
        self.filtered_records = stream.filtered_records
        rec.add("reader.lines", len(lines))
        rec.add("classify.lines_in", len(lines))
        rec.add("classify.activities_out", len(activities))
        rec.add("classify.filtered", stream.filtered_records)
        rec.add("classify.malformed", stream.malformed_lines)
        return activities


class HandDrivenBatch:
    """Batch correlation with rank and engine timed call by call.

    Stands in for ``BackendSpec.batch`` inside ``Pipeline``: same
    grouping, same loop, same garbage-collector pause as
    ``Correlator.correlate_streams``, plus two clock reads per step.
    """

    sampling = None

    def __init__(self, recorder: SpanRecorder, window: float) -> None:
        self.recorder = recorder
        self.window = window

    def describe(self) -> str:
        return f"batch (window={self.window:g}s, hand-driven for tracing)"

    def correlate(self, activities) -> CorrelationResult:
        rec = self.recorder
        with rec.span("correlate"):
            streams = {}
            total = 0
            for activity in activities:
                streams.setdefault(activity.node_key, []).append(activity)
                total += 1
            engine = CorrelationEngine()
            ranker = Ranker(streams, mmap=engine.mmap, window=self.window)
            rank = ranker.rank
            process = engine.process
            clock = time.perf_counter
            rank_s = engine_s = 0.0
            calls = 0
            peak_state = 0
            gc_was_enabled = gc.isenabled()
            gc.disable()
            started = clock()
            try:
                while True:
                    t0 = clock()
                    current = rank()
                    t1 = clock()
                    rank_s += t1 - t0
                    calls += 1
                    if current is None:
                        break
                    process(current)
                    engine_s += clock() - t1
                    if calls % _SAMPLE_INTERVAL == 0:
                        peak_state = max(peak_state, engine.pending_state_size())
            finally:
                if gc_was_enabled:
                    gc.enable()
            elapsed = clock() - started
            peak_state = max(peak_state, engine.pending_state_size())
            result = CorrelationResult(
                cags=list(engine.finished_cags),
                incomplete_cags=list(engine.open_cags),
                correlation_time=elapsed,
                peak_buffered_activities=ranker.stats.max_buffered,
                peak_state_entries=peak_state,
                ranker_stats=ranker.stats,
                engine_stats=engine.stats,
                window=self.window,
                total_activities=total,
                final_state_entries=engine.pending_state_size(),
                final_open_tombstones=engine.open_tombstone_count,
            )
        rec.add("rank.busy_s", rank_s)
        rec.add("rank.calls", calls)
        rec.add("rank.noise_discarded", ranker.stats.noise_discarded)
        rec.add("engine.busy_s", engine_s)
        rec.peak("engine.peak_state", peak_state)
        return result

    def trace(self, activities, on_cag=None) -> TraceResult:
        result = self.correlate(activities)
        if on_cag is not None:
            with self.recorder.span("sink.live"):
                for cag in result.cags:
                    on_cag(cag)
        return TraceResult(correlation=result)


class TracedStage:
    """One span around an analysis stage's ``run``."""

    def __init__(self, stage, recorder: SpanRecorder) -> None:
        self.stage = stage
        self.name = stage.name
        self.recorder = recorder

    def run(self, session):
        with self.recorder.span(f"stage.{self.name}"):
            return self.stage.run(session)


class TracedSink:
    """One span around a sink's ``write``; live hooks are timed by the
    backend's ``sink.live`` span."""

    def __init__(self, sink, recorder: SpanRecorder) -> None:
        self.sink = sink
        self.name = sink.name
        self.recorder = recorder
        self.on_cag = sink.on_cag

    def write(self, session):
        with self.recorder.span(f"sink.{self.name}"):
            return self.sink.write(session)


def traced_sharded(recorder: SpanRecorder, table, window: float, workers: int, schedule: str):
    """The program's sharded driver in one span; its scheduling outcome and
    one separately timed partition of the same trace in the counters."""
    rec = recorder
    correlator = ShardedCorrelator(
        window=window, executor="process", max_workers=workers, schedule=schedule
    )
    with rec.span("shard.materialize"):
        ordered = list(table.iter_fresh())
    with rec.span("shard.correlate"):
        merged = correlator.correlate(ordered)
    rec.add("shard.makespan_s", correlator.last_makespan_s())
    rec.add("shard.steals", correlator.last_steals)
    return merged, ordered


def timed_partition(recorder: SpanRecorder, ordered) -> None:
    """Time ``partition_components`` once on the job's activity list (outside
    the job's span: the driver partitions again inside ``correlate``)."""
    started = time.perf_counter()
    components = partition_components(ordered)
    recorder.add("partition.busy_s", time.perf_counter() - started)
    recorder.add("shard.count", len(components))
    recorder.add("shard.max_share", max(map(len, components)) / max(1, len(ordered)))
