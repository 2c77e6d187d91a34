"""The four workloads: set-up and one measured job unit each.

A *unit* is one job a fresh measured process runs after its set-up:

=====================  ==============================================
``offline_logs``       ``pass`` / ``pass_traced``: log files to report
``stream_replay``      ``capacity`` (and ``_traced``): the feed closed
                       loop, as fast as the program takes it;
                       ``rung_low`` / ``rung_mid`` / ``rung_high`` (and
                       ``_traced``): open-loop replay at one named rate;
                       ``slice``: closed-loop passes, replays of the
                       middle rung and staircase steps, in turn
``store_history``      ``history`` / ``history_traced``: every day's
                       run into a fresh store, each followed by the
                       query mix
``composite_sharded``  ``shard`` / ``shard_traced``: batch baseline and
                       the process-sharded job
=====================  ==============================================

Each unit returns a JSON-ready record: the job's wall clock, the input
sizes, the correctness outcome and, for traced units, the layer metrics.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import time
from contextlib import nullcontext
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.activity import sort_key
from repro.core.correlator import Correlator
from repro.core.interning import ActivityTable
from repro.core.kernel import kernel_provenance
from repro.core.log_format import FrontendSpec
from repro.pipeline import (
    BackendSpec,
    LogSource,
    Pipeline,
    StoreSink,
    default_stages,
    result_digest,
)
from repro.store import (
    TraceStore,
    diff_summaries,
    latency_over_windows,
    mix_drift,
    pattern_mix,
    percentile,
    run_summary,
)
from repro.stream import ActivityStream, IncrementalEngine, ShardedCorrelator

import checks
import staircase
from instrument import (
    HandDrivenBatch,
    TracedLogSource,
    TracedSink,
    TracedStage,
    timed_partition,
    traced_sharded,
)
from settings import (
    EMIT_P99_LIMIT_MS,
    HEADLINE_RUNG,
    KEEP_PACE_SHARE,
    RUNGS,
    SHARD_SCHEDULE,
    SHARD_WORKERS,
    STREAM_CHUNK_LINES,
    STREAM_HORIZON_S,
    WINDOW_S,
    grid_lps,
)
from spans import SpanRecorder

#: Jobs of an untraced stream ``slice`` unit, in order: ``pass`` (closed
#: loop), ``stair`` (the staircase's next step) or ``mid`` (a replay of the
#: middle rung).  A run's slices spread every kind over its whole time,
#: across the host's slow and fast spells.  After a full collection a job
#: meets the garbage collector as the first job of a fresh process does.
SLICE_JOBS = ("pass", "stair", "mid")
#: Query kinds of the store workload's mix, in the order they run.
QUERY_KINDS = ("latency", "patterns", "drift", "diff")
#: Bucket width of the latency query, seconds.
LATENCY_BUCKET_S = 1.0


class Context:
    """What set-up produced: parsed manifest plus workload state."""

    def __init__(self, workload: str, inputs: str) -> None:
        self.workload = workload
        self.inputs = inputs
        with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as handle:
            self.manifest = json.load(handle)
        self.parts = self.manifest["parts"]
        self.lines = sum(part["lines"] for part in self.parts)
        self.state: Dict[str, object] = {}

    def paths(self, part) -> List[str]:
        return [os.path.join(self.inputs, path) for path in part["logs"]]

    @staticmethod
    def frontend(part) -> FrontendSpec:
        spec = part["frontend"]
        return FrontendSpec(
            ip=spec["ip"], port=spec["port"], internal_ips=frozenset(spec["internal_ips"])
        )

    def log_source(self, part, recorder: Optional[SpanRecorder] = None) -> LogSource:
        options = dict(frontend=self.frontend(part), ignore_programs=part["ignore_programs"])
        if recorder is None:
            return LogSource(self.paths(part), **options)
        return TracedLogSource(recorder, self.paths(part), **options)

    def truth(self, part):
        key = f"truth:{part['name']}"
        if key not in self.state:
            self.state[key] = checks.load_truth(os.path.join(self.inputs, part["truth"]))
        return self.state[key]


def setup(workload: str, inputs: str, feed: int = 0) -> Context:
    """The program's set-up for one workload (timed by the caller); a
    stream unit reads the feed it starts on."""
    kernel_provenance()  # resolve (and, first time in a checkout, build) the kernel
    ctx = Context(workload, inputs)
    if workload == "stream_replay":
        _feed_lines(ctx, feed)
    elif workload == "store_history":
        ctx.state["db"] = os.path.join(inputs, f"history-{os.getpid()}.sqlite")
        ctx.state["store"] = TraceStore(ctx.state["db"])
    elif workload == "composite_sharded":
        activities = []
        for part in ctx.parts:
            activities.extend(ctx.log_source(part).activities())
        activities.sort(key=sort_key)
        ctx.state["table"] = ActivityTable.from_activities(activities)
    return ctx


class Outcome:
    """Accumulates correctness results of one unit."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, result) -> None:
        attempted, failed, errors = result
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def record(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def _emit_same(wall: float) -> Dict[str, float]:
    """Emit latency of a batch job: every CAG arrives when the job returns."""
    return {"emit_p50_ms": wall * 1e3, "emit_p99_ms": wall * 1e3}


def _traced_record(rec: SpanRecorder, job, layers: Dict[str, float]) -> dict:
    layers = dict(layers)
    layers["trace.coverage"] = rec.coverage(job)
    return {"layers": layers, "recorder": rec}


# -- offline_logs --------------------------------------------------------------


def offline_pass(ctx: Context, traced: bool) -> dict:
    part = ctx.parts[0]
    outcome = Outcome()
    rec = SpanRecorder() if traced else None
    source = ctx.log_source(part, rec)
    if traced:
        pipeline = Pipeline(
            source,
            HandDrivenBatch(rec, WINDOW_S),
            [TracedStage(stage, rec) for stage in default_stages()],
        )
        with rec.span("job") as job:
            session = pipeline.run()
        wall = job.duration
    else:
        pipeline = Pipeline(source, BackendSpec.batch(window=WINDOW_S), default_stages())
        started = time.perf_counter()
        session = pipeline.run()
        wall = time.perf_counter() - started
    result = session.trace.correlation
    outcome.add(checks.check_paths(result.cags, ctx.truth(part)))
    report = session.analyses["ranked_latency"]
    outcome.add(
        checks.check_equal(
            "ranked report path total", len(result.cags), sum(row["paths"] for row in report)
        )
    )
    record = {
        "job_s": wall,
        "digest": result_digest(result),
        "counts": {
            "lines": source.lines_read,
            "activities": result.total_activities,
            "requests": len(result.cags),
        },
        **_emit_same(wall),
        **outcome.record(),
    }
    if traced:
        counters = rec.counters
        stage_layers = {
            f"stage.{stage.name}.busy_s": rec.total(f"stage.{stage.name}")
            for stage in default_stages()
        }
        record.update(
            _traced_record(
                rec,
                job,
                {
                    **counters,
                    "reader.busy_s": rec.total("reader"),
                    "classify.busy_s": rec.total("classify"),
                    "correlate.self_s": rec.total("correlate")
                    - counters["rank.busy_s"]
                    - counters["engine.busy_s"],
                    **stage_layers,
                    "pipeline.self_s": rec.self_time(job),
                },
            )
        )
    return record


# -- stream_replay -------------------------------------------------------------


def _feed_lines(ctx: Context, feed: int) -> List[str]:
    """The lines of feed ``feed`` (modulo the feed count); one feed is
    held at a time, so memory is one job's."""
    index = feed % len(ctx.parts)
    if ctx.state.get("feed") != index:
        ctx.state["lines"] = None
        with open(ctx.paths(ctx.parts[index])[0], encoding="utf-8") as handle:
            ctx.state["lines"] = handle.readlines()
        ctx.state["feed"] = index
    return ctx.state["lines"]


def _stream_parts(ctx: Context, feed: int):
    """Feed ``feed``'s part and lines, and a fresh classifier and engine."""
    lines = _feed_lines(ctx, feed)
    part = ctx.parts[ctx.state["feed"]]
    stream = ActivityStream([ctx.frontend(part)], ignore_programs=set(part["ignore_programs"]))
    engine = IncrementalEngine(window=WINDOW_S, horizon=STREAM_HORIZON_S)
    return part, lines, stream, engine


def stream_capacity(ctx: Context, traced: bool, feed: int = 0, digest: bool = True) -> dict:
    """Hand one feed over closed loop, one full chunk per call, as fast as
    the program takes it: the wall clock is the stream's capacity.  Only
    feed 0 is hashed (the run compares like with like), and ``digest=False``
    skips that too (hashing is about as slow as the job)."""
    part, lines, stream, engine = _stream_parts(ctx, feed)
    count = len(lines)
    classify, ingest = stream.classify_lines, engine.ingest
    rec = SpanRecorder() if traced else None
    span = rec.span if traced else (lambda name: nullcontext())
    cags = []
    clock = time.perf_counter
    with span("job"):
        started = clock()
        for index in range(0, count, STREAM_CHUNK_LINES):
            chunk = lines[index : index + STREAM_CHUNK_LINES]
            if traced:
                with span("classify"):
                    activities = classify(chunk)
                with span("ingest"):
                    cags.extend(ingest(activities))
            else:
                cags.extend(ingest(classify(chunk)))
        with span("flush"):
            cags.extend(engine.flush())
        wall = clock() - started
    result = engine.result()
    outcome = Outcome()
    outcome.add(checks.check_paths(cags, ctx.truth(part)))
    record = {
        "job_s": wall,
        "digest": result_digest(result) if digest and part is ctx.parts[0] else None,
        "counts": {
            "lines": count,
            "activities": result.total_activities,
            "requests": len(result.cags),
        },
        **outcome.record(),
    }
    if traced:
        record.update(_traced_record(rec, rec.spans[0], {}))
    return record


def stream_replay(
    ctx: Context, traced: bool, rung: str, grid: int, feed: int = 0, digest: bool = True
) -> dict:
    """Replay feed ``feed`` open loop at the rate of grid point ``grid``
    (hashed as :func:`stream_capacity` hashes).

    Line ``i`` falls due at its trace timestamp, scaled so the whole feed
    spans ``len(lines) / rate`` seconds; that keeps the trace's bursts.
    Every loop turn hands over the lines due by now (at most one chunk).
    A CAG's emit latency runs from its END line's due time to the return
    of the call that produced it; the lag of a turn is how late its
    oldest line was handed over.
    """
    rate = grid_lps(grid)
    part, lines, stream, engine = _stream_parts(ctx, feed)
    stamps = [float(line.split(" ", 1)[0]) for line in lines]
    count = len(lines)
    first = stamps[0]
    scale = (count / rate) / max(stamps[-1] - first, 1e-9)
    due = [(stamp - first) * scale for stamp in stamps]
    del stamps
    last_due = due[-1]
    classify, ingest = stream.classify_lines, engine.ingest
    rec = SpanRecorder() if traced else None
    span = rec.span if traced else (lambda name: nullcontext())
    clock = time.perf_counter
    latencies: List[float] = []
    lags: List[float] = []
    cags = []
    backlog_end = 0
    peak_state = 0
    handed_at = 0.0
    index = 0
    with span("job"):
        origin = clock()
        while index < count:
            now = clock() - origin
            if due[index] > now:
                # Spin rather than sleep: a sleeping generator wakes late
                # whenever the host is busy, and that lateness would be
                # charged to the program as emit latency.
                with span("generator.wait"):
                    wake = origin + due[index]
                    while clock() < wake:
                        pass
                continue
            if now >= last_due and not backlog_end:
                backlog_end = count - index
            upto = bisect.bisect_right(due, now, index, min(count, index + STREAM_CHUNK_LINES))
            lags.append(now - due[index])
            chunk = lines[index:upto]
            if traced:
                with span("classify"):
                    activities = classify(chunk)
                with span("ingest"):
                    finished = ingest(activities)
                    peak_state = max(peak_state, engine.pending_state_size())
            else:
                finished = ingest(classify(chunk))
            done = clock() - origin
            handed_at = now
            for cag in finished:
                latencies.append(done - (cag.end_timestamp - first) * scale)
            cags.extend(finished)
            index = upto
        with span("flush"):
            finished = engine.flush()
        done = clock() - origin
    for cag in finished:
        latencies.append(done - (cag.end_timestamp - first) * scale)
    cags.extend(finished)
    emit_ms = [latency * 1e3 for latency in latencies]
    delivered = count / max(handed_at, last_due, 1e-9)
    p99 = percentile(emit_ms, 99)
    result = engine.result()
    outcome = Outcome()
    outcome.add(checks.check_paths(cags, ctx.truth(part)))
    record = {
        "job_s": done,
        "digest": result_digest(result) if digest and part is ctx.parts[0] else None,
        "rungs": [{
            "name": rung,
            "grid": grid,
            "rate_lps": rate,
            "delivered_lps": delivered,
            "emit_p50_ms": percentile(emit_ms, 50),
            "emit_p99_ms": p99,
            "emit_samples": len(emit_ms),
            "lag_p99_ms": percentile(lags, 99) * 1e3,
            "backlog_end": backlog_end,
            "met": p99 <= EMIT_P99_LIMIT_MS and delivered >= KEEP_PACE_SHARE * rate,
            "evicted": result.engine_stats.evicted_open_cags,
        }],
        "counts": {
            "lines": count,
            "activities": result.total_activities,
            "requests": len(result.cags),
        },
        **outcome.record(),
    }
    if rung == HEADLINE_RUNG:
        record["emit_ms"] = emit_ms
    if traced:
        job = rec.spans[0]
        ingest_s = rec.total("ingest") + rec.total("flush")
        layers = {f"ingest.busy_share.{rung}": ingest_s / job.duration}
        if rung == HEADLINE_RUNG:
            layers.update(
                {
                    "classify.busy_s": rec.total("classify"),
                    "classify.lines_in": count,
                    "classify.activities_out": result.total_activities,
                    "classify.filtered": stream.filtered_records,
                    "classify.malformed": stream.malformed_lines,
                    "ingest.busy_s": ingest_s,
                    "ingest.calls": len(lags),
                    "engine.peak_state": max(peak_state, result.peak_state_entries),
                    "stream.evicted": result.engine_stats.evicted_open_cags,
                    "replay.lag_p99_ms": record["rungs"][0]["lag_p99_ms"],
                    "replay.backlog_end": backlog_end,
                }
            )
        record.update(_traced_record(rec, job, layers))
    return record


def stream_slice(ctx: Context, traced: bool, feed: int = 0, stairs: Sequence[dict] = ()) -> dict:
    """``SLICE_JOBS`` in turn, each on the next feed: closed-loop passes,
    replays of the middle rung and the staircase's next steps (``stairs``
    holds the run's earlier steps).

    The passes give the slice's ``samples`` (wall clock and counts), the
    replays its ``emit_ms`` and all replays its ``rungs``.  Every job's
    CAGs are checked against the ground truth; none is hashed (the traced
    run compares feed 0's digests).
    """
    stairs = list(stairs)
    samples: List[dict] = []
    rungs: List[dict] = []
    emit_ms: List[float] = []
    outcome = Outcome()
    for index, kind in enumerate(SLICE_JOBS, start=feed):
        gc.collect()
        if kind == "pass":
            job = stream_capacity(ctx, False, index, digest=False)
            samples.append({"job_s": job["job_s"], **job["counts"]})
        elif kind == "mid":
            job = stream_replay(
                ctx, False, HEADLINE_RUNG, RUNGS[HEADLINE_RUNG], index, digest=False
            )
            emit_ms.extend(job["emit_ms"])
        else:
            capacity_lps = samples[0]["lines"] / samples[0]["job_s"]
            k = staircase.next_grid(stairs, capacity_lps)
            job = stream_replay(ctx, False, f"stair_{k}", k, index, digest=False)
            stairs.append(job["rungs"][0])
        rungs.extend(job.get("rungs", ()))
        outcome.add((job["attempted"], job["failed"], job["errors"]))
    return {
        "job_s": sum(sample["job_s"] for sample in samples),
        "counts": job["counts"],
        "samples": samples,
        "rungs": rungs,
        "emit_ms": emit_ms,
        **outcome.record(),
    }


# -- store_history -------------------------------------------------------------


def _query_mix(store: TraceStore, run_id: str, previous: Optional[str]):
    """The ``repro query`` calls the daily gate makes after an ingest."""
    yield "latency", lambda: latency_over_windows(
        store, run_id=run_id, bucket_s=LATENCY_BUCKET_S
    )
    yield "patterns", lambda: pattern_mix(store, run_id)
    if previous is not None:
        yield "drift", lambda: mix_drift(store, previous, run_id)
        yield "diff", lambda: diff_summaries(
            run_summary(store, previous), run_summary(store, run_id)
        ).payload()


def _check_day(ctx, part, cags, store, run_id, previous, answers, outcome) -> None:
    """Stored rows match the CAGs; every query answer matches memory."""
    outcome.add(checks.check_paths(cags, ctx.truth(part)))
    outcome.add(
        checks.check_equal(f"{run_id} stored rows", len(cags), store.run_row(run_id)["requests"])
    )
    mixes = ctx.state.setdefault("mixes", {})
    mixes[run_id] = checks.reference_mix(cags)
    expected = {
        "latency": checks.reference_latency(cags, LATENCY_BUCKET_S),
        "patterns": mixes[run_id],
    }
    if previous is not None:
        expected["drift"] = checks.reference_drift(mixes[previous], mixes[run_id])
        expected["diff"] = checks.reference_diff(previous, mixes[previous], run_id, mixes[run_id])
    for kind, answer in answers.items():
        outcome.add(checks.check_equal(f"{run_id} query {kind}", expected[kind], answer))


def store_history(ctx: Context, traced: bool) -> dict:
    """Each day's run through ``Pipeline(..., sinks=[StoreSink])``, then queries."""
    store: TraceStore = ctx.state["store"]
    rec = SpanRecorder() if traced else None
    span = rec.span if traced else (lambda name: nullcontext())
    outcome = Outcome()
    emit: List[float] = []
    queries: Dict[str, List[float]] = {kind: [] for kind in QUERY_KINDS}
    counts = {"lines": 0, "activities": 0, "requests": 0}
    days = []
    checked = []
    previous = None
    clock = time.perf_counter
    started = clock()
    with span("job") as job:
        for part in ctx.parts:
            run_id = part["name"]
            sink = StoreSink(ctx.state["db"], run_id=run_id, scenario=part["scenario"])
            if traced:
                pipeline = Pipeline(
                    ctx.log_source(part, rec),
                    HandDrivenBatch(rec, WINDOW_S),
                    sinks=[TracedSink(sink, rec)],
                )
            else:
                pipeline = Pipeline(
                    ctx.log_source(part), BackendSpec.batch(window=WINDOW_S), sinks=[sink]
                )
            with span(f"day.{run_id}"):
                day_start = clock()
                session = pipeline.run()
                ingest_s = clock() - day_start
                answers = {}
                for kind, query in _query_mix(store, run_id, previous):
                    with span(f"query.{kind}"):
                        query_start = clock()
                        answers[kind] = query()
                        queries[kind].append((clock() - query_start) * 1e3)
                day_s = clock() - day_start
            cags = session.trace.cags
            days.append({"run_id": run_id, "ingest_s": ingest_s, "day_s": day_s})
            emit.extend([ingest_s * 1e3] * len(cags))
            counts["lines"] += session.source.lines_read
            counts["activities"] += session.trace.correlation.total_activities
            counts["requests"] += len(cags)
            checked.append((part, cags, run_id, previous, answers))
            previous = run_id
    wall = clock() - started
    for part, cags, run_id, previous, answers in checked:
        _check_day(ctx, part, cags, store, run_id, previous, answers, outcome)
    record = {
        "job_s": wall,
        "days": days,
        "counts": counts,
        "emit_p50_ms": percentile(emit, 50),
        "emit_p99_ms": percentile(emit, 99),
        "query_ms": queries,
        **outcome.record(),
    }
    if traced:
        layers = dict(rec.counters)
        layers.update(
            {
                "reader.busy_s": rec.total("reader"),
                "classify.busy_s": rec.total("classify"),
                "correlate.self_s": rec.total("correlate")
                - layers["rank.busy_s"]
                - layers["engine.busy_s"],
                "pipeline.self_s": sum(
                    rec.self_time(day) for day in rec.spans if day.name.startswith("day.")
                ),
                "store.db_bytes": os.path.getsize(ctx.state["db"]),
            }
        )
        # What StoreSink adds to the pipeline (its live hook and its write)
        # against one plain ingest of the same CAGs: ~2 passes today.
        sink_s = rec.total("sink.live") + rec.total("sink.store")
        direct_s = _direct_ingest_s(ctx, [(run_id, cags) for _p, cags, run_id, _b, _a in checked])
        layers.update(
            {
                "store.sink_overhead_s": sink_s,
                "store.ingest_s": direct_s,
                "store.ingest_passes": sink_s / direct_s,
            }
        )
        record.update(_traced_record(rec, job, layers))
    return record


def _direct_ingest_s(ctx: Context, days) -> float:
    """One direct ``TraceStore.ingest_cags`` pass per day, into a scratch store."""
    db = os.path.join(ctx.inputs, f"direct-{os.getpid()}.sqlite")
    total = 0.0
    for run_id, cags in days:
        with TraceStore(db) as store:
            run_key = store.begin_run(run_id)
            started = time.perf_counter()
            store.ingest_cags(run_key, cags)
            store.commit()
            total += time.perf_counter() - started
        os.remove(db)
    return total


# -- composite_sharded ---------------------------------------------------------


def composite_shard(ctx: Context, traced: bool) -> dict:
    table: ActivityTable = ctx.state["table"]
    clock = time.perf_counter
    outcome = Outcome()
    started = clock()
    batch = Correlator(window=WINDOW_S).correlate(table.iter_fresh())
    batch_s = clock() - started
    batch_digest = result_digest(batch)
    requests = len(batch.cags)
    del batch
    gc.collect()
    rec = SpanRecorder() if traced else None
    if traced:
        with rec.span("job") as job:
            sharded, ordered = traced_sharded(
                rec, table, WINDOW_S, SHARD_WORKERS, SHARD_SCHEDULE
            )
        wall = job.duration
        timed_partition(rec, ordered)
        del ordered
    else:
        correlator = ShardedCorrelator(
            window=WINDOW_S,
            executor="process",
            max_workers=SHARD_WORKERS,
            schedule=SHARD_SCHEDULE,
        )
        started = clock()
        sharded = correlator.correlate(table.iter_fresh())
        wall = clock() - started
    outcome.add(checks.check_equal("sharded digest", batch_digest, result_digest(sharded)))
    by_part: Dict[str, list] = {part["scenario"]: [] for part in ctx.parts}
    for cag in sharded.cags:
        by_part[cag.root.context.hostname.split("-", 1)[0]].append(cag)
    for part in ctx.parts:
        outcome.add(checks.check_paths(by_part[part["scenario"]], ctx.truth(part)))
    record = {
        "job_s": wall,
        "batch_s": batch_s,
        "digest": batch_digest,
        "counts": {
            "lines": ctx.lines,
            "activities": len(table),
            "requests": requests,
            "components": len(sharded.shard_sizes or ()),
        },
        **_emit_same(wall),
        **outcome.record(),
    }
    if traced:
        record.update(_traced_record(rec, job, rec.counters))
    return record


UNITS = {
    "offline_logs": {"pass": offline_pass},
    "stream_replay": {
        "capacity": stream_capacity,
        "slice": stream_slice,
        **{f"rung_{name}": partial(stream_replay, rung=name, grid=k) for name, k in RUNGS.items()},
    },
    "store_history": {"history": store_history},
    "composite_sharded": {"shard": composite_shard},
}


def run_unit(ctx: Context, unit: str, feed: int = 0, stairs: Sequence[dict] = ()) -> dict:
    """Run one unit (``<name>`` or ``<name>_traced``) after set-up; a
    stream unit starts on feed ``feed``, a slice continues ``stairs``."""
    traced = unit.endswith("_traced")
    name = unit[: -len("_traced")] if traced else unit
    job = UNITS[ctx.workload][name]
    gc.collect()
    if name == "slice":
        return job(ctx, traced, feed=feed, stairs=stairs)
    return job(ctx, traced, feed=feed) if ctx.workload == "stream_replay" else job(ctx, traced)
