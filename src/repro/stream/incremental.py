"""Incremental correlation: CAGs emitted as soon as their END arrives.

This module is the online counterpart of :class:`repro.core.correlator.
Correlator`.  Instead of slurping the whole trace and correlating once,
:class:`IncrementalEngine` accepts activities chunk by chunk, advances a
watermark, and emits each finished CAG the moment its root request's END
activity is correlated -- which is what makes request tracing usable as a
*monitoring* tool against a live service rather than a post-mortem one.

Two knobs control the memory/latency/accuracy triangle:

``skew_bound``
    How far node clocks may disagree.  It only delays emission (candidates
    wait until every node's log has progressed past them by ``window +
    2 * skew_bound``); it never changes the output.

``horizon`` (seconds, ``None`` = disabled)
    Watermark-based eviction of stale engine state.  Index-map entries and
    open CAGs untouched for longer than the horizon are dropped and
    counted in :class:`repro.core.engine.EngineStats` (fields
    ``evicted_mmap_entries`` / ``evicted_cmap_entries`` /
    ``evicted_open_cags``).  This bounds memory under abandoned flows and
    noise, at an accuracy cost *only* for requests that stay idle longer
    than the horizon: their state is gone when the late activities
    finally arrive, so they surface as deformed/incomplete paths instead
    of completed ones.  With ``horizon=None`` (or any horizon above the
    service's worst-case response time) the streaming output is
    *identical* to the batch output -- the equivalence is asserted by
    ``tests/test_stream.py``.

Typical use::

    engine = IncrementalEngine(window=0.010, horizon=30.0)
    for chunk in activity_chunks:                # any iterable of batches
        for cag in engine.ingest(chunk):         # CAGs finish mid-stream
            handle_finished_request(cag)
    for cag in engine.flush():                   # drain the tail
        handle_finished_request(cag)
    result = engine.result()                     # CorrelationResult

For one-shot use over an activity iterable, :class:`StreamingCorrelator`
wraps the chunking loop behind the same ``correlate()`` signature as the
batch :class:`~repro.core.correlator.Correlator`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence

from ..core.activity import Activity, sort_key
from ..core.cag import CAG
from ..core.correlator import CorrelationDriver, CorrelationResult
from ..core.engine import CorrelationEngine
from .checkpoint import load_checkpoint, save_checkpoint
from .ranker import StreamingRanker


class IncrementalEngine(CorrelationDriver):
    """Streaming wrapper around the correlation engine (push interface).

    The rank -> process loop, the peak-state sampling and the result
    assembly are the shared :class:`~repro.core.correlator.
    CorrelationDriver`'s; this class adds what is streaming-specific:
    chunked ingest, seal/flush and watermark eviction.  The whole object
    pickles as a checkpoint (:mod:`repro.stream.checkpoint`).

    Parameters
    ----------
    window:
        Sliding-time-window size in seconds, exactly as in the batch path.
    horizon:
        Eviction horizon in seconds, or ``None`` to never evict (see the
        module docstring for the trade-off).
    skew_bound:
        Upper bound on absolute node clock skew in seconds; part of the
        reorder slack that gates candidate delivery.
    sample_interval:
        How often (in delivered candidates) the live-object counts are
        sampled for the memory accounting, as in the batch correlator.
    sampling:
        Optional :class:`repro.sampling.SamplingSpec`: trace only a
        deterministic subset of the requests.  This is where the
        *adaptive* policy lives naturally -- its controller observes the
        engine's open-CAG count (tombstones included) and steers the
        admission rate toward the configured budget, which is the
        overhead-control loop a live deployment runs.
    sampling_decisions:
        Pre-frozen decision set for the budget policy.  The push
        interface has no whole-trace pre-pass, so without one the
        budget is applied in arrival order -- exact when the stream is
        fed in global timestamp order (as :class:`StreamingCorrelator`
        feeds it).
    """

    def __init__(
        self,
        window: float = 0.010,
        horizon: Optional[float] = None,
        skew_bound: float = 0.005,
        sample_interval: int = 256,
        sampling=None,
        sampling_decisions=None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if horizon is not None and horizon <= 0:
            raise ValueError("horizon must be positive (or None to disable)")
        self.window = window
        self.horizon = horizon
        self.sampling = sampling
        self.sampler = (
            sampling.make_sampler(sampling_decisions) if sampling is not None else None
        )
        engine = CorrelationEngine(sampler=self.sampler)
        super().__init__(
            engine,
            StreamingRanker(mmap=engine.mmap, window=window, skew_bound=skew_bound),
            sample_interval,
        )
        self._flushed = False
        self._last_evict_watermark = -math.inf

    # -- streaming interface -------------------------------------------------

    def ingest(self, activities: Iterable[Activity]) -> List[CAG]:
        """Feed one chunk of activities; return the CAGs finished by it.

        Ordering contract -- both parts matter:

        * within one node, activities must arrive in that node's log
          order (nondecreasing local timestamps);
        * across nodes, streams must be interleaved roughly in real time
          (as a live multi-node feed naturally is).  The watermark is the
          *slowest seen node's* frontier, so feeding whole per-node logs
          one after another (``cat web.log app.log``) starves it: the
          first node's RECEIVEs would be judged before their SENDs from
          the not-yet-seen node arrive, and get misdiscarded as noise.

        For data at rest, sort globally by timestamp first --
        :class:`StreamingCorrelator` and the CLI ``stream`` command do
        exactly that.
        """
        if self._flushed:
            raise RuntimeError("cannot ingest after flush()")
        self.total_ingested += self.ranker.ingest(activities)
        return self.drain()

    def flush(self) -> List[CAG]:
        """End of stream: deliver everything still gated by the watermark."""
        self.ranker.seal()
        finished = self.drain()
        self._flushed = True
        return finished

    def watermark(self) -> float:
        """Current delivery watermark (local-time ceiling), -inf initially."""
        return self.ranker.watermark

    # -- internals ----------------------------------------------------------

    def _after_drain(self) -> None:
        """Run watermark eviction when it can pay for itself.

        Eviction scans the live state, so running it on every chunk would
        make ingestion O(chunks x live entries); instead it fires only
        once the watermark has advanced by a quarter horizon since the
        last sweep.  After ``seal()`` the watermark is +inf -- end-of-
        stream cleanup is *not* eviction (the remaining open CAGs are
        legitimately in flight and are reported as incomplete), so no
        sweep runs then.
        """
        if self.horizon is None or self.ranker.sealed:
            return
        watermark = self.ranker.watermark
        if watermark <= -math.inf or math.isinf(watermark):
            return
        if watermark - self._last_evict_watermark < self.horizon / 4.0:
            return
        self._last_evict_watermark = watermark
        self.engine.evict_stale(watermark - self.horizon)


class StreamingCorrelator:
    """Drop-in streaming counterpart of the batch ``Correlator``.

    ``correlate()`` accepts the same flat activity iterable, drives an
    :class:`IncrementalEngine` chunk by chunk in *arrival order* (global
    timestamp order, the realistic online delivery order) and returns the
    same :class:`~repro.core.correlator.CorrelationResult`.  Use
    :meth:`correlate_iter` instead to consume finished CAGs as they are
    emitted.

    Checkpoint/resume: with ``checkpoint_path`` + ``checkpoint_every``
    set, the engine state is snapshotted at the first chunk boundary at
    or past every ``checkpoint_every`` ingested activities (see
    :mod:`repro.stream.checkpoint` for the file format).  With
    ``resume_from`` set, correlation revives the saved engine, skips the
    already-ingested prefix of the (deterministically sorted) trace, and
    continues -- the final result digest is identical to an
    uninterrupted run.  The streaming knobs must match the ones the
    checkpoint was taken under; mismatches raise :class:`ValueError`
    rather than silently producing different output.

    Composing with a persistent :class:`~repro.store.TraceStore` (the
    ``on_cag`` hook of :class:`~repro.pipeline.StoreSink`): CAGs are
    offered to the store as they finish, i.e. at chunk boundaries, so a
    long-running ingest commits request rows incrementally.
    :meth:`correlate_iter` yields every finished CAG exactly once per
    process: a resumed run first yields the CAGs restored from the
    checkpoint (the crashed process may not have committed them), then
    the ones it finishes itself -- including those that finished
    *between* the last checkpoint and the crash, re-emitted.  Store
    ingest is keyed by the request's data-derived root identity and is
    therefore idempotent, so the combined store is identical to one
    written by an uninterrupted run (see
    :meth:`repro.store.TraceStore.run_digest`).
    """

    def __init__(
        self,
        window: float = 0.010,
        horizon: Optional[float] = None,
        skew_bound: float = 0.005,
        chunk_size: int = 256,
        sample_interval: int = 256,
        sampling=None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        resume_from: Optional[str] = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if (checkpoint_path is None) != (checkpoint_every is None):
            raise ValueError(
                "checkpoint_path and checkpoint_every must be set together"
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.window = window
        self.horizon = horizon
        self.skew_bound = skew_bound
        self.chunk_size = chunk_size
        self.sample_interval = sample_interval
        self.sampling = sampling
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        #: The engine the last ``correlate_iter``/``correlate`` call drove;
        #: read ``last_engine.result()`` after consuming the iterator.
        self.last_engine: Optional[IncrementalEngine] = None

    def make_engine(self, sampling_decisions=None) -> IncrementalEngine:
        return IncrementalEngine(
            window=self.window,
            horizon=self.horizon,
            skew_bound=self.skew_bound,
            sample_interval=self.sample_interval,
            sampling=self.sampling,
            sampling_decisions=sampling_decisions,
        )

    def _decisions_for(self, ordered: Sequence[Activity]):
        """Freeze the budget policy's decisions from the whole trace --
        the same pre-pass the batch and sharded drivers run, so the
        admitted subset is backend-independent."""
        if self.sampling is None:
            return None
        return self.sampling.freeze(ordered)

    def correlate(self, activities: Iterable[Activity]) -> CorrelationResult:
        """Correlate a (finite) activity collection incrementally."""
        for _cag in self.correlate_iter(activities):
            pass
        assert self.last_engine is not None
        return self.last_engine.result()

    def correlate_iter(
        self,
        activities: Iterable[Activity],
        engine: Optional[IncrementalEngine] = None,
    ) -> Iterator[CAG]:
        """Yield finished CAGs as the stream is consumed.

        On resume the CAGs the checkpoint restored come first.  The
        engine driven here is left on :attr:`last_engine`; read
        ``last_engine.result()`` after the iterator is exhausted (or pass
        your own ``engine``, which disables ``resume_from`` handling).
        """
        ordered = self._arrival_order(activities)
        skip = 0
        if engine is None:
            if self.resume_from is not None:
                engine, skip = self._resume_engine(len(ordered))
            else:
                engine = self.make_engine(self._decisions_for(ordered))
        self.last_engine = engine
        if skip:
            yield from engine.engine.finished_cags
        every = self.checkpoint_every
        # Cadence in *ingested activities*, written at chunk boundaries:
        # the next threshold is the first multiple of ``every`` past what
        # the engine has already seen (which on resume is mid-trace).
        next_checkpoint = (
            (engine.total_ingested // every + 1) * every if every else None
        )
        for start in range(skip, len(ordered), self.chunk_size):
            chunk = ordered[start : start + self.chunk_size]
            yield from engine.ingest(chunk)
            if next_checkpoint is not None and engine.total_ingested >= next_checkpoint:
                self._write_checkpoint(engine)
                next_checkpoint = (engine.total_ingested // every + 1) * every
        yield from engine.flush()

    # -- checkpoint plumbing -------------------------------------------------

    def _config_fingerprint(self) -> dict:
        """The knobs that must match between a checkpoint and a resume."""
        return {
            "window": self.window,
            "horizon": self.horizon,
            "skew_bound": self.skew_bound,
            "chunk_size": self.chunk_size,
            "sample_interval": self.sample_interval,
            "sampling": self.sampling,
        }

    def _write_checkpoint(self, engine: IncrementalEngine) -> None:
        assert self.checkpoint_path is not None
        save_checkpoint(
            self.checkpoint_path,
            engine,
            ingested_count=engine.total_ingested,
            config=self._config_fingerprint(),
        )

    def _resume_engine(self, trace_length: int):
        assert self.resume_from is not None
        checkpoint = load_checkpoint(self.resume_from)
        expected = self._config_fingerprint()
        mismatched = sorted(
            key
            for key in expected
            if checkpoint.config.get(key) != expected[key]
        )
        if mismatched:
            raise ValueError(
                "checkpoint configuration mismatch on "
                + ", ".join(
                    f"{key} (checkpoint {checkpoint.config.get(key)!r} != "
                    f"current {expected[key]!r})"
                    for key in mismatched
                )
            )
        if checkpoint.ingested_count > trace_length:
            raise ValueError(
                f"checkpoint has ingested {checkpoint.ingested_count} activities "
                f"but the trace only has {trace_length}"
            )
        return checkpoint.engine, checkpoint.ingested_count

    @staticmethod
    def _arrival_order(activities: Iterable[Activity]) -> Sequence[Activity]:
        """Globally timestamp-sorted activities: the order a merged online
        feed would deliver them in (per-node order is preserved, which is
        all the incremental engine requires)."""
        return sorted(activities, key=sort_key)
