"""The Correlator: ranker + engine wired together (Fig. 2).

The Correlator is the offline analysis component of PreciseTracer.  It
takes the activity logs gathered on every node (already transformed into
typed activities), performs the three steps of Section 4:

1. sort each node's activities by its local timestamps,
2. let the *ranker* choose candidate activities through the sliding
   time window,
3. let the *engine* correlate candidates into CAGs,

and reports the resulting CAGs together with runtime statistics
(correlation time, memory consumption, noise counters) that the
evaluation section of the paper measures.

The Correlator is strictly *offline*: it buffers every activity before
the first CAG comes out, and its working set grows with the trace.  For
online analysis of live logs -- CAGs emitted as requests finish, memory
bounded by a watermark horizon, optional shard-parallel execution -- use
the drop-in counterparts in :mod:`repro.stream`
(:class:`~repro.stream.StreamingCorrelator`,
:class:`~repro.stream.IncrementalEngine`,
:class:`~repro.stream.ShardedCorrelator`).  With eviction disabled the
streaming path produces byte-identical CAGs to this one: both drain
through :class:`CorrelationDriver`, the one rank -> process loop, and
the sharded path runs this Correlator per shard.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .activity import Activity
from .cag import CAG
from .engine import CorrelationEngine, EngineStats
from .ranker import Ranker, RankerStats

#: Approximate in-memory footprint of one buffered activity, used by the
#: memory accounting below.  Measured once on CPython for the Activity
#: dataclass plus its identifiers; the precise constant does not matter,
#: only proportionality to the number of live objects (Fig. 11).
_ACTIVITY_FOOTPRINT_BYTES = 480


@dataclass
class CorrelationResult:
    """Everything the Correlator produced for one trace."""

    cags: List[CAG]
    incomplete_cags: List[CAG]
    correlation_time: float
    peak_buffered_activities: int
    peak_state_entries: int
    ranker_stats: RankerStats
    engine_stats: EngineStats
    window: float
    total_activities: int
    #: per-shard activity counts when the sharded driver produced this
    #: result (``None`` for the batch and streaming drivers)
    shard_sizes: Optional[List[int]] = None
    #: live bookkeeping entries (index maps, owners, open CAGs) left in
    #: the engine after the drain -- the leak-sanity figure the fuzz
    #: harness compares between sampled and unsampled runs
    final_state_entries: int = 0
    #: sampled-out tombstones still open after the drain; a drained batch
    #: run must satisfy ``sampled_out_roots == sampled_out_finished +
    #: final_open_tombstones`` (nothing leaked, nothing double-counted)
    final_open_tombstones: int = 0

    @property
    def completed_requests(self) -> int:
        return len(self.cags)

    @property
    def peak_memory_bytes(self) -> int:
        """Estimated peak working-set of the Correlator.

        The dominant term is the ranker buffer (it grows with the sliding
        window, which is exactly the effect Fig. 11 demonstrates); the
        engine's index maps and open CAGs contribute the rest.
        """
        live_entries = self.peak_buffered_activities + self.peak_state_entries
        return live_entries * _ACTIVITY_FOOTPRINT_BYTES

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by reports and benchmarks."""
        return {
            "completed_requests": float(self.completed_requests),
            "incomplete_cags": float(len(self.incomplete_cags)),
            "correlation_time_s": self.correlation_time,
            "peak_memory_bytes": float(self.peak_memory_bytes),
            "total_activities": float(self.total_activities),
            "noise_discarded": float(self.ranker_stats.noise_discarded),
            "window_s": self.window,
        }


class CorrelationDriver:
    """The one rank -> process loop, shared by every correlation backend.

    The ranker picks candidates and the engine builds CAGs (Section 4);
    the driver pumps candidates from one to the other until the ranker
    has nothing deliverable, samples the live state for the memory
    accounting, and assembles the :class:`CorrelationResult`.  The batch
    :class:`Correlator` drains a batch :class:`Ranker` (ceiling +inf)
    once; the streaming :class:`~repro.stream.IncrementalEngine` drains
    its watermark-gated ranker after every ingested chunk.

    Parameters
    ----------
    engine, ranker:
        The engine and a ranker sharing its message map.
    sample_interval:
        How often (in delivered candidates) the memory accounting
        samples the live-object counts.  Sampling keeps the overhead of
        bookkeeping negligible for large traces.
    """

    def __init__(
        self, engine: CorrelationEngine, ranker: Ranker, sample_interval: int = 256
    ) -> None:
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.engine = engine
        self.ranker = ranker
        self.sample_interval = sample_interval
        self.total_ingested = 0
        self.peak_buffered = 0
        self.peak_state = 0
        self.processing_time = 0.0
        self._processed = 0

    def drain(self) -> List[CAG]:
        """Deliver every candidate the ranker will give; return the CAGs
        finished on the way, in finishing order."""
        finished: List[CAG] = []
        # Hoist the per-candidate lookups out of the loop: the loop body
        # runs once per activity, so even attribute resolution shows up
        # on the Fig. 9 benchmark.
        rank = self.ranker.rank
        process = self.engine.process
        append = finished.append
        sample_interval = self.sample_interval
        processed = self._processed
        # The loop runs only internal code and allocates no reference
        # cycles (activities, CAGs and edges form an acyclic object graph
        # that plain reference counting reclaims), so the cycle collector
        # can only add full-heap scan pauses that grow with the trace.
        # Pause it for the loop; user code between drains still runs with
        # the collector in its original state.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            while True:
                candidate = rank()
                if candidate is None:
                    break
                cag = process(candidate)
                if cag is not None:
                    append(cag)
                processed += 1
                if not processed % sample_interval:
                    self._sample()
            self._after_drain()
        finally:
            self._processed = processed
            if gc_was_enabled:
                gc.enable()
        self._sample()
        self.processing_time += time.perf_counter() - start
        return finished

    def _after_drain(self) -> None:
        """Hook run once the ranker stalls, still inside the timed section."""

    def _sample(self) -> None:
        self.peak_buffered = max(self.peak_buffered, self.ranker.buffered_count())
        self.peak_state = max(self.peak_state, self.engine.pending_state_size())

    def pending_state_size(self) -> int:
        """Live bookkeeping entries: engine maps + ranker buffer."""
        return self.engine.pending_state_size() + self.ranker.buffered_count()

    def result(self) -> CorrelationResult:
        """Aggregate accounting of everything drained so far.

        ``incomplete_cags`` includes both the still-open CAGs and any
        evicted ones, so batch and streaming accounting stay comparable.
        """
        engine = self.engine
        return CorrelationResult(
            cags=list(engine.finished_cags),
            incomplete_cags=list(engine.open_cags) + engine.evicted_cags,
            correlation_time=self.processing_time,
            peak_buffered_activities=max(
                self.peak_buffered, self.ranker.stats.max_buffered
            ),
            peak_state_entries=max(self.peak_state, engine.pending_state_size()),
            ranker_stats=self.ranker.stats,
            engine_stats=engine.stats,
            window=self.ranker.window,
            total_activities=self.total_ingested,
            final_state_entries=self.pending_state_size(),
            final_open_tombstones=engine.open_tombstone_count,
        )


class Correlator:
    """Offline correlator over a flat activity collection.

    :meth:`correlate` groups the activities by node, builds the batch
    ranker over the complete per-node streams and drains it once through
    the :class:`CorrelationDriver`.  The streaming counterpart
    (:class:`repro.stream.StreamingCorrelator`) returns the same
    :class:`CorrelationResult` type, so downstream analysis code never
    needs to know which path produced it.
    """

    def __init__(
        self,
        window: float = 0.010,
        sample_interval: int = 256,
        sampling=None,
        sampling_decisions=None,
    ) -> None:
        """
        Parameters
        ----------
        window:
            Sliding-time-window size in seconds (any positive value).
        sample_interval:
            How often (in delivered candidates) the memory accounting
            samples the live-object counts (see :class:`CorrelationDriver`).
        sampling:
            Optional :class:`repro.sampling.SamplingSpec`: trace only a
            deterministic subset of the requests, decided at each causal
            root.  Sampled-out requests cost index-map bookkeeping but
            build no CAG and surface nowhere in the result.
        sampling_decisions:
            Pre-frozen decision set (see
            :func:`repro.sampling.precompute_decisions`); when absent and
            the policy needs one (the per-second budget), the pre-pass
            runs here.  The sharded driver passes shards a shared set so
            every shard agrees with the whole-trace decision order.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.window = window
        self.sample_interval = sample_interval
        self.sampling = sampling
        self.sampling_decisions = sampling_decisions

    def _make_sampler(self, streams: Dict[str, Sequence[Activity]]):
        if self.sampling is None:
            return None
        decisions = self.sampling_decisions
        if decisions is None:
            decisions = self.sampling.freeze(
                a for stream in streams.values() for a in stream
            )
        return self.sampling.make_sampler(decisions)

    def correlate(self, activities: Iterable[Activity]) -> CorrelationResult:
        """Correlate a flat activity collection (any node order)."""
        streams: Dict[str, List[Activity]] = {}
        total = 0
        for activity in activities:
            streams.setdefault(activity.node_key, []).append(activity)
            total += 1
        engine = CorrelationEngine(sampler=self._make_sampler(streams))
        ranker = Ranker(streams, mmap=engine.mmap, window=self.window)
        driver = CorrelationDriver(engine, ranker, self.sample_interval)
        driver.total_ingested = total
        driver.drain()
        return driver.result()
