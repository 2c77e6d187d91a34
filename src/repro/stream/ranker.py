"""Streaming ranker: candidate selection over growing per-node streams.

The batch :class:`repro.core.ranker.Ranker` receives every node's complete
activity list up front; several of its decisions peek at the *future* of a
stream (the ``is_noise`` test and the blocked-RECEIVE test both ask "does a
matching SEND exist anywhere later in some source?").  Online, the future
has not arrived yet, so those decisions can only be finalised for
activities old enough that no still-unseen activity could change the
answer.

:class:`StreamingRanker` keeps the batch ranker's selection logic (Rule 1,
Rule 2, ``is_noise``, head swaps) untouched and adds two things:

* **growing sources** (:class:`GrowingSource`) that accept activities as
  they are ingested, instead of a frozen, pre-sorted list;
* a **delivery ceiling** derived from the stream watermark: candidates
  are only delivered once every node's ingestion frontier has advanced
  past their timestamp by at least the *reorder slack* (sliding window +
  twice the clock-skew bound).  Below the ceiling, every SEND that could
  match an already-seen RECEIVE has provably been ingested, so the
  streaming ranker makes exactly the decisions the batch ranker would --
  this is what makes the streaming and batch paths produce identical
  CAGs (verified by ``tests/test_stream.py``).

When the stream ends, :meth:`StreamingRanker.seal` lifts the ceiling and
the tail drains with full batch semantics.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, deque
from typing import Dict, Iterable, List, Optional

from ..core.activity import Activity, sort_key
from ..core.index_maps import MessageMap
from ..core.ranker import ActivitySource, Ranker


class GrowingSource(ActivitySource):
    """A per-node activity source that can be extended while being consumed.

    Activities are expected to arrive in (approximately) the node's local
    clock order -- the natural order of a node's own log file.  Mildly
    out-of-order arrivals are tolerated by insorting into the unconsumed
    region; an activity older than something already fetched is appended
    at the consumption point (it cannot be sequenced earlier any more) and
    counted in :attr:`late`.
    """

    #: Activities that arrived older than one already fetched.  Class-level
    #: defaults, so sources restored from older checkpoints start at zero.
    late = 0
    #: Sort key of the newest activity fetched so far (None before any).
    _fetched_high: Optional[tuple] = None

    def __init__(self, node, registry: Optional[Counter] = None) -> None:
        super().__init__(node, [], registry=registry)
        self._sort_keys: List[tuple] = []
        self._frontier: Optional[float] = None

    def extend(self, activities: Iterable[Activity]) -> None:
        """Add newly-ingested activities to the unconsumed tail.

        The batch source's columnar shadows (``_ts``, ``_send_keys``) are
        maintained in lockstep with the activity list -- its bisecting
        ``take_until`` and send-key bookkeeping read only those columns.
        """
        self._trim_consumed()
        registry = self._registry
        ts_column = self._ts
        send_keys = self._send_keys
        fetched_high = self._fetched_high
        for activity in sorted(activities, key=sort_key):
            key = sort_key(activity)
            send_key = activity.message_key if activity.send_like else None
            if fetched_high is not None and key < fetched_high:
                self.late += 1
            if not self._sort_keys or key >= self._sort_keys[-1]:
                self._activities.append(activity)
                self._sort_keys.append(key)
                ts_column.append(activity.timestamp)
                send_keys.append(send_key)
            else:
                index = max(
                    self._position,
                    bisect.bisect_right(self._sort_keys, key),
                )
                self._activities.insert(index, activity)
                self._sort_keys.insert(index, key)
                ts_column.insert(index, activity.timestamp)
                send_keys.insert(index, send_key)
            if send_key is not None:
                self._future_send_keys[send_key] += 1
                if registry is not None:
                    registry[send_key] += 1
            if self._frontier is None or activity.timestamp > self._frontier:
                self._frontier = activity.timestamp
        self._sync_next_timestamp()

    def latest_timestamp(self) -> Optional[float]:
        """Local timestamp of the newest activity ever ingested (the
        node's ingestion frontier), or ``None`` before anything arrived."""
        return self._frontier

    def _trim_consumed(self) -> None:
        """Release already-fetched activities (unlike the batch source,
        which keeps its whole list, a stream must stay bounded)."""
        if self._position:
            # The consumed region is sorted apart from late arrivals, which
            # sit at its front and sort below the previous high mark.
            newest = self._sort_keys[self._position - 1]
            if self._fetched_high is None or newest > self._fetched_high:
                self._fetched_high = newest
            del self._activities[: self._position]
            del self._sort_keys[: self._position]
            del self._ts[: self._position]
            del self._send_keys[: self._position]
            self._position = 0


class StreamingRanker(Ranker):
    """A :class:`Ranker` over growing sources with watermark-gated delivery.

    Parameters
    ----------
    mmap:
        The engine's message map (shared, exactly as in the batch path).
    window:
        Sliding-time-window size in seconds.
    skew_bound:
        Upper bound on the absolute clock skew of any node, in seconds.
        Together with the window it determines the *reorder slack*: a
        candidate at local time ``t`` is only delivered once every node
        has ingested past ``t + window + 2 * skew_bound``.  Overestimating
        the bound only delays emission by the overestimate; it never
        changes the output.
    """

    def __init__(
        self,
        mmap: MessageMap,
        window: float = 0.010,
        skew_bound: float = 0.005,
    ) -> None:
        super().__init__({}, mmap, window=window)
        if skew_bound < 0:
            raise ValueError("skew_bound must be non-negative")
        # Strictly greater than window + 2*skew so that activities above
        # the watermark can never fall inside a refill limit computed from
        # a delivered candidate (see the equivalence argument above).
        self._slack = window + 2.0 * skew_bound + 1e-9
        self._sealed = False
        self.ceiling = -math.inf  # nothing deliverable until data arrives

    # -- ingestion ----------------------------------------------------------

    def ingest(self, activities: Iterable[Activity]) -> int:
        """Route activities to their per-node sources; returns the count.

        New nodes are registered on first sight.  Call :meth:`rank` (in a
        loop, until it returns ``None``) afterwards to drain everything
        the advanced watermark makes decidable.
        """
        count = 0
        per_node: Dict[int, List[Activity]] = {}
        for activity in activities:
            per_node.setdefault(activity.node_key, []).append(activity)
            count += 1
        for node, batch in per_node.items():
            source = self._sources.get(node)
            if source is None:
                source = GrowingSource(node, registry=self._future_send_keys)
                self._sources[node] = source
                self._queues[node] = deque()
                # Grow the kernel head columns: new node, new sweep slot
                # (appended, so the established scan order is preserved).
                self._register_slot(node)
            source.extend(batch)
        if count:
            # Source frontiers moved: both cached minima are stale.
            self._low_dirty = True
            self._source_low_dirty = True
        if not self._sealed:
            self._update_ceiling()
        return count

    def seal(self) -> None:
        """Mark the stream as ended: lift the ceiling so the tail drains
        with exact batch semantics (including the noise fallback)."""
        self._sealed = True
        self.ceiling = math.inf

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def late_activities(self) -> int:
        """Activities ingested older than one their node already fetched
        (sequenced at the consumption point instead of in clock order)."""
        return sum(source.late for source in self._sources.values())

    @property
    def watermark(self) -> float:
        """The current delivery ceiling (-inf before any data)."""
        return self.ceiling

    # -- internals ----------------------------------------------------------

    def _update_ceiling(self) -> None:
        # The watermark is the slowest node's ingestion frontier, minus
        # the reorder slack.  A node that stops logging holds the
        # watermark back until seal() -- the standard behaviour of
        # watermark-based stream processors.
        frontiers = [
            source.latest_timestamp()
            for source in self._sources.values()
            if source.latest_timestamp() is not None
        ]
        if frontiers:
            self.ceiling = min(frontiers) - self._slack
