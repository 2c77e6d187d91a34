"""Chunked log ingestion for the streaming pipeline.

The batch path reads whole log files into memory before correlating.
Online tracing instead consumes logs *as they grow*; this module provides
the ingestion side of that pipeline:

* :func:`iter_chunks` -- batch any iterable into fixed-size lists;
* :class:`IteratorSource` -- adapt an iterable of TCP_TRACE lines (a
  file object, a socket reader, a generator) into activity chunks;
* :class:`FileTailSource` -- follow a growing log file on disk,
  remembering the read offset and reassembling lines across chunk
  boundaries (``tail -f`` semantics, without inotify dependencies);
* :class:`ActivityStream` -- the shared raw-line -> typed-activity step
  (parse + BEGIN/END classification + attribute noise filter), built on
  :class:`repro.core.log_format.ActivityClassifier` and memoised per
  distinct (context, direction, channel).

Every source yields lists of :class:`~repro.core.activity.Activity` ready
to be pushed into :class:`repro.stream.IncrementalEngine.ingest`.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TypeVar

from ..core.activity import Activity, ActivityTemplate
from ..core.log_format import (
    ActivityClassifier,
    FrontendSpec,
    LineAssembler,
    LogFormatError,
    parse_record,
)

T = TypeVar("T")


def iter_chunks(items: Iterable[T], chunk_size: int) -> Iterator[List[T]]:
    """Yield successive lists of at most ``chunk_size`` items."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    chunk: List[T] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class ActivityStream:
    """Convert raw TCP_TRACE lines into typed activities, incrementally.

    A stateful wrapper over :class:`ActivityClassifier` that also
    tolerates malformed lines (counted, not fatal -- a live log being
    written while we read it can always hand us a torn or corrupt line).

    Every line of one context on one connection direction repeats the
    same six middle fields, so the stream memoises their classification:
    the *template key* is the line text between the timestamp and the
    size, ``#rid=`` suffix removed.  A miss runs :func:`parse_record` and
    :meth:`ActivityClassifier.classify` unchanged and, if the line is in
    canonical single-space form, stores the outcome (filtered, or the
    activity's :meth:`~repro.core.activity.Activity.template`).  A hit
    parses only the timestamp, the size and the request id.  The memo is
    only valid for this stream's classifier, whose configuration is
    frozen at construction and not exposed.
    """

    def __init__(
        self,
        frontends: Sequence[FrontendSpec],
        ignore_programs: Optional[set] = None,
        ignore_ports: Optional[set] = None,
        ignore_ips: Optional[set] = None,
    ) -> None:
        self._classifier = ActivityClassifier(
            frontends=tuple(frontends),
            ignore_programs=frozenset(ignore_programs or ()),
            ignore_ports=frozenset(ignore_ports or ()),
            ignore_ips=frozenset(ignore_ips or ()),
        )
        # template key -> ActivityTemplate, or None for a filtered record
        self._templates: Dict[str, Optional[ActivityTemplate]] = {}
        self.malformed_lines = 0

    @property
    def filtered_records(self) -> int:
        """Records dropped by the attribute-based noise filter."""
        return self._classifier.filtered_count

    @property
    def memo_size(self) -> int:
        """Distinct template keys memoised so far."""
        return len(self._templates)

    def classify_lines(self, lines: Iterable[str]) -> List[Activity]:
        """Parse and classify a batch of lines into activities."""
        activities: List[Activity] = []
        append = activities.append
        templates = self._templates
        from_template = Activity.from_template
        classifier = self._classifier
        for line in lines:
            text = line.strip()
            if not text or text[0] == "#":
                continue
            body = text
            rid_text = None
            if " #rid=" in body:
                body, _, rid_text = body.rpartition(" #rid=")
            ts_text, _, rest = body.partition(" ")
            key, _, size_text = rest.rpartition(" ")
            template = templates.get(key, _MISS)
            if template is _MISS:
                activity = self._classify_miss(text, body, key)
                if activity is not None:
                    append(activity)
                continue
            # A hit: ``key`` is exactly fields 1-6, so ``ts_text`` and
            # ``size_text`` hold what parse_record reads as fields 0 and
            # 7.  Whitespace around them is stripped by float/int as by
            # split(); whitespace inside makes float/int fail, just as it
            # makes parse_record count the wrong number of fields.
            try:
                timestamp = float(ts_text)
                size = int(size_text)
                request_id = None if rid_text is None else int(rid_text)
            except ValueError:
                self.malformed_lines += 1
                continue
            if size < 0:
                self.malformed_lines += 1
            elif template is None:
                classifier.filtered_count += 1
            else:
                append(from_template(template, timestamp, size, request_id))
        return activities

    def _classify_miss(self, text: str, body: str, key: str) -> Optional[Activity]:
        """Full parse + classify; memoise the outcome under a canonical key."""
        try:
            record = parse_record(text)
        except LogFormatError:
            self.malformed_lines += 1
            return None
        activity = self._classifier.classify(record)
        # Only a single-spaced line is memoised: then ``key`` is exactly
        # fields 1-6, so every later hit on it shares those fields.
        if body == " ".join(body.split()):
            self._templates[key] = None if activity is None else activity.template()
        return activity


#: Marks a template-key miss (``None`` is a memoised filtered record).
_MISS = object()


class IteratorSource:
    """Chunked activity source over any iterable of log lines."""

    def __init__(
        self,
        lines: Iterable[str],
        stream: ActivityStream,
        chunk_size: int = 256,
    ) -> None:
        self._lines = lines
        self._stream = stream
        self._chunk_size = chunk_size

    def __iter__(self) -> Iterator[List[Activity]]:
        for chunk in iter_chunks(self._lines, self._chunk_size):
            activities = self._stream.classify_lines(chunk)
            if activities:
                yield activities


class FileTailSource:
    """Incrementally read a (possibly still growing) TCP_TRACE log file.

    ``poll()`` reads whatever bytes were appended since the last call and
    returns the completed lines; a trailing partial line stays buffered in
    a :class:`LineAssembler` until its newline arrives.  ``drain()``
    additionally flushes that final unterminated line -- call it once the
    writer is known to be done.

    The source is deliberately dependency-free (no inotify): the caller
    decides the polling cadence, which keeps it usable inside simulations
    and tests as well as against real files.
    """

    def __init__(self, path: str, chunk_bytes: int = 64 * 1024) -> None:
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        self.path = path
        self.chunk_bytes = chunk_bytes
        self.offset = 0  # byte offset into the file
        self._assembler = LineAssembler()
        self._decoder = self._new_decoder()

    @staticmethod
    def _new_decoder():
        # Incremental decoder: a poll() that ends mid multi-byte UTF-8
        # sequence keeps the partial bytes buffered instead of emitting
        # replacement characters and corrupting the record.
        import codecs

        return codecs.getincrementaldecoder("utf-8")("replace")

    def poll(self) -> List[str]:
        """Read newly-appended data; return the newly-completed lines."""
        lines: List[str] = []
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return lines  # not created yet
        if size < self.offset:
            # The file shrank: it was rotated/truncated under us
            # (copytruncate).  Restart from the top; the partial line and
            # partial character buffered from the old incarnation are
            # gone with it.
            self.offset = 0
            self._assembler = LineAssembler()
            self._decoder = self._new_decoder()
        if size == self.offset:
            return lines
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            while True:
                chunk = handle.read(self.chunk_bytes)
                if not chunk:
                    break
                lines.extend(self._assembler.feed(self._decoder.decode(chunk)))
            self.offset = handle.tell()
        return lines

    def drain(self) -> List[str]:
        """Final poll plus the buffered partial line (end of stream)."""
        lines = self.poll()
        tail = self._decoder.decode(b"", final=True)
        if tail:
            lines.extend(self._assembler.feed(tail))
        lines.extend(self._assembler.flush())
        return lines
