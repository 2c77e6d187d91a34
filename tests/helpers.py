"""Shared test helpers: hand-built activity traces.

Many unit tests need small, fully-controlled activity streams without
running the cluster simulator.  :class:`SyntheticTrace` builds such
streams for a three-tier topology (frontend ``web``, middle ``app``,
backend ``db``) with explicit timestamps, optional clock skew, optional
message segmentation and optional noise -- the knobs the ranker and engine
are sensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.accuracy import GroundTruthRequest
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.topology.workload import WorkloadStages
from repro.services.rubis.deployment import RubisConfig

#: Stage durations shared by the fast integration fixtures.
TINY_STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)


def tiny_config(**overrides) -> RubisConfig:
    """A small, fast experiment configuration for integration tests.

    Lives here (not in ``conftest.py``) so test modules can import it
    explicitly with ``from helpers import tiny_config``: importing from
    ``conftest`` is ambiguous when pytest's rootdir puts another
    ``conftest.py`` (e.g. ``benchmarks/``) on ``sys.path`` first.
    """
    base = RubisConfig(
        clients=30,
        stages=TINY_STAGES,
        clock_skew=0.001,
        think_time=3.0,
        seed=42,
    )
    return base.with_overrides(**overrides) if overrides else base


WEB = ("web", "10.1.0.1", "httpd")
APP = ("app", "10.1.0.2", "java")
DB = ("db", "10.1.0.3", "mysqld")
CLIENT_IP = "10.9.0.1"
FRONTEND_PORT = 80


@dataclass
class SyntheticTrace:
    """Builds activities for hand-crafted requests."""

    #: constant clock offset per hostname (seconds)
    skews: Dict[str, float] = field(default_factory=dict)
    #: maximum bytes per logged send part / receive part (None = no split)
    sender_max: Optional[int] = None
    receiver_max: Optional[int] = None

    activities: List[Activity] = field(default_factory=list)
    ground_truth: Dict[int, GroundTruthRequest] = field(default_factory=dict)
    _ports: int = 40000

    # -- low-level emitters ----------------------------------------------------

    def local(self, hostname: str, timestamp: float) -> float:
        return timestamp + self.skews.get(hostname, 0.0)

    def _emit(
        self,
        activity_type: ActivityType,
        timestamp: float,
        host: Tuple[str, str, str],
        pid: int,
        tid: int,
        message: MessageId,
        request_id: Optional[int],
    ) -> Activity:
        hostname, _ip, program = host
        activity = Activity(
            type=activity_type,
            timestamp=self.local(hostname, timestamp),
            context=ContextId(hostname, program, pid, tid),
            message=message,
            request_id=request_id,
        )
        self.activities.append(activity)
        return activity

    def _split(self, size: int, max_bytes: Optional[int]) -> List[int]:
        if not max_bytes or size <= max_bytes:
            return [size]
        parts = []
        remaining = size
        while remaining > 0:
            parts.append(min(max_bytes, remaining))
            remaining -= max_bytes
        return parts

    def send(
        self,
        at: float,
        src: Tuple[str, str, str],
        src_port: int,
        dst: Tuple[str, str, str],
        dst_port: int,
        size: int,
        pid: int,
        tid: int,
        request_id: Optional[int] = None,
        activity_type: ActivityType = ActivityType.SEND,
        split: bool = True,
    ) -> List[Activity]:
        parts = self._split(size, self.sender_max if split else None)
        emitted = []
        for offset, part in enumerate(parts):
            message = MessageId(src[1], src_port, dst[1], dst_port, part)
            emitted.append(
                self._emit(activity_type, at + offset * 1e-6, src, pid, tid, message, request_id)
            )
        return emitted

    def receive(
        self,
        at: float,
        src: Tuple[str, str, str],
        src_port: int,
        dst: Tuple[str, str, str],
        dst_port: int,
        size: int,
        pid: int,
        tid: int,
        request_id: Optional[int] = None,
        activity_type: ActivityType = ActivityType.RECEIVE,
        split: bool = True,
    ) -> List[Activity]:
        parts = self._split(size, self.receiver_max if split else None)
        emitted = []
        for offset, part in enumerate(parts):
            message = MessageId(src[1], src_port, dst[1], dst_port, part)
            emitted.append(
                self._emit(activity_type, at + offset * 1e-6, dst, pid, tid, message, request_id)
            )
        return emitted

    # -- whole requests -----------------------------------------------------------

    def three_tier_request(
        self,
        request_id: int,
        start: float,
        web_pid: int = 100,
        app_tid: int = 200,
        db_tid: int = 300,
        db_queries: int = 2,
        client_port: Optional[int] = None,
        request_size: int = 400,
        reply_size: int = 2000,
        step: float = 0.001,
    ) -> GroundTruthRequest:
        """Emit the full activity sequence of one three-tier request.

        The timeline uses ``step`` seconds between causally adjacent
        activities; contexts are one httpd worker process, one app-server
        thread and one database connection thread.
        """
        client_port = client_port or self._next_port()
        app_port, db_port = 8080, 3306
        web_app_port = self._next_port()
        app_db_port = self._next_port()
        t = start

        # client -> web (BEGIN); the client side is untraced.
        self.receive(
            t, ("client", CLIENT_IP, "browser"), client_port, WEB, FRONTEND_PORT,
            request_size, web_pid, web_pid, request_id, activity_type=ActivityType.BEGIN,
        )
        begin_ts = self.local(WEB[0], t)
        t += step

        # web -> app
        self.send(t, WEB, web_app_port, APP, app_port, 600, web_pid, web_pid, request_id)
        t += step
        self.receive(t, WEB, web_app_port, APP, app_port, 600, 250, app_tid, request_id)
        t += step

        # app <-> db round trips
        for _query in range(db_queries):
            self.send(t, APP, app_db_port, DB, db_port, 200, 250, app_tid, request_id)
            t += step
            self.receive(t, APP, app_db_port, DB, db_port, 200, 350, db_tid, request_id)
            t += step
            self.send(t, DB, db_port, APP, app_db_port, 900, 350, db_tid, request_id)
            t += step
            self.receive(t, DB, db_port, APP, app_db_port, 900, 250, app_tid, request_id)
            t += step

        # app -> web reply
        self.send(t, APP, app_port, WEB, web_app_port, reply_size, 250, app_tid, request_id)
        t += step
        self.receive(t, APP, app_port, WEB, web_app_port, reply_size, web_pid, web_pid, request_id)
        t += step

        # web -> client (END)
        self.send(
            t, WEB, FRONTEND_PORT, ("client", CLIENT_IP, "browser"), client_port,
            reply_size, web_pid, web_pid, request_id, activity_type=ActivityType.END,
        )
        end_ts = self.local(WEB[0], t)

        truth = GroundTruthRequest(
            request_id=request_id,
            start_time=begin_ts,
            end_time=end_ts,
            contexts={
                (WEB[0], WEB[2], web_pid, web_pid),
                (APP[0], APP[2], 250, app_tid),
                (DB[0], DB[2], 350, db_tid),
            },
            request_type="synthetic",
        )
        self.ground_truth[request_id] = truth
        return truth

    def noise_receive(self, at: float, dst=DB, dst_port: int = 3306, size: int = 300) -> Activity:
        """A receive with no matching send anywhere (pure noise)."""
        message = MessageId("10.9.0.9", self._next_port(), dst[1], dst_port, size)
        return self._emit(ActivityType.RECEIVE, at, dst, 350, 399, message, None)

    # -- views ---------------------------------------------------------------------

    def by_node(self) -> Dict[str, List[Activity]]:
        streams: Dict[str, List[Activity]] = {}
        for activity in self.activities:
            streams.setdefault(activity.node_key, []).append(activity)
        return streams

    def _next_port(self) -> int:
        self._ports += 1
        return self._ports
