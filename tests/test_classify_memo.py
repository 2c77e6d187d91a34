"""The classification memo of ``ActivityStream.classify_lines``.

The stream memoises each distinct (context, direction, channel) line
suffix.  These tests pin it to the oracle it replaces -- ``parse_record``
followed by ``ActivityClassifier.classify`` on every line -- over lines
built to probe every place the two could part: repeated suffixes with
varied timestamps, sizes and request ids, whitespace variants, malformed
fields, negative sizes, filtered records and frontend BEGIN/END lines.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.activity import ActivityType
from repro.core.interning import INTERNER
from repro.core.log_format import (
    ActivityClassifier,
    FrontendSpec,
    LogFormatError,
    format_record,
    parse_record,
)
from repro.stream import ActivityStream

FRONTEND = FrontendSpec(
    "10.0.0.1", 80, internal_ips=frozenset({"10.0.0.1", "10.0.0.2", "10.0.0.3"})
)
IGNORE_PROGRAMS = frozenset({"sshd"})
IGNORE_PORTS = frozenset({22})
IGNORE_IPS = frozenset({"10.0.0.66"})

HOSTS = ("web", "app", "db")
PROGRAMS = ("httpd", "java", "mysqld", "sshd")
ENDPOINTS = (
    "10.0.0.1:80",  # the frontend
    "10.9.0.7:41000",  # an external client
    "10.0.0.2:8009",
    "10.0.0.3:3306",
    "10.0.0.2:22",  # filtered port
    "10.0.0.66:5000",  # filtered ip
)
BAD_CHANNELS = ("10.0.0.2:8009", "10.0.0.2:x-10.0.0.3:3306", "a-b")
WHITESPACE = ("\t", "  ", " \t", "\x0b", "\u3000")
#: Ways a line gets spoiled (half the lines are left intact).
MANGLES = (
    "whitespace",
    "timestamp",
    "size",
    "negative",
    "rid",
    "channel",
    "seven",
    "nine",
    "comment",
    "blank",
)

SINGLE_SPACED = "1.000000 web httpd 1 1 SEND 10.0.0.1:80-10.0.0.2:8009 5"
TAB_BEFORE_SIZE = "2.000000 web httpd 1 1 SEND 10.0.0.1:80-10.0.0.2:8009 \t7"

#: Hostnames get a fresh prefix per example, so every example interns
#: new contexts and nodes and the interning order can be checked.
_salts = itertools.count()


@st.composite
def suffixes(draw, salt):
    """Fields 1-6 of a line: host, program, pid, tid, direction, channel."""
    host = f"s{salt}-{draw(st.sampled_from(HOSTS))}"
    program = draw(st.sampled_from(PROGRAMS))
    pid = draw(st.integers(1, 3))
    tid = draw(st.integers(1, 3))
    direction = draw(st.sampled_from(("SEND", "RECEIVE")))
    src, dst = draw(st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=2, unique=True))
    return [host, program, str(pid), str(tid), direction, f"{src}-{dst}"]


@st.composite
def trace_lines(draw):
    """Lines over a few shared suffixes, some of them mangled."""
    salt = next(_salts)
    pool = draw(st.lists(suffixes(salt), min_size=1, max_size=6))
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        fields = list(draw(st.sampled_from(pool)))
        timestamp = draw(st.floats(0.0, 100.0, allow_nan=False))
        size = draw(st.integers(0, 5000))
        fields = [f"{timestamp:.6f}"] + fields + [str(size)]
        rid = draw(st.one_of(st.none(), st.integers(0, 99)))
        mangle = draw(st.one_of(st.just("none"), st.sampled_from(MANGLES)))
        separators = [" "] * 7
        rid_text = None if rid is None else str(rid)
        if mangle == "whitespace":
            separators[draw(st.integers(0, 6))] = draw(st.sampled_from(WHITESPACE))
        elif mangle == "timestamp":
            fields[0] = draw(st.sampled_from(("1.0.0", "t", "1,5", "")))
        elif mangle == "size":
            fields[7] = draw(st.sampled_from(("1.5", "ten", "0x10", "")))
        elif mangle == "negative":
            fields[7] = str(-draw(st.integers(1, 5000)))
        elif mangle == "rid":
            rid_text = draw(st.sampled_from(("x", "", "1.5", "2 3")))
        elif mangle == "channel":
            fields[6] = draw(st.sampled_from(BAD_CHANNELS))
        elif mangle == "seven":
            del fields[draw(st.integers(0, 7))]
            separators.pop()
        elif mangle == "nine":
            fields.insert(draw(st.integers(1, 7)), "extra")
            separators.append(" ")
        text = fields[0] + "".join(sep + field for sep, field in zip(separators, fields[1:]))
        if rid_text is not None:
            text += f" #rid={rid_text}"
        if mangle == "comment":
            text = "# " + text
        elif mangle == "blank":
            text = draw(st.sampled_from(("", "   ", "\t")))
        lines.append(text)
    return lines


def make_classifier() -> ActivityClassifier:
    return ActivityClassifier(
        frontends=[FRONTEND],
        ignore_programs=set(IGNORE_PROGRAMS),
        ignore_ports=set(IGNORE_PORTS),
        ignore_ips=set(IGNORE_IPS),
    )


def make_stream() -> ActivityStream:
    return ActivityStream(
        frontends=[FRONTEND],
        ignore_programs=set(IGNORE_PROGRAMS),
        ignore_ports=set(IGNORE_PORTS),
        ignore_ips=set(IGNORE_IPS),
    )


def oracle(lines):
    """Today's per-line path: full parse, then classify."""
    classifier = make_classifier()
    activities, malformed, canonical_keys = [], 0, set()
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            record = parse_record(text)
        except LogFormatError:
            malformed += 1
            continue
        body = text.rpartition(" #rid=")[0] if " #rid=" in text else text
        fields = body.split()
        if body == " ".join(fields):
            canonical_keys.add(" ".join(fields[1:7]))
        activity = classifier.classify(record)
        if activity is not None:
            activities.append(activity)
    return activities, malformed, classifier.filtered_count, canonical_keys


def fields_of(activity):
    return (
        activity.type,
        activity.timestamp,
        activity.context,
        activity.message,
        activity.request_id,
        activity.size,
        activity.context_key,
        activity.message_key,
        activity.node_key,
        activity.priority,
        activity.send_like,
    )


def seq_offsets(activities):
    return [activity.seq - activities[0].seq for activity in activities]


def first_seen(keys):
    return list(dict.fromkeys(keys))


def interned_since(before):
    return (
        INTERNER._context_tuples[before["contexts"] :],
        INTERNER._message_tuples[before["messages"] :],
        INTERNER._nodes[before["nodes"] :],
    )


def expected_new_keys(activities, before):
    """Keys the oracle's activities intern, in first-seen order, that did
    not exist before the example (ids at or past the old sizes)."""
    contexts = first_seen(activity.context.as_tuple() for activity in activities)
    messages = first_seen(activity.message.connection_key() for activity in activities)
    nodes = first_seen(activity.context.hostname for activity in activities)
    return (
        [key for key in contexts if INTERNER._context_ids[key] >= before["contexts"]],
        [key for key in messages if INTERNER._message_ids[key] >= before["messages"]],
        [key for key in nodes if INTERNER._node_ids[key] >= before["nodes"]],
    )


class TestMemoEquivalence:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(lines=trace_lines(), split=st.integers(0, 40))
    # Whitespace before the size only: not memoised, but a hit on a key
    # that a single-spaced line stored, whichever comes first.
    @example(lines=[SINGLE_SPACED, TAB_BEFORE_SIZE], split=0)
    @example(lines=[TAB_BEFORE_SIZE, SINGLE_SPACED, TAB_BEFORE_SIZE], split=0)
    def test_memo_path_matches_parse_and_classify(self, lines, split):
        stream = make_stream()
        before = INTERNER.sizes()
        # Two calls: the memo outlives a call, as on a live stream.
        memoised = stream.classify_lines(lines[:split])
        memoised += stream.classify_lines(lines[split:])
        interned = interned_since(before)

        expected, malformed, filtered, canonical_keys = oracle(lines)
        assert [fields_of(a) for a in memoised] == [fields_of(a) for a in expected]
        # seq is drawn once per activity, in line order, by both paths.
        assert seq_offsets(memoised) == seq_offsets(expected)
        assert interned == expected_new_keys(expected, before)
        assert stream.malformed_lines == malformed
        assert stream.filtered_records == filtered
        assert stream.memo_size == len(canonical_keys)

    def test_frontend_lines_classify_as_begin_and_end(self):
        lines = [
            "1.000000 web httpd 1 1 RECEIVE 10.9.0.7:41000-10.0.0.1:80 300 #rid=1",
            "1.500000 web httpd 1 1 RECEIVE 10.9.0.7:41000-10.0.0.1:80 310 #rid=2",
            "2.000000 web httpd 1 1 SEND 10.0.0.1:80-10.9.0.7:41000 900 #rid=1",
            "2.500000 web httpd 1 1 SEND 10.0.0.1:80-10.9.0.7:41000 910 #rid=2",
        ]
        stream = make_stream()
        activities = stream.classify_lines(lines)
        assert [a.type for a in activities] == [
            ActivityType.BEGIN,
            ActivityType.BEGIN,
            ActivityType.END,
            ActivityType.END,
        ]
        assert [(a.size, a.request_id) for a in activities] == [
            (300, 1),
            (310, 2),
            (900, 1),
            (910, 2),
        ]
        assert stream.memo_size == 2
        # Repeated lines share one context object.
        assert activities[0].context is activities[1].context


class TestMemoHitPath:
    def test_second_pass_adds_no_memo_entries(self, tiny_run):
        lines = [format_record(record) for record in tiny_run.all_records()]
        stream = ActivityStream(
            frontends=[tiny_run.frontend_spec()],
            ignore_programs=set(tiny_run.topology.ignore_programs),
        )
        first = stream.classify_lines(lines)
        entries = stream.memo_size
        assert 0 < entries < len(lines)
        second = stream.classify_lines(lines)
        assert stream.memo_size == entries
        assert [fields_of(a) for a in second] == [fields_of(a) for a in first]
        assert stream.filtered_records % 2 == 0

    def test_configuration_is_frozen(self):
        ignore = {"sshd"}
        stream = ActivityStream(frontends=[FRONTEND], ignore_programs=ignore)
        ignore.add("httpd")  # the caller's set is copied, not shared
        line = "1.000000 web httpd 1 1 SEND 10.0.0.2:8009-10.0.0.3:3306 10"
        assert len(stream.classify_lines([line])) == 1
        assert not hasattr(stream, "classifier")
