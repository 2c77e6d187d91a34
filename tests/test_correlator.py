"""Tests for the Correlator (ranker + engine, offline mode)."""

import pytest

from helpers import SyntheticTrace
from repro.core.correlator import Correlator


def build_trace(requests=5, skews=None, seg=None):
    trace = SyntheticTrace(
        skews=skews or {},
        sender_max=seg,
        receiver_max=int(seg * 0.7) if seg else None,
    )
    for index in range(requests):
        trace.three_tier_request(
            request_id=index + 1,
            start=0.1 + index * 0.02,
            web_pid=100 + index % 3,
            app_tid=200 + index % 4,
            db_tid=300 + index % 4,
            db_queries=1 + index % 3,
        )
    return trace


class TestCorrelatorBasics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Correlator(window=0.0)
        with pytest.raises(ValueError):
            Correlator(window=0.01, sample_interval=0)

    def test_every_request_yields_one_finished_cag(self):
        trace = build_trace(requests=6)
        result = Correlator(window=0.01).correlate(trace.activities)
        assert result.completed_requests == 6
        assert not result.incomplete_cags

    def test_node_grouped_input_matches_flat_input(self):
        flat = Correlator(window=0.01).correlate(build_trace(requests=4).activities)
        streams = build_trace(requests=4).by_node().values()
        grouped = Correlator(window=0.01).correlate([a for stream in streams for a in stream])
        assert flat.completed_requests == grouped.completed_requests
        assert flat.total_activities == grouped.total_activities

    def test_result_summary_keys(self):
        trace = build_trace(requests=2)
        result = Correlator(window=0.01).correlate(trace.activities)
        summary = result.summary()
        for key in (
            "completed_requests",
            "correlation_time_s",
            "peak_memory_bytes",
            "total_activities",
            "noise_discarded",
            "window_s",
        ):
            assert key in summary

    def test_correlation_time_is_measured(self):
        trace = build_trace(requests=3)
        result = Correlator(window=0.01).correlate(trace.activities)
        assert result.correlation_time > 0.0

    def test_peak_memory_scales_with_buffered_activities(self):
        trace = build_trace(requests=20)
        small = Correlator(window=0.0001).correlate(trace.activities)
        large = Correlator(window=100.0).correlate(trace.activities)
        assert large.peak_buffered_activities >= small.peak_buffered_activities
        assert large.peak_memory_bytes >= small.peak_memory_bytes


class TestWindowIndependence:
    @pytest.mark.parametrize("window", [0.0005, 0.005, 0.05, 1.0, 50.0])
    def test_every_window_size_produces_the_same_paths(self, window):
        trace = build_trace(requests=8)
        result = Correlator(window=window).correlate(trace.activities)
        assert result.completed_requests == 8
        for cag in result.cags:
            assert len(cag.request_ids()) == 1
            cag.validate()

    @pytest.mark.parametrize("skew", [0.0, 0.01, 0.2])
    def test_clock_skew_does_not_change_path_count(self, skew):
        trace = build_trace(requests=8, skews={"app": skew, "db": -skew})
        result = Correlator(window=0.002).correlate(trace.activities)
        assert result.completed_requests == 8

    def test_segmented_messages_still_produce_one_path_per_request(self):
        trace = build_trace(requests=6, seg=700)
        result = Correlator(window=0.01).correlate(trace.activities)
        assert result.completed_requests == 6
        for cag in result.cags:
            cag.validate()


class TestIncompleteTraces:
    def test_missing_end_leaves_cag_open(self):
        trace = build_trace(requests=3)
        # drop the END of the last request (simulated activity loss)
        activities = [
            a for a in trace.activities if not (a.request_id == 3 and a.type.name == "END")
        ]
        result = Correlator(window=0.01).correlate(activities)
        assert result.completed_requests == 2
        assert len(result.incomplete_cags) == 1
        assert result.incomplete_cags[0].is_deformed()

    def test_empty_input(self):
        result = Correlator(window=0.01).correlate([])
        assert result.completed_requests == 0
        assert result.total_activities == 0
