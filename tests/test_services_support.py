"""Tests for the services support pieces: ground truth, client metrics,
workload stages, noise configuration and fault configuration."""

import pytest

from repro.services.faults import DatabaseLockFault, EjbDelayFault, EjbNetworkFault, FaultConfig
from repro.services.noise import NoiseConfig
from repro.services.rubis.requests import VIEW_ITEM
from repro.sim.network import NetworkFabric
from repro.sim.kernel import Environment
from repro.sim.node import ExecutionEntity, Node
from repro.sim.randomness import RandomStreams
from repro.topology.groundtruth import GroundTruthRecorder
from repro.topology.workload import ClientMetrics, CompletedRequest, WorkloadStages


class TestWorkloadStages:
    def test_deadline_and_window(self):
        stages = WorkloadStages(up_ramp=2.0, runtime=10.0, down_ramp=1.0)
        assert stages.new_request_deadline == 12.0
        assert stages.measurement_window == (2.0, 12.0)


class TestClientMetrics:
    def make_metrics(self):
        stages = WorkloadStages(up_ramp=1.0, runtime=10.0, down_ramp=1.0)
        metrics = ClientMetrics(stages=stages)
        # one request inside the window, one during ramp-up, one after
        metrics.record(CompletedRequest(1, "ViewItem", issued_at=2.0, completed_at=2.5))
        metrics.record(CompletedRequest(2, "Home", issued_at=0.2, completed_at=0.8))
        metrics.record(CompletedRequest(3, "ViewItem", issued_at=11.5, completed_at=12.5))
        return metrics

    def test_window_filtering(self):
        metrics = self.make_metrics()
        assert metrics.completed_count == 3
        assert len(metrics.in_window()) == 1

    def test_throughput_and_response_time(self):
        metrics = self.make_metrics()
        assert metrics.throughput() == pytest.approx(1 / 10.0)
        assert metrics.mean_response_time() == pytest.approx(0.5)

    def test_percentile_and_type_counts(self):
        metrics = self.make_metrics()
        assert metrics.response_time_percentile(50) == pytest.approx(0.5)
        assert metrics.per_type_counts() == {"ViewItem": 2, "Home": 1}

    def test_empty_metrics(self):
        metrics = ClientMetrics(stages=WorkloadStages())
        assert metrics.throughput() == 0.0
        assert metrics.mean_response_time() == 0.0
        assert metrics.response_time_percentile(99) == 0.0


class TestGroundTruthRecorder:
    def test_ids_are_unique_and_monotone(self):
        recorder = GroundTruthRecorder()
        first = recorder.new_request(VIEW_ITEM)
        second = recorder.new_request(VIEW_ITEM)
        assert second.request_id > first.request_id
        assert len(recorder) == 2

    def test_completed_requires_start_and_end(self):
        recorder = GroundTruthRecorder()
        request = recorder.new_request(VIEW_ITEM)
        entity = ExecutionEntity("www", "httpd", 1, 1)
        recorder.note_context(request, entity)
        assert recorder.completed() == {}
        recorder.note_start(request, 1.0)
        assert recorder.completed() == {}
        recorder.note_end(request, 2.0)
        completed = recorder.completed()
        assert set(completed) == {request.request_id}
        assert completed[request.request_id].contexts == {("www", "httpd", 1, 1)}

    def test_noise_notes_are_ignored(self):
        recorder = GroundTruthRecorder()
        entity = ExecutionEntity("db", "mysqld", 1, 2)
        recorder.note_context(None, entity)
        recorder.note_start(None, 1.0)
        recorder.note_end(None, 2.0)
        assert len(recorder) == 0


class TestNoiseConfig:
    def test_quiet_by_default(self):
        assert not NoiseConfig().enabled
        assert not NoiseConfig.quiet().enabled

    def test_paper_noise_enables_both_kinds(self):
        noise = NoiseConfig.paper_noise()
        assert noise.enabled
        assert noise.ssh_rate > 0
        assert noise.mysql_client_rate > 0

    def test_scaling(self):
        half = NoiseConfig.paper_noise(scale=0.5)
        full = NoiseConfig.paper_noise(scale=1.0)
        assert half.mysql_client_rate == pytest.approx(full.mysql_client_rate / 2)

    def test_noise_query_is_cheap(self):
        query = NoiseConfig.paper_noise().noise_query()
        assert query.engine_delay < 0.01
        assert query.reply_bytes > 0


class TestFaults:
    def test_samples_are_positive_and_near_the_mean(self):
        rng = RandomStreams(seed=2)
        delay = EjbDelayFault(mean_delay=0.2)
        samples = [delay.sample(rng) for _ in range(200)]
        assert all(sample >= 0 for sample in samples)
        assert sum(samples) / len(samples) == pytest.approx(0.2, rel=0.2)

    def test_lock_fault_sampling(self):
        rng = RandomStreams(seed=2)
        lock = DatabaseLockFault(lock_wait=0.1)
        samples = [lock.sample(rng) for _ in range(100)]
        assert min(samples) >= 0
        assert max(samples) <= 0.1 * 1.4 + 1e-9

    def test_network_fault_degrades_fabric(self):
        env = Environment()
        fabric = NetworkFabric(env)
        a = Node(env, "app", "10.0.0.2")
        b = Node(env, "db", "10.0.0.3")
        before = fabric.transfer_delay(a, b, 20_000)
        EjbNetworkFault().apply(fabric, "app")
        after = fabric.transfer_delay(a, b, 20_000)
        assert after > before * 3

    def test_factory_methods(self):
        assert FaultConfig.none().ejb_delay is None
        assert FaultConfig.ejb_delay_case(0.3).ejb_delay.mean_delay == 0.3
        assert FaultConfig.database_lock_case(0.2).database_lock.lock_wait == 0.2
        fault = FaultConfig.ejb_network_case(bandwidth_mbps=20)
        assert fault.ejb_network.bandwidth_bytes_per_s == pytest.approx(20e6 / 8)
