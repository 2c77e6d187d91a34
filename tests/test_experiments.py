"""Tests for the experiment harness (figure generators, report, CLI)."""

import pytest

from repro.experiments.config import FULL, SCALES, SMALL, ExperimentScale, default_scale
from repro.experiments.figures import (
    FigureResult,
    accuracy_table,
    baseline_comparison,
    figure8,
    figure11,
    figure15,
    figure16,
    figure17,
    figure17_diagnosis,
)
from repro.experiments.report import format_value, render_report, render_table, write_report
from repro.experiments.runner import RunCache, config_key, get_run
from repro.topology.workload import WorkloadStages
from repro.services.rubis.deployment import RubisConfig


#: A deliberately tiny scale so harness tests stay fast.
TINY = ExperimentScale(
    name="tiny",
    stages=WorkloadStages(up_ramp=0.5, runtime=3.0, down_ramp=0.5),
    seed=21,
    client_series=(20, 60),
    window_clients=(20,),
    windows=(0.001, 0.1),
    fig15_clients=(20, 60),
    fault_clients=30,
    noise_clients=(20,),
    accuracy_clients=(20,),
    accuracy_windows=(0.01,),
    accuracy_skews=(0.001, 0.2),
    accuracy_workloads=("browse_only",),
    baseline_clients=(20,),
)


@pytest.fixture(scope="module")
def cache():
    return RunCache()


class TestScales:
    def test_registry_contains_small_and_full(self):
        assert SCALES["small"] is SMALL
        assert SCALES["full"] is FULL

    def test_default_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert default_scale() is FULL
        monkeypatch.setenv("REPRO_SCALE", "unknown")
        assert default_scale() is SMALL
        monkeypatch.delenv("REPRO_SCALE")
        assert default_scale() is SMALL

    def test_full_scale_covers_the_paper_grid(self):
        assert FULL.client_series[0] == 100
        assert FULL.client_series[-1] == 1000
        assert len(FULL.client_series) == 10


class TestRunCache:
    def test_identical_configs_hit_the_cache(self, cache):
        config = RubisConfig(clients=10, stages=TINY.stages, seed=TINY.seed)
        first = get_run(config, cache)
        second = get_run(config, cache)
        assert first is second
        assert cache.hits >= 1

    def test_different_configs_miss(self, cache):
        a = get_run(RubisConfig(clients=10, stages=TINY.stages, seed=TINY.seed), cache)
        b = get_run(RubisConfig(clients=12, stages=TINY.stages, seed=TINY.seed), cache)
        assert a is not b

    def test_config_key_is_stable_and_distinct(self):
        a = RubisConfig(clients=10)
        b = RubisConfig(clients=10)
        c = RubisConfig(clients=11)
        assert config_key(a) == config_key(b)
        assert config_key(a) != config_key(c)


class TestFigureGenerators:
    def test_figure8_requests_grow_with_clients(self, cache):
        result = figure8(TINY, cache)
        requests = result.column("requests")
        assert len(requests) == 2
        assert requests[1] > requests[0]

    def test_figure11_memory_grows_with_window(self, cache):
        result = figure11(TINY, cache)
        series = {row["window_s"]: row["peak_buffered_activities"] for row in result.rows}
        assert series[0.1] >= series[0.001]

    def test_figure15_has_one_row_per_client_count(self, cache):
        result = figure15(TINY, cache)
        assert result.column("clients") == [20, 60]
        for row in result.rows:
            shares = [value for key, value in row.items() if key != "clients"]
            assert sum(shares) == pytest.approx(100.0, abs=2.0)

    def test_figure16_compares_two_maxthreads_settings(self, cache):
        result = figure16(TINY, cache)
        for row in result.rows:
            assert row["tp_mt250_rps"] >= 0
            assert row["rt_mt40_ms"] > 0

    def test_figure17_contains_all_four_scenarios(self, cache):
        result = figure17(TINY, cache)
        assert result.column("scenario") == ["normal", "EJB_Delay", "Database_Lock", "EJB_Network"]

    def test_figure17_diagnosis_points_at_injected_components(self, cache):
        suspects = figure17_diagnosis(TINY, cache, threshold=5.0)
        assert "java" in suspects["EJB_Delay"]
        assert "mysqld" in suspects["Database_Lock"]

    def test_accuracy_table_is_all_perfect(self, cache):
        result = accuracy_table(TINY, cache)
        assert result.rows
        assert all(row["accuracy"] == 1.0 for row in result.rows)

    def test_baseline_comparison_shows_the_precision_gap(self, cache):
        result = baseline_comparison(TINY, cache)
        for row in result.rows:
            assert row["precisetracer"] == 1.0
            assert row["wap5_style"] <= 1.0

    def test_figure_result_helpers(self):
        result = FigureResult(
            figure_id="x", title="t", columns=["a", "b"], rows=[{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        )
        assert result.column("a") == [1, 3]
        assert result.series("a", "b") == {1: 2, 3: 4}


class TestReportRendering:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(1.23456) == "1.235"
        assert format_value("txt") == "txt"

    def test_render_table_contains_headers_and_rows(self):
        result = FigureResult(
            figure_id="fig", title="Demo", columns=["col"], rows=[{"col": 42}]
        )
        text = render_table(result)
        assert "Demo" in text
        assert "col" in text
        assert "42" in text

    def test_render_report_and_write(self, tmp_path):
        result = FigureResult(figure_id="fig", title="Demo", columns=["c"], rows=[{"c": 1}])
        path = tmp_path / "report.txt"
        text = write_report([result, result], str(path))
        assert path.read_text() == text
        assert text.count("Demo") == 2
        assert render_report([result]).endswith("\n")
