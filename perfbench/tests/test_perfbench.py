"""The benchmark's own tests: contract, smoke runs, and its checks biting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import settings  # noqa: E402
import staircase  # noqa: E402
import workloads  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    spec = load_spec()
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_follows_its_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(settings.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as handle:
        layer_map = json.load(handle)
    assert list(layer_map) == [m["name"] for m in spec["per_layer"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= set(settings.WORKLOADS)
        assert all(set(metrics) <= e2e for metrics in entry["moves"].values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", settings.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("offline_logs", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _step(k: int, met: bool, delivered: float = 0.0) -> dict:
    return {"name": f"stair_{k}", "grid": k, "met": met, "delivered_lps": delivered}


def test_staircase_starts_below_capacity_and_narrows_after_the_first_change():
    capacity = settings.grid_lps(20) / staircase.START_SHARE * 1.01
    assert staircase.next_grid([], capacity) == 20
    assert staircase.next_grid([_step(20, True)], capacity) == 22
    assert staircase.next_grid([_step(20, False)], capacity) == 18
    assert staircase.next_grid([_step(20, True), _step(22, False)], capacity) == 21
    assert staircase.next_grid([_step(1, False)], capacity) == 0
    top = settings.GRID_TOP
    assert staircase.next_grid([_step(top, True)], capacity) == top


def test_staircase_estimate_is_the_median_delivered_rate_from_the_first_change():
    steps = [_step(16, True, 30000.0), _step(18, True, 34000.0), _step(20, False, 36000.0),
             _step(19, True, 37000.0), _step(20, True, 40000.0), _step(21, False, 39000.0)]
    assert staircase.estimate(steps) == 37000.0
    assert staircase.estimate(steps[:4]) == 36000.0
    assert staircase.estimate(steps[:2]) == 34000.0
    assert staircase.estimate([_step(20, False), _step(18, False)]) is None


def test_max_rate_falls_back_to_the_named_rungs_when_no_step_was_met():
    mid = {"name": "mid", "grid": 8, "met": True, "delivered_lps": 14990.0}
    assert run.max_rate([{"unit": "round", "rungs": [_step(20, False)]}, {"rungs": [mid]}]) == 14990.0
    assert run.max_rate([{"rungs": [_step(20, True, 39000.0), mid]}]) == 39000.0


@pytest.fixture(scope="module")
def offline_session(tmp_path_factory):
    inputs = str(tmp_path_factory.mktemp("inputs"))
    gen.generate("offline_logs", 5, inputs, scale="tiny")
    ctx = workloads.Context("offline_logs", inputs)
    part = ctx.parts[0]
    session = Pipeline(ctx.log_source(part)).run()
    return ctx.truth(part), session.trace.cags


def test_path_check_accepts_the_correct_output(offline_session):
    truth, cags = offline_session
    attempted, failed, errors = checks.check_paths(cags, truth)
    assert attempted == len(truth) > 0 and failed == 0 and errors == []


def test_path_check_catches_a_dropped_cag(offline_session):
    truth, cags = offline_session
    _attempted, failed, errors = checks.check_paths(cags[1:], truth)
    assert failed == 1 and errors


def test_path_check_catches_a_corrupted_cag(offline_session):
    truth, cags = offline_session
    victim = cags[0]
    original = victim.root.timestamp
    victim.root.timestamp = original + 1.0
    try:
        _attempted, failed, errors = checks.check_paths(cags, truth)
    finally:
        victim.root.timestamp = original
    assert failed == 1 and "start time mismatch" in errors[0]


def test_store_query_check_catches_a_wrong_answer(offline_session):
    _truth, cags = offline_session
    mix = checks.reference_mix(cags)
    assert checks.check_equal("mix", mix, checks.reference_mix(cags))[1] == 0
    tampered = [dict(row) for row in mix]
    tampered[0]["count"] += 1
    assert checks.check_equal("mix", mix, tampered)[1] == 1


def test_span_recorder_self_time_and_coverage():
    rec = SpanRecorder()
    with rec.span("job") as job:
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    assert [s.name for s in job.children] == ["a", "b"]
    children = sum(child.duration for child in job.children)
    assert rec.self_time(job) == pytest.approx(job.duration - children)
    assert 0.0 <= rec.coverage(job) <= 1.0
    payload = rec.to_json()
    assert [s["parent"] for s in payload["spans"]] == [None, 0, 0, 2]
