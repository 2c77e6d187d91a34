"""PreciseTracer benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload offline_logs --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The run

1. simulates the workload's inputs from ``--seed`` in a separate load
   generator process (``gen.py``), which hands over only files;
2. runs one discarded warm-up process (resolves, and on a fresh
   checkout builds, the rank kernel; warms the page cache);
3. runs fresh measured processes (``child.py``), one job unit each,
   until ``--seconds`` of measurement are spent (at least ``MIN_UNITS``);
4. checks every output against its oracle, and prints a provenance line
   and then, as the last line, one JSON object: ``correct``,
   ``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
   of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
   ``--trace 1``.

Exit status: 0 when every check passed, 1 when a check failed (the
result line still says what was measured), 2 when the benchmark cannot
run here (no program source, a unit crashed).  Nothing is written
outside the checkout: inputs, the kernel build's temporary files and
stores live under ``.perfbench_work/``, which is removed at the end
except for the span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

import staircase
from settings import MIN_UNITS, SCALES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Per-process wall-clock ceiling for the generator and each unit.
PROCESS_TIMEOUT_S = 150

#: Units each workload runs: ``fixed`` once, then ``cycle`` round-robin
#: until the time budget is spent and at least ``MIN_UNITS`` jobs of the
#: primary kind (whose wall clocks give the throughput metrics) ran.  The
#: primary kind is ``PRIMARY``'s, or ``slice`` (whose closed-loop passes
#: are its jobs) on an untraced stream.
SCHEDULES = {
    False: {
        "offline_logs": ([], ["pass"]),
        "stream_replay": ([], ["slice"]),
        "store_history": ([], ["history"]),
        "composite_sharded": ([], ["shard"]),
    },
    True: {
        "offline_logs": ([], ["pass_traced", "pass"]),
        "stream_replay": (
            ["rung_low_traced", "rung_mid_traced", "rung_high_traced", "capacity_traced"],
            ["capacity"],
        ),
        "store_history": ([], ["history_traced", "history"]),
        "composite_sharded": ([], ["shard_traced", "shard"]),
    },
}
PRIMARY = {
    "offline_logs": "pass",
    "stream_replay": "capacity",
    "store_history": "history",
    "composite_sharded": "shard",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (not a wrong result)."""


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank percentile, the trace store's definition."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def load_metric_specs() -> Dict[str, List[dict]]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def child_env(work: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Keep every file the run writes (compiler temporaries included) in
    # the checkout, and stop git from searching above it.
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: List[str], env: Dict[str, str], label: str) -> str:
    """Run one benchmark process to completion; return its standard output."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=None,
            text=True,
            timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{label} did not finish within {PROCESS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{label} exited with status {proc.returncode}")
    return proc.stdout


def git_describe(env: Dict[str, str]) -> str:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def primary_kind(workload: str, trace: bool) -> str:
    return "slice" if workload == "stream_replay" and not trace else PRIMARY[workload]


def stair_steps(records: List[dict]) -> List[dict]:
    """The run's staircase steps so far, in order."""
    return [
        rung
        for record in records
        for rung in record.get("rungs", ())
        if rung["name"].startswith("stair_")
    ]


def samples(record: dict) -> List[dict]:
    """A unit's timed jobs of the primary kind: wall clock and counts."""
    return record.get("samples") or [{"job_s": record["job_s"], **record["counts"]}]


def run_units(args, work: str, inputs: str, env: Dict[str, str]) -> List[dict]:
    """Warm up once, then run measured units until the budget is spent."""
    base = ["perfbench/child.py", "--workload", args.workload, "--inputs", inputs]
    run_process([*base, "--unit", "warmup"], env, "warm-up process")
    fixed, cycle = SCHEDULES[bool(args.trace)][args.workload]
    primary = primary_kind(args.workload, bool(args.trace))
    least = 1 if args.trace else MIN_UNITS
    records: List[dict] = []
    started = time.perf_counter()
    cycled = 0
    took: Dict[str, float] = {}  # last duration of each unit kind
    while True:
        if len(records) < len(fixed):
            unit = fixed[len(records)]
        else:
            unit = cycle[cycled % len(cycle)]
            spent = time.perf_counter() - started
            done = sum(len(samples(r)) for r in records if r["unit"] == primary)
            if done >= least and cycled >= len(cycle) and spent + took[unit] > args.seconds:
                break
            cycled += 1
        argv = [*base, "--unit", unit]
        if unit == "slice":
            # Each slice starts one feed on, so its replays of the middle
            # rung fall on feeds no earlier slice replayed at that rate.
            steps = [{key: step[key] for key in ("grid", "met")} for step in stair_steps(records)]
            argv += [
                "--feed", str(sum(1 for r in records if r["unit"] == unit)),
                "--stairs", json.dumps(steps),
            ]
        if unit.endswith("_traced"):
            argv += ["--spans", os.path.join(work, f"spans-{len(records)}.json")]
        unit_start = time.perf_counter()
        out = run_process(argv, env, f"unit {unit}")
        took[unit] = time.perf_counter() - unit_start
        record = json.loads(out.strip().splitlines()[-1])
        record["wall_s"] = took[unit]
        record["spans_file"] = argv[-1] if unit.endswith("_traced") else None
        records.append(record)
    return records


def end_to_end(workload: str, records: List[dict]) -> Dict[str, float]:
    timed = [s for r in records if r["unit"] == primary_kind(workload, False) for s in samples(r)]

    def rate(count: str) -> float:
        # All of the run's timed work over all of its time: on a host that
        # alternates slow and fast spells this moves with the share of
        # each, where a median of a few jobs jumps between the two.
        return sum(s[count] for s in timed) / sum(s["job_s"] for s in timed)

    metrics = {
        "setup_s": median([r["setup_s"] for r in records]),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "lines_per_s": rate("lines"),
        "activities_per_s": rate("activities"),
        "ingest_requests_per_s": rate("requests"),
    }
    pooled = [latency for r in records for latency in r.get("emit_ms", ())]
    if pooled:
        # The stream's replays of the middle rung, each on its own feed:
        # percentiles over every request of every replay.
        metrics["emit_p50_ms"] = nearest_rank(pooled, 50)
        metrics["emit_p99_ms"] = nearest_rank(pooled, 99)
    else:
        # A batch job unit's requests all arrive together; the run reports
        # the median over units of each unit's percentiles.
        emit = [r for r in records if "emit_p50_ms" in r]
        metrics["emit_p50_ms"] = median([r["emit_p50_ms"] for r in emit])
        metrics["emit_p99_ms"] = median([r["emit_p99_ms"] for r in emit])
    metrics["max_rate_lps"] = (
        max_rate(records) if workload == "stream_replay" else metrics["lines_per_s"]
    )
    return metrics


def max_rate(records: List[dict]) -> float:
    """The staircase's estimate (the highest met named rung when no step
    was met)."""
    found = staircase.estimate(stair_steps(records))
    if found is not None:
        return found
    met = [rung for r in records for rung in r.get("rungs", ()) if rung["met"]]
    return max((rung["delivered_lps"] for rung in met), default=0.0)


def per_layer(workload: str, records: List[dict]) -> Dict[str, float]:
    traced = [r for r in records if r["unit"].endswith("_traced")]
    layers: Dict[str, float] = {}
    for key in sorted({key for r in traced for key in r["layers"]}):
        values = [r["layers"][key] for r in traced if key in r["layers"]]
        layers[key] = min(values) if key == "trace.coverage" else median(values)
    kind = PRIMARY[workload]
    plain = median([r["job_s"] for r in records if r["unit"] == kind])
    with_trace = median([r["job_s"] for r in records if r["unit"] == f"{kind}_traced"])
    layers["trace.overhead"] = with_trace / plain
    untraced = [r for r in records if not r["unit"].endswith("_traced")]
    queries = {}
    for r in untraced:
        for query_kind, samples in r.get("query_ms", {}).items():
            queries.setdefault(query_kind, []).extend(samples)
    for query_kind, samples in queries.items():
        if samples:
            layers[f"query.{query_kind}.p50_ms"] = nearest_rank(samples, 50)
    every = [sample for samples in queries.values() for sample in samples]
    if every:
        layers["query.p50_ms"] = nearest_rank(every, 50)
        layers["query.p99_ms"] = nearest_rank(every, 99)
    batches = [r["batch_s"] for r in records if "batch_s" in r]
    if batches:
        layers["batch.wall_s"] = median(batches)
        layers["shard.speedup_vs_batch"] = layers["batch.wall_s"] / plain
    attempted = sum(r["attempted"] for r in records)
    layers["error_rate"] = sum(r["failed"] for r in records) / max(1, attempted)
    return layers


def assemble(args, records: List[dict], specs: Dict[str, List[dict]]) -> dict:
    """The result object: every declared metric of this mode, with its unit."""
    if args.trace:
        values, declared = per_layer(args.workload, records), specs["per_layer"]
    else:
        values, declared = end_to_end(args.workload, records), specs["end_to_end"]
    # A layer the workload does not exercise did no work: 0.  Every
    # end-to-end metric is defined on every workload, so none may be missing.
    metrics = {
        spec["name"]: {
            "value": float(values.get(spec["name"], 0.0) if args.trace else values[spec["name"]]),
            "unit": spec["unit"],
        }
        for spec in declared
    }
    errors = [error for r in records for error in r["errors"]]
    digests = {r["digest"] for r in records if r.get("digest")}
    if len(digests) > 1:
        errors.append(f"CAG digests differ between job units: {sorted(digests)}")
    failed = sum(r["failed"] for r in records) + (1 if len(digests) > 1 else 0)
    return {
        "correct": not errors and failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
    }


def provenance(args, records: List[dict], env: Dict[str, str], manifest: dict) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel": records[0]["kernel"],
        "git_describe": git_describe(env),
        "inputs": records[-1]["counts"],
        "parts": [
            {key: part[key] for key in ("name", "scenario", "lines", "requests")}
            for part in manifest["parts"]
        ],
        "units": [
            {
                "unit": r["unit"],
                "job_s": [s["job_s"] for s in r["samples"]] if "samples" in r else r["job_s"],
                "setup_s": r["setup_s"],
                "rss_mb": r["rss_mb"],
                "wall_s": r["wall_s"],
            }
            for r in records
        ],
        "rungs": [rung for r in records for rung in r.get("rungs", ())] or None,
    }


def keep_spans(args, traced: List[dict]) -> None:
    """Collect every traced unit's spans into one file that outlives the run."""
    units = []
    for record in traced:
        with open(record["spans_file"], encoding="utf-8") as handle:
            units.append({"unit": record["unit"], **json.load(handle)})
    path = os.path.join(ROOT, ".perfbench_work", f"spans-{args.workload}-s{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "units": units}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="full", choices=sorted(SCALES), help="input size (tiny: smoke tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    work = os.path.join(
        ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    )
    inputs = os.path.join(work, "inputs")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    env = child_env(work)
    try:
        run_process(
            ["perfbench/gen.py", "--workload", args.workload, "--seed", str(args.seed),
             "--out", inputs, "--scale", args.scale],
            env,
            "load generator",
        )
        records = run_units(args, work, inputs, env)
        result = assemble(args, records, specs)
        traced = [r for r in records if r.get("spans_file")]
        if traced:
            keep_spans(args, traced)
        with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as handle:
            info = provenance(args, records, env, json.load(handle))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = result.pop("errors")
    info["error_rate"] = result["failed"] / max(1, result["attempted"])
    print(json.dumps({"provenance": info}))
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
