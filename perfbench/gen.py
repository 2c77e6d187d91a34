"""Load generator: simulate a workload's deployment and write its inputs.

Runs in its own process, before and apart from the measured one, and
hands over only files: per-node TCP_TRACE log files, the frontend
description each deployment's operator would know, and the simulator's
ground truth for the correctness checks.  Same ``--seed``, same files.

    python3 perfbench/gen.py --workload offline_logs --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from settings import SCALES, WORKLOADS

#: The skewed scale-out composite: scenario, client count and seed offset.
#: Node names are prefixed per scenario, so each part forms its own
#: causally-closed components; fan-out and the five-tier chain are heavy.
COMPOSITE_PARTS = (
    ("fanout_aggregator", 60, 11),
    ("replicated_lb", 40, 7),
    ("five_tier_chain", 50, 3),
    ("rubis", 30, 6),
)


def _stages(value):
    from repro import WorkloadStages

    return None if value is None else WorkloadStages(*value)


def _truth_payload(run, host_prefix: str) -> dict:
    return {
        str(rid): {
            "start": truth.start_time,
            "end": truth.end_time,
            "contexts": sorted(
                [host_prefix + host, *rest] for host, *rest in truth.contexts
            ),
        }
        for rid, truth in run.ground_truth.items()
    }


def _write_part(run, out: str, name: str, merged: bool = False, host_prefix: str = "") -> dict:
    """Write one simulated run's logs and truth under ``out/name``.

    ``host_prefix`` renames every node, for traces that combine several
    deployments whose host names would otherwise collide.
    """
    from dataclasses import replace

    from repro.core.log_format import format_record

    directory = os.path.join(out, name)
    os.makedirs(directory, exist_ok=True)
    logs = []
    lines = 0
    if merged:
        # One globally time-ordered feed: the order a live multi-node
        # feed delivers lines in.
        records = sorted(run.all_records(), key=lambda record: record.timestamp)
        groups = [("feed", records)]
    else:
        groups = sorted(run.records_by_node.items())
    for host, records in groups:
        path = os.path.join(name, f"{host}.log")
        with open(os.path.join(out, path), "w", encoding="utf-8") as handle:
            for record in records:
                if host_prefix:
                    record = replace(record, hostname=host_prefix + record.hostname)
                handle.write(format_record(record) + "\n")
        logs.append(path)
        lines += len(records)
    truth_path = os.path.join(name, "truth.json")
    with open(os.path.join(out, truth_path), "w", encoding="utf-8") as handle:
        json.dump(_truth_payload(run, host_prefix), handle)
    frontend = run.frontend_spec()
    return {
        "name": name,
        "scenario": run.topology.name,
        "logs": logs,
        "frontend": {
            "ip": frontend.ip,
            "port": frontend.port,
            "internal_ips": sorted(frontend.internal_ips),
        },
        "ignore_programs": sorted(run.topology.ignore_programs),
        "truth": truth_path,
        "lines": lines,
        "requests": len(run.ground_truth),
    }


def _stream_feed(seed: int, stages, out: str, name: str) -> dict:
    """Simulate one fan-out feed and write it as one time-ordered log."""
    from repro.topology.library import run_scenario

    run = run_scenario("fanout_aggregator", seed=seed, stages=_stages(stages))
    return _write_part(run, out, name, merged=True)


def generate(workload: str, seed: int, out: str, scale: str = "full") -> dict:
    """Simulate ``workload``'s inputs for ``seed`` into ``out``; return the manifest."""
    from repro import NoiseConfig, RubisConfig, run_rubis
    from repro.topology.library import run_scenario

    sizes = SCALES[scale]
    os.makedirs(out, exist_ok=True)
    parts = []
    if workload == "offline_logs":
        options = {}
        if sizes["offline_stages"] is not None:
            options["stages"] = _stages(sizes["offline_stages"])
        config = RubisConfig(
            clients=sizes["offline_clients"],
            noise=NoiseConfig.paper_noise(),
            seed=seed,
            **options,
        )
        parts.append(_write_part(run_rubis(config), out, "rubis"))
    elif workload == "stream_replay":
        # The feeds are independent; two worker processes at most.
        with ProcessPoolExecutor(max_workers=2) as pool:
            feeds = [
                pool.submit(
                    _stream_feed, seed * 100 + index, sizes["stream_stages"], out, f"feed{index}"
                )
                for index in range(sizes["stream_feeds"])
            ]
            parts.extend(feed.result() for feed in feeds)
    elif workload == "store_history":
        for index in range(sizes["store_runs"]):
            run = run_scenario(
                "cache_aside",
                seed=seed * 100 + index,
                stages=_stages(sizes["store_stages"]),
            )
            parts.append(_write_part(run, out, f"day{index}"))
    elif workload == "composite_sharded":
        stages = _stages(sizes["composite_stages"])
        for scenario, clients, offset in COMPOSITE_PARTS:
            run = run_scenario(
                scenario, seed=seed * 100 + offset, clients=clients, stages=stages
            )
            # RUBiS and replicated_lb both run mysqld on a host named
            # "db"; merged unrenamed, two machines would share one log.
            parts.append(_write_part(run, out, scenario, host_prefix=f"{scenario}-"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "scale": scale, "parts": parts}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
