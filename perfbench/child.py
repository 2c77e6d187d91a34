"""Measured process: set the program up for one workload, run one job unit.

    python3 perfbench/child.py --workload W --inputs DIR --unit UNIT [--spans FILE]
        [--feed N] [--stairs JSON]

Set-up time runs from the start of ``main`` (before the program is
imported) to the end of the workload's set-up.  The unit's record is
printed as one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--unit", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--feed", type=int, default=0, help="stream feed to start on")
    parser.add_argument("--stairs", default="[]", help="the run's staircase steps so far, JSON")
    args = parser.parse_args(argv)

    import workloads  # imports the program: part of set-up

    ctx = workloads.setup(args.workload, args.inputs, args.feed)
    setup_s = time.perf_counter() - started
    record = {} if args.unit == "warmup" else workloads.run_unit(
        ctx, args.unit, args.feed, json.loads(args.stairs)
    )
    recorder = record.pop("recorder", None)
    if recorder is not None and args.spans:
        recorder.write(args.spans)
    record["unit"] = args.unit
    record["setup_s"] = setup_s
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["kernel"] = workloads.kernel_provenance()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
